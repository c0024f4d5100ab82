//! What a micro-batch is and what it did: the ingestor's sizing, its
//! lifetime counters, and the [`BatchEffect`] one drain reports. The
//! table decides which events take effect — the
//! [`crate::ShardedIngestor`] reads the effect off the report of its one
//! write ([`psgraph_ps::NeighborTableHandle::update_edges_sharded`]).

use psgraph_sim::SimTime;

/// Sizing for a [`crate::ShardedIngestor`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// PS object prefix: creates `{prefix}.adj` and `{prefix}.deg`.
    pub prefix: String,
    /// Capacity of each lane's mailbox — the micro-batch size ceiling;
    /// `offer` sees backpressure beyond it.
    pub mailbox_cap: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { prefix: "stream".into(), mailbox_cap: 4096 }
    }
}

/// Lifetime counters across every applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events accepted into the mailbox.
    pub accepted: u64,
    /// Events refused by a full mailbox.
    pub rejected: u64,
    /// Adds applied to the table (duplicates excluded).
    pub applied_adds: u64,
    /// Removes applied to the table (misses excluded).
    pub applied_removes: u64,
    /// Adds skipped because the edge was already live (at-least-once
    /// delivery redelivers adds; replay after recovery re-offers them).
    pub skipped_dup_adds: u64,
    /// Removes skipped because the edge was absent. Kept separate from
    /// duplicate adds so replay-idempotence diagnostics can tell
    /// redelivered adds from removes racing ahead of their adds.
    pub skipped_missing_removes: u64,
    /// Micro-batches drained that held at least one event.
    pub batches: u64,
}

/// What one micro-batch did — everything the incremental maintainers
/// need, with no second trip to the PS.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchEffect {
    /// Per source whose live out-list changed, ascending: `(src, list
    /// before, after)`. Feeds
    /// [`psgraph_core::algos::IncrementalPageRank::on_batch`].
    pub effects: Vec<(u64, Vec<u64>, Vec<u64>)>,
    /// Events that actually changed the table, in arrival order, as
    /// `(src, dst, is_add)`. Feeds
    /// [`psgraph_core::algos::IncrementalCc::on_batch`].
    pub applied: Vec<(u64, u64, bool)>,
    /// Events drained from the mailbox (applied + skipped).
    pub drained: usize,
    /// Max event time observed so far (the watermark after this batch).
    pub watermark: SimTime,
}
