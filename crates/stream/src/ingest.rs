//! Micro-batch planning: what one drained batch of edge events does to
//! the PS state (neighbor table + degree vector), decided driver-side
//! before anything is written. The [`crate::ShardedIngestor`] plans each
//! lane's batch with `plan_batch` and reports the merged
//! [`BatchEffect`].

use psgraph_sim::{FxHashMap, SimTime};

use crate::error::{Result, StreamError};
use crate::events::{EdgeEvent, EdgeOp};

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
#[derive(Debug, Clone, Default)]
pub struct BatchEffect {
    /// Per touched source: `(src, live out-list before, after)`. Feeds
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

/// The sorted, deduped source set of a batch.
pub(crate) fn batch_sources(events: &[EdgeEvent]) -> Vec<u64> {
    let mut srcs: Vec<u64> = events.iter().map(|e| e.src).collect();
    srcs.sort_unstable();
    srcs.dedup();
    srcs
}

/// One micro-batch's mutations, fully decided driver-side but not yet
/// sent to the PS or folded into counters. Pure data: the ingestor
/// computes these on the worker pool, one lane per task.
pub(crate) struct PlannedBatch {
    /// Events drained (applied + skipped).
    pub(crate) drained: usize,
    /// Every op in arrival order (the table skips no-ops itself).
    pub(crate) ops: Vec<(u64, u64, bool)>,
    /// Ops that actually change the table, in arrival order.
    pub(crate) applied: Vec<(u64, u64, bool)>,
    /// For each entry of `applied`: the index into the batch's event list
    /// it came from — the ingestor uses these to reconstruct the exact
    /// global arrival order across lanes.
    pub(crate) applied_idx: Vec<usize>,
    /// Per touched source: `(src, live out-list before, after)`, sources
    /// ascending.
    pub(crate) effects: Vec<(u64, Vec<u64>, Vec<u64>)>,
    pub(crate) deg_ids: Vec<u64>,
    pub(crate) deg_deltas: Vec<f64>,
    pub(crate) dup_adds: u64,
    pub(crate) missing_removes: u64,
    pub(crate) max_at: SimTime,
}

impl PlannedBatch {
    /// Verify the table's applied counts against the driver mirror. Runs
    /// in release builds: a divergence here means the maintainers would
    /// be fed effects the table never made (or miss ones it did).
    pub(crate) fn check_table_counts(&self, adds: usize, removes: usize) -> Result<()> {
        let want_adds = self.applied.iter().filter(|&&(_, _, a)| a).count();
        let want_removes = self.applied.iter().filter(|&&(_, _, a)| !a).count();
        if (adds, removes) != (want_adds, want_removes) {
            return Err(StreamError::Invariant(format!(
                "driver mirror diverged from table semantics: table applied \
                 {adds} adds / {removes} removes, mirror expected \
                 {want_adds} / {want_removes}"
            )));
        }
        Ok(())
    }
}

/// Mirror the table's slot semantics driver-side (append if absent,
/// remove the first live occurrence) to learn which events actually
/// change state — the maintainers must see only those. Pure function of
/// the events and the pulled `old` lists (aligned with `srcs`).
pub(crate) fn plan_batch(events: &[EdgeEvent], srcs: &[u64], old: Vec<Vec<u64>>) -> PlannedBatch {
    let mut working: FxHashMap<u64, Vec<u64>> =
        srcs.iter().cloned().zip(old.iter().cloned()).collect();
    let mut ops: Vec<(u64, u64, bool)> = Vec::with_capacity(events.len());
    let mut applied: Vec<(u64, u64, bool)> = Vec::new();
    let mut applied_idx: Vec<usize> = Vec::new();
    let mut dup_adds = 0u64;
    let mut missing_removes = 0u64;
    let mut max_at = SimTime::ZERO;
    for (j, ev) in events.iter().enumerate() {
        max_at = max_at.max(ev.at);
        let list = working.get_mut(&ev.src).expect("src pulled");
        match ev.op {
            EdgeOp::Add => {
                ops.push((ev.src, ev.dst, true));
                if list.contains(&ev.dst) {
                    dup_adds += 1;
                } else {
                    list.push(ev.dst);
                    applied.push((ev.src, ev.dst, true));
                    applied_idx.push(j);
                }
            }
            EdgeOp::Remove => {
                ops.push((ev.src, ev.dst, false));
                match list.iter().position(|&x| x == ev.dst) {
                    Some(i) => {
                        list.remove(i);
                        applied.push((ev.src, ev.dst, false));
                        applied_idx.push(j);
                    }
                    None => missing_removes += 1,
                }
            }
        }
    }

    let mut effects: Vec<(u64, Vec<u64>, Vec<u64>)> = Vec::with_capacity(srcs.len());
    let mut deg_ids: Vec<u64> = Vec::new();
    let mut deg_deltas: Vec<f64> = Vec::new();
    for (s, o) in srcs.iter().zip(old) {
        let new = working.remove(s).expect("src present");
        if new != o {
            let delta = new.len() as f64 - o.len() as f64;
            if delta != 0.0 {
                deg_ids.push(*s);
                deg_deltas.push(delta);
            }
            effects.push((*s, o, new));
        }
    }
    PlannedBatch {
        drained: events.len(),
        ops,
        applied,
        applied_idx,
        effects,
        deg_ids,
        deg_deltas,
        dup_adds,
        missing_removes,
        max_at,
    }
}
