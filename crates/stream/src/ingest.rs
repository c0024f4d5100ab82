//! Micro-batch ingestion: a bounded mailbox of edge events drained into
//! mutable PS state (neighbor table + degree vector), with watermark
//! tracking for freshness accounting.
//!
//! Backpressure is explicit: [`Ingestor::offer`] refuses events when the
//! mailbox is full, and the caller decides whether to drop, retry, or
//! drain a batch first — the same admission-control contract the serve
//! frontend uses for queries.

use std::sync::Arc;

use psgraph_net::bus::Mailbox;
use psgraph_net::rpc::NodeId;
use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, RecoveryMode, VectorHandle};
use psgraph_sim::{FxHashMap, NodeClock, SimTime, Watermark};

use crate::error::{Result, StreamError};
use crate::events::{EdgeEvent, EdgeOp};

/// Sizing for one [`Ingestor`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// PS object prefix: creates `{prefix}.adj` and `{prefix}.deg`.
    pub prefix: String,
    /// Mailbox capacity — the micro-batch size ceiling; `offer` sees
    /// backpressure beyond it.
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
    /// Micro-batches drained.
    pub batches: u64,
}

impl IngestStats {
    /// Fold another ingestor's counters in (shard aggregation).
    pub fn merge(&mut self, o: &IngestStats) {
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.applied_adds += o.applied_adds;
        self.applied_removes += o.applied_removes;
        self.skipped_dup_adds += o.skipped_dup_adds;
        self.skipped_missing_removes += o.skipped_missing_removes;
        self.batches += o.batches;
    }
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

/// Drains timestamped edge events into PS state in micro-batches.
pub struct Ingestor {
    mailbox: Mailbox<EdgeEvent>,
    /// The live out-neighbor table (`{prefix}.adj`), tombstone-backed.
    pub adjacency: NeighborTableHandle,
    /// Live out-degrees as f64 (`{prefix}.deg`), kept in lockstep.
    pub degrees: VectorHandle<f64>,
    watermark: Watermark,
    stats: IngestStats,
    n: u64,
}

impl Ingestor {
    pub fn create(ps: &Arc<Ps>, cfg: &IngestConfig, n: u64) -> Result<Ingestor> {
        let adjacency = NeighborTableHandle::create(
            ps,
            format!("{}.adj", cfg.prefix),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        let degrees = VectorHandle::<f64>::create(
            ps,
            format!("{}.deg", cfg.prefix),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        Ok(Ingestor::over(adjacency, degrees, cfg.mailbox_cap, n))
    }

    /// An ingestor over *existing* PS objects. The sharded router uses
    /// this so every shard writes the same adjacency table and degree
    /// vector (each shard owns a disjoint source range, so their writes
    /// never touch the same entry).
    pub fn over(
        adjacency: NeighborTableHandle,
        degrees: VectorHandle<f64>,
        mailbox_cap: usize,
        n: u64,
    ) -> Ingestor {
        Ingestor {
            mailbox: Mailbox::bounded(mailbox_cap),
            adjacency,
            degrees,
            watermark: Watermark::new(),
            stats: IngestStats::default(),
            n,
        }
    }

    /// Load the base graph (deduped) before the stream starts.
    pub fn bootstrap(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<()> {
        let mut lists: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for &(s, d) in edges {
            lists.entry(s).or_default().push(d);
        }
        let mut entries: Vec<(u64, Vec<u64>)> = lists.into_iter().collect();
        entries.sort_unstable_by_key(|&(s, _)| s);
        let (ids, degs): (Vec<u64>, Vec<f64>) =
            entries.iter().map(|(s, l)| (*s, l.len() as f64)).unzip();
        self.adjacency.push(client, &entries)?;
        self.degrees.push_set(client, &ids, &degs)?;
        Ok(())
    }

    /// Enqueue an event; `false` means the mailbox is full (backpressure)
    /// and the caller should drain a batch before retrying.
    pub fn offer(&mut self, from: NodeId, ev: EdgeEvent) -> bool {
        let ok = self.mailbox.try_post(from, ev.at, ev);
        if ok {
            self.stats.accepted += 1;
        } else {
            self.stats.rejected += 1;
        }
        ok
    }

    /// Events waiting in the mailbox.
    pub fn pending(&self) -> usize {
        self.mailbox.len()
    }

    /// The micro-batch size ceiling.
    pub fn capacity(&self) -> usize {
        self.mailbox.capacity()
    }

    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Max event time applied so far.
    pub fn watermark(&self) -> SimTime {
        self.watermark.now()
    }

    /// Record a sender-side retry after a refused [`Ingestor::offer`].
    pub fn note_offer_retry(&self) {
        self.mailbox.note_retry();
    }

    /// Crash recovery: drop any in-flight (undrained) events and rewind
    /// the watermark to `at` — the watermark recorded by the checkpoint
    /// the PS state was just rolled back to. The event-log replay then
    /// re-offers everything after the checkpoint; re-applying events the
    /// crashed run had already absorbed is safe because slot application
    /// is idempotent (duplicate adds and missing removes are skipped, and
    /// degree deltas derive from actual list changes).
    pub fn reset_for_replay(&mut self, at: SimTime) {
        self.mailbox.drain();
        self.watermark = Watermark::new();
        self.watermark.observe(at);
    }

    /// Drain the mailbox into the batch's event list (arrival order).
    pub(crate) fn drain_events(&mut self) -> Vec<EdgeEvent> {
        self.mailbox.drain().into_iter().map(|m| m.payload).collect()
    }

    /// Pull the current live out-lists for the batch's (sorted, deduped)
    /// sources, charged to `client`.
    pub(crate) fn pull_old(
        &self,
        client: &NodeClock,
        srcs: &[u64],
    ) -> Result<Vec<Vec<u64>>> {
        Ok(self.adjacency.pull(client, srcs)?.iter().map(|l| l.to_vec()).collect())
    }

    /// Apply the planned mutations to the PS (edge ops + degree deltas)
    /// on `client`'s clock, verifying the driver mirror against the
    /// table's own applied counts. No-op batches skip the RPCs entirely
    /// so they cannot dirty a partition (and so a cadence of pure
    /// duplicates never pays a delta swap).
    pub(crate) fn apply_planned(&self, client: &NodeClock, planned: &PlannedBatch) -> Result<()> {
        if !planned.applied.is_empty() {
            let (adds, removes) = self.adjacency.update_edges(client, &planned.ops)?;
            planned.check_table_counts(adds, removes)?;
        }
        if !planned.deg_ids.is_empty() {
            self.degrees.push_add(client, &planned.deg_ids, &planned.deg_deltas)?;
        }
        Ok(())
    }

    /// Fold a planned-and-applied batch into the lifetime counters and
    /// the watermark, yielding the maintainer-facing effect.
    pub(crate) fn commit(&mut self, planned: PlannedBatch) -> BatchEffect {
        self.stats.batches += 1;
        self.stats.applied_adds += planned.applied.iter().filter(|&&(_, _, a)| a).count() as u64;
        self.stats.applied_removes +=
            planned.applied.iter().filter(|&&(_, _, a)| !a).count() as u64;
        self.stats.skipped_dup_adds += planned.dup_adds;
        self.stats.skipped_missing_removes += planned.missing_removes;
        self.watermark.observe(planned.max_at);
        BatchEffect {
            effects: planned.effects,
            applied: planned.applied,
            drained: planned.drained,
            watermark: self.watermark.now(),
        }
    }

    /// Drain the mailbox and apply everything as one micro-batch: the
    /// neighbor table gets the interleaved add/remove sequence in arrival
    /// order, degrees get the net per-source delta, and the watermark
    /// advances to the newest applied event time.
    pub fn apply_pending(&mut self, client: &NodeClock) -> Result<BatchEffect> {
        let events = self.drain_events();
        if events.is_empty() {
            return Ok(BatchEffect { watermark: self.watermark.now(), ..Default::default() });
        }
        let srcs = batch_sources(&events);
        let old = self.pull_old(client, &srcs)?;
        let planned = plan_batch(&events, &srcs, old);
        self.apply_planned(client, &planned)?;
        Ok(self.commit(planned))
    }

    pub fn num_vertices(&self) -> u64 {
        self.n
    }
}

/// The sorted, deduped source set of a batch.
pub(crate) fn batch_sources(events: &[EdgeEvent]) -> Vec<u64> {
    let mut srcs: Vec<u64> = events.iter().map(|e| e.src).collect();
    srcs.sort_unstable();
    srcs.dedup();
    srcs
}

/// One micro-batch's mutations, fully decided driver-side but not yet
/// sent to the PS or folded into counters. Pure data: the sharded router
/// computes these on the worker pool, one shard per task.
pub(crate) struct PlannedBatch {
    /// Events drained (applied + skipped).
    pub(crate) drained: usize,
    /// Every op in arrival order (the table skips no-ops itself).
    pub(crate) ops: Vec<(u64, u64, bool)>,
    /// Ops that actually change the table, in arrival order.
    pub(crate) applied: Vec<(u64, u64, bool)>,
    /// For each entry of `applied`: the index into the batch's event list
    /// it came from — the router uses these to reconstruct the exact
    /// global arrival order across shards.
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

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_ps::PsConfig;

    fn ev(op: EdgeOp, src: u64, dst: u64, ms: u64) -> EdgeEvent {
        EdgeEvent { op, src, dst, at: SimTime::from_millis(ms) }
    }

    fn setup(cap: usize) -> (Ingestor, NodeClock) {
        let ps = Ps::new(PsConfig::default());
        let cfg = IngestConfig { mailbox_cap: cap, ..IngestConfig::default() };
        (Ingestor::create(&ps, &cfg, 16).unwrap(), NodeClock::new())
    }

    #[test]
    fn batch_applies_events_in_order_and_tracks_watermark() {
        let (mut ing, client) = setup(64);
        ing.bootstrap(&client, &[(0, 1), (0, 2), (3, 4)]).unwrap();
        for e in [
            ev(EdgeOp::Add, 0, 5, 1),
            ev(EdgeOp::Remove, 0, 1, 2),
            ev(EdgeOp::Add, 0, 1, 3),  // re-add after remove
            ev(EdgeOp::Add, 3, 4, 4),  // duplicate → skipped
            ev(EdgeOp::Remove, 3, 9, 5), // missing → skipped
        ] {
            assert!(ing.offer(NodeId::Driver, e));
        }
        let fx = ing.apply_pending(&client).unwrap();
        assert_eq!(fx.drained, 5);
        assert_eq!(fx.applied, vec![(0, 5, true), (0, 1, false), (0, 1, true)]);
        assert_eq!(fx.watermark, SimTime::from_millis(5));
        assert_eq!(ing.watermark(), SimTime::from_millis(5));

        // Effects carry old → new live lists; the table agrees.
        assert_eq!(fx.effects, vec![(0, vec![1, 2], vec![2, 5, 1])]);
        let live = ing.adjacency.pull(&client, &[0]).unwrap().remove(0);
        assert_eq!(live.as_slice(), &[2, 5, 1]);
        // Degrees track net deltas (source 0: 2 → 3; source 3 unchanged).
        assert_eq!(ing.degrees.pull(&client, &[0, 3]).unwrap(), vec![3.0, 1.0]);

        let st = ing.stats();
        assert_eq!(st.applied_adds, 2);
        assert_eq!(st.applied_removes, 1);
        assert_eq!(st.skipped_dup_adds, 1, "duplicate (3,4) add");
        assert_eq!(st.skipped_missing_removes, 1, "missing (3,9) remove");
        assert_eq!(st.batches, 1);
    }

    #[test]
    fn full_mailbox_pushes_back() {
        let (mut ing, client) = setup(2);
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 1, 2, 1)));
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 2, 3, 2)));
        assert!(!ing.offer(NodeId::Driver, ev(EdgeOp::Add, 3, 4, 3)), "backpressure");
        assert_eq!(ing.pending(), 2);
        assert_eq!(ing.stats().rejected, 1);
        let fx = ing.apply_pending(&client).unwrap();
        assert_eq!(fx.drained, 2);
        // Drained capacity admits the retry.
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 3, 4, 3)));
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let (mut ing, client) = setup(8);
        let fx = ing.apply_pending(&client).unwrap();
        assert_eq!(fx.drained, 0);
        assert!(fx.effects.is_empty() && fx.applied.is_empty());
        assert_eq!(ing.stats().batches, 0);
    }
}
