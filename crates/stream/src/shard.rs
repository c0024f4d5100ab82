//! Sharded multi-writer ingest: the event stream split across N
//! ingestor mailboxes keyed by edge owner (`src` range tiling — the same
//! `query::part` math the serving tier shards by), drained in parallel,
//! with freshness merged as the **min across shard watermarks**.
//!
//! Every shard is a full [`Ingestor`] — its own bounded mailbox, its own
//! [`psgraph_sim::Watermark`], its own lifetime counters — but all
//! shards write *one* adjacency table and *one* degree vector: shard `i`
//! owns the contiguous source range `vertex_range(i)`, so no two shards
//! ever touch the same entry and the final PS state is bit-identical to
//! a single-ingestor run over the same events.
//!
//! Determinism (DESIGN.md §6): the wall-clock-parallel stages are the
//! pure per-shard mirror computation (`plan_batch` on the worker pool)
//! and the per-partition table writes
//! ([`NeighborTableHandle::update_edges_sharded`]); every RPC charge and
//! every merge fold runs serially in canonical shard order, so both the
//! results and the simulated-time accounting are identical for every
//! pool size and claim schedule.
//!
//! Watermark rule: the merged watermark is `min` over the *effective*
//! shard watermarks — a fast shard must not mask a straggler, so a shard
//! with undrained events holds the merge back at its own watermark. A
//! shard that is fully drained counts as caught up to the newest event
//! routed anywhere (`routed`): an idle shard (nothing in its key range
//! lately) must not pin global freshness at its last event either. The
//! merge is folded through a monotone [`Watermark`] ratchet, so observed
//! freshness never moves backwards even when shards drain out of order.

use std::sync::Arc;

use psgraph_harness::Pool;
use psgraph_net::rpc::NodeId;
use psgraph_ps::{NeighborTableHandle, Ps, VectorHandle};
use psgraph_sim::{NodeClock, SimTime, Watermark};

use crate::error::Result;
use crate::events::EdgeEvent;
use crate::ingest::{
    batch_sources, plan_batch, BatchEffect, IngestConfig, IngestStats, Ingestor,
};

/// Routes edge events to per-owner ingestor shards and drains them as
/// one logical micro-batch with a min-merged watermark.
pub struct ShardedIngestor {
    shards: Vec<Ingestor>,
    /// Per-shard writer clocks: each shard is its own ingest node, so
    /// shard RPC costs accrue independently (the whole point of sharding
    /// the write path).
    clocks: Vec<NodeClock>,
    /// Global arrival sequence numbers of each shard's undrained events,
    /// FIFO-aligned with its mailbox — how the drain reconstructs the
    /// exact cross-shard arrival order for the maintainers.
    pending_seqs: Vec<Vec<u64>>,
    seq: u64,
    /// Newest event time accepted into any mailbox.
    routed: Watermark,
    /// The monotone min-merged watermark.
    merged: Watermark,
    n: u64,
    /// The deployment's pool (`Ps::pool`): batches are planned on it.
    pool: Arc<Pool>,
}

impl ShardedIngestor {
    /// `shards` ingestors over one shared `{prefix}.adj` / `{prefix}.deg`
    /// pair, each with its own `mailbox_cap`-bounded mailbox.
    pub fn create(
        ps: &Arc<Ps>,
        cfg: &IngestConfig,
        n: u64,
        shards: usize,
    ) -> Result<ShardedIngestor> {
        assert!(shards >= 1, "need at least one shard");
        let first = Ingestor::create(ps, cfg, n)?;
        let (adj, deg) = (first.adjacency.clone(), first.degrees.clone());
        let mut all = vec![first];
        for _ in 1..shards {
            all.push(Ingestor::over(adj.clone(), deg.clone(), cfg.mailbox_cap, n));
        }
        Ok(ShardedIngestor {
            clocks: (0..shards).map(|_| NodeClock::new()).collect(),
            pending_seqs: vec![Vec::new(); shards],
            seq: 0,
            shards: all,
            routed: Watermark::new(),
            merged: Watermark::new(),
            n,
            pool: Arc::clone(ps.pool()),
        })
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// The shared adjacency table every shard writes.
    pub fn adjacency(&self) -> &NeighborTableHandle {
        &self.shards[0].adjacency
    }

    /// The shared degree vector every shard writes.
    pub fn degrees(&self) -> &VectorHandle<f64> {
        &self.shards[0].degrees
    }

    /// Load the base graph (deduped) before the stream starts.
    pub fn bootstrap(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<()> {
        self.shards[0].bootstrap(client, edges)
    }

    /// Which shard owns `ev` (contiguous source-range tiling).
    pub fn owner(&self, ev: &EdgeEvent) -> usize {
        ev.owner(self.n, self.shards.len())
    }

    /// Route an event to its owner shard's mailbox; `false` means that
    /// shard is full (backpressure) and the caller should drain.
    pub fn offer(&mut self, from: NodeId, ev: EdgeEvent) -> bool {
        let s = self.owner(&ev);
        let ok = self.shards[s].offer(from, ev);
        if ok {
            self.routed.observe(ev.at);
            self.pending_seqs[s].push(self.seq);
            self.seq += 1;
        }
        ok
    }

    /// Record a sender-side retry after a refused offer of `ev` (charged
    /// to the owner shard's mailbox, like the offer itself).
    pub fn note_offer_retry(&self, ev: &EdgeEvent) {
        self.shards[self.owner(ev)].note_offer_retry();
    }

    /// Events waiting across all shard mailboxes.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(Ingestor::pending).sum()
    }

    /// Aggregate lifetime counters across shards.
    pub fn stats(&self) -> IngestStats {
        let mut acc = IngestStats::default();
        for sh in &self.shards {
            acc.merge(&sh.stats());
        }
        acc
    }

    /// The min-merged watermark: `min` over effective shard watermarks
    /// (a fully drained shard counts as caught up to the newest routed
    /// event), ratcheted so it never regresses as shards drain out of
    /// order.
    pub fn watermark(&self) -> SimTime {
        let routed = self.routed.now();
        let eff_min = self
            .shards
            .iter()
            .map(|sh| {
                if sh.pending() == 0 {
                    sh.watermark().max(routed)
                } else {
                    sh.watermark()
                }
            })
            .min()
            .unwrap_or(routed);
        self.merged.observe(eff_min);
        self.merged.now()
    }

    /// Crash recovery: drop undrained events everywhere and rewind every
    /// watermark to `at` (the checkpoint the PS state rolled back to) —
    /// the per-shard analogue of [`Ingestor::reset_for_replay`].
    pub fn reset_for_replay(&mut self, at: SimTime) {
        for sh in &mut self.shards {
            sh.reset_for_replay(at);
        }
        for q in &mut self.pending_seqs {
            q.clear();
        }
        self.routed = Watermark::new();
        self.routed.observe(at);
        self.merged = Watermark::new();
        self.merged.observe(at);
    }

    /// Drain every shard as one logical micro-batch:
    ///
    /// 1. *serial, shard order* — drain each mailbox and pull the old
    ///    out-lists on the shard's own clock;
    /// 2. *parallel on the pool* — plan each shard's mutations (the
    ///    driver-side mirror of the table's slot semantics, pure CPU);
    /// 3. *concurrent per-partition writes* — one
    ///    [`NeighborTableHandle::update_edges_sharded`] call applies all
    ///    shards' lanes, charging each to its own clock, verifying each
    ///    shard's mirror against the table's applied counts;
    /// 4. *serial, shard order* — degree deltas, then commit each shard's
    ///    counters and watermark.
    ///
    /// The returned effect is the exact single-ingestor equivalent:
    /// `effects` concatenated in shard order is globally source-sorted
    /// (ranges ascend), and `applied` is re-interleaved into global
    /// arrival order via the sequence numbers recorded at offer time.
    pub fn drain_all(&mut self) -> Result<BatchEffect> {
        let shards = self.shards.len();
        let mut batches: Vec<(Vec<EdgeEvent>, Vec<u64>, Vec<Vec<u64>>)> =
            Vec::with_capacity(shards);
        let mut seqs: Vec<Vec<u64>> = Vec::with_capacity(shards);
        for i in 0..shards {
            let events = self.shards[i].drain_events();
            seqs.push(std::mem::take(&mut self.pending_seqs[i]));
            let srcs = batch_sources(&events);
            let old = self.shards[i].pull_old(&self.clocks[i], &srcs)?;
            batches.push((events, srcs, old));
        }

        let planned = self.pool.map(batches, |(events, srcs, old)| {
            plan_batch(&events, &srcs, old)
        });

        let lanes: Vec<(usize, (&NodeClock, &[(u64, u64, bool)]))> = planned
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.applied.is_empty())
            .map(|(i, p)| (i, (&self.clocks[i], p.ops.as_slice())))
            .collect();
        if !lanes.is_empty() {
            let lane_refs: Vec<(&NodeClock, &[(u64, u64, bool)])> =
                lanes.iter().map(|&(_, l)| l).collect();
            let counts = self.shards[0].adjacency.update_edges_sharded(&lane_refs)?;
            for (&(i, _), &(adds, removes)) in lanes.iter().zip(&counts) {
                planned[i].check_table_counts(adds, removes)?;
            }
        }
        for (i, p) in planned.iter().enumerate() {
            if !p.deg_ids.is_empty() {
                self.shards[i].degrees.push_add(&self.clocks[i], &p.deg_ids, &p.deg_deltas)?;
            }
        }

        let mut merged = BatchEffect::default();
        let mut applied_seq: Vec<(u64, (u64, u64, bool))> = Vec::new();
        for (i, p) in planned.into_iter().enumerate() {
            if p.drained == 0 {
                continue;
            }
            for (&j, &op) in p.applied_idx.iter().zip(&p.applied) {
                applied_seq.push((seqs[i][j], op));
            }
            let fx = self.shards[i].commit(p);
            merged.drained += fx.drained;
            merged.effects.extend(fx.effects);
        }
        applied_seq.sort_unstable_by_key(|&(s, _)| s);
        merged.applied = applied_seq.into_iter().map(|(_, op)| op).collect();
        merged.watermark = self.watermark();
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EdgeOp;
    use psgraph_ps::PsConfig;

    fn ev(op: EdgeOp, src: u64, dst: u64, ms: u64) -> EdgeEvent {
        EdgeEvent { op, src, dst, at: SimTime::from_millis(ms) }
    }

    fn setup(shards: usize, n: u64) -> ShardedIngestor {
        let ps = Ps::new(PsConfig::default());
        let cfg = IngestConfig { mailbox_cap: 64, ..IngestConfig::default() };
        ShardedIngestor::create(&ps, &cfg, n, shards).unwrap()
    }

    #[test]
    fn routes_by_owner_and_matches_single_ingestor() {
        // 16 vertices / 2 shards: sources 0..8 to shard 0, 8..16 to 1.
        let mut sharded = setup(2, 16);
        let client = NodeClock::new();
        sharded.bootstrap(&client, &[(0, 1), (9, 2)]).unwrap();

        let events = [
            ev(EdgeOp::Add, 9, 5, 1),
            ev(EdgeOp::Add, 0, 5, 2),
            ev(EdgeOp::Remove, 0, 1, 3),
            ev(EdgeOp::Add, 9, 5, 4), // duplicate → skipped on shard 1
            ev(EdgeOp::Add, 0, 1, 5),
        ];
        for e in events {
            assert!(sharded.offer(NodeId::Driver, e));
        }
        assert_eq!(sharded.pending(), 5);
        let fx = sharded.drain_all().unwrap();
        assert_eq!(fx.drained, 5);
        // Applied re-interleaved into exact global arrival order.
        assert_eq!(
            fx.applied,
            vec![(9, 5, true), (0, 5, true), (0, 1, false), (0, 1, true)]
        );
        // Effects concatenated in shard order = source-sorted.
        let effect_srcs: Vec<u64> = fx.effects.iter().map(|e| e.0).collect();
        assert_eq!(effect_srcs, vec![0, 9]);
        assert_eq!(fx.watermark, SimTime::from_millis(5));

        let st = sharded.stats();
        assert_eq!(st.applied_adds, 3);
        assert_eq!(st.applied_removes, 1);
        assert_eq!(st.skipped_dup_adds, 1);
        assert_eq!(sharded.shards[0].stats().applied_adds, 2);
        assert_eq!(sharded.shards[1].stats().skipped_dup_adds, 1);

        // The shared table holds the merged result.
        let live = sharded.adjacency().pull(&client, &[0, 9]).unwrap();
        assert_eq!(live[0].as_slice(), &[5, 1]);
        assert_eq!(live[1].as_slice(), &[2, 5]);
    }

    #[test]
    fn merged_watermark_waits_for_undrained_events() {
        let mut sharded = setup(2, 16);
        // Events land on both shards: undrained, they hold the merge.
        assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, 1, 2, 10)));
        assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, 9, 3, 20)));
        assert_eq!(sharded.watermark(), SimTime::ZERO);

        // Both drained → merged jumps to the newest routed event.
        sharded.drain_all().unwrap();
        assert_eq!(sharded.watermark(), SimTime::from_millis(20));

        // Out-of-order progress never regresses the ratchet: new events
        // arrive for shard 0 only; shard 1 is idle-but-drained, so the
        // merge advances with shard 0, not back to shard 1's last event.
        assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, 2, 4, 40)));
        let before = sharded.watermark();
        assert_eq!(before, SimTime::from_millis(20), "undrained event holds the merge");
        sharded.drain_all().unwrap();
        assert_eq!(sharded.watermark(), SimTime::from_millis(40));
    }

    #[test]
    fn idle_shard_does_not_pin_freshness() {
        let mut sharded = setup(4, 16);
        // Every event lands in shard 0's range; shards 1..3 stay idle.
        for t in 1..=5u64 {
            assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, 0, t, t)));
        }
        sharded.drain_all().unwrap();
        assert_eq!(
            sharded.watermark(),
            SimTime::from_millis(5),
            "idle shards count as caught up to the newest routed event"
        );
    }

    #[test]
    fn reset_for_replay_rewinds_every_shard() {
        let mut sharded = setup(2, 16);
        for t in 1..=4u64 {
            assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, (t * 5) % 16, t, t * 10)));
        }
        sharded.drain_all().unwrap();
        assert_eq!(sharded.watermark(), SimTime::from_millis(40));
        sharded.reset_for_replay(SimTime::from_millis(20));
        assert_eq!(sharded.pending(), 0);
        assert_eq!(sharded.watermark(), SimTime::from_millis(20));
        for sh in &sharded.shards {
            assert_eq!(sh.watermark(), SimTime::from_millis(20));
        }
    }
}
