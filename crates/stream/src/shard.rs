//! The ingestor: the event stream split across N owner-keyed lanes
//! (`src` range tiling — the same `query::part` math the serving tier
//! shards by), drained in parallel as one logical micro-batch, with
//! freshness merged as the **min across lane watermarks**.
//!
//! A lane is a bounded mailbox, a writer clock, a watermark and the
//! arrival sequence numbers of its undrained events. The `{prefix}.adj`
//! neighbor table, the `{prefix}.deg` degree vector and the lifetime
//! [`IngestStats`] belong to the ingestor: lane `i` owns the contiguous
//! source range `vertex_range(i)`, so no two lanes ever touch the same
//! entry and the final PS state is bit-identical at every lane count.
//! One lane is the plain single-writer ingestor.
//!
//! Backpressure is explicit: [`ShardedIngestor::offer`] refuses an event
//! when its lane's mailbox is full, and the caller decides whether to
//! drop, retry, or drain a batch first — the same admission-control
//! contract the serve frontend uses for queries.
//!
//! A drain is one table write for all lanes
//! ([`NeighborTableHandle::update_edges_sharded`]), which reports what
//! each lane's events did; the ingestor keeps no copy of the table and
//! decides nothing the table does not.
//!
//! Determinism (DESIGN.md §6): the only wall-clock-parallel stage is the
//! table's per-partition writes on the PS pool; every RPC charge and
//! every merge fold runs serially in canonical lane order, so both the
//! results and the simulated-time accounting are identical for every
//! pool size and claim schedule.
//!
//! Watermark rule: the merged watermark is `min` over the *effective*
//! lane watermarks — a fast lane must not mask a straggler, so a lane
//! with undrained events holds the merge back at its own watermark. A
//! lane that is fully drained counts as caught up to the newest event
//! routed anywhere (`routed`): an idle lane (nothing in its key range
//! lately) must not pin global freshness at its last event either. The
//! merge is folded through a monotone [`Watermark`] ratchet, so observed
//! freshness never moves backwards even when lanes drain out of order.

use std::sync::Arc;

use psgraph_net::bus::Mailbox;
use psgraph_net::rpc::NodeId;
use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, RecoveryMode, VectorHandle};
use psgraph_sim::{FxHashMap, NodeClock, SimTime, Watermark};

use crate::error::Result;
use crate::events::{EdgeEvent, EdgeOp};
use crate::ingest::{BatchEffect, IngestConfig, IngestStats};

/// One owner-keyed writer of the ingestor.
struct Lane {
    mailbox: Mailbox<EdgeEvent>,
    /// Each lane is its own ingest node, so its RPC costs accrue on its
    /// own clock (the whole point of sharding the write path).
    clock: NodeClock,
    /// Max event time this lane has applied.
    watermark: Watermark,
    /// Global arrival sequence numbers of the undrained events,
    /// FIFO-aligned with the mailbox — how the drain reconstructs the
    /// exact cross-lane arrival order for the maintainers.
    seqs: Vec<u64>,
}

impl Lane {
    fn new(mailbox_cap: usize) -> Lane {
        Lane {
            mailbox: Mailbox::bounded(mailbox_cap),
            clock: NodeClock::new(),
            watermark: Watermark::new(),
            seqs: Vec::new(),
        }
    }

    /// The lane's watermark as the merge sees it: a drained lane is
    /// caught up to `routed`.
    fn effective_watermark(&self, routed: SimTime) -> SimTime {
        if self.mailbox.is_empty() {
            self.watermark.now().max(routed)
        } else {
            self.watermark.now()
        }
    }
}

/// Drains timestamped edge events into PS state in micro-batches: routes
/// each event to its owner lane and drains every lane as one logical
/// micro-batch with a min-merged watermark.
pub struct ShardedIngestor {
    lanes: Vec<Lane>,
    /// The live out-neighbor table (`{prefix}.adj`), tombstone-backed.
    adjacency: NeighborTableHandle,
    /// Live out-degrees as f64 (`{prefix}.deg`), kept in lockstep.
    degrees: VectorHandle<f64>,
    stats: IngestStats,
    /// The next arrival sequence number.
    seq: u64,
    /// Newest event time accepted into any mailbox.
    routed: Watermark,
    /// The monotone min-merged watermark.
    merged: Watermark,
    n: u64,
}

impl ShardedIngestor {
    /// Create `{prefix}.adj` / `{prefix}.deg` over `n` vertices and
    /// `shards` lanes, each with its own `mailbox_cap`-bounded mailbox.
    pub fn create(
        ps: &Arc<Ps>,
        cfg: &IngestConfig,
        n: u64,
        shards: usize,
    ) -> Result<ShardedIngestor> {
        assert!(shards >= 1, "need at least one shard");
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
        Ok(ShardedIngestor {
            lanes: (0..shards).map(|_| Lane::new(cfg.mailbox_cap)).collect(),
            adjacency,
            degrees,
            stats: IngestStats::default(),
            seq: 0,
            routed: Watermark::new(),
            merged: Watermark::new(),
            n,
        })
    }

    /// The adjacency table every lane writes.
    pub fn adjacency(&self) -> &NeighborTableHandle {
        &self.adjacency
    }

    /// The degree vector every lane writes.
    pub fn degrees(&self) -> &VectorHandle<f64> {
        &self.degrees
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

    /// Which lane owns `ev` (contiguous source-range tiling).
    pub fn owner(&self, ev: &EdgeEvent) -> usize {
        ev.owner(self.n, self.lanes.len())
    }

    /// Route an event to its owner lane's mailbox; `false` means that
    /// lane is full (backpressure) and the caller should drain.
    pub fn offer(&mut self, from: NodeId, ev: EdgeEvent) -> bool {
        let s = self.owner(&ev);
        let lane = &mut self.lanes[s];
        let ok = lane.mailbox.try_post(from, ev.at, ev);
        if ok {
            self.stats.accepted += 1;
            self.routed.observe(ev.at);
            lane.seqs.push(self.seq);
            self.seq += 1;
        } else {
            self.stats.rejected += 1;
        }
        ok
    }

    /// Record a sender-side retry after a refused offer of `ev` (charged
    /// to the owner lane's mailbox, like the offer itself).
    pub fn note_offer_retry(&self, ev: &EdgeEvent) {
        self.lanes[self.owner(ev)].mailbox.note_retry();
    }

    /// Events waiting across all lane mailboxes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|lane| lane.mailbox.len()).sum()
    }

    /// The micro-batch size ceiling: a batch of at most this many events
    /// fits even when every event routes to one lane.
    pub(crate) fn capacity(&self) -> usize {
        self.lanes[0].mailbox.capacity()
    }

    /// Lifetime counters across every drained batch.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Each lane's writer clock, in lane order: the sim time its own
    /// requests have taken so far.
    pub fn lane_times(&self) -> Vec<SimTime> {
        self.lanes.iter().map(|lane| lane.clock.now()).collect()
    }

    /// The min-merged watermark: `min` over effective lane watermarks
    /// (a fully drained lane counts as caught up to the newest routed
    /// event), ratcheted so it never regresses as lanes drain out of
    /// order.
    pub fn watermark(&self) -> SimTime {
        let routed = self.routed.now();
        let eff_min = self.lanes.iter().map(|lane| lane.effective_watermark(routed)).min();
        self.merged.observe(eff_min.unwrap_or(routed));
        self.merged.now()
    }

    /// Crash recovery: drop any in-flight (undrained) events and rewind
    /// every watermark to `at` — the watermark recorded by the checkpoint
    /// the PS state was just rolled back to. The event-log replay then
    /// re-offers everything after the checkpoint; re-applying events the
    /// crashed run had already absorbed is safe because slot application
    /// is idempotent (duplicate adds and missing removes are skipped, and
    /// degree deltas derive from actual list changes).
    pub fn reset_for_replay(&mut self, at: SimTime) {
        let rewound = || {
            let w = Watermark::new();
            w.observe(at);
            w
        };
        for lane in &mut self.lanes {
            lane.mailbox.drain();
            lane.seqs.clear();
            lane.watermark = rewound();
        }
        self.routed = rewound();
        self.merged = rewound();
    }

    /// Drain every lane as one logical micro-batch:
    ///
    /// 1. *one table write* — each non-empty lane's events, in arrival
    ///    order, go to [`NeighborTableHandle::update_edges_sharded`] as
    ///    that lane's ops, one request on the lane's own clock; the table
    ///    reports which took effect and each touched source's live list
    ///    before and after;
    /// 2. *serial, lane order* — degree deltas from the before and after
    ///    lengths, then each lane's counters and watermark.
    ///
    /// Degrees are pushed only where a length moved, so a batch that
    /// changes nothing dirties no partition (and a cadence of pure
    /// duplicates never pays a delta swap). In the returned effect,
    /// `effects` concatenated in lane order is globally source-sorted
    /// (ranges ascend), and `applied` is re-interleaved into global
    /// arrival order via the sequence numbers recorded at offer time.
    pub fn drain_all(&mut self) -> Result<BatchEffect> {
        let mut drained: Vec<(usize, Vec<EdgeEvent>, Vec<u64>)> = Vec::new();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let events: Vec<EdgeEvent> =
                lane.mailbox.drain().into_iter().map(|m| m.payload).collect();
            if !events.is_empty() {
                drained.push((i, events, std::mem::take(&mut lane.seqs)));
            }
        }
        let ops: Vec<Vec<(u64, u64, bool)>> = drained
            .iter()
            .map(|(_, events, _)| {
                events.iter().map(|ev| (ev.src, ev.dst, ev.op == EdgeOp::Add)).collect()
            })
            .collect();
        let writes: Vec<(&NodeClock, &[(u64, u64, bool)])> = drained
            .iter()
            .zip(&ops)
            .map(|((i, _, _), ops)| (&self.lanes[*i].clock, ops.as_slice()))
            .collect();
        let reports = self.adjacency.update_edges_sharded(&writes)?;

        let mut merged = BatchEffect::default();
        let mut applied_seq: Vec<(u64, (u64, u64, bool))> = Vec::new();
        for (((i, events, seqs), ops), report) in drained.into_iter().zip(&ops).zip(reports) {
            let lane = &mut self.lanes[i];
            let effects: Vec<(u64, Vec<u64>, Vec<u64>)> =
                report.lists.into_iter().filter(|(_, before, after)| before != after).collect();
            let (deg_ids, deg_deltas): (Vec<u64>, Vec<f64>) = effects
                .iter()
                .filter(|(_, before, after)| before.len() != after.len())
                .map(|(src, before, after)| (*src, after.len() as f64 - before.len() as f64))
                .unzip();
            if !deg_ids.is_empty() {
                self.degrees.push_add(&lane.clock, &deg_ids, &deg_deltas)?;
            }
            for ((&op, &took), seq) in ops.iter().zip(&report.took_effect).zip(seqs) {
                let counter = match (op.2, took) {
                    (true, true) => &mut self.stats.applied_adds,
                    (false, true) => &mut self.stats.applied_removes,
                    (true, false) => &mut self.stats.skipped_dup_adds,
                    (false, false) => &mut self.stats.skipped_missing_removes,
                };
                *counter += 1;
                if took {
                    applied_seq.push((seq, op));
                }
            }
            lane.watermark.observe(events.iter().map(|ev| ev.at).max().unwrap_or(SimTime::ZERO));
            merged.drained += events.len();
            merged.effects.extend(effects);
        }
        if merged.drained > 0 {
            self.stats.batches += 1;
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

    fn setup_cap(shards: usize, n: u64, cap: usize) -> ShardedIngestor {
        let ps = Ps::new(PsConfig::default());
        let cfg = IngestConfig { mailbox_cap: cap, ..IngestConfig::default() };
        ShardedIngestor::create(&ps, &cfg, n, shards).unwrap()
    }

    fn setup(shards: usize, n: u64) -> ShardedIngestor {
        setup_cap(shards, n, 64)
    }

    #[test]
    fn batch_applies_events_in_order_and_tracks_watermark() {
        let mut ing = setup(1, 16);
        let client = NodeClock::new();
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
        let fx = ing.drain_all().unwrap();
        assert_eq!(fx.drained, 5);
        assert_eq!(fx.applied, vec![(0, 5, true), (0, 1, false), (0, 1, true)]);
        assert_eq!(fx.watermark, SimTime::from_millis(5));
        assert_eq!(ing.watermark(), SimTime::from_millis(5));

        // Effects carry old → new live lists; the table agrees.
        assert_eq!(fx.effects, vec![(0, vec![1, 2], vec![2, 5, 1])]);
        let live = ing.adjacency().pull(&client, &[0]).unwrap().remove(0);
        assert_eq!(live.as_slice(), &[2, 5, 1]);
        // Degrees track net deltas (source 0: 2 → 3; source 3 unchanged).
        assert_eq!(ing.degrees().pull(&client, &[0, 3]).unwrap(), vec![3.0, 1.0]);

        let st = ing.stats();
        assert_eq!(st.applied_adds, 2);
        assert_eq!(st.applied_removes, 1);
        assert_eq!(st.skipped_dup_adds, 1, "duplicate (3,4) add");
        assert_eq!(st.skipped_missing_removes, 1, "missing (3,9) remove");
        assert_eq!(st.batches, 1);
    }

    #[test]
    fn a_lane_writes_its_lists_in_one_rpc_per_batch() {
        // Two lanes over two servers: lane i's sources all live on server i.
        let ps = Ps::new(PsConfig { servers: 2, ..Default::default() });
        let cfg = IngestConfig { mailbox_cap: 64, ..IngestConfig::default() };
        let mut ing = ShardedIngestor::create(&ps, &cfg, 16, 2).unwrap();
        ing.bootstrap(&NodeClock::new(), &[(0, 1), (3, 4), (9, 2)]).unwrap();
        let rpcs = || ps.network().stats().rpcs();
        let mut drain = |events: &[EdgeEvent]| {
            for &e in events {
                assert!(ing.offer(NodeId::Driver, e));
            }
            let before = rpcs();
            ing.drain_all().unwrap();
            rpcs() - before
        };
        let no_ops =
            [ev(EdgeOp::Add, 0, 1, 1), ev(EdgeOp::Remove, 3, 9, 2), ev(EdgeOp::Add, 9, 2, 3)];
        assert_eq!(drain(&no_ops), 2, "one table write per lane, no degree push");
        let changes =
            [ev(EdgeOp::Add, 0, 5, 4), ev(EdgeOp::Remove, 3, 4, 5), ev(EdgeOp::Add, 12, 2, 6)];
        assert_eq!(drain(&changes), 4, "one table write and one degree push per lane");
        assert_eq!(drain(&[ev(EdgeOp::Add, 1, 2, 7)]), 2, "an idle lane sends nothing");
    }

    #[test]
    fn full_mailbox_pushes_back() {
        let mut ing = setup_cap(1, 16, 2);
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 1, 2, 1)));
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 2, 3, 2)));
        assert!(!ing.offer(NodeId::Driver, ev(EdgeOp::Add, 3, 4, 3)), "backpressure");
        assert_eq!(ing.pending(), 2);
        assert_eq!(ing.stats().rejected, 1);
        let fx = ing.drain_all().unwrap();
        assert_eq!(fx.drained, 2);
        // Drained capacity admits the retry.
        assert!(ing.offer(NodeId::Driver, ev(EdgeOp::Add, 3, 4, 3)));
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let mut ing = setup_cap(2, 16, 8);
        let fx = ing.drain_all().unwrap();
        assert_eq!(fx.drained, 0);
        assert!(fx.effects.is_empty() && fx.applied.is_empty());
        assert_eq!(ing.stats().batches, 0);
    }

    #[test]
    fn routes_by_owner_and_merges_in_arrival_order() {
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
        assert_eq!(sharded.lanes[0].mailbox.len(), 3);
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
        assert_eq!(st.batches, 1, "one logical batch across both lanes");

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
        assert!(sharded.offer(NodeId::Driver, ev(EdgeOp::Add, 1, 2, 50)));
        sharded.reset_for_replay(SimTime::from_millis(20));
        assert_eq!(sharded.pending(), 0);
        assert_eq!(sharded.watermark(), SimTime::from_millis(20));
        for lane in &sharded.lanes {
            assert_eq!(lane.watermark.now(), SimTime::from_millis(20));
            assert!(lane.seqs.is_empty());
        }
    }
}
