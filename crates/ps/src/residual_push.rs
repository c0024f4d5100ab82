//! The fused residual-push round: Gauss–Southwell PageRank maintenance
//! run *where the rows already are* (paper §III-A, §IV-A — computation
//! travels to the PS, only Δs cross the wire).
//!
//! `ranks`, `res` and the out-neighbor table share one range
//! [`PartitionLayout`](crate::PartitionLayout), so a vertex's rank,
//! residual and out-list sit on the same server. One round is one RPC per
//! server that has work — a psFunc in the sense of [`crate::psfunc`], over
//! three co-located partitions instead of one:
//!
//! * **request** — the frontier ids the server owns, plus the
//!   contributions `(dst, Δ)` other servers emitted for it last round;
//! * **server side**, in ascending vertex order — add the inbound
//!   contributions to `res`; absorb every candidate with
//!   `|res| > threshold` (`rank += r; res = 0`) and walk its live slots
//!   in place, emitting `d·r/deg` per neighbor into a per-destination
//!   combiner; only after the absorb loop are the combined local
//!   contributions added to `res` (Jacobi: the result does not depend on
//!   iteration order inside a partition);
//! * **response** — the combined remote contributions sorted by `dst`,
//!   and the local ids now above the threshold (the next frontier).
//!
//! The floating-point fold order is canonical — a destination receives
//! its local partial (summed in ascending source order) first, then the
//! inbound partials in ascending source-partition order — and the
//! partitions run serially on the calling thread in partition order (the
//! bodies share one dense combiner, the frontier's `n`-sized scratch, and
//! append to one next frontier; overlapping them would need a copy of
//! both per partition), so results and simulated time are a pure function
//! of (state, frontier).

use psgraph_sim::NodeClock;

use crate::error::{PsError, Result};
use crate::neighbor::{NeighborTableHandle, TablePart};
use crate::vector::{VecPart, VectorHandle};

/// Dense per-destination accumulator with a sorted drain. `add` is O(1);
/// `drain` visits the touched ids in ascending order and leaves the
/// combiner empty, in time proportional to what was touched (touched
/// 64-id words are listed, never scanned for).
#[derive(Debug, Default)]
struct Combiner {
    acc: Vec<f64>,
    bits: Vec<u64>,
    words: Vec<usize>,
}

impl Combiner {
    fn ensure(&mut self, n: usize) {
        if self.acc.len() < n {
            self.acc.resize(n, 0.0);
            self.bits.resize(n.div_ceil(64), 0);
        }
    }

    /// Make `drain` visit `x` even if nothing is added to it.
    #[inline]
    fn mark(&mut self, x: u64) {
        let w = (x >> 6) as usize;
        if self.bits[w] == 0 {
            self.words.push(w);
        }
        self.bits[w] |= 1 << (x & 63);
    }

    #[inline]
    fn add(&mut self, x: u64, delta: f64) {
        self.mark(x);
        self.acc[x as usize] += delta;
    }

    fn drain(&mut self, mut f: impl FnMut(u64, f64)) {
        self.words.sort_unstable();
        for w in self.words.drain(..) {
            let mut b = std::mem::take(&mut self.bits[w]);
            while b != 0 {
                let x = (w as u64) << 6 | b.trailing_zeros() as u64;
                b &= b - 1;
                f(x, std::mem::take(&mut self.acc[x as usize]));
            }
        }
    }
}

/// What the driver holds between rounds of a residual-push run: the
/// frontier and the cross-partition contributions still in flight. It is
/// replaced only when a whole round succeeded, so an `Err` leaves it
/// exactly as it was at the start of the failed round.
#[derive(Debug, Default)]
pub struct PushFrontier {
    /// Vertices whose residual may exceed the threshold: ascending, distinct.
    ids: Vec<u64>,
    /// Contributions emitted last round and not yet delivered, per
    /// destination partition, in ascending source-partition order (each
    /// source's run sorted by `dst`).
    inbound: Vec<Vec<(u64, f64)>>,
    /// Kernel scratch, empty between rounds.
    combiner: Combiner,
}

impl PushFrontier {
    /// Frontier vertices plus undelivered contributions.
    pub fn len(&self) -> usize {
        self.ids.len() + self.inbound.iter().map(Vec::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.ids.clear();
        self.inbound.clear();
    }

    /// Add vertices whose residual changed outside the operator.
    pub fn extend(&mut self, ids: impl IntoIterator<Item = u64>) {
        self.ids.extend(ids);
        self.ids.sort_unstable();
        self.ids.dedup();
    }
}

/// Counters of one [`VectorHandle::residual_push`] round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushRound {
    /// Vertices whose residual was absorbed into their rank.
    pub absorbed: usize,
    /// Combined contributions that left their source partition.
    pub remote: usize,
}

/// Per-partition work of one round, as charged to the server.
#[derive(Default)]
struct Leg {
    absorbed: usize,
    slots: usize,
    applied: usize,
    remote: usize,
}

impl VectorHandle<f64> {
    /// One fused residual-push round over `self` (ranks), `res` and `adj`
    /// — see the module docs for the protocol. Advances `front` to the
    /// next round's frontier on success and leaves it untouched on `Err`.
    ///
    /// Declared cost per involved server: request 8 B per frontier id +
    /// 16 B per inbound contribution, response 16 B per outbound
    /// contribution + 8 B per returned id, server CPU per vertex
    /// absorbed, slot scanned and contribution applied. The legs leave
    /// `client` together and it resumes when the slowest is back (a leg
    /// needs only its own request, so the servers work in parallel).
    pub fn residual_push(
        &self,
        client: &NodeClock,
        res: &VectorHandle<f64>,
        adj: &NeighborTableHandle,
        damping: f64,
        threshold: f64,
        front: &mut PushFrontier,
    ) -> Result<PushRound> {
        let layout = self.layout();
        if layout != res.layout() || layout != adj.layout() || !layout.is_range() {
            return Err(PsError::DimensionMismatch(format!(
                "{}, {} and {} must share one range layout",
                self.name(),
                res.name(),
                adj.name()
            )));
        }
        let n = layout.size;
        if let Some(&last) = front.ids.last().filter(|&&v| v >= n) {
            return Err(PsError::IndexOutOfBounds {
                name: self.name().to_string(),
                index: last,
                size: n,
            });
        }
        let ps = &self.obj.ps;
        let parts = layout.num_partitions;
        front.combiner.ensure(n as usize);
        front.inbound.resize_with(parts, Vec::new);

        // Every leg's server must be up before any partition is touched.
        let ranges: Vec<(u64, u64)> =
            (0..parts).map(|p| layout.range_of(p).expect("range layout")).collect();
        let mut legs = Vec::with_capacity(parts);
        let mut lo = 0;
        for (p, &(_, end)) in ranges.iter().enumerate() {
            let hi = lo + front.ids[lo..].partition_point(|&v| v < end);
            if hi > lo || !front.inbound[p].is_empty() {
                ps.server(layout.server_of_partition(p)).ensure_alive()?;
                legs.push((p, lo..hi));
            }
            lo = hi;
        }

        let mut next_ids = Vec::with_capacity(front.ids.len());
        let mut next_inbound = vec![Vec::new(); parts];
        let mut round = PushRound::default();
        self.obj.fan_out(client, |fan| {
            for (p, span) in legs {
                let start = ranges[p].0;
                let (ids, inbound) = (&front.ids[span], &front.inbound[p]);
                let combiner = &mut front.combiner;
                let returned = next_ids.len();
                let server = self.obj.server(p);
                let leg = server.update_pair_with(
                    (self.name(), p),
                    (res.name(), p),
                    (adj.name(), p),
                    |ranks: &mut VecPart<f64>, res: &mut VecPart<f64>, table: &TablePart| {
                        let (VecPart::Dense { data: ranks, .. }, VecPart::Dense { data: res, .. }) =
                            (ranks, res)
                        else {
                            let e = PsError::TypeMismatch { name: self.name().to_string() };
                            return (Err(e), [false; 2]);
                        };
                        let mut leg = Leg { applied: inbound.len(), ..Leg::default() };
                        // Candidates: frontier ∪ inbound destinations, merged
                        // into ascending order through the combiner's marks.
                        for &(dst, delta) in inbound {
                            res[(dst - start) as usize] += delta;
                            combiner.mark(dst);
                        }
                        for &v in ids {
                            combiner.mark(v);
                        }
                        let mut candidates = Vec::with_capacity(ids.len() + inbound.len());
                        combiner.drain(|v, _| candidates.push(v));
                        for v in candidates {
                            let i = (v - start) as usize;
                            let r = res[i];
                            if r.abs() <= threshold {
                                continue;
                            }
                            // x + (-x) == 0 exactly, so zero the residual outright.
                            ranks[i] += r;
                            res[i] = 0.0;
                            leg.absorbed += 1;
                            let Some(entry) = table.get(&v).filter(|e| e.live_len() > 0) else {
                                continue;
                            };
                            let contrib = damping * r / entry.live_len() as f64;
                            leg.slots += entry.slot_len();
                            // `x < n` also skips TOMBSTONE (u64::MAX).
                            for &x in entry.slots().iter().filter(|&&x| x < n) {
                                combiner.add(x, contrib);
                            }
                        }
                        // Drained ids ascend, so their partition only moves forward.
                        let mut q = 0;
                        combiner.drain(|x, sum| {
                            while x >= ranges[q].1 {
                                q += 1;
                            }
                            if q == p {
                                let i = (x - start) as usize;
                                res[i] += sum;
                                leg.applied += 1;
                                if res[i].abs() > threshold {
                                    next_ids.push(x);
                                }
                            } else {
                                next_inbound[q].push((x, sum));
                                leg.remote += 1;
                            }
                        });
                        let wrote = [leg.absorbed > 0, leg.absorbed + leg.applied > 0];
                        (Ok(leg), wrote)
                    },
                )??;
                let req_bytes = 8 * ids.len() as u64 + 16 * inbound.len() as u64;
                let ops = self.obj.item_ops((leg.absorbed + leg.slots + leg.applied) as u64);
                let resp_bytes = 16 * leg.remote as u64 + 8 * (next_ids.len() - returned) as u64;
                fan.leg(server, (req_bytes, ops, resp_bytes));
                round.absorbed += leg.absorbed;
                round.remote += leg.remote;
            }
            Ok(())
        })?;
        front.ids = next_ids;
        front.inbound = next_inbound;
        Ok(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::ps::{Ps, PsConfig, RecoveryMode};
    use std::sync::Arc;

    struct Fixture {
        ps: Arc<Ps>,
        client: NodeClock,
        ranks: VectorHandle<f64>,
        res: VectorHandle<f64>,
        adj: NeighborTableHandle,
    }

    /// Four vertices over two servers ({0,1} and {2,3}).
    fn fixture(lists: &[(u64, Vec<u64>)]) -> Fixture {
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let vector = |name: &str| {
            VectorHandle::<f64>::create(&ps, name, 4, Partitioner::Range, RecoveryMode::Consistent)
                .unwrap()
        };
        let (ranks, res) = (vector("ranks"), vector("res"));
        let adj = NeighborTableHandle::create(
            &ps, "adj", 4, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        adj.push(&client, lists).unwrap();
        Fixture { ps, client, ranks, res, adj }
    }

    impl Fixture {
        fn round(&self, front: &mut PushFrontier) -> Result<PushRound> {
            self.ranks.residual_push(&self.client, &self.res, &self.adj, 0.5, 1e-9, front)
        }

        fn state(&self) -> (Vec<f64>, Vec<f64>) {
            (self.ranks.pull_all(&self.client).unwrap(), self.res.pull_all(&self.client).unwrap())
        }
    }

    #[test]
    fn a_round_is_jacobi_inside_a_partition() {
        // 0 <-> 1 on one server: both absorb their own residual first,
        // then receive the other's contribution — never a mix.
        let f = fixture(&[(0, vec![1]), (1, vec![0])]);
        f.res.push_set(&f.client, &[0, 1], &[1.0, 2.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([1, 0, 1]);
        assert_eq!(front.len(), 2, "extend sorts and dedups");
        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 2, remote: 0 });
        assert_eq!(f.state(), (vec![1.0, 2.0, 0.0, 0.0], vec![1.0, 0.5, 0.0, 0.0]));
        assert_eq!(front.len(), 2, "both are above the threshold again");
    }

    #[test]
    fn remote_contributions_travel_one_round_behind() {
        // 0 -> {2, 3, 2's tombstone}; 1 -> 2: contributions to server 1
        // are combined per destination and applied in the next round.
        let f = fixture(&[(0, vec![2, 1, 3]), (1, vec![2])]);
        f.adj.remove_edges(&f.client, &[(0, 1)]).unwrap();
        f.res.push_set(&f.client, &[0, 1], &[4.0, 2.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([0, 1]);
        let rpcs0 = f.ps.network().stats().rpcs();
        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 2, remote: 2 });
        assert_eq!(f.ps.network().stats().rpcs() - rpcs0, 1, "only server 0 had work");
        assert_eq!(f.state(), (vec![4.0, 2.0, 0.0, 0.0], vec![0.0; 4]));
        assert_eq!(front.len(), 2, "two contributions in flight");

        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 2, remote: 0 });
        // 2 received 0.5·4/2 + 0.5·2/1 = 2, 3 received 0.5·4/2 = 1.
        assert_eq!(f.state(), (vec![4.0, 2.0, 2.0, 1.0], vec![0.0; 4]));
        assert!(front.is_empty(), "2 and 3 have no out-edges");
    }

    #[test]
    fn a_dead_server_fails_the_round_before_anything_moves() {
        let f = fixture(&[(0, vec![2]), (2, vec![0])]);
        f.res.push_set(&f.client, &[0, 2], &[1.0, 1.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([0, 2]);
        f.ps.kill_server(1);
        assert_eq!(f.round(&mut front).unwrap_err(), PsError::ServerDown { id: 1 });
        assert_eq!(front.len(), 2);
        assert_eq!(f.ranks.pull(&f.client, &[0]).unwrap(), vec![0.0], "server 0 was not touched");
    }

    #[test]
    fn mismatched_layouts_and_stray_ids_are_errors() {
        let f = fixture(&[]);
        let wide = VectorHandle::<f64>::create(
            &f.ps, "wide", 5, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut front = PushFrontier::default();
        front.extend([9]);
        let err = f.ranks.residual_push(&f.client, &wide, &f.adj, 0.5, 1e-9, &mut front);
        assert!(matches!(err, Err(PsError::DimensionMismatch(_))));
        assert!(matches!(f.round(&mut front), Err(PsError::IndexOutOfBounds { index: 9, .. })));
        let err = f.ranks.residual_push(&f.client, &f.ranks, &f.adj, 0.5, 1e-9, &mut front);
        assert!(err.is_err(), "ranks and res must be distinct objects");
    }
}
