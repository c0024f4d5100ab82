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
//! * **server side**, one ascending Gauss–Seidel sweep — add the inbound
//!   contributions to `res`, then visit the candidates (frontier ∪
//!   inbound destinations) in ascending id. A candidate with
//!   `|res| > threshold` is absorbed (`rank += r; res = 0`) and its live
//!   slots are walked in place: `d·r/deg` goes straight into the `res` of
//!   each local neighbor `x`, and into a per-destination combiner for a
//!   remote one. A local `x` above the absorbed vertex joins this sweep
//!   (absorbed when the sweep reaches it, if it is above the threshold by
//!   then); one at or below it waits for the next round;
//! * **response** — the combined remote contributions sorted by `dst`,
//!   and the local ids the sweep touched behind itself whose residual is
//!   still above the threshold (the next frontier), ascending.
//!
//! The floating-point fold order is canonical — a destination receives
//! its inbound partials (in ascending source-partition order) at the start
//! of a round, then its local contributions one at a time in ascending
//! source order — and the partitions run serially on the calling thread
//! in partition order (the bodies share the frontier's `n`-sized scratch
//! and append to one next frontier; overlapping them would need a copy of
//! both per partition), so results and simulated time are a pure function
//! of (state, frontier).

use psgraph_sim::NodeClock;

use crate::error::{PsError, Result};
use crate::neighbor::{NeighborTableHandle, TablePart};
use crate::vector::{VecPart, VectorHandle};

/// A leg's dense scratch, empty between legs: one mark per id, the sums
/// bound for other partitions (indexed by global id), and the touched
/// 64-id words.
#[derive(Debug, Default)]
struct Scratch {
    acc: Vec<f64>,
    bits: Vec<u64>,
    words: Vec<usize>,
}

impl Scratch {
    fn ensure(&mut self, n: usize) {
        if self.acc.len() < n {
            self.acc.resize(n, 0.0);
            self.bits.resize(n.div_ceil(64), 0);
        }
    }

    /// Make `drain` visit `x`, and the sweep if it has not passed `x`.
    #[inline]
    fn mark(&mut self, x: u64) {
        let w = (x >> 6) as usize;
        if self.bits[w] == 0 {
            self.words.push(w);
        }
        self.bits[w] |= 1 << (x & 63);
    }

    /// The lowest mark in `[from, to)`. The sweep calls it with `from`
    /// one past the id it returned last, so a leg reads each word of its
    /// range once plus once per id visited: a mark the sweep has not
    /// reached is found without being scheduled. A word can straddle two
    /// partitions' ranges; a mark at or above `to` ends the walk, and the
    /// bits below `from` are masked off.
    fn next(&self, from: u64, to: u64) -> Option<u64> {
        let mut w = (from >> 6) as usize;
        let mut b = self.bits.get(w)? & !0 << (from & 63);
        while b == 0 {
            w += 1;
            if (w as u64) << 6 >= to {
                return None;
            }
            b = self.bits[w];
        }
        Some((w as u64) << 6 | b.trailing_zeros() as u64).filter(|&x| x < to)
    }

    /// Visit the marked ids in ascending order with their sums, leaving
    /// the scratch empty.
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
    scratch: Scratch,
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
    /// Residual writes: one per inbound and one per local contribution.
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
    /// absorbed, slot scanned and residual written. The legs leave
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
        let not_shared = || {
            PsError::DimensionMismatch(format!(
                "{}, {} and {} must share one range layout",
                self.name(),
                res.name(),
                adj.name()
            ))
        };
        if layout != res.layout() || layout != adj.layout() {
            return Err(not_shared());
        }
        let parts = layout.num_partitions;
        let ranges: Vec<(u64, u64)> = (0..parts)
            .map(|p| layout.range_of(p).ok_or_else(not_shared))
            .collect::<Result<_>>()?;
        let n = layout.size;
        if let Some(&last) = front.ids.last().filter(|&&v| v >= n) {
            return Err(PsError::IndexOutOfBounds {
                name: self.name().to_string(),
                index: last,
                size: n,
            });
        }
        let ps = &self.obj.ps;
        front.scratch.ensure(n as usize);
        front.inbound.resize_with(parts, Vec::new);

        // Every leg's server must be up before any partition is touched.
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
                let local = ranges[p].0..ranges[p].1;
                let (ids, inbound) = (&front.ids[span], &front.inbound[p]);
                let scratch = &mut front.scratch;
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
                        let width = local.end - local.start;
                        let at = |x: u64| (x - local.start) as usize;
                        let mut leg = Leg { applied: inbound.len(), ..Leg::default() };
                        for &(dst, delta) in inbound {
                            res[at(dst)] += delta;
                            scratch.mark(dst);
                        }
                        for &v in ids {
                            scratch.mark(v);
                        }
                        let mut from = local.start;
                        while let Some(v) = scratch.next(from, local.end) {
                            from = v + 1;
                            let r = res[at(v)];
                            if r.abs() <= threshold {
                                continue;
                            }
                            // x + (-x) == 0 exactly, so zero the residual outright.
                            ranks[at(v)] += r;
                            res[at(v)] = 0.0;
                            leg.absorbed += 1;
                            let Some(entry) = table.get(&v).filter(|e| e.live_len() > 0) else {
                                continue;
                            };
                            let contrib = damping * r / entry.live_len() as f64;
                            leg.slots += entry.slot_len();
                            // `x < n` also skips TOMBSTONE (u64::MAX).
                            // A local `x` above `v` is visited later in this
                            // sweep; one at or below it waits for the drain.
                            // Local and remote targets differ only in the
                            // slice added to: choosing it, rather than
                            // branching around two loop bodies, measured
                            // ≈ 10 % faster on the kernel.
                            for &x in entry.slots().iter().filter(|&&x| x < n) {
                                let i = x.wrapping_sub(local.start);
                                let here = i < width;
                                let (sums, j): (&mut [f64], usize) = if here {
                                    (&mut res[..], i as usize)
                                } else {
                                    (&mut scratch.acc[..], x as usize)
                                };
                                sums[j] += contrib;
                                leg.applied += usize::from(here);
                                scratch.mark(x);
                            }
                        }
                        // A local id the sweep visited can only be above
                        // the threshold again if a contribution reached it
                        // from behind, so the next frontier is the local
                        // marks still above it. Drained ids ascend, so
                        // their partition only moves forward.
                        let mut q = 0;
                        scratch.drain(|x, sum| {
                            while x >= ranges[q].1 {
                                q += 1;
                            }
                            if q != p {
                                next_inbound[q].push((x, sum));
                                leg.remote += 1;
                            } else if res[at(x)].abs() > threshold {
                                next_ids.push(x);
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

    /// `n` vertices over two servers (`[0, n/2)` and `[n/2, n)`).
    fn fixture(n: u64, lists: &[(u64, Vec<u64>)]) -> Fixture {
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let vector = |name: &str| {
            VectorHandle::<f64>::create(&ps, name, n, Partitioner::Range, RecoveryMode::Consistent)
                .unwrap()
        };
        let (ranks, res) = (vector("ranks"), vector("res"));
        let adj = NeighborTableHandle::create(
            &ps, "adj", n, Partitioner::Range, RecoveryMode::Consistent,
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
    fn a_round_is_one_ascending_sweep() {
        // 0 <-> 1 on one server: 0 is absorbed first and its contribution
        // reaches 1 before 1 is absorbed; 1's contribution lands behind the
        // sweep and waits for the next round.
        let f = fixture(4, &[(0, vec![1]), (1, vec![0])]);
        f.res.push_set(&f.client, &[0, 1], &[1.0, 2.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([1, 0, 1]);
        assert_eq!(front.len(), 2, "extend sorts and dedups");
        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 2, remote: 0 });
        assert_eq!(f.state(), (vec![1.0, 2.5, 0.0, 0.0], vec![1.25, 0.0, 0.0, 0.0]));
        assert_eq!(front.ids, [0], "only 0 was touched behind the sweep");
        assert!(front.inbound.iter().all(Vec::is_empty));
    }

    #[test]
    fn a_forward_chain_takes_one_round_and_a_backward_one_a_round_per_hop() {
        let run = |lists: &[(u64, Vec<u64>)], seed: u64| {
            let f = fixture(8, lists);
            f.res.push_set(&f.client, &[seed], &[1.0]).unwrap();
            let mut front = PushFrontier::default();
            front.extend([seed]);
            let mut rounds = Vec::new();
            while !front.is_empty() && rounds.len() < 8 {
                rounds.push(f.round(&mut front).unwrap().absorbed);
            }
            (rounds, f.state())
        };
        // 0 -> 1 -> 2 -> 3, all on server 0: the sweep follows the chain.
        let (rounds, (ranks, res)) = run(&[(0, vec![1]), (1, vec![2]), (2, vec![3])], 0);
        assert_eq!(rounds, [4]);
        assert_eq!(ranks, [1.0, 0.5, 0.25, 0.125, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(res, [0.0; 8]);
        // 3 -> 2 -> 1 -> 0: every hop lands behind the sweep.
        let (rounds, (ranks, res)) = run(&[(3, vec![2]), (2, vec![1]), (1, vec![0])], 3);
        assert_eq!(rounds, [1, 1, 1, 1]);
        assert_eq!(ranks, [0.125, 0.25, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(res, [0.0; 8]);
    }

    #[test]
    fn a_word_straddling_two_partitions_keeps_their_marks_apart() {
        // Partitions [0, 50) and [50, 100): ids 0..64 share one 64-id
        // word. 10 marks 55 (remote) and 20 (ahead), 60 marks 5 (remote)
        // and 52 (behind), all in that word: neither sweep may visit the
        // other partition's marks, and 52 is the only next-frontier id.
        let f = fixture(100, &[(10, vec![55, 20]), (60, vec![5, 52])]);
        f.res.push_set(&f.client, &[10, 60], &[1.0, 1.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([10, 60]);
        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 3, remote: 2 });
        assert_eq!(front.ids, [52]);
        assert_eq!(front.inbound, [vec![(5, 0.25)], vec![(55, 0.25)]]);
        let (ranks, res) = f.state();
        let nonzero = |v: &[f64]| -> Vec<(usize, f64)> {
            v.iter().copied().enumerate().filter(|&(_, x)| x != 0.0).collect()
        };
        assert_eq!(nonzero(&ranks), [(10, 1.0), (20, 0.25), (60, 1.0)]);
        assert_eq!(nonzero(&res), [(52, 0.25)]);

        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRound { absorbed: 3, remote: 0 });
        assert!(front.is_empty());
        let (ranks, res) = f.state();
        assert_eq!(
            nonzero(&ranks),
            [(5, 0.25), (10, 1.0), (20, 0.25), (52, 0.25), (55, 0.25), (60, 1.0)]
        );
        assert_eq!(nonzero(&res), []);
    }

    #[test]
    fn remote_contributions_travel_one_round_behind() {
        // 0 -> {2, 3, 2's tombstone}; 1 -> 2: contributions to server 1
        // are combined per destination and applied in the next round.
        let f = fixture(4, &[(0, vec![2, 1, 3]), (1, vec![2])]);
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
        let f = fixture(4, &[(0, vec![2]), (2, vec![0])]);
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
        let f = fixture(4, &[]);
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
