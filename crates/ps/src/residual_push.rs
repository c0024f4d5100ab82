//! Residual-push PageRank maintenance run *where the rows already are*,
//! to quiescence on the servers (paper §III-A, §IV-A — computation
//! travels to the PS, only Δs cross the wire; GraphD's workers exchange
//! superstep messages directly, PAPERS.md).
//!
//! `ranks`, `res` and the out-neighbor table share one range
//! [`PartitionLayout`](crate::PartitionLayout), so a vertex's rank,
//! residual and out-list sit on the same server. One
//! [`VectorHandle::residual_push`] call is one request per server and one
//! response per server; between them the servers run rounds of a psFunc
//! in the sense of [`crate::psfunc`], over three co-located partitions
//! instead of one, and exchange their boundary Δs among themselves:
//!
//! * **request** — the frontier ids the server owns, plus the
//!   contributions `(dst, Δ)` bound for it that the driver holds (left
//!   over from a call that stopped at its round cap);
//! * **a round, server side**: one ascending Gauss–Seidel sweep per
//!   partition — add the inbound contributions to `res`, then visit the
//!   candidates (frontier ∪ inbound destinations) in ascending id. A
//!   candidate with `|res| > threshold` is absorbed (`rank += r; res =
//!   0`) and its live slots are walked in place: `d·r/deg` goes straight
//!   into the `res` of each local neighbor `x`, and into a
//!   per-destination combiner for another partition's. A local `x` above
//!   the absorbed vertex joins this sweep (absorbed when the sweep reaches
//!   it, if it is above the threshold by then); one at or below it waits
//!   for the next round, as does everything bound for another partition;
//! * **between rounds** every server sends every peer one message: an 8 B
//!   header (the count, and whether the sender has local work left) and
//!   its combined contributions for the peer's partitions, 16 B each.
//!   Every server then knows the same thing — whether any frontier or
//!   contribution is left anywhere — and stops or starts the next round
//!   on it, so no driver round trip sits between two rounds;
//! * **response** — after the last round, nothing but the counters,
//!   unless the call stopped at its `max_rounds` cap with work left: then
//!   the leftover frontier ids (8 B each) and contributions (16 B each)
//!   come back into the [`PushFrontier`] for the next call.
//!
//! The floating-point fold order is canonical — a destination receives
//! its inbound partials (in ascending source-partition order) at the start
//! of a round, then its local contributions one at a time in ascending
//! source order — and the partitions run serially on the calling thread
//! in partition order (the bodies share the frontier's `n`-sized scratch
//! and append to one next frontier; overlapping them would need a copy of
//! both per partition), so results are a pure function of (state,
//! frontier), and a run to quiescence is bit-identical to any split of it
//! into capped calls. Each round's per-server work and message sizes are
//! recorded and the whole schedule is charged once
//! ([`Network::exchange_at`](psgraph_net::Network::exchange_at)), so
//! simulated time is schedule-invariant too.

use psgraph_net::Step;
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

/// What the driver holds between residual-push calls: the frontier and
/// the cross-partition contributions still in flight. Empty after a call
/// that ran to quiescence; after one that stopped at its round cap it
/// holds what the servers sent back, and a later call resumes from it.
/// It only ever holds the state between two whole rounds, so an `Err`
/// leaves it at the last round boundary the servers reached.
#[derive(Debug, Default)]
pub struct PushFrontier {
    /// Vertices whose residual may exceed the threshold: ascending, distinct.
    ids: Vec<u64>,
    /// Contributions emitted and not yet delivered, per destination
    /// partition, in ascending source-partition order (each source's run
    /// sorted by `dst`).
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

    /// The frontier's size on the wire, by the server that owns it: 8 B
    /// per frontier id and 16 B per contribution bound for a partition of
    /// the server — what the driver sends each server, or each sends back
    /// after a cap.
    fn bytes_by_server(
        &self,
        ranges: &[(u64, u64)],
        server_of: impl Fn(usize) -> usize,
        servers: usize,
    ) -> Vec<u64> {
        let mut bytes = vec![0; servers];
        let mut lo = 0;
        for (p, &(_, end)) in ranges.iter().enumerate() {
            let hi = lo + self.ids[lo..].partition_point(|&v| v < end);
            let inbound = self.inbound.get(p).map_or(0, Vec::len);
            bytes[server_of(p)] += 8 * (hi - lo) as u64 + 16 * inbound as u64;
            lo = hi;
        }
        bytes
    }
}

/// Counters of one [`VectorHandle::residual_push`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushRun {
    /// Rounds the servers ran.
    pub rounds: usize,
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
    /// Residual-push rounds over `self` (ranks), `res` and `adj` until no
    /// frontier id or contribution is left, or `max_rounds` rounds ran —
    /// see the module docs for the protocol. `front` holds what is left:
    /// nothing after a run to quiescence, the state after the last round
    /// on a cap. A call with nothing to do (an empty frontier or a cap of
    /// 0) sends nothing.
    ///
    /// Every server must be up before any partition is touched
    /// (`Err(ServerDown)` leaves `front` as it was). Declared cost, charged
    /// once for the whole run: request 8 B per frontier id + 16 B per
    /// inbound contribution; per round and server, CPU per vertex
    /// absorbed, slot scanned and residual written, then an 8 B header +
    /// 16 B per contribution to each peer; response 8 B per leftover id +
    /// 16 B per leftover contribution.
    #[allow(clippy::too_many_arguments)]
    pub fn residual_push(
        &self,
        client: &NodeClock,
        res: &VectorHandle<f64>,
        adj: &NeighborTableHandle,
        damping: f64,
        threshold: f64,
        max_rounds: usize,
        front: &mut PushFrontier,
    ) -> Result<PushRun> {
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
        let mut run = PushRun::default();
        if front.is_empty() || max_rounds == 0 {
            return Ok(run);
        }
        let servers = layout.num_servers;
        for s in 0..servers {
            self.obj.ps.server(s).ensure_alive()?;
        }
        let server_of = |p: usize| layout.server_of_partition(p);
        front.scratch.ensure(n as usize);
        front.inbound.resize_with(parts, Vec::new);
        let req = front.bytes_by_server(&ranges, server_of, servers);

        let mut schedule = Vec::new();
        let outcome = loop {
            if front.is_empty() || run.rounds == max_rounds {
                break Ok(());
            }
            let mut steps = vec![Step { ops: 0, bytes: vec![8; servers] }; servers];
            let mut next_ids = Vec::with_capacity(front.ids.len());
            let mut next_inbound = vec![Vec::new(); parts];
            let mut lo = 0;
            let swept = ranges.iter().enumerate().try_for_each(|(p, &(start, end))| {
                let hi = lo + front.ids[lo..].partition_point(|&v| v < end);
                let (ids, inbound) = (&front.ids[lo..hi], &front.inbound[p]);
                lo = hi;
                if ids.is_empty() && inbound.is_empty() {
                    return Ok(());
                }
                let step = &mut steps[server_of(p)];
                let scratch = &mut front.scratch;
                let leg = self.obj.server(p).update_pair_with(
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
                        let width = end - start;
                        let at = |x: u64| (x - start) as usize;
                        let mut leg = Leg { applied: inbound.len(), ..Leg::default() };
                        for &(dst, delta) in inbound {
                            res[at(dst)] += delta;
                            scratch.mark(dst);
                        }
                        for &v in ids {
                            scratch.mark(v);
                        }
                        let mut from = start;
                        while let Some(v) = scratch.next(from, end) {
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
                                let i = x.wrapping_sub(start);
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
                        // their partition only moves forward. A
                        // contribution to another server's partition
                        // rides in this round's message to that server.
                        let mut q = 0;
                        scratch.drain(|x, sum| {
                            while x >= ranges[q].1 {
                                q += 1;
                            }
                            if q != p {
                                next_inbound[q].push((x, sum));
                                leg.remote += 1;
                                if server_of(q) != server_of(p) {
                                    step.bytes[server_of(q)] += 16;
                                }
                            } else if res[at(x)].abs() > threshold {
                                next_ids.push(x);
                            }
                        });
                        let wrote = [leg.absorbed > 0, leg.absorbed + leg.applied > 0];
                        (Ok(leg), wrote)
                    },
                )??;
                step.ops += self.obj.item_ops((leg.absorbed + leg.slots + leg.applied) as u64);
                run.absorbed += leg.absorbed;
                run.remote += leg.remote;
                Ok(())
            });
            if let Err(e) = swept {
                break Err(e);
            }
            front.ids = next_ids;
            front.inbound = next_inbound;
            schedule.push(steps);
            run.rounds += 1;
        };
        let resp = front.bytes_by_server(&ranges, server_of, servers);
        self.obj.exchange(client, req, schedule, resp);
        outcome.map(|()| run)
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
        /// One call of at most `max_rounds` rounds.
        fn push(&self, max_rounds: usize, front: &mut PushFrontier) -> Result<PushRun> {
            let (c, res, adj) = (&self.client, &self.res, &self.adj);
            self.ranks.residual_push(c, res, adj, 0.5, 1e-9, max_rounds, front)
        }

        fn round(&self, front: &mut PushFrontier) -> Result<PushRun> {
            self.push(1, front)
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
        assert_eq!(round, PushRun { rounds: 1, absorbed: 2, remote: 0 });
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
        assert_eq!(round, PushRun { rounds: 1, absorbed: 3, remote: 2 });
        assert_eq!(front.ids, [52]);
        assert_eq!(front.inbound, [vec![(5, 0.25)], vec![(55, 0.25)]]);
        let (ranks, res) = f.state();
        let nonzero = |v: &[f64]| -> Vec<(usize, f64)> {
            v.iter().copied().enumerate().filter(|&(_, x)| x != 0.0).collect()
        };
        assert_eq!(nonzero(&ranks), [(10, 1.0), (20, 0.25), (60, 1.0)]);
        assert_eq!(nonzero(&res), [(52, 0.25)]);

        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRun { rounds: 1, absorbed: 3, remote: 0 });
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
        let stats = f.ps.network().stats();
        let (rpcs0, sent0, recv0) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRun { rounds: 1, absorbed: 2, remote: 2 });
        // A request per server (16 B of frontier ids to server 0), one
        // message each way (server 0's carries the two contributions),
        // and the two come back in server 1's response: the cap is hit.
        assert_eq!(stats.rpcs() - rpcs0, 2 + 2);
        assert_eq!(stats.bytes_sent() - sent0, 16 + (8 + 32) + 8);
        assert_eq!(stats.bytes_received() - recv0, 32);
        assert_eq!(f.state(), (vec![4.0, 2.0, 0.0, 0.0], vec![0.0; 4]));
        assert_eq!(front.len(), 2, "two contributions in flight");

        let round = f.round(&mut front).unwrap();
        assert_eq!(round, PushRun { rounds: 1, absorbed: 2, remote: 0 });
        // 2 received 0.5·4/2 + 0.5·2/1 = 2, 3 received 0.5·4/2 = 1.
        assert_eq!(f.state(), (vec![4.0, 2.0, 2.0, 1.0], vec![0.0; 4]));
        assert!(front.is_empty(), "2 and 3 have no out-edges");
    }

    #[test]
    fn one_call_runs_to_quiescence_with_one_request_per_server() {
        // The chain 3 -> 2 -> 1 -> 0 across both servers (0, 1 on server
        // 0; 2, 3 on server 1) takes a round per hop.
        let lists = [(3, vec![2]), (2, vec![1]), (1, vec![0])];
        let seeded = || {
            let f = fixture(4, &lists);
            f.res.push_set(&f.client, &[3], &[1.0]).unwrap();
            let mut front = PushFrontier::default();
            front.extend([3]);
            (f, front)
        };
        let (f, mut front) = seeded();
        let stats = f.ps.network().stats();
        let (rpcs0, sent0, recv0) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
        let t0 = f.client.now();
        let run = f.push(100, &mut front).unwrap();
        assert_eq!(run, PushRun { rounds: 4, absorbed: 4, remote: 1 });
        assert!(front.is_empty());
        // Two requests (8 B: the frontier id) with their empty responses,
        // and two header messages a round; 2 -> 1 crossed in round 1.
        assert_eq!(stats.rpcs() - rpcs0, 2 + 2 * 4);
        assert_eq!(stats.bytes_sent() - sent0, 8 + 8 * 8 + 16);
        assert_eq!(stats.bytes_received() - recv0, 0);
        // One round trip to the servers, and a message between rounds.
        let cost = f.ps.network().cost_model();
        assert!(f.client.now() - t0 < cost.net_latency.scale(2.0 + 4.0 + 0.5));

        // The same rounds as capped calls leave the same bits behind.
        let (g, mut front) = seeded();
        let mut total = PushRun::default();
        while !front.is_empty() {
            let r = g.round(&mut front).unwrap();
            total = PushRun {
                rounds: total.rounds + r.rounds,
                absorbed: total.absorbed + r.absorbed,
                remote: total.remote + r.remote,
            };
        }
        assert_eq!(total, run);
        assert_eq!(g.state(), f.state());
    }

    #[test]
    fn an_empty_frontier_or_a_zero_cap_sends_nothing() {
        let f = fixture(4, &[(0, vec![2])]);
        f.res.push_set(&f.client, &[0], &[1.0]).unwrap();
        let rpcs0 = f.ps.network().stats().rpcs();
        let mut front = PushFrontier::default();
        assert_eq!(f.push(100, &mut front).unwrap(), PushRun::default());
        front.extend([0]);
        assert_eq!(f.push(0, &mut front).unwrap(), PushRun::default());
        assert_eq!(front.len(), 1);
        assert_eq!(f.ps.network().stats().rpcs(), rpcs0);
    }

    #[test]
    fn a_dead_server_fails_the_call_before_anything_moves() {
        // Server 1 has no work, but the servers finish the run together.
        let f = fixture(4, &[(0, vec![1])]);
        f.res.push_set(&f.client, &[0], &[1.0]).unwrap();
        let mut front = PushFrontier::default();
        front.extend([0]);
        f.ps.kill_server(1);
        assert_eq!(f.push(100, &mut front).unwrap_err(), PsError::ServerDown { id: 1 });
        assert_eq!(front.len(), 1);
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
        let err = f.ranks.residual_push(&f.client, &wide, &f.adj, 0.5, 1e-9, 1, &mut front);
        assert!(matches!(err, Err(PsError::DimensionMismatch(_))));
        assert!(matches!(f.round(&mut front), Err(PsError::IndexOutOfBounds { index: 9, .. })));
        let err = f.ranks.residual_push(&f.client, &f.ranks, &f.adj, 0.5, 1e-9, 1, &mut front);
        assert!(err.is_err(), "ranks and res must be distinct objects");
    }
}
