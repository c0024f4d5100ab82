//! Server-resident vectors: the PS data structure behind PageRank's
//! `ranks`/`Δranks`, K-Core's coreness, and Fast Unfolding's
//! `vertex2com`/`com2weight` (paper §IV).
//!
//! A vector of logical size `n` is split by a [`PartitionLayout`]: range
//! partitions store dense slices, hash partitions store sparse maps whose
//! missing keys read as `E::default()`. Every operation here is a cost
//! formula plus a per-partition closure; routing, liveness and the RPC
//! charge are `PsObject`'s.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{FxHashMap, NodeClock};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::element::Element;
use crate::error::{PsError, Result};
use crate::object::{Partition, PlanRun, PsObject, PullPlan, Reader};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};
use crate::server::PsServer;

/// One stored vector partition.
#[derive(Debug, Clone, PartialEq)]
pub enum VecPart<E> {
    /// Contiguous slice `[start, start + data.len())` of the vector.
    Dense { start: u64, data: Vec<E> },
    /// Sparse subset; absent keys are `E::default()`.
    Sparse { map: FxHashMap<u64, E> },
}

impl<E: Element> VecPart<E> {
    fn get(&self, key: u64) -> E {
        match self {
            VecPart::Dense { start, data } => data[(key - start) as usize],
            VecPart::Sparse { map } => map.get(&key).copied().unwrap_or_default(),
        }
    }

    fn add(&mut self, key: u64, delta: E) {
        match self {
            VecPart::Dense { start, data } => {
                let i = (key - *start) as usize;
                data[i] = data[i].add(delta);
            }
            VecPart::Sparse { map } => {
                let e = map.entry(key).or_default();
                *e = e.add(delta);
            }
        }
    }

    fn set(&mut self, key: u64, value: E) {
        match self {
            VecPart::Dense { start, data } => data[(key - *start) as usize] = value,
            VecPart::Sparse { map } => {
                map.insert(key, value);
            }
        }
    }

    /// Stored entries: every slot of a dense slice, the present keys of a
    /// sparse map.
    pub(crate) fn len(&self) -> usize {
        match self {
            VecPart::Dense { data, .. } => data.len(),
            VecPart::Sparse { map } => map.len(),
        }
    }
}

impl<E: Element> Partition for VecPart<E> {
    fn approx_bytes(&self) -> u64 {
        match self {
            VecPart::Dense { data, .. } => (data.len() * E::WIDTH) as u64 + 32,
            VecPart::Sparse { map } => (map.len() * (8 + E::WIDTH + 16)) as u64 + 32,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            VecPart::Dense { start, data } => {
                buf.put_u8(0);
                buf.put_u64_le(*start);
                buf.put_u64_le(data.len() as u64);
                for v in data {
                    v.encode(&mut buf);
                }
            }
            VecPart::Sparse { map } => {
                buf.put_u8(1);
                buf.put_u64_le(map.len() as u64);
                let mut entries: Vec<_> = map.iter().collect();
                entries.sort_by_key(|(k, _)| **k); // deterministic checkpoints
                for (k, v) in entries {
                    buf.put_u64_le(*k);
                    v.encode(&mut buf);
                }
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, "vector");
        let part = match r.u8()? {
            0 => {
                let start = r.u64()?;
                let len = r.count(E::WIDTH)?;
                VecPart::Dense { start, data: r.elems(len)? }
            }
            1 => {
                let len = r.count(8 + E::WIDTH)?;
                let mut map = FxHashMap::default();
                map.reserve(len);
                for _ in 0..len {
                    let k = r.u64()?;
                    map.insert(k, r.elem()?);
                }
                VecPart::Sparse { map }
            }
            t => return Err(r.corrupt(&format!("bad partition tag {t}"))),
        };
        r.finish()?;
        Ok(part)
    }
}

/// Typed client handle to a PS vector.
#[derive(Debug, Clone)]
pub struct VectorHandle<E: Element> {
    pub(crate) obj: PsObject,
    _e: PhantomData<fn() -> E>,
}

impl<E: Element> VectorHandle<E> {
    /// Create a zero-initialized vector of logical size `size`, partitioned
    /// by `partitioner` with one partition per server.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        size: u64,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let layout =
            PartitionLayout::new(partitioner, size, ps.num_servers(), ps.num_servers());
        let obj = PsObject::new(ps, name, layout);
        obj.install(recovery, |p| match obj.layout.range_of(p) {
            Some((start, end)) => VecPart::Dense {
                start,
                data: vec![E::default(); (end - start) as usize],
            },
            None => VecPart::Sparse { map: FxHashMap::default() },
        })?;
        Ok(VectorHandle { obj, _e: PhantomData })
    }

    pub fn name(&self) -> &str {
        &self.obj.name
    }

    pub fn size(&self) -> u64 {
        self.obj.layout.size
    }

    pub fn layout(&self) -> &PartitionLayout {
        &self.obj.layout
    }

    /// Per-partition write versions (see [`crate::PsServer::version`]) —
    /// the change detector snapshot delta export compares against.
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    /// Pull `indices` (any order, duplicates allowed); result aligns with
    /// the input.
    pub fn pull(&self, client: &NodeClock, indices: &[u64]) -> Result<Vec<E>> {
        self.obj.check(indices.iter().copied())?;
        let mut out = vec![E::default(); indices.len()];
        self.obj.scatter(client, indices.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &VecPart<E>| {
                    for &pos in &positions {
                        out[pos] = part.get(indices[pos]);
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n), n * E::WIDTH as u64))
        })?;
        Ok(out)
    }

    /// Like [`VectorHandle::pull`], but the servers send only the nonzero
    /// entries plus a presence bitmap — the §IV-A sparsity optimization
    /// ("the ranks of many vertices barely change … transferring the
    /// increments of ranks"). Same result as `pull`; only the charged
    /// response bytes differ (each leg declares them after the visit).
    pub fn pull_sparse(&self, client: &NodeClock, indices: &[u64]) -> Result<Vec<E>> {
        self.obj.check(indices.iter().copied())?;
        let mut out = vec![E::default(); indices.len()];
        self.obj.scatter(client, indices.iter().copied().enumerate(), |server, n, parts| {
            let mut nonzero = 0u64;
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &VecPart<E>| {
                    for &pos in &positions {
                        let v = part.get(indices[pos]);
                        if v != E::default() {
                            nonzero += 1;
                        }
                        out[pos] = v;
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n), nonzero * E::WIDTH as u64 + n / 8 + 8))
        })?;
        Ok(out)
    }

    /// Route a request that will be issued again and again (a superstep's
    /// `[v, N(v)…]` read): see [`PullPlan`]. Any vector with this layout
    /// can replay the plan.
    pub fn plan(&self, indices: &[u64]) -> Result<PullPlan> {
        self.obj.plan(indices)
    }

    /// [`VectorHandle::pull`] of the request `plan` was built from: same
    /// result, same servers contacted, but each distinct index
    /// crosses the wire once — request, server ops and response are
    /// charged over the distinct indices, and repeats are filled in
    /// client-side.
    pub fn pull_planned(&self, client: &NodeClock, plan: &PullPlan) -> Result<Vec<E>> {
        let mut distinct = vec![E::default(); plan.distinct()];
        self.obj.replay(client, plan, |server, n, runs| {
            self.read_runs(server, plan, runs, &mut distinct)?;
            Ok((n * 8, self.obj.item_ops(n), n * E::WIDTH as u64))
        })?;
        Ok(plan.fan_out(&distinct))
    }

    /// [`VectorHandle::pull_sparse`] of the request `plan` was built from,
    /// charged over its distinct indices like
    /// [`VectorHandle::pull_planned`].
    pub fn pull_sparse_planned(&self, client: &NodeClock, plan: &PullPlan) -> Result<Vec<E>> {
        let mut distinct = vec![E::default(); plan.distinct()];
        self.obj.replay(client, plan, |server, n, runs| {
            let nonzero = self.read_runs(server, plan, runs, &mut distinct)?;
            Ok((n * 8, self.obj.item_ops(n), nonzero * E::WIDTH as u64 + n / 8 + 8))
        })?;
        Ok(plan.fan_out(&distinct))
    }

    /// Read one server's runs of `plan`'s distinct ids into `distinct`;
    /// returns how many of the values read are nonzero.
    fn read_runs(
        &self,
        server: &PsServer,
        plan: &PullPlan,
        runs: &[PlanRun],
        distinct: &mut [E],
    ) -> Result<u64> {
        let mut nonzero = 0;
        for (p, run) in runs {
            server.get(&self.obj.name, *p, |part: &VecPart<E>| {
                for (slot, &key) in distinct[run.clone()].iter_mut().zip(&plan.ids()[run.clone()]) {
                    *slot = part.get(key);
                    nonzero += (*slot != E::default()) as u64;
                }
            })?;
        }
        Ok(nonzero)
    }

    /// Add `values[i]` into position `indices[i]` (the `push`+`add`
    /// operator of §III-A).
    pub fn push_add(&self, client: &NodeClock, indices: &[u64], values: &[E]) -> Result<()> {
        self.push_with(client, indices, values, |part, k, v| part.add(k, v))
    }

    /// Overwrite positions (the `push`+`set` operator).
    pub fn push_set(&self, client: &NodeClock, indices: &[u64], values: &[E]) -> Result<()> {
        self.push_with(client, indices, values, |part, k, v| part.set(k, v))
    }

    fn push_with(
        &self,
        client: &NodeClock,
        indices: &[u64],
        values: &[E],
        apply: impl Fn(&mut VecPart<E>, u64, E),
    ) -> Result<()> {
        if indices.len() != values.len() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: {} indices vs {} values",
                self.obj.name,
                indices.len(),
                values.len()
            )));
        }
        self.obj.check(indices.iter().copied())?;
        self.obj.scatter(client, indices.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                self.obj.write(server, p, |part: &mut VecPart<E>| {
                    for &pos in &positions {
                        apply(part, indices[pos], values[pos]);
                    }
                })?;
            }
            Ok((n * (8 + E::WIDTH as u64), self.obj.item_ops(n), 8))
        })
    }

    /// Pull the entire vector (bulk, one RPC per partition).
    pub fn pull_all(&self, client: &NodeClock) -> Result<Vec<E>> {
        let mut out = vec![E::default(); self.size() as usize];
        self.obj.each_partition(client, |p, server| {
            let n = server.get(&self.obj.name, p, |part: &VecPart<E>| {
                match part {
                    VecPart::Dense { start, data } => {
                        out[*start as usize..*start as usize + data.len()].copy_from_slice(data);
                    }
                    VecPart::Sparse { map } => {
                        for (&k, &v) in map {
                            out[k as usize] = v;
                        }
                    }
                }
                part.len() as u64
            })?;
            Ok((16, self.obj.item_ops(n), n * E::WIDTH as u64))
        })?;
        Ok(out)
    }

    /// Server-side fill. For sparse partitions a non-default fill is
    /// rejected (no enumerable key set).
    pub fn fill(&self, client: &NodeClock, value: E) -> Result<()> {
        self.obj.each_partition(client, |p, server| {
            let n = self.obj.write(server, p, |part: &mut VecPart<E>| {
                let n = part.len() as u64;
                match part {
                    VecPart::Dense { data, .. } => data.fill(value),
                    VecPart::Sparse { map } if value == E::default() => map.clear(),
                    VecPart::Sparse { .. } => {
                        return Err(PsError::DimensionMismatch(format!(
                            "{}: non-default fill on sparse partition",
                            self.obj.name
                        )));
                    }
                }
                Ok(n)
            })??;
            Ok((16, self.obj.item_ops(n), 8))
        })
    }

    /// Server-side `self += other; other := 0` — the PageRank step 4 of
    /// §IV-A ("PS adds Δranks to ranks and resets Δranks to zero"),
    /// executed entirely on the servers without moving the vectors.
    pub fn accumulate_and_reset(&self, client: &NodeClock, delta: &VectorHandle<E>) -> Result<()> {
        if self.obj.layout != delta.obj.layout {
            return Err(PsError::DimensionMismatch(format!(
                "{} and {} have different layouts",
                self.obj.name, delta.obj.name
            )));
        }
        self.obj.each_partition(client, |p, server| {
            // Take the delta partition's contents, zeroing it.
            let drained: Vec<(u64, E)> =
                delta.obj.write(server, p, |part: &mut VecPart<E>| match part {
                    VecPart::Dense { start, data } => {
                        let d: Vec<(u64, E)> = data
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| **v != E::default())
                            .map(|(i, v)| (*start + i as u64, *v))
                            .collect();
                        data.fill(E::default());
                        d
                    }
                    VecPart::Sparse { map } => map.drain().collect(),
                })?;
            let n = drained.len() as u64;
            self.obj.write(server, p, |part: &mut VecPart<E>| {
                for (k, v) in drained {
                    part.add(k, v);
                }
            })?;
            Ok((16, self.obj.item_ops(2 * n), 8))
        })
    }

    /// Server-side aggregate: `Σ f(value)` over all stored entries
    /// (dense: every slot; sparse: the present keys). Used for
    /// convergence checks (e.g. `Σ |Δrank|`).
    pub fn aggregate(&self, client: &NodeClock, f: impl Fn(E) -> f64) -> Result<f64> {
        let mut total = 0.0;
        self.obj.each_partition(client, |p, server| {
            let (part_sum, n) = server.get(&self.obj.name, p, |part: &VecPart<E>| {
                let sum: f64 = match part {
                    VecPart::Dense { data, .. } => data.iter().map(|&v| f(v)).sum(),
                    VecPart::Sparse { map } => map.values().map(|&v| f(v)).sum(),
                };
                (sum, part.len() as u64)
            })?;
            total += part_sum;
            Ok((16, self.obj.item_ops(n), 8))
        })?;
        Ok(total)
    }

    /// Bytes resident on the servers for this vector.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<VecPart<E>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    fn client() -> NodeClock {
        NodeClock::new()
    }

    #[test]
    fn create_pull_push_roundtrip_range() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "ranks", 100, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        assert_eq!(v.pull(&c, &[0, 50, 99]).unwrap(), vec![0.0, 0.0, 0.0]);
        v.push_add(&c, &[0, 50, 99], &[1.0, 2.0, 3.0]).unwrap();
        v.push_add(&c, &[50], &[0.5]).unwrap();
        assert_eq!(v.pull(&c, &[99, 0, 50]).unwrap(), vec![3.0, 1.0, 2.5]);
    }

    #[test]
    fn hash_partitioned_sparse_vector() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<u64>::create(
            &ps, "coreness", 1000, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_set(&c, &[7, 999, 13], &[70, 9990, 130]).unwrap();
        assert_eq!(v.pull(&c, &[999, 13, 7, 5]).unwrap(), vec![9990, 130, 70, 0]);
    }

    #[test]
    fn push_set_overwrites() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "x", 10, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_add(&c, &[3], &[5.0]).unwrap();
        v.push_set(&c, &[3], &[1.0]).unwrap();
        assert_eq!(v.pull(&c, &[3]).unwrap(), vec![1.0]);
    }

    #[test]
    fn pull_all_and_fill() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 20, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.fill(&c, 2.5).unwrap();
        let all = v.pull_all(&c).unwrap();
        assert_eq!(all.len(), 20);
        assert!(all.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn sparse_fill_default_clears() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "s", 100, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_set(&c, &[1, 2, 3], &[1.0, 2.0, 3.0]).unwrap();
        v.fill(&c, 0.0).unwrap();
        assert_eq!(v.pull(&c, &[1, 2, 3]).unwrap(), vec![0.0, 0.0, 0.0]);
        // Non-default sparse fill rejected.
        assert!(v.fill(&c, 1.0).is_err());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 10, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert!(matches!(
            v.pull(&c, &[10]),
            Err(PsError::IndexOutOfBounds { index: 10, .. })
        ));
        assert!(v.push_add(&c, &[99], &[1.0]).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 10, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert!(matches!(
            v.push_add(&c, &[1, 2], &[1.0]),
            Err(PsError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn accumulate_and_reset_matches_paper_step() {
        let ps = ps();
        let c = client();
        let ranks = VectorHandle::<f64>::create(
            &ps, "ranks", 50, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let delta = VectorHandle::<f64>::create(
            &ps, "dranks", 50, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        delta.push_add(&c, &[0, 25, 49], &[1.0, 2.0, 3.0]).unwrap();
        ranks.accumulate_and_reset(&c, &delta).unwrap();
        assert_eq!(ranks.pull(&c, &[0, 25, 49]).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(delta.pull(&c, &[0, 25, 49]).unwrap(), vec![0.0, 0.0, 0.0]);
        // Second accumulate is a no-op (delta was reset).
        ranks.accumulate_and_reset(&c, &delta).unwrap();
        assert_eq!(ranks.pull(&c, &[0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn aggregate_sums_server_side() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 30, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_add(&c, &[0, 10, 29], &[-1.0, 2.0, -3.0]).unwrap();
        let s = v.aggregate(&c, |x| x.abs()).unwrap();
        assert!((s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn operations_cost_simulated_time() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 1000, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let t0 = c.now();
        let idx: Vec<u64> = (0..1000).collect();
        v.pull(&c, &idx).unwrap();
        assert!(c.now() > t0);
    }

    #[test]
    fn pull_sparse_bills_each_server_for_its_own_share() {
        let ps = Ps::new(PsConfig { servers: 4, ..Default::default() });
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 1000, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let idx: Vec<u64> = (0..1000).collect();
        // One entry in ten is nonzero, as in a late PageRank round.
        let hot: Vec<u64> = (0..1000).step_by(10).collect();
        v.push_set(&c, &hot, &vec![1.0; hot.len()]).unwrap();

        // (request bytes, response bytes, client round-trip time) of `f`.
        let stats = ps.network().stats();
        let charged = |f: &dyn Fn()| {
            let (sent, recv, t0) = (stats.bytes_sent(), stats.bytes_received(), c.now());
            f();
            (stats.bytes_sent() - sent, stats.bytes_received() - recv, c.now() - t0)
        };
        let (dense_sent, dense_recv, dense_time) = charged(&|| drop(v.pull(&c, &idx).unwrap()));
        let (sparse_sent, sparse_recv, sparse_time) =
            charged(&|| drop(v.pull_sparse(&c, &idx).unwrap()));
        assert_eq!(dense_sent, 8 * 1000);
        assert_eq!(sparse_sent, 8 * 1000, "each server is sent its own indices only");
        // 100 values plus one 250-bit presence map (+8) per server.
        assert_eq!(sparse_recv, 100 * 8 + 4 * (250 / 8 + 8));
        assert!(sparse_recv < dense_recv);
        // Same server ops as `pull`, fewer bytes: never the slower call.
        assert!(sparse_time <= dense_time, "{sparse_time} vs {dense_time}");
        assert_eq!(v.pull_sparse(&c, &idx).unwrap(), v.pull(&c, &idx).unwrap());
    }

    #[test]
    fn dead_server_fails_pull() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 30, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        ps.kill_server(0);
        let err = v.pull_all(&c).unwrap_err();
        assert!(matches!(err, PsError::ServerDown { id: 0 }));
    }

    #[test]
    fn checkpoint_and_recover_failed_server() {
        let ps = ps();
        let c = client();
        let dfs = Dfs::in_memory();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 90, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let idx: Vec<u64> = (0..90).collect();
        let vals: Vec<f64> = (0..90).map(|i| i as f64).collect();
        v.push_set(&c, &idx, &vals).unwrap();
        ps.checkpoint_all(&dfs).unwrap();
        // Lose server 1 after further (uncheckpointed) updates.
        v.push_add(&c, &[0], &[100.0]).unwrap();
        ps.kill_server(1);
        ps.restart_server(1, c.now());
        ps.recover_server(1, &dfs, &c).unwrap();
        let all = v.pull_all(&c).unwrap();
        // Server 1's partition restored from checkpoint…
        assert_eq!(all[30], 30.0);
        assert_eq!(all[59], 59.0);
        // …while inconsistency-tolerant recovery kept server 0's later
        // update (index 0 lives on server 0).
        assert_eq!(all[0], 100.0);
    }

    #[test]
    fn consistent_recovery_rolls_everyone_back() {
        let ps = ps();
        let c = client();
        let dfs = Dfs::in_memory();
        let v = VectorHandle::<f64>::create(
            &ps, "ranks", 90, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        v.push_set(&c, &[0, 40, 80], &[1.0, 2.0, 3.0]).unwrap();
        ps.checkpoint_all(&dfs).unwrap();
        v.push_add(&c, &[0, 40, 80], &[10.0, 10.0, 10.0]).unwrap();
        ps.kill_server(2);
        ps.restart_server(2, c.now());
        ps.recover_server(2, &dfs, &c).unwrap();
        // All partitions rolled back to checkpoint values.
        assert_eq!(v.pull(&c, &[0, 40, 80]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn recovery_without_checkpoint_fails() {
        let ps = ps();
        let c = client();
        let dfs = Dfs::in_memory();
        let _v = VectorHandle::<f64>::create(
            &ps, "v", 30, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        ps.kill_server(0);
        ps.restart_server(0, c.now());
        assert!(matches!(
            ps.recover_server(0, &dfs, &c),
            Err(PsError::NoCheckpoint(_))
        ));
    }

    #[test]
    fn vecpart_encode_decode_roundtrip() {
        let dense: VecPart<f64> = VecPart::Dense { start: 10, data: vec![1.0, -2.0, 3.5] };
        assert_eq!(VecPart::<f64>::decode(&dense.encode()).unwrap(), dense);
        let mut map = FxHashMap::default();
        map.insert(5u64, 7u64);
        map.insert(99, 1);
        let sparse: VecPart<u64> = VecPart::Sparse { map };
        assert_eq!(VecPart::<u64>::decode(&sparse.encode()).unwrap(), sparse);
        assert!(VecPart::<u64>::decode(&[]).is_err());
        assert!(VecPart::<u64>::decode(&[9]).is_err());
    }

    #[test]
    fn resident_bytes_reflects_content() {
        let ps = ps();
        let c = client();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 1000, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let r = v.resident_bytes().unwrap();
        assert!(r >= 8000, "dense vector should charge ≥ 8 B/slot, got {r}");
        assert!(ps.resident_bytes() >= r);
        drop(v);
        ps.unregister("v");
        assert_eq!(ps.resident_bytes(), 0);
        c.now(); // silence unused
    }
}
