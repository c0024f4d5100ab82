//! Partitioned, memory-accounted, lineage-tracked datasets.
//!
//! An [`Rdd`] is materialized eagerly (this simulator has no lazy DAG
//! optimizer — stage fusion is modeled by `map_partitions`). Every
//! partition has one *recipe*, a closure that reads the partition's
//! parents (or its stable source) and computes it: the build runs it, and
//! the RDD keeps it as its lineage. When an executor dies, partitions
//! written under its old incarnation become unreadable and
//! [`Rdd::recover`] replays the same recipe for exactly those — Spark's
//! lineage recovery in miniature (paper §III-C "Failure recovery"). A
//! rebuilt partition therefore costs, and reserves, what its build did.

use psgraph_sim::sync::RwLock;
use psgraph_sim::SimTime;
use std::sync::Arc;

use crate::cluster::{Cluster, Executor};
use crate::error::{DataflowError, Result};
use crate::record::{slice_bytes, Record};

/// How partition `p` is computed on an executor: the build and every
/// rebuild run it.
type Recipe<T> = Arc<dyn Fn(usize, &Executor) -> Result<Vec<T>> + Send + Sync>;

struct PartitionSlot<T> {
    /// Partition contents, plus the executor incarnation that wrote them.
    data: RwLock<Option<(Arc<Vec<T>>, u64)>>,
}

impl<T> Default for PartitionSlot<T> {
    fn default() -> Self {
        PartitionSlot { data: RwLock::new(None) }
    }
}

struct RddInner<T: Record> {
    cluster: Arc<Cluster>,
    name: String,
    parts: Vec<PartitionSlot<T>>,
    /// Bytes charged per partition, and the executor incarnation charged.
    charged: Vec<psgraph_sim::sync::Mutex<(u64, u64)>>,
}

impl<T: Record> RddInner<T> {
    /// Hand partition `p`'s charge back — unless the incarnation it was
    /// charged to was killed since, which emptied the meter already.
    fn release(&self, p: usize) {
        let (bytes, incarnation) = std::mem::take(&mut *self.charged[p].lock());
        let exec = self.cluster.executor_for(p);
        if bytes > 0 && incarnation == exec.incarnation() {
            exec.memory().free(bytes);
        }
    }
}

impl<T: Record> Drop for RddInner<T> {
    fn drop(&mut self) {
        for p in 0..self.charged.len() {
            self.release(p);
        }
    }
}

/// A partitioned distributed dataset. Cheap to clone (shared partitions).
pub struct Rdd<T: Record> {
    inner: Arc<RddInner<T>>,
    recipe: Recipe<T>,
}

impl<T: Record> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd { inner: Arc::clone(&self.inner), recipe: Arc::clone(&self.recipe) }
    }
}

impl<T: Record> std::fmt::Debug for Rdd<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rdd")
            .field("name", &self.inner.name)
            .field("partitions", &self.inner.parts.len())
            .finish()
    }
}

impl<T: Record> Rdd<T> {
    /// Materialize an RDD by running `recipe` for every partition on its
    /// home executor. The recipe is also the RDD's lineage: [`Rdd::recover`]
    /// and [`Rdd::partition_or_recompute`] replay it, so it reads its
    /// parents through [`Rdd::partition_or_recompute`] (the live copy when
    /// there is one) and reaches back to a stable source.
    pub fn materialize(
        cluster: &Arc<Cluster>,
        name: impl Into<String>,
        partitions: usize,
        recipe: impl Fn(usize, &Executor) -> Result<Vec<T>> + Send + Sync + 'static,
    ) -> Result<Self> {
        assert!(partitions > 0, "rdd needs at least one partition");
        let inner = Arc::new(RddInner {
            cluster: Arc::clone(cluster),
            name: name.into(),
            parts: (0..partitions).map(|_| PartitionSlot::default()).collect(),
            charged: (0..partitions).map(|_| psgraph_sim::sync::Mutex::new((0, 0))).collect(),
        });
        let recipe: Recipe<T> = Arc::new(recipe);
        cluster.run_stage(partitions, |p, exec| {
            let data = recipe(p, exec)?;
            store_partition(&inner, p, exec, data)
        })?;
        Ok(Rdd { inner, recipe })
    }

    /// Distribute a driver-side vector across the cluster (round-robin:
    /// partition `p` holds every `partitions`-th record from the `p`-th).
    /// The source vector itself is the stable source, so this RDD is
    /// always recoverable.
    pub fn from_vec(cluster: &Arc<Cluster>, data: Vec<T>, partitions: usize) -> Result<Self> {
        let n = partitions.max(1);
        Rdd::materialize(cluster, "from_vec", n, move |p, _exec| {
            Ok(data.iter().skip(p).step_by(n).cloned().collect())
        })
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.inner.cluster
    }

    pub fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    /// Read partition `p`, failing if its home executor is dead or the
    /// data was lost to a restart.
    pub fn partition(&self, p: usize) -> Result<Arc<Vec<T>>> {
        let exec = self.inner.cluster.executor_for(p);
        if !exec.is_alive() {
            return Err(DataflowError::ExecutorLost { id: exec.id() });
        }
        let guard = self.inner.parts[p].data.read();
        match &*guard {
            Some((data, inc)) if *inc == exec.incarnation() => Ok(Arc::clone(data)),
            _ => Err(DataflowError::ExecutorLost { id: exec.id() }),
        }
    }

    /// [`Rdd::partition`] for each of `parts` — what an executor task of
    /// [`Cluster::run_executors`] reads.
    pub fn partitions(&self, parts: &[usize]) -> Result<Vec<Arc<Vec<T>>>> {
        parts.iter().map(|&p| self.partition(p)).collect()
    }

    /// Like [`Rdd::partition`] but falls back to recomputing through
    /// lineage (without re-caching), as Spark does for uncached ancestors.
    pub fn partition_or_recompute(&self, p: usize, exec: &Executor) -> Result<Arc<Vec<T>>> {
        match self.partition(p) {
            Ok(d) => Ok(d),
            Err(DataflowError::ExecutorLost { .. }) => Ok(Arc::new((self.recipe)(p, exec)?)),
            Err(e) => Err(e),
        }
    }

    /// Rebuild every partition lost to executor failure (or dropped by
    /// [`Rdd::unpersist`]) on its (restarted) home executor, by replaying
    /// its recipe. No-op for healthy partitions.
    pub fn recover(&self) -> Result<()> {
        for p in (0..self.num_partitions()).filter(|&p| self.partition(p).is_err()) {
            let exec = self.inner.cluster.executor_for(p);
            if !exec.is_alive() {
                return Err(DataflowError::ExecutorLost { id: exec.id() });
            }
            self.inner.release(p);
            let data = (self.recipe)(p, exec)?;
            store_partition(&self.inner, p, exec, data)?;
        }
        Ok(())
    }

    /// Total number of records.
    pub fn count(&self) -> Result<usize> {
        let counts = self.inner.cluster.run_stage(self.num_partitions(), |p, _exec| {
            Ok(self.partition(p)?.len())
        })?;
        Ok(counts.into_iter().sum())
    }

    /// Gather all records to the driver, in partition order. Once the
    /// stage that built them is over, the driver fetches each executor's
    /// partitions as one leg, all legs in flight together
    /// (`Cluster::fetch`); the partitions are cached in memory, so a
    /// source serves its leg without a disk read.
    pub fn collect(&self) -> Result<Vec<T>> {
        let cluster = &self.inner.cluster;
        let parts: Vec<_> =
            (0..self.num_partitions()).map(|p| self.partition(p)).collect::<Result<_>>()?;
        let driver = cluster.driver();
        let blocks = parts.iter().enumerate();
        cluster.fetch(
            driver,
            driver.now().max(cluster.now()),
            None,
            blocks.map(|(p, part)| (cluster.executor_for(p).id(), slice_bytes(part))),
            |_| SimTime::ZERO,
        );
        cluster.clock().barrier([driver]);
        Ok(parts.iter().flat_map(|part| part.iter().cloned()).collect())
    }

    /// Narrow transformation: apply `f` to every record.
    pub fn map<U: Record>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync + 'static,
    ) -> Result<Rdd<U>> {
        let ops = self.inner.cluster.config().ops_per_record;
        self.map_partitions(move |items| items.iter().map(&f).collect(), ops)
    }

    /// Narrow transformation: keep records satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Result<Rdd<T>> {
        let ops = self.inner.cluster.config().ops_per_record;
        self.map_partitions(
            move |items| items.iter().filter(|t| pred(t)).cloned().collect(),
            ops,
        )
    }

    /// Narrow transformation: one-to-many.
    pub fn flat_map<U: Record>(
        &self,
        f: impl Fn(&T) -> Vec<U> + Send + Sync + 'static,
    ) -> Result<Rdd<U>> {
        let ops = self.inner.cluster.config().ops_per_record;
        self.map_partitions(move |items| items.iter().flat_map(&f).collect(), ops)
    }

    /// The workhorse narrow op: transform a whole partition at once,
    /// charging `ops_per_record × |partition|` of CPU. Lineage composes:
    /// the recipe reads the parent partition (its live copy, or the
    /// parent's own recipe replayed) and re-applies `f`.
    pub fn map_partitions<U: Record>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
        ops_per_record: u64,
    ) -> Result<Rdd<U>> {
        let parent = self.clone();
        let name = format!("{}→map", self.inner.name);
        Rdd::materialize(self.cluster(), name, self.num_partitions(), move |p, exec| {
            let src = parent.partition_or_recompute(p, exec)?;
            exec.charge_cpu(parent.cluster().cost(), src.len() as u64 * ops_per_record);
            Ok(f(&src))
        })
    }

    /// Concatenate two RDDs (narrow union: partitions interleave).
    pub fn union(&self, other: &Rdd<T>) -> Result<Rdd<T>> {
        let (a, b) = (self.clone(), other.clone());
        let na = self.num_partitions();
        let total = na + other.num_partitions();
        Rdd::materialize(self.cluster(), "union", total, move |p, exec| {
            let part = if p < na {
                a.partition_or_recompute(p, exec)?
            } else {
                b.partition_or_recompute(p - na, exec)?
            };
            Ok(part.as_ref().clone())
        })
    }

    /// Fold every record into an accumulator on the driver.
    pub fn fold<A>(&self, init: A, f: impl Fn(A, &T) -> A) -> Result<A> {
        let mut acc = init;
        for p in 0..self.num_partitions() {
            let part = self.partition(p)?;
            for item in part.iter() {
                acc = f(acc, item);
            }
        }
        Ok(acc)
    }

    /// Drop the materialized partitions and release their memory, keeping
    /// the lineage (Spark's `unpersist`): a child that rebuilds a lost
    /// partition recomputes this RDD's through its recipe, uncached, and
    /// [`Rdd::recover`] rebuilds them all. Meant for a shuffled RDD read
    /// only through a materialized child: its recipe replays the retained
    /// shuffle files and pins no ancestor.
    pub fn unpersist(&self) {
        for (p, slot) in self.inner.parts.iter().enumerate() {
            *slot.data.write() = None;
            self.inner.release(p);
        }
    }
}

/// Write `data` into slot `p`, charging the executor's memory meter.
fn store_partition<T: Record>(
    inner: &Arc<RddInner<T>>,
    p: usize,
    exec: &Executor,
    data: Vec<T>,
) -> Result<()> {
    let overhead = inner.cluster.config().record_overhead;
    let bytes = slice_bytes(&data)
        + (data.len() as u64 + crate::record::slice_boxed_elems(&data)) * overhead
        + 64; // partition object overhead
    exec.memory().alloc(bytes)?;
    *inner.charged[p].lock() = (bytes, exec.incarnation());
    *inner.parts[p].data.write() = Some((Arc::new(data), exec.incarnation()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Arc<Cluster> {
        Cluster::local()
    }

    #[test]
    fn from_vec_distributes_and_collects() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..100u64).collect(), 8).unwrap();
        assert_eq!(rdd.num_partitions(), 8);
        assert_eq!(rdd.count().unwrap(), 100);
        let mut got = rdd.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn map_filter_flat_map_compose() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..10u64).collect(), 4).unwrap();
        let out = rdd
            .map(|x| x * 2)
            .unwrap()
            .filter(|x| *x % 4 == 0)
            .unwrap()
            .flat_map(|x| vec![*x, *x + 1])
            .unwrap();
        let mut got = out.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5, 8, 9, 12, 13, 16, 17]);
    }

    #[test]
    fn memory_charged_and_released() {
        let c = cluster();
        let used_before: u64 = (0..c.num_executors()).map(|i| c.executor(i).memory().in_use()).sum();
        let rdd = Rdd::from_vec(&c, vec![0u64; 10_000], 4).unwrap();
        let used_mid: u64 = (0..c.num_executors()).map(|i| c.executor(i).memory().in_use()).sum();
        assert!(used_mid >= used_before + 80_000);
        drop(rdd);
        let used_after: u64 = (0..c.num_executors()).map(|i| c.executor(i).memory().in_use()).sum();
        assert_eq!(used_after, used_before);
    }

    #[test]
    fn oom_when_partition_exceeds_budget() {
        let cfg = crate::ClusterConfig::default().with_memory(1000);
        let c = Cluster::new(cfg);
        let err = Rdd::from_vec(&c, vec![0u64; 100_000], 4).unwrap_err();
        assert!(matches!(err, DataflowError::Oom(_)), "got {err}");
    }

    #[test]
    fn failed_rdd_frees_partial_allocations() {
        let cfg = crate::ClusterConfig::default().with_memory(1000);
        let c = Cluster::new(cfg);
        let _ = Rdd::from_vec(&c, vec![0u64; 100_000], 4);
        for i in 0..c.num_executors() {
            assert_eq!(c.executor(i).memory().in_use(), 0, "executor {i} leaked");
        }
    }

    #[test]
    fn executor_kill_loses_partition_and_recover_rebuilds() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..100u64).collect(), 8).unwrap();
        let mapped = rdd.map(|x| x + 1).unwrap();
        c.kill_executor(1);
        assert!(matches!(
            mapped.partition(1),
            Err(DataflowError::ExecutorLost { id: 1 })
        ));
        assert!(mapped.collect().is_err());
        c.restart_executor(1);
        mapped.recover().unwrap();
        let mut got = mapped.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, (1..101).collect::<Vec<u64>>());
    }

    #[test]
    fn an_unpersisted_parent_frees_its_memory_and_still_rebuilds_a_child() {
        let c = cluster();
        let exec = c.executor(1);
        let idle = exec.memory().in_use();
        let parent = Rdd::from_vec(&c, (0..64u64).collect(), 8).unwrap();
        let child = parent.map(|x| x * 2).unwrap();
        let both = exec.memory().in_use();
        parent.unpersist();
        assert!(exec.memory().in_use() < both, "the parent's partitions are released");
        assert!(parent.partition(1).is_err(), "and no longer readable");
        c.kill_executor(1);
        c.restart_executor(1);
        child.recover().unwrap();
        let mut got = child.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
        drop((parent, child));
        assert_eq!(exec.memory().in_use(), idle);
    }

    #[test]
    fn recovery_is_partition_precise() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..64u64).collect(), 8).unwrap();
        c.kill_executor(2);
        c.restart_executor(2);
        rdd.recover().unwrap();
        // Only partitions 2 and 6 (home: executor 2) were rebuilt; totals intact.
        assert_eq!(rdd.count().unwrap(), 64);
    }

    #[test]
    fn a_killed_executors_charges_are_not_freed_twice() {
        let c = cluster();
        let exec = c.executor(2);
        // Partitions 2 and 6 live on executor 2, for both RDDs.
        let kept = Rdd::from_vec(&c, (0..64u64).collect(), 8).unwrap();
        let lost = Rdd::from_vec(&c, (0..64u64).collect(), 8).unwrap();
        let held = exec.memory().in_use();
        c.kill_executor(2);
        c.restart_executor(2);
        // The kill emptied the meter; the rebuilt partitions are charged
        // again, and what the dead incarnation held is not taken off them.
        kept.recover().unwrap();
        let rebuilt = exec.memory().in_use();
        assert_eq!(rebuilt * 2, held);
        drop(lost);
        assert_eq!(exec.memory().in_use(), rebuilt);
        kept.unpersist();
        assert_eq!(exec.memory().in_use(), 0);
    }

    #[test]
    fn union_concatenates() {
        let c = cluster();
        let a = Rdd::from_vec(&c, vec![1u64, 2], 2).unwrap();
        let b = Rdd::from_vec(&c, vec![3u64, 4, 5], 2).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.num_partitions(), 4);
        let mut got = u.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fold_accumulates() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (1..=10u64).collect(), 3).unwrap();
        let sum = rdd.fold(0u64, |acc, x| acc + x).unwrap();
        assert_eq!(sum, 55);
    }

    #[test]
    fn collect_fetches_each_executors_partitions_as_one_leg_all_in_flight() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, vec![0u64; 100_000], 8).unwrap();
        c.clock().advance(SimTime::from_millis(5));
        let rpcs = c.network().stats().rpcs();
        assert_eq!(rdd.collect().unwrap().len(), 100_000);
        // The driver leaves once the cluster is at 5 ms. Each of the four
        // executors holds two partitions of 100 000 B: 16 B of block ids
        // out (25 014 ns), 200 000 B back (206 818 ns), all four at once.
        let cost = c.cost();
        assert_eq!((cost.net_cost(16) + cost.net_cost(200_000)).as_nanos(), 231_832);
        assert_eq!(c.driver().now(), SimTime::from_millis(5) + SimTime(231_832));
        assert_eq!(c.now(), c.driver().now());
        assert_eq!(c.network().stats().rpcs() - rpcs, 4);
    }

    #[test]
    fn map_charges_compute_time() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..100_000u64).collect(), 8).unwrap();
        let before = c.now();
        let _m = rdd.map(|x| x + 1).unwrap();
        assert!(c.now() > before);
    }

    #[test]
    fn lineage_chain_recovers_through_multiple_maps() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..40u64).collect(), 4).unwrap();
        let m1 = rdd.map(|x| x * 10).unwrap();
        let m2 = m1.map(|x| x + 1).unwrap();
        drop(rdd);
        drop(m1); // ancestors gone; m2's recipe keeps theirs
        c.kill_executor(3);
        c.restart_executor(3);
        m2.recover().unwrap();
        let mut got = m2.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..40).map(|x| x * 10 + 1).collect::<Vec<u64>>());
    }
}
