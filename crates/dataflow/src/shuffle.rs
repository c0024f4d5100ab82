//! Wide (shuffle) operations: `group_by_key`, `reduce_by_key`, `join`,
//! `partition_by`, `distinct`.
//!
//! The shuffle follows Spark's hash shuffle:
//!
//! * **Map side** — each input partition is bucketed by `hash(key) % R`,
//!   serialized, and spilled to local disk (we charge serialization CPU
//!   and disk-write time; the bucketed data itself is "on disk", i.e. not
//!   held against the executor's memory budget).
//! * **Reduce side** — each output partition fetches its buckets with
//!   one leg per source executor, all in flight, each source reading its
//!   own shuffle files from its own disk (remote legs also cross the
//!   network); then it deserializes them and aggregates in an in-memory
//!   hash table. The hash table and the materialized output *are*
//!   charged against the memory budget — this is exactly where GraphX's
//!   join-based message passing explodes on power-law graphs (Fig. 6).

use psgraph_sim::FxHashMap;
use std::hash::Hash;
use std::sync::Arc;

use psgraph_sim::sync::Mutex;
use psgraph_sim::memory::Reservation;

use crate::cluster::{Cluster, Executor};
use crate::error::Result;
use crate::rdd::{Provenance, Rdd};
use crate::record::{slice_bytes, Record};

/// CPU ops charged per record for hashing/bucketing.
const HASH_OPS: u64 = 6;
/// Extra transient memory factor for hash-table overhead during
/// aggregation (bucket array, entry headers — the JVM pays more).
const HASH_TABLE_OVERHEAD_NUM: u64 = 1;
const HASH_TABLE_OVERHEAD_DEN: u64 = 2;

/// Deterministic shuffle partition of a key.
#[inline]
pub fn key_partition<K: Hash>(key: &K, num_out: usize) -> usize {
    use std::hash::Hasher;
    let mut h = psgraph_sim::FxHasher::default();
    key.hash(&mut h);
    (h.finish() % num_out as u64) as usize
}

/// One map task's output destined for one reduce partition.
struct BucketChunk<K, V> {
    /// Map partition that produced this chunk — the reduce side merges
    /// chunks in `from_part` order so output bytes never depend on the
    /// (scheduling-dependent) order map tasks finished.
    from_part: usize,
    from_exec: usize,
    bytes: u64,
    pairs: Vec<(K, V)>,
}

type ShuffleOutput<K, V> = Vec<Mutex<Vec<BucketChunk<K, V>>>>;

/// A pipelined map-side extractor: parent record → (key, value) pairs.
type FlatMapFn<T, K, V> = Arc<dyn Fn(&T, &mut Vec<(K, V)>) + Send + Sync>;

/// A map-side combiner (pre-aggregation within one map task).
type CombineFn<K, V> = Arc<dyn Fn(&mut Vec<(K, V)>) + Send + Sync>;

/// The reduce-side aggregation producing the output partition.
type AggFn<K, V, U> = Arc<dyn Fn(Vec<(K, V)>) -> Vec<U> + Send + Sync>;

/// Map side of the shuffle: flat-map `parent` records through `fm` and
/// bucket the pairs into `num_out` partitions. `fm` models Spark's stage
/// pipelining: the mapped pairs go straight into the shuffle write
/// without ever existing as a materialized RDD. `combine` optionally
/// pre-aggregates within each map task (map-side combine, as
/// `reduceByKey` does) to cut shuffle volume.
fn shuffle_map_side<T, K, V>(
    parent: &Rdd<T>,
    num_out: usize,
    fm: FlatMapFn<T, K, V>,
    combine: Option<CombineFn<K, V>>,
) -> Result<Arc<ShuffleOutput<K, V>>>
where
    T: Record,
    K: Record + Hash + Eq,
    V: Record,
{
    let out: Arc<ShuffleOutput<K, V>> =
        Arc::new((0..num_out).map(|_| Mutex::new(Vec::new())).collect());
    let cluster = Arc::clone(parent.cluster());
    let cluster2 = Arc::clone(&cluster);
    let out2 = Arc::clone(&out);

    cluster2.run_stage(parent.num_partitions(), move |p, exec| {
        let data = parent.partition(p)?;
        let in_bytes = slice_bytes(&data);
        // Transient working set while bucketing one partition.
        let _reservation = Reservation::new(exec.memory(), in_bytes)?;

        exec.charge_cpu(cluster.cost(), data.len() as u64 * HASH_OPS);
        let mut buckets: Vec<Vec<(K, V)>> = (0..num_out).map(|_| Vec::new()).collect();
        let mut scratch = Vec::new();
        for t in data.iter() {
            fm(t, &mut scratch);
            for (k, v) in scratch.drain(..) {
                let b = key_partition(&k, num_out);
                buckets[b].push((k, v));
            }
        }
        if let Some(combine) = &combine {
            for b in &mut buckets {
                combine(b);
            }
            exec.charge_cpu(cluster.cost(), data.len() as u64 * HASH_OPS);
        }
        // Serialize + spill each bucket to local disk.
        for (out_p, pairs) in buckets.into_iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let bytes = slice_bytes(&pairs);
            exec.clock().advance(cluster.cost().ser_cost(bytes));
            exec.clock().advance(cluster.cost().disk_bulk_cost(bytes));
            out2[out_p]
                .lock()
                .push(BucketChunk { from_part: p, from_exec: exec.id(), bytes, pairs });
        }
        Ok(())
    })?;

    Ok(out)
}

/// Reduce-side fetch for output partition `p`: charges the fetch and the
/// deserialization and returns the merged pair stream plus its byte
/// volume. The fetch is Spark's: one leg per source executor, all in
/// flight together, each source reading its own shuffle files from its
/// own disk ([`Cluster::fetch`]); the reducer resumes at the slowest leg
/// and then deserializes every byte. The chunks stay retained (shuffle
/// files persist on local disk / the external shuffle service until the
/// shuffled RDD is dropped, as in Spark), which is also what the shuffled
/// RDD's provenance replays on recovery.
fn fetch_bucket<K, V>(
    chunks: &[BucketChunk<K, V>],
    exec: &Executor,
    cluster: &Cluster,
) -> (Vec<(K, V)>, u64)
where
    K: Record,
    V: Record,
{
    // Canonical merge order: by producing map partition, not by the
    // (scheduling-dependent) order map tasks appended their chunks.
    let mut order: Vec<&BucketChunk<K, V>> = chunks.iter().collect();
    order.sort_unstable_by_key(|chunk| chunk.from_part);
    let merged = order.iter().flat_map(|chunk| chunk.pairs.iter().cloned()).collect();
    let cost = cluster.cost();
    let bytes = cluster.fetch(
        exec.clock(),
        exec.clock().now(),
        Some(exec.id()),
        chunks.iter().map(|chunk| (chunk.from_exec, chunk.bytes)),
        |bytes| cost.disk_bulk_cost(bytes),
    );
    exec.clock().advance(cost.ser_cost(bytes));
    (merged, bytes)
}

/// The extractor of a pair RDD's own wide ops: each record is its pair.
fn push_pair<K: Record, V: Record>(kv: &(K, V), out: &mut Vec<(K, V)>) {
    out.push(kv.clone());
}

/// Combine `pairs` into one value per key with `f`, each key's values
/// folded in arrival order — both the map-side combine and the reduce of
/// a `reduce_by_key`.
fn fold_by_key<K: Hash + Eq, V>(
    pairs: impl IntoIterator<Item = (K, V)>,
    f: &impl Fn(&V, &V) -> V,
) -> FxHashMap<K, V> {
    let mut map: FxHashMap<K, V> = FxHashMap::default();
    for (k, v) in pairs {
        match map.entry(k) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let nv = f(e.get(), &v);
                e.insert(nv);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v);
            }
        }
    }
    map
}

/// Generic shuffled RDD: map side through the pipelined extractor `fm`,
/// then per-output aggregation `agg`.
fn shuffled<T, K, V, U>(
    parent: &Rdd<T>,
    fm: FlatMapFn<T, K, V>,
    name: &str,
    num_out: usize,
    combine: Option<CombineFn<K, V>>,
    agg: AggFn<K, V, U>,
) -> Result<Rdd<U>>
where
    T: Record,
    K: Record + Hash + Eq,
    V: Record,
    U: Record,
{
    assert!(num_out > 0, "need at least one output partition");
    let buckets = shuffle_map_side(parent, num_out, fm, combine)?;
    let cluster = Arc::clone(parent.cluster());

    // Provenance replays the retained shuffle files — NOT the parent
    // lineage. Shuffle files live on local disk behind the external
    // shuffle service (standard Yarn deployments, as at Tencent) and
    // survive executor restarts; crucially this means a shuffled RDD does
    // not pin its ancestors in memory, exactly like Spark, where only the
    // driver's lineage metadata persists across stages.
    let buckets_prov = Arc::clone(&buckets);
    let agg_prov = Arc::clone(&agg);
    let cluster_prov = Arc::clone(&cluster);
    let prov: Provenance<U> = Arc::new(move |p, exec| {
        let guard = buckets_prov[p].lock();
        let (merged, _) = fetch_bucket(&guard, exec, &cluster_prov);
        Ok(agg_prov(merged))
    });

    let cluster2 = Arc::clone(&cluster);
    let buckets2 = Arc::clone(&buckets);
    Rdd::materialize(&cluster, name, num_out, prov, move |p, exec| {
        let guard = buckets2[p].lock();
        let (merged, in_bytes) = fetch_bucket(&guard, exec, &cluster2);
        drop(guard);
        // Hash-table overhead while aggregating.
        let overhead = in_bytes * HASH_TABLE_OVERHEAD_NUM / HASH_TABLE_OVERHEAD_DEN + 64;
        let _reservation = Reservation::new(exec.memory(), in_bytes + overhead)?;
        exec.charge_cpu(cluster2.cost(), merged.len() as u64 * HASH_OPS);
        Ok(agg(merged))
    })
}

impl<K, V> Rdd<(K, V)>
where
    K: Record + Hash + Eq,
    V: Record,
{
    /// Group values by key into `num_out` partitions (full shuffle, no
    /// map-side combine — this is the expensive `groupBy` the paper uses
    /// to build neighbor tables).
    pub fn group_by_key(&self, num_out: usize) -> Result<Rdd<(K, Vec<V>)>> {
        self.flat_map_group_by_key_with(num_out, push_pair, |_, _| {})
    }

    /// Like [`Rdd::group_by_key`] but post-processes each group in place
    /// inside the aggregation (e.g. sort + dedup), avoiding a second
    /// materialized copy of the grouped data.
    pub fn group_by_key_with(
        &self,
        num_out: usize,
        post: impl Fn(&K, &mut Vec<V>) + Send + Sync + 'static,
    ) -> Result<Rdd<(K, Vec<V>)>> {
        self.flat_map_group_by_key_with(num_out, push_pair, post)
    }

    /// Combine values per key with `f` (map-side combine included).
    pub fn reduce_by_key(
        &self,
        num_out: usize,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Result<Rdd<(K, V)>> {
        self.flat_map_reduce_by_key(num_out, push_pair, f)
    }

    /// Inner hash join. Both sides are shuffled into `num_out`
    /// partitions; the left side is the build side (its hash table is
    /// charged to memory), the right side streams, so the output is
    /// right-major (see `join_build_left`). Output cardinality is the
    /// sum over keys of |left(k)| × |right(k)| — on skewed graphs this is
    /// the memory bomb that kills GraphX.
    pub fn join<W>(&self, other: &Rdd<(K, W)>, num_out: usize) -> Result<Rdd<(K, (V, W))>>
    where
        W: Record,
    {
        assert!(num_out > 0, "need at least one output partition");
        let left_buckets = shuffle_map_side(self, num_out, Arc::new(push_pair), None)?;
        let right_buckets = shuffle_map_side(other, num_out, Arc::new(push_pair), None)?;
        let cluster = Arc::clone(self.cluster());

        // Provenance replays the retained shuffle files (see `shuffled`).
        let lb_prov = Arc::clone(&left_buckets);
        let rb_prov = Arc::clone(&right_buckets);
        let cluster_prov = Arc::clone(&cluster);
        let prov: Provenance<(K, (V, W))> = Arc::new(move |p, exec| {
            let (l, _) = fetch_bucket(&lb_prov[p].lock(), exec, &cluster_prov);
            let (r, _) = fetch_bucket(&rb_prov[p].lock(), exec, &cluster_prov);
            Ok(join_build_left(&l, &r))
        });

        let cluster2 = Arc::clone(&cluster);
        Rdd::materialize(&cluster, "join", num_out, prov, move |p, exec| {
            let (left, lbytes) = fetch_bucket(&left_buckets[p].lock(), exec, &cluster2);
            let (right, rbytes) = fetch_bucket(&right_buckets[p].lock(), exec, &cluster2);
            // Build-side hash table + streamed probe side working set.
            let overhead =
                lbytes + lbytes * HASH_TABLE_OVERHEAD_NUM / HASH_TABLE_OVERHEAD_DEN + rbytes + 64;
            let _reservation = Reservation::new(exec.memory(), overhead)?;
            exec.charge_cpu(
                cluster2.cost(),
                (left.len() + right.len()) as u64 * HASH_OPS,
            );
            Ok(join_build_left(&left, &right))
        })
    }

    /// Repartition by key without aggregation.
    pub fn partition_by_key(&self, num_out: usize) -> Result<Rdd<(K, V)>> {
        let keep = Arc::new(|pairs| pairs);
        shuffled(self, Arc::new(push_pair), "partition_by_key", num_out, None, keep)
    }

    /// Hash join against an already hash-partitioned table with the same
    /// partition count (the caller guarantees co-partitioning — e.g. both
    /// sides came from [`Rdd::partition_by_key`] with `num_out`
    /// partitions). No shuffle moves: each partition joins locally, as
    /// Spark does when the partitioners match (GraphX's standard
    /// vertex-table join path). The table is built over the smaller side:
    /// the output is right-major if that is `self`, left-major if it is
    /// `other`.
    pub fn join_copartitioned<W>(&self, other: &Rdd<(K, W)>) -> Result<Rdd<(K, (V, W))>>
    where
        W: Record,
    {
        let num_out = self.num_partitions();
        if other.num_partitions() != num_out {
            return Err(crate::DataflowError::Other(format!(
                "join_copartitioned: {} vs {} partitions",
                num_out,
                other.num_partitions()
            )));
        }
        let join = |l: &[(K, V)], r: &[(K, W)]| {
            if l.len() <= r.len() {
                join_build_left(l, r)
            } else {
                join_build_right(l, r)
            }
        };
        let cluster = Arc::clone(self.cluster());
        let left = self.clone();
        let right = other.clone();
        let left_prov = self.clone();
        let right_prov = other.clone();
        let prov: Provenance<(K, (V, W))> = Arc::new(move |p, exec| {
            let l = left_prov.partition_or_recompute(p, exec)?;
            let r = right_prov.partition_or_recompute(p, exec)?;
            Ok(join(&l, &r))
        });
        let cluster2 = Arc::clone(&cluster);
        Rdd::materialize(&cluster, "join_copart", num_out, prov, move |p, exec| {
            let l = left.partition(p)?;
            let r = right.partition(p)?;
            let lbytes = slice_bytes(&l);
            let rbytes = slice_bytes(&r);
            // The hash table is built over the *smaller* side, by
            // reference — only that side's bytes carry table overhead.
            let build_bytes = lbytes.min(rbytes);
            let overhead =
                build_bytes + build_bytes * HASH_TABLE_OVERHEAD_NUM / HASH_TABLE_OVERHEAD_DEN + 64;
            let _reservation = Reservation::new(exec.memory(), overhead)?;
            exec.charge_cpu(cluster2.cost(), (l.len() + r.len()) as u64 * HASH_OPS);
            Ok(join(&l, &r))
        })
    }
}

/// Inner hash join with the table built over `left`, by reference: only
/// matched records are cloned. Output is right-major — `right` record
/// order, each right record's matches in `left` order.
fn join_build_left<K, V, W>(left: &[(K, V)], right: &[(K, W)]) -> Vec<(K, (V, W))>
where
    K: Record + Hash + Eq,
    V: Record,
    W: Record,
{
    let mut table: FxHashMap<&K, Vec<&V>> = FxHashMap::default();
    for (k, v) in left {
        table.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for (k, w) in right {
        if let Some(vs) = table.get(k) {
            for &v in vs {
                out.push((k.clone(), (v.clone(), w.clone())));
            }
        }
    }
    out
}

/// `join_build_left` with the table built over `right`. Output is
/// left-major — `left` record order, each left record's matches in
/// `right` order.
fn join_build_right<K, V, W>(left: &[(K, V)], right: &[(K, W)]) -> Vec<(K, (V, W))>
where
    K: Record + Hash + Eq,
    V: Record,
    W: Record,
{
    let mut table: FxHashMap<&K, Vec<&W>> = FxHashMap::default();
    for (k, w) in right {
        table.entry(k).or_default().push(w);
    }
    let mut out = Vec::new();
    for (k, v) in left {
        if let Some(ws) = table.get(k) {
            for &w in ws {
                out.push((k.clone(), (v.clone(), w.clone())));
            }
        }
    }
    out
}

impl<T: Record> Rdd<T> {
    /// Pipelined `flat_map(fm).reduce_by_key(f)`: the mapped pairs go
    /// straight into the shuffle write without a materialized
    /// intermediate RDD — Spark's stage fusion.
    pub fn flat_map_reduce_by_key<K, V>(
        &self,
        num_out: usize,
        fm: impl Fn(&T, &mut Vec<(K, V)>) + Send + Sync + 'static,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Result<Rdd<(K, V)>>
    where
        K: Record + Hash + Eq,
        V: Record,
    {
        let f = Arc::new(f);
        let f_agg = Arc::clone(&f);
        let combine: CombineFn<K, V> = Arc::new(move |pairs: &mut Vec<(K, V)>| {
            let map = fold_by_key(pairs.drain(..), &*f);
            pairs.extend(map);
        });
        shuffled(
            self,
            Arc::new(fm),
            "flat_map_reduce_by_key",
            num_out,
            Some(combine),
            Arc::new(move |pairs: Vec<(K, V)>| fold_by_key(pairs, &*f_agg).into_iter().collect()),
        )
    }

    /// Pipelined `flat_map(fm).group_by_key()` with in-aggregation
    /// post-processing of each group.
    pub fn flat_map_group_by_key_with<K, V>(
        &self,
        num_out: usize,
        fm: impl Fn(&T, &mut Vec<(K, V)>) + Send + Sync + 'static,
        post: impl Fn(&K, &mut Vec<V>) + Send + Sync + 'static,
    ) -> Result<Rdd<(K, Vec<V>)>>
    where
        K: Record + Hash + Eq,
        V: Record,
    {
        shuffled(
            self,
            Arc::new(fm),
            "flat_map_group_by_key",
            num_out,
            None,
            Arc::new(move |pairs: Vec<(K, V)>| {
                let mut map: FxHashMap<K, Vec<V>> = FxHashMap::default();
                for (k, v) in pairs {
                    map.entry(k).or_default().push(v);
                }
                map.into_iter()
                    .map(|(k, mut vs)| {
                        post(&k, &mut vs);
                        (k, vs)
                    })
                    .collect()
            }),
        )
    }
}

impl<T> Rdd<T>
where
    T: Record + Hash + Eq,
{
    /// Distinct records (shuffle-based dedup).
    pub fn distinct(&self, num_out: usize) -> Result<Rdd<T>> {
        let keyed = self.map(|t| (t.clone(), ()))?;
        let reduced = keyed.reduce_by_key(num_out, |_a, _b| ())?;
        reduced.map(|(k, _unit)| k.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use psgraph_sim::SimTime;

    fn cluster() -> Arc<Cluster> {
        Cluster::local()
    }

    #[test]
    fn group_by_key_groups_all_values() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, i)).collect();
        let rdd = Rdd::from_vec(&c, pairs, 8).unwrap();
        let grouped = rdd.group_by_key(4).unwrap();
        let mut out = grouped.collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 5);
        for (k, vs) in out {
            assert_eq!(vs.len(), 20);
            assert!(vs.iter().all(|v| v % 5 == k));
        }
    }

    #[test]
    fn reduce_by_key_sums() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 10, 1)).collect();
        let rdd = Rdd::from_vec(&c, pairs, 8).unwrap();
        let reduced = rdd.reduce_by_key(4, |a, b| a + b).unwrap();
        let mut out = reduced.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (0..10u64).map(|k| (k, 100u64)).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i * 7 % 13, i)).collect();
        let rdd = Rdd::from_vec(&c, pairs.clone(), 6).unwrap();
        let mut reduced = rdd.reduce_by_key(3, |a, b| a + b).unwrap().collect().unwrap();
        reduced.sort_unstable();
        let mut reference: FxHashMap<u64, u64> = FxHashMap::default();
        for (k, v) in pairs {
            *reference.entry(k).or_default() += v;
        }
        let mut reference: Vec<(u64, u64)> = reference.into_iter().collect();
        reference.sort_unstable();
        assert_eq!(reduced, reference);
    }

    #[test]
    fn reduce_by_key_ships_at_most_one_record_per_map_partition_and_key() {
        let c = cluster();
        // 8 map partitions × 13 keys, 4 000 records: a map task sees every
        // key about forty times.
        let records: Vec<(u64, f64)> = (0..4_000u64).map(|i| (i % 13, 1.0)).collect();
        let rdd = Rdd::from_vec(&c, records, 8).unwrap();
        let keys_per_map_task: u64 = (0..rdd.num_partitions())
            .map(|p| {
                let part = rdd.partition(p).unwrap();
                part.iter().map(|(k, _)| *k).collect::<std::collections::BTreeSet<_>>().len() as u64
            })
            .sum();
        let shipped = |shuffle: &dyn Fn()| {
            let before = c.network().stats().total_bytes();
            shuffle();
            c.network().stats().total_bytes() - before
        };
        let reduced = shipped(&|| drop(rdd.reduce_by_key(5, |a, b| a + b).unwrap()));
        let fused = shipped(&|| {
            let fm = |kv: &(u64, f64), out: &mut Vec<(u64, f64)>| out.push(*kv);
            drop(rdd.flat_map_reduce_by_key(5, fm, |a, b| a + b).unwrap())
        });
        // Map-side combine: a (u64, f64) record is 16 bytes on the wire.
        assert!(reduced > 0 && reduced <= keys_per_map_task * 16, "{reduced} B");
        assert_eq!(fused, reduced);
        // The bound is not vacuous: grouping has nothing to combine and
        // ships every record that leaves its executor.
        let grouped = shipped(&|| drop(rdd.group_by_key(5).unwrap()));
        assert!(grouped > 20 * reduced, "{grouped} B grouped vs {reduced} B reduced");
    }

    #[test]
    fn join_produces_cross_product_per_key() {
        let c = cluster();
        let left = Rdd::from_vec(&c, vec![(1u64, 10u64), (1, 11), (2, 20)], 4).unwrap();
        let right = Rdd::from_vec(&c, vec![(1u64, 100u64), (2, 200), (3, 300)], 4).unwrap();
        let joined = left.join(&right, 4).unwrap();
        let mut out = joined.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![(1, (10, 100)), (1, (11, 100)), (2, (20, 200))]);
    }

    #[test]
    fn join_kernels_emit_the_probe_sides_order() {
        let left = [(1u64, 'a'), (1, 'b'), (2, 'c'), (3, 'd')];
        let right = [(1u64, 'x'), (2, 'y'), (1, 'z')];
        // Build left: right-major, a right record's matches in left order.
        assert_eq!(
            join_build_left(&left, &right),
            [(1, ('a', 'x')), (1, ('b', 'x')), (2, ('c', 'y')), (1, ('a', 'z')), (1, ('b', 'z'))]
        );
        // Build right: left-major, a left record's matches in right order.
        assert_eq!(
            join_build_right(&left, &right),
            [(1, ('a', 'x')), (1, ('a', 'z')), (1, ('b', 'x')), (1, ('b', 'z')), (2, ('c', 'y'))]
        );
    }

    #[test]
    fn partition_by_key_preserves_data_and_colocates_keys() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i % 8, i)).collect();
        let rdd = Rdd::from_vec(&c, pairs.clone(), 8).unwrap();
        let parted = rdd.partition_by_key(4).unwrap();
        assert_eq!(parted.count().unwrap(), 64);
        for p in 0..4 {
            let part = parted.partition(p).unwrap();
            for (k, _) in part.iter() {
                assert_eq!(key_partition(k, 4), p);
            }
        }
    }

    #[test]
    fn distinct_dedups() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, vec![1u64, 2, 2, 3, 3, 3], 3).unwrap();
        let mut out = rdd.distinct(2).unwrap().collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn shuffle_charges_time() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        let rdd = Rdd::from_vec(&c, pairs, 8).unwrap();
        let before = c.now();
        let _g = rdd.group_by_key(8).unwrap();
        assert!(c.now() > before, "shuffle must consume simulated time");
    }

    #[test]
    fn skewed_join_ooms_on_small_budget() {
        // One hot key on both sides → quadratic join output. A GraphX-sized
        // partition with a small container must OOM.
        let cfg = ClusterConfig::default().with_memory(512 << 10);
        let c = Cluster::new(cfg);
        let hot: Vec<(u64, u64)> = (0..2000).map(|i| (0u64, i)).collect();
        let left = Rdd::from_vec(&c, hot.clone(), 4).unwrap();
        let right = Rdd::from_vec(&c, hot, 4).unwrap();
        let err = left.join(&right, 4).unwrap_err();
        assert!(matches!(err, crate::DataflowError::Oom(_)), "got {err}");
        // And the meters are clean afterwards (no leak from the failure).
        drop((left, right));
        for i in 0..c.num_executors() {
            assert_eq!(c.executor(i).memory().in_use(), 0);
        }
    }

    #[test]
    fn group_by_key_empty_rdd() {
        let c = cluster();
        let rdd: Rdd<(u64, u64)> = Rdd::from_vec(&c, vec![], 4).unwrap();
        let grouped = rdd.group_by_key(2).unwrap();
        assert_eq!(grouped.count().unwrap(), 0);
    }

    #[test]
    fn shuffled_rdd_recovers_through_lineage() {
        let c = cluster();
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1)).collect();
        let rdd = Rdd::from_vec(&c, pairs, 8).unwrap();
        let reduced = rdd.reduce_by_key(4, |a, b| a + b).unwrap();
        c.kill_executor(1);
        c.restart_executor(1);
        reduced.recover().unwrap();
        let mut out = reduced.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (0..10u64).map(|k| (k, 10u64)).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_reduce_by_key_fused() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, (0..100u64).collect(), 4).unwrap();
        let mut out = rdd
            .flat_map_reduce_by_key(
                4,
                |&x, buf| {
                    buf.push((x % 3, 1u64));
                    if x % 2 == 0 {
                        buf.push((100 + x % 3, x));
                    }
                },
                |a, b| a + b,
            )
            .unwrap()
            .collect()
            .unwrap();
        out.sort_unstable();
        // Counts per residue class of 100 items: 34, 33, 33.
        assert_eq!(out[0], (0, 34));
        assert_eq!(out[1], (1, 33));
        assert_eq!(out[2], (2, 33));
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn flat_map_group_by_key_with_fused() {
        let c = cluster();
        let rdd = Rdd::from_vec(&c, vec![5u64, 3, 5, 1, 3, 5], 3).unwrap();
        let mut out = rdd
            .flat_map_group_by_key_with(
                2,
                |&x, buf| buf.push((x % 2, x)),
                |_k, vs| {
                    vs.sort_unstable();
                    vs.dedup();
                },
            )
            .unwrap()
            .collect()
            .unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out, vec![(1, vec![1, 3, 5])]);
    }

    #[test]
    fn fused_ops_do_not_materialize_intermediates() {
        // The pipelined extractor's output must never be charged as a
        // resident RDD: peak memory with the fused op stays well below
        // the unfused flat_map+reduce path.
        let data: Vec<u64> = (0..20_000).collect();
        let peak_of = |fused: bool| {
            let c = cluster();
            let rdd = Rdd::from_vec(&c, data.clone(), 8).unwrap();
            let base: u64 = (0..c.num_executors())
                .map(|i| c.executor(i).memory().peak())
                .sum();
            let _out = if fused {
                rdd.flat_map_reduce_by_key(
                    8,
                    |&x, buf| {
                        buf.push((x % 1000, x));
                        buf.push((x % 999, x));
                    },
                    |a, b| a + b,
                )
                .unwrap()
            } else {
                rdd.flat_map(|&x| vec![(x % 1000, x), (x % 999, x)])
                    .unwrap()
                    .reduce_by_key(8, |a, b| a + b)
                    .unwrap()
            };
            let after: u64 = (0..c.num_executors())
                .map(|i| c.executor(i).memory().peak())
                .sum();
            after - base
        };
        let fused_peak = peak_of(true);
        let unfused_peak = peak_of(false);
        assert!(
            fused_peak < unfused_peak,
            "fused {fused_peak} should stay below unfused {unfused_peak}"
        );
    }

    /// A chunk of `bytes` from map partition `from_part` on executor
    /// `from_exec`, carrying one pair that names them.
    fn chunk(from_part: usize, from_exec: usize, bytes: u64) -> BucketChunk<u64, u64> {
        BucketChunk { from_part, from_exec, bytes, pairs: vec![(from_part as u64, bytes)] }
    }

    #[test]
    fn a_reduce_partition_ends_at_its_slowest_leg_plus_deserialization() {
        let c = Cluster::new(ClusterConfig::default().with_executors(3));
        // Executor 0 reduces 0.3 MB of its own, 1.5 MB from executor 1 (two
        // blocks) and 0.15 MB from executor 2, appended out of map order.
        let chunks =
            [chunk(4, 1, 750_000), chunk(0, 0, 300_000), chunk(2, 2, 150_000), chunk(1, 1, 750_000)];
        let (merged, bytes) = fetch_bucket(&chunks, c.executor(0), &c);
        assert_eq!(merged, [(0, 300_000), (1, 750_000), (2, 150_000), (4, 750_000)]);
        assert_eq!(bytes, 1_950_000);
        // Every leg leaves at 0. Local: the 2 ms disk read alone. Executor
        // 1: 16 B of block ids (25 014 ns), a 10 ms read, 1.5 MB back
        // (1 388 636 ns) — the slowest, back at 11 413 650. Executor 2:
        // 25 007 + 1 ms + 161 363, back at 1 186 370. Then 3.9 M ops of
        // deserialization: 1.95 ms.
        let cost = c.cost();
        assert_eq!(
            [cost.net_cost(16), cost.net_cost(8), cost.net_cost(1_500_000), cost.net_cost(150_000)]
                .map(SimTime::as_nanos),
            [25_014, 25_007, 1_388_636, 161_363]
        );
        assert_eq!(c.executor(0).clock().now().as_nanos(), 11_413_650 + 1_950_000);
        // Each source's disk served its own read, from the request's arrival.
        let disk = |e: usize| c.executor(e).disk().clock().now().as_nanos();
        assert_eq!([disk(0), disk(1), disk(2)], [2_000_000, 10_025_014, 1_025_007]);
        // Two RPCs (the local leg is none), block ids out, blocks back.
        let stats = c.network().stats();
        assert_eq!((stats.rpcs(), stats.bytes_sent(), stats.bytes_received()), (2, 24, 1_650_000));
    }

    #[test]
    fn reducers_of_one_source_queue_at_its_disk_in_departure_then_executor_order() {
        // Executors 0, 1 and 2 each read 1.5 MB from executor 3. Executor 0
        // computes 1 ms first; 1 and 2 leave at 0. The disk serves 1
        // (arrives 25 007, read until 10 025 007), then 2 (the tie goes to
        // the lower index; until 20 025 007), then 0 (arrived at 1 025 007;
        // until 30 025 007). Each is back 1 388 636 later and deserializes
        // for 1.5 ms.
        let end = |read_done: u64| read_done + 1_388_636 + 1_500_000;
        let fetch = |c: &Cluster, e: usize| {
            let exec = c.executor(e);
            if e == 0 {
                exec.charge_cpu(c.cost(), 4_000_000);
            }
            fetch_bucket(&[chunk(e, 3, 1_500_000)], exec, c);
        };
        // The host runs them in reverse; the stage charges them in sim order.
        let c = Cluster::new(ClusterConfig::default().with_executors(4));
        let clocks: Vec<&psgraph_sim::NodeClock> = (0..3).map(|e| c.executor(e).clock()).collect();
        psgraph_sim::stage(&clocks, || (0..3).rev().for_each(|e| fetch(&c, e)));
        let ends: Vec<u64> = clocks.iter().map(|clock| clock.now().as_nanos()).collect();
        assert_eq!(ends, [end(30_025_007), end(10_025_007), end(20_025_007)]);
        assert_eq!(c.executor(3).disk().clock().now().as_nanos(), 30_025_007);
        // A stage of the three reducers ends at the same time on any pool
        // and claim schedule.
        let run = |threads: usize, perturb: Option<u64>| {
            let pool = Arc::new(psgraph_harness::Pool::with_perturb(threads, perturb));
            let c = Cluster::new(ClusterConfig::default().with_executors(4).with_pool(pool));
            c.run_executors(3, |exec, _| {
                fetch(&c, exec.id());
                Ok(())
            })
            .unwrap();
            (c.now().as_nanos(), c.executor(3).disk().clock().now().as_nanos())
        };
        for (threads, perturb) in [(1, None), (2, None), (4, None), (4, Some(1)), (4, Some(7))] {
            assert_eq!(
                run(threads, perturb),
                (end(30_025_007), 30_025_007),
                "{threads} threads, perturb {perturb:?}"
            );
        }
    }

    #[test]
    fn a_lost_shuffled_partition_is_refetched_and_the_restarted_disk_still_serves() {
        let c = cluster();
        let (executors, maps, reduces) = (c.num_executors(), 8, 4);
        let records: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
        let grouped = Rdd::from_vec(&c, records.clone(), maps).unwrap().group_by_key(reduces).unwrap();
        let before = grouped.partition(1).unwrap();
        let disk1 = c.executor(1).disk().clock().now();
        c.kill_executor(1);
        c.restart_executor(1);
        // The disk outlives the executor: neither kill nor restart reset it.
        assert_eq!(c.executor(1).disk().clock().now(), disk1);
        let restarted = c.now();
        grouped.recover().unwrap();
        assert_eq!(grouped.partition(1).unwrap(), before);
        // Reduce partition 1 (on executor 1) by source executor: blocks and
        // bytes (a (u64, u64) record is 16 B). Map partition `m` holds
        // records `i ≡ m (mod 8)` and runs on executor `m mod 4`.
        let mut legs = vec![(0u64, 0u64); executors];
        for m in 0..maps {
            let bytes = records
                .iter()
                .skip(m)
                .step_by(maps)
                .filter(|(k, _)| key_partition(k, reduces) == 1)
                .count() as u64
                * 16;
            if bytes > 0 {
                legs[m % executors].0 += 1;
                legs[m % executors].1 += bytes;
            }
        }
        let cost = c.cost();
        let slowest = legs
            .iter()
            .enumerate()
            .map(|(e, &(blocks, bytes))| {
                let read = cost.disk_bulk_cost(bytes);
                if e == 1 {
                    read
                } else {
                    cost.net_cost(blocks * 8) + read + cost.net_cost(bytes)
                }
            })
            .max()
            .unwrap();
        let total: u64 = legs.iter().map(|l| l.1).sum();
        assert!(legs[1].1 > 0, "executor 1 holds some of the partition's files");
        assert_eq!(c.executor(1).clock().now(), restarted + slowest + cost.ser_cost(total));
        // The restarted executor's disk served its own files after the restart.
        assert_eq!(c.executor(1).disk().clock().now(), restarted + cost.disk_bulk_cost(legs[1].1));
    }

    #[test]
    fn key_partition_is_deterministic_and_in_range() {
        for k in 0u64..1000 {
            let p = key_partition(&k, 7);
            assert!(p < 7);
            assert_eq!(p, key_partition(&k, 7));
        }
    }
}
