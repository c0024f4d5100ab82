//! `GraphRunner` / `GraphIO` (paper Listing 1): load graph data from the
//! DFS into executor RDDs, convert edge partitioning to vertex
//! partitioning — straight into a PS neighbor table with the edge RDD's
//! partition count ([`table_on_ps`], from [`undirected`] or [`directed`]
//! records), which the executors can read back one partition each as an
//! RDD ([`pull_neighbor_tables`]), or with `groupBy` into neighbor-table
//! RDDs — and save results.

use std::sync::Arc;

use psgraph_dataflow::record::slice_bytes;
use psgraph_dataflow::shuffle::HASH_OPS;
use psgraph_dataflow::{Cluster, Rdd};
use psgraph_graph::io;
use psgraph_graph::EdgeList;
use psgraph_ps::{NeighborTableHandle, Partitioner, RecoveryMode};
use psgraph_sim::bytes::{BufMut, Scalar};
use psgraph_sim::memory::Reservation;
use psgraph_sim::{NodeClock, Reader};

use crate::context::PsGraphContext;
use crate::error::{CoreError, PsResultExt, Result};

/// Load a binary edge file from the DFS into an edge RDD.
///
/// Each executor reads its input split (we charge every partition a
/// `1/partitions` share of the file's disk + network cost, as HDFS splits
/// would). The RDD's lineage reaches back to the DFS path, so executor
/// failures recover by re-reading the split — exactly the paper's
/// "reloads graph data from HDFS and continues training" (§III-C).
pub fn load_edges(ctx: &Arc<PsGraphContext>, path: &str) -> Result<Rdd<(u64, u64)>> {
    let probe = NodeClock::new();
    let graph = Arc::new(io::read_binary(ctx.dfs(), path, &probe)?);
    let bytes = graph.byte_size() + 16;
    let parts = ctx.cluster().default_partitions();
    edges_to_rdd(ctx.cluster(), graph, bytes, parts)
}

/// Distribute an in-memory edge list as if it had been read from an input
/// split of `bytes` total (used by generators and tests; same lineage
/// semantics as [`load_edges`]).
pub fn distribute_edges(
    ctx: &Arc<PsGraphContext>,
    graph: &EdgeList,
    partitions: usize,
) -> Result<Rdd<(u64, u64)>> {
    let bytes = graph.byte_size() + 16;
    edges_to_rdd(
        ctx.cluster(),
        Arc::new(graph.clone()),
        bytes,
        partitions.max(1),
    )
}

fn edges_to_rdd(
    cluster: &Arc<Cluster>,
    graph: Arc<EdgeList>,
    total_bytes: u64,
    parts: usize,
) -> Result<Rdd<(u64, u64)>> {
    let share = total_bytes / parts as u64;
    let cost = cluster.cost().clone();
    Rdd::materialize(cluster, "edges", parts, move |p, exec| {
        exec.clock().advance(cost.disk_cost(share));
        exec.clock().advance(cost.net_bulk_cost(share));
        Ok(graph.edges().iter().skip(p).step_by(parts).copied().collect())
    })
    .map_err(CoreError::from)
}

/// Both directions of an edge, none of a self-loop: the records of an
/// undirected neighbor table.
pub fn undirected(&(s, d): &(u64, u64), out: &mut Vec<(u64, u64)>) {
    if s != d {
        out.push((s, d));
        out.push((d, s));
    }
}

/// The edge as given, a self-loop too: the records of a directed
/// (out-)neighbor table.
pub fn directed(&edge: &(u64, u64), out: &mut Vec<(u64, u64)>) {
    out.push(edge);
}

/// Undirected neighbor tables straight from a directed edge RDD: both
/// edge directions are emitted *inside* the shuffle write (pipelined), so
/// no symmetric edge copy is ever materialized; groups are sorted and
/// deduped inside the aggregation. GraphSage's adjacency.
pub fn to_undirected_neighbor_tables(
    edges: &Rdd<(u64, u64)>,
) -> Result<Rdd<(u64, Vec<u64>)>> {
    let parts = edges.num_partitions();
    Ok(edges.flat_map_group_by_key_with(parts, undirected, |_src, dsts| {
        dsts.sort_unstable();
        dsts.dedup();
    })?)
}

/// The neighbor table of `edges` built on the PS as the table `name`,
/// with `records` turning each edge into the table's `(vertex, neighbor)`
/// records ([`undirected`] or [`directed`]): a [`Partitioner::Hash`] table
/// of `edges.num_partitions()` partitions, whose partition `p` holds the
/// rows `groupBy` would build from those records whose vertex the hash
/// layout places in `p` (`PartitionLayout::partition_of`: `mix64(v) % P`,
/// which spreads RMAT's low-bit hubs over the servers). Every executor
/// sends its partitions' records in one [`NeighborTableHandle::merge_edges`]
/// request, and then the driver's one [`NeighborTableHandle::seal`] has
/// the servers merge each list once into a strictly ascending,
/// duplicate-free list — no shuffle. An executor is charged the shuffle
/// map side's routing CPU ([`HASH_OPS`]) per input edge, and its records
/// (16 B each) on its memory meter. An edge naming an id outside
/// `[0, num_vertices)` is [`CoreError::Invalid`]; the executor holding it
/// sends nothing.
pub fn table_on_ps(
    ctx: &PsGraphContext,
    edges: &Rdd<(u64, u64)>,
    name: &str,
    num_vertices: u64,
    records: impl Fn(&(u64, u64), &mut Vec<(u64, u64)>) + Sync,
) -> Result<NeighborTableHandle> {
    let (hash, inconsistent) = (Partitioner::Hash, RecoveryMode::Inconsistent);
    let parts = edges.num_partitions();
    let adj = NeighborTableHandle::create_partitioned(
        ctx.ps(), name, num_vertices, hash, parts, inconsistent,
    )?;
    let out_of_range = ctx
        .cluster()
        .run_executors(parts, |exec, parts| {
            let local = edges.partitions(parts)?;
            let local_edges = || local.iter().flat_map(|part| part.iter());
            let mut ids = local_edges().flat_map(|&(s, d)| [s, d]);
            if let Some(id) = ids.find(|&id| id >= num_vertices) {
                return Ok(Some(id));
            }
            let inputs: usize = local.iter().map(|part| part.len()).sum();
            let mut out = Vec::with_capacity(2 * inputs);
            local_edges().for_each(|edge| records(edge, &mut out));
            let _records = Reservation::new(exec.memory(), slice_bytes(&out))?;
            exec.charge_cpu(ctx.cluster().cost(), inputs as u64 * HASH_OPS);
            if !out.is_empty() {
                adj.merge_edges(exec.clock(), out).df()?;
            }
            Ok(None)
        })
        .map_err(CoreError::from)?;
    if let Some(id) = out_of_range.into_iter().flatten().next() {
        return Err(CoreError::Invalid(format!("vertex id {id} outside [0, {num_vertices})")));
    }
    // The seal leaves the driver when the build stage is over.
    let (clock, driver) = (ctx.cluster().clock(), ctx.cluster().driver());
    clock.barrier([driver]);
    adj.seal(driver)?;
    clock.barrier([driver]);
    Ok(adj)
}

/// Partition `p` of the table `adj` back on the executors as RDD
/// partition `p` (its rows are the vertices the table's layout places in
/// `p`, not those a shuffle would send there), in ascending vertex order: one
/// [`NeighborTableHandle::pull_partition`] request per partition, from
/// the executor that hosts it. The read is the partition's recipe, so a
/// restarted executor reads its partitions from the servers again.
pub fn pull_neighbor_tables(
    ctx: &PsGraphContext,
    adj: &NeighborTableHandle,
) -> Result<Rdd<(u64, Vec<u64>)>> {
    let (parts, adj) = (adj.layout().num_partitions, adj.clone());
    Rdd::materialize(ctx.cluster(), "neighbor_tables", parts, move |p, exec| {
        adj.pull_partition(exec.clock(), p).df()
    })
    .map_err(CoreError::from)
}

/// Fig. 4 step 1 as the paper writes it: `groupBy` the edge RDD into
/// neighbor tables `(src, sorted unique Array[dst])` — edge partitioning →
/// vertex partitioning. Sorting/dedup happens inside the shuffle
/// aggregation (no second materialized copy). No job builds through it:
/// PageRank builds the same rows on the PS ([`table_on_ps`] with
/// [`directed`]). It stays as Listing 1's `groupBy` API and as the
/// reference that build is checked against.
pub fn to_neighbor_tables(edges: &Rdd<(u64, u64)>) -> Result<Rdd<(u64, Vec<u64>)>> {
    let parts = edges.num_partitions();
    Ok(edges.group_by_key_with(parts, |_src, dsts| {
        dsts.sort_unstable();
        dsts.dedup();
    })?)
}

/// Save `(vertex, value)` results to the DFS as a binary table
/// (`GraphIO.save` in Listing 1). The driver gathers and writes.
pub fn save_vertex_values(
    ctx: &Arc<PsGraphContext>,
    path: &str,
    values: &[(u64, f64)],
) -> Result<()> {
    let mut buf = Vec::with_capacity(8 + values.len() * 16);
    buf.put_u64_le(values.len() as u64);
    for &value in values {
        value.put_le(&mut buf);
    }
    ctx.dfs().write(path, &buf, ctx.cluster().driver())?;
    Ok(())
}

/// Read back a `(vertex, value)` table written by [`save_vertex_values`].
pub fn load_vertex_values(ctx: &Arc<PsGraphContext>, path: &str) -> Result<Vec<(u64, f64)>> {
    let bytes = ctx.dfs().read(path, ctx.cluster().driver())?;
    Reader::decode(&bytes, "vertex table", |r| {
        let n = r.count::<u64>(16)?;
        r.vec(n)
    })
    .map_err(|e| CoreError::Invalid(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::Record;
    use psgraph_graph::gen;

    #[test]
    fn load_edges_roundtrip_through_dfs() {
        let ctx = PsGraphContext::local();
        let g = gen::rmat(100, 400, Default::default(), 3);
        io::write_binary(ctx.dfs(), "/data/g", &g, ctx.cluster().driver()).unwrap();
        let rdd = load_edges(&ctx, "/data/g").unwrap();
        assert_eq!(rdd.count().unwrap(), 400);
        let mut got = rdd.collect().unwrap();
        got.sort_unstable();
        let mut want = g.edges().to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(ctx.now() > psgraph_sim::SimTime::ZERO, "load must cost time");
    }

    #[test]
    fn load_missing_file_errors() {
        let ctx = PsGraphContext::local();
        assert!(load_edges(&ctx, "/nope").is_err());
    }

    #[test]
    fn distribute_and_group_to_neighbor_tables() {
        let ctx = PsGraphContext::local();
        let g = psgraph_graph::EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (3, 0)]);
        let edges = distribute_edges(&ctx, &g, 4).unwrap();
        let nt = to_neighbor_tables(&edges).unwrap();
        let mut got = nt.collect().unwrap();
        got.sort_by_key(|(v, _)| *v);
        for (_, ns) in &mut got {
            ns.sort_unstable();
        }
        assert_eq!(got, vec![(0, vec![1, 2]), (1, vec![2]), (3, vec![0])]);
    }

    /// Every job whose adjacency [`table_on_ps`] builds refuses an edge
    /// naming an id past its vertex count with a typed error that names
    /// the id and the count, whichever end of the edge holds it.
    #[test]
    fn an_out_of_range_id_is_invalid_in_every_server_built_job() {
        use crate::algos::{
            CommonNeighbor, ConnectedComponents, KCore, LabelPropagation, PageRank, TriangleCount,
        };
        type Job = fn(&Arc<PsGraphContext>, &Rdd<(u64, u64)>) -> Result<()>;
        let jobs: [(&str, Job); 6] = [
            ("PageRank", |ctx, edges| PageRank::default().run(ctx, edges, 5).map(drop)),
            ("Common Neighbor", |ctx, edges| CommonNeighbor::default().run(ctx, edges, 5).map(drop)),
            ("Triangle Count", |ctx, edges| TriangleCount::default().run(ctx, edges, 5).map(drop)),
            ("K-Core", |ctx, edges| KCore::default().run(ctx, edges, 5).map(drop)),
            ("CC", |ctx, edges| ConnectedComponents::default().run(ctx, edges, 5).map(drop)),
            ("LPA", |ctx, edges| LabelPropagation::default().run(ctx, edges, 5).map(drop)),
        ];
        for (job, run) in jobs {
            for (bad, id) in [((0, 5), 5), ((6, 1), 6)] {
                let g = EdgeList::new(8, vec![(0, 1), (1, 2), (2, 0), bad]);
                let ctx = PsGraphContext::local();
                let edges = distribute_edges(&ctx, &g, 4).unwrap();
                let err = run(&ctx, &edges).unwrap_err();
                let want = format!("vertex id {id} outside [0, 5)");
                assert!(
                    matches!(&err, CoreError::Invalid(msg) if *msg == want),
                    "{job}, {bad:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn edge_rdd_recovers_after_executor_failure() {
        let ctx = PsGraphContext::local();
        let g = gen::rmat(64, 256, Default::default(), 5);
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        ctx.cluster().kill_executor(1);
        ctx.cluster().restart_executor(1);
        edges.recover().unwrap();
        assert_eq!(edges.count().unwrap(), 256);
    }

    /// Build an RDD with `build` over what `prepare` made, on one executor,
    /// then rebuild it after `unpersist` and after a kill: each rebuild
    /// costs the executor the build's sim time, and the build and the
    /// rebuilds alike OOM with one byte less free than the partitions
    /// hold, and fit with it.
    fn rebuilt_like_built<T: Record + PartialEq + std::fmt::Debug, S>(
        name: &str,
        prepare: impl Fn(&Arc<PsGraphContext>) -> S,
        build: impl Fn(&Arc<PsGraphContext>, &S) -> Result<Rdd<T>>,
    ) {
        let fresh = || {
            let mut config = crate::PsGraphConfig::default();
            config.cluster = config.cluster.with_executors(1);
            let ctx = PsGraphContext::new(config);
            let prepared = prepare(&ctx);
            (ctx, prepared)
        };
        let (ctx, prepared) = fresh();
        let exec = ctx.cluster().executor(0);
        let (start, idle) = (ctx.now().max(exec.clock().now()), exec.memory().in_use());
        let rdd = build(&ctx, &prepared).unwrap();
        let (cost, held) = (exec.clock().now() - start, exec.memory().in_use() - idle);
        let built = rdd.collect().unwrap();
        let built_with = |free: u64| {
            let (ctx, prepared) = fresh();
            let meter = ctx.cluster().executor(0).memory();
            meter.alloc(meter.budget() - meter.in_use() - free).unwrap();
            build(&ctx, &prepared).map(drop)
        };
        assert!(built_with(held - 1).unwrap_err().is_oom(), "{name}: build, one byte short");
        built_with(held).unwrap();

        let kill = || {
            ctx.cluster().kill_executor(0);
            ctx.cluster().restart_executor(0);
        };
        let unpersist = || rdd.unpersist();
        for (how, lose) in [("unpersisted", &unpersist as &dyn Fn()), ("killed", &kill)] {
            lose();
            let start = exec.clock().now();
            rdd.recover().unwrap();
            assert_eq!(exec.clock().now() - start, cost, "{name}, {how}: sim time");
            assert_eq!(rdd.collect().unwrap(), built, "{name}, {how}");
            for free in [held - 1, held] {
                lose();
                let meter = exec.memory();
                let filler = meter.budget() - meter.in_use() - free;
                meter.alloc(filler).unwrap();
                let rebuilt = rdd.recover();
                meter.free(filler);
                let oom = matches!(rebuilt, Err(psgraph_dataflow::DataflowError::Oom(_)));
                assert_eq!(oom, free < held, "{name}, {how}: {free} B free of {held}");
            }
        }
    }

    #[test]
    fn a_rebuilt_edge_or_table_partition_costs_and_reserves_what_its_build_did() {
        let g = gen::rmat(64, 256, Default::default(), 5);
        rebuilt_like_built("edges", |_| (), |ctx, ()| distribute_edges(ctx, &g, 4));
        let table = |ctx: &Arc<PsGraphContext>| {
            let edges = distribute_edges(ctx, &g, 4).unwrap();
            table_on_ps(ctx, &edges, "adj", 64, undirected).unwrap()
        };
        rebuilt_like_built("neighbor tables", table, |ctx, adj| pull_neighbor_tables(ctx, adj));
    }

    #[test]
    fn vertex_values_roundtrip() {
        let ctx = PsGraphContext::local();
        let vals = vec![(0u64, 0.5), (7, -1.25), (42, 3.0)];
        save_vertex_values(&ctx, "/out/pr", &vals).unwrap();
        assert_eq!(load_vertex_values(&ctx, "/out/pr").unwrap(), vals);
    }

    #[test]
    fn truncated_vertex_table_detected() {
        let ctx = PsGraphContext::local();
        ctx.dfs().write("/bad", &[1, 2, 3], ctx.cluster().driver()).unwrap();
        assert!(load_vertex_values(&ctx, "/bad").is_err());
        ctx.dfs()
            .write("/bad2", &100u64.to_le_bytes(), ctx.cluster().driver())
            .unwrap();
        assert!(load_vertex_values(&ctx, "/bad2").is_err());
    }
}
