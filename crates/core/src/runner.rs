//! `GraphRunner` / `GraphIO` (paper Listing 1): load graph data from the
//! DFS into executor RDDs, convert edge partitioning to vertex
//! partitioning with `groupBy`, and save results.

use std::sync::Arc;

use psgraph_dataflow::rdd::Provenance;
use psgraph_dataflow::{Cluster, Rdd};
use psgraph_graph::io;
use psgraph_graph::EdgeList;
use psgraph_sim::bytes::{BufMut, Scalar};
use psgraph_sim::{NodeClock, Reader};

use crate::context::PsGraphContext;
use crate::error::{CoreError, Result};

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
    let graph2 = Arc::clone(&graph);
    let cluster2 = Arc::clone(cluster);
    let split = move |p: usize| -> Vec<(u64, u64)> {
        graph2
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % parts == p)
            .map(|(_, &e)| e)
            .collect()
    };
    let split2 = split.clone();
    let cost_read = move |exec: &psgraph_dataflow::Executor| {
        let cost = cluster2.cost();
        exec.clock().advance(cost.disk_cost(share));
        exec.clock().advance(cost.net_bulk_cost(share));
    };
    let cost_read2 = cost_read.clone();
    let prov: Provenance<(u64, u64)> = Arc::new(move |p, exec| {
        cost_read2(exec);
        Ok(split2(p))
    });
    let cluster3 = Arc::clone(cluster);
    Rdd::materialize(&cluster3, "edges", parts, prov, move |p, exec| {
        cost_read(exec);
        Ok(split(p))
    })
    .map_err(CoreError::from)
}

/// Undirected neighbor tables straight from a directed edge RDD: both
/// edge directions are emitted *inside* the shuffle write (pipelined), so
/// no symmetric edge copy is ever materialized; groups are sorted and
/// deduped inside the aggregation.
pub fn to_undirected_neighbor_tables(
    edges: &Rdd<(u64, u64)>,
) -> Result<Rdd<(u64, Vec<u64>)>> {
    let parts = edges.num_partitions();
    Ok(edges.flat_map_group_by_key_with(
        parts,
        |&(s, d), out| {
            if s != d {
                out.push((s, d));
                out.push((d, s));
            }
        },
        |_src, dsts| {
            dsts.sort_unstable();
            dsts.dedup();
        },
    )?)
}

/// Fig. 4 step 1: `groupBy` the edge RDD into neighbor tables
/// `(src, sorted unique Array[dst])` — edge partitioning → vertex
/// partitioning. Sorting/dedup happens inside the shuffle aggregation
/// (no second materialized copy).
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
