//! Golden sim-cost test for the two neighbor-table jobs (Fig. 6's Common
//! Neighbor and Triangle Count): pins what a default run on a fixed RMAT
//! graph moves over the PS network and how long it takes on the sim clock,
//! so a later change cannot silently re-inflate the traffic.
//!
//! Recorded when `NeighborTableHandle::pull` started shipping each
//! distinct id once per request and the per-pair intersection became a
//! sorted merge / gallop. At the parent commit (4d13dbb) the same two runs
//! read `ps_bytes=55954264 elapsed=54805341ns` (Common Neighbor) and
//! `ps_bytes=46228656 elapsed=48115512ns` (Triangle Count), every other
//! column as below. A deliberate cost-model change re-records the lines
//! (the failure message prints the actual ones).

use std::sync::Arc;

use psgraph_core::algos::{CommonNeighbor, TriangleCount};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{PsGraphConfig, PsGraphContext, RunStats};
use psgraph_graph::gen;
use psgraph_harness::Pool;

/// Run `job` on a fresh default deployment with a one-thread pool — the only
/// pool size at which sim time is bit-reproducible today — and render its
/// result, `RunStats` and the PS RPCs it made as one line.
fn run(job: impl FnOnce(&Arc<PsGraphContext>) -> (String, RunStats)) -> String {
    let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(Arc::new(Pool::new(1))));
    let rpcs0 = ctx.ps().network().stats().rpcs();
    let (result, stats) = job(&ctx);
    format!(
        "{result} supersteps={} ps_rpcs={} ps_bytes={} spark_bytes={} elapsed={}ns",
        stats.supersteps,
        ctx.ps().network().stats().rpcs() - rpcs0,
        stats.ps_net_bytes,
        stats.spark_net_bytes,
        stats.elapsed.as_nanos(),
    )
}

const EXPECTED: &[&str] = &[
    "common_neighbor: pairs=23860 common=673803 supersteps=4 ps_rpcs=56 ps_bytes=7562416 spark_bytes=572192 elapsed=14941569ns",
    "triangle_count: triangles=170022 supersteps=4 ps_rpcs=56 ps_bytes=7295920 spark_bytes=788416 elapsed=15732546ns",
];

#[test]
fn neighbor_table_jobs_cost_exactly_what_they_did() {
    let g = gen::rmat(2048, 30_000, Default::default(), 14).dedup();
    let n = g.num_vertices();
    let lines = [
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, 8).unwrap();
            let out = CommonNeighbor::default().run(ctx, &edges, n).unwrap();
            let total: u64 = out.counts.iter().map(|&(_, _, c)| c).sum();
            (format!("common_neighbor: pairs={} common={total}", out.counts.len()), out.stats)
        }),
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, 8).unwrap();
            let out = TriangleCount::default().run(ctx, &edges, n).unwrap();
            (format!("triangle_count: triangles={}", out.triangles), out.stats)
        }),
    ];
    let actual: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert!(actual == EXPECTED, "sim cost changed; actual lines:\n{}", lines.join("\n"));
}
