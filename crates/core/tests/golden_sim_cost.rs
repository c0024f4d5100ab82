//! Golden sim-cost test for the batch jobs that talk to the PS once per
//! executor per superstep (Fig. 6's Common Neighbor, Triangle Count,
//! PageRank and K-Core, plus Connected Components): pins what a default
//! run on a fixed RMAT graph moves over the PS network and how long it
//! takes on the sim clock, so a later change cannot silently re-inflate the
//! traffic. Every job runs with more partitions than executors — the shape
//! the benchmark runs — so a line moves if an executor goes back to one
//! request per partition.
//!
//! Recorded when the jobs moved onto `Cluster::run_executors` and the
//! `PsAgent`'s request plans. At the parent commit (7a96f46), one task per
//! partition, the five runs read
//! `ps_rpcs=56 ps_bytes=7562416 elapsed=14941569ns` (Common Neighbor),
//! `ps_rpcs=56 ps_bytes=7295920 elapsed=15732546ns` (Triangle Count),
//! `ps_rpcs=1006 ps_bytes=530362 elapsed=48138099ns` (PageRank),
//! `supersteps=7 ps_rpcs=575 ps_bytes=5047832 elapsed=39638994ns` (K-Core) and
//! `ps_rpcs=275 ps_bytes=2923080 elapsed=22878992ns` (Connected Components),
//! results and `spark_bytes` as below. A deliberate cost-model change
//! re-records the lines (the failure message prints the actual ones).

use std::sync::Arc;

use psgraph_core::algos::{CommonNeighbor, ConnectedComponents, KCore, PageRank, TriangleCount};
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
    "common_neighbor: pairs=23860 common=673803 supersteps=4 ps_rpcs=28 ps_bytes=4364416 spark_bytes=572192 elapsed=8349210ns",
    "triangle_count: triangles=170022 supersteps=4 ps_rpcs=28 ps_bytes=4293840 spark_bytes=788416 elapsed=9485897ns",
    "pagerank: ranks=62ea99719e63829e supersteps=10 ps_rpcs=206 ps_bytes=524092 spark_bytes=286352 elapsed=7704915ns",
    "kcore: coreness=76d043e535627bf0 max=47 supersteps=8 ps_rpcs=123 ps_bytes=752280 spark_bytes=572192 elapsed=12123257ns",
    "connected_components: components=328 supersteps=4 ps_rpcs=53 ps_bytes=421128 spark_bytes=572192 elapsed=9174580ns",
];

/// Partitions of the vector jobs: six per executor, as in the benchmark.
const PARTITIONS: usize = 24;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn batch_jobs_cost_exactly_what_they_did() {
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
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, PARTITIONS).unwrap();
            let job = PageRank { max_iterations: 10, delta_threshold: 1e-6, ..Default::default() };
            let out = job.run(ctx, &edges, n).unwrap();
            let digest = fnv(out.ranks.iter().map(|r| r.to_bits()));
            (format!("pagerank: ranks={digest:016x}"), out.stats)
        }),
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, PARTITIONS).unwrap();
            let out = KCore::default().run(ctx, &edges, n).unwrap();
            let digest = fnv(out.coreness.iter().copied());
            let max = out.coreness.iter().max().unwrap();
            (format!("kcore: coreness={digest:016x} max={max}"), out.stats)
        }),
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, PARTITIONS).unwrap();
            let out = ConnectedComponents::default().run(ctx, &edges, n).unwrap();
            let roots = out.labels.iter().enumerate().filter(|&(v, &l)| v as u64 == l).count();
            (format!("connected_components: components={roots}"), out.stats)
        }),
    ];
    let actual: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert!(actual == EXPECTED, "sim cost changed; actual lines:\n{}", lines.join("\n"));
}
