//! Golden sim-cost test for the batch jobs that talk to the PS once per
//! executor per superstep (Fig. 6's Common Neighbor, Triangle Count,
//! PageRank and K-Core, plus Connected Components) and for the two
//! learning jobs (GraphSage, LINE in both orders): pins what a default
//! run on a fixed graph computes, moves over the PS network and how long it
//! takes on the sim clock, so a later change cannot silently re-inflate the
//! traffic — or move a bit of a model. Every job runs with more partitions than executors — the shape
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
//! results and `spark_bytes` as below.
//!
//! The `graphsage:` and `line(…):` lines were recorded when GraphSage's
//! mini-batch operators became CSR and LINE's two pair-updates one fused
//! psFunc. Their loss / accuracy / embedding digests are the parent
//! commit's (c457f5e) — computed there first, with dense `|L1| × |L2|`
//! selection matrices and three psFunc rounds per LINE batch — where the
//! runs cost
//! `ps_rpcs=1092 ps_bytes=10234128 elapsed=211090766ns` (GraphSage),
//! `ps_rpcs=582 ps_bytes=41528192 elapsed=94765429ns` (LINE, second order) and
//! `ps_rpcs=580 ps_bytes=41528128 elapsed=94765429ns` (LINE, first order).
//!
//! Re-recorded once since, when the legs of one PS request started to
//! leave together (one departure time per fan-out, the client resuming at
//! the slowest leg). Only `elapsed=` moved, and every one fell; at the
//! parent commit (0225b0f) they read 8349210ns (Common Neighbor),
//! 9485897ns (Triangle Count), 7704915ns (PageRank), 12123257ns (K-Core),
//! 9174580ns (Connected Components), 112996378ns (GraphSage) and
//! 72507217ns (LINE, both orders).
//!
//! A deliberate cost-model change re-records the lines (the failure
//! message prints the actual ones); a digest must not move with it.

use std::sync::Arc;

use psgraph_core::algos::{
    CommonNeighbor, ConnectedComponents, GraphSage, GraphSageConfig, KCore, Line, LineConfig,
    LineOrder, PageRank, TriangleCount,
};
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
    "common_neighbor: pairs=23860 common=673803 supersteps=4 ps_rpcs=28 ps_bytes=4364416 spark_bytes=572192 elapsed=7894570ns",
    "triangle_count: triangles=170022 supersteps=4 ps_rpcs=28 ps_bytes=4293840 spark_bytes=788416 elapsed=9037937ns",
    "pagerank: ranks=62ea99719e63829e supersteps=10 ps_rpcs=206 ps_bytes=524092 spark_bytes=286352 elapsed=6526803ns",
    "kcore: coreness=76d043e535627bf0 max=47 supersteps=8 ps_rpcs=123 ps_bytes=752280 spark_bytes=572192 elapsed=10143571ns",
    "connected_components: components=328 supersteps=4 ps_rpcs=53 ps_bytes=421128 spark_bytes=572192 elapsed=8473006ns",
    "graphsage: loss=f8bfd9cb90d44881 accuracy=92328807b4eb6fed supersteps=4 ps_rpcs=964 ps_bytes=10057232 spark_bytes=408096 elapsed=83487538ns",
    "line(second): loss=8913c0a2c2554574 embeddings=211cd4d92341965c supersteps=2 ps_rpcs=390 ps_bytes=27783296 spark_bytes=0 elapsed=37603137ns",
    "line(first): loss=9fea2211ca7f304e embeddings=2bf198f17803dab8 supersteps=2 ps_rpcs=388 ps_bytes=27783232 spark_bytes=0 elapsed=37603137ns",
];

/// Partitions of the vector jobs: six per executor, as in the benchmark.
const PARTITIONS: usize = 24;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

/// Two epochs of LINE on `g`: the losses and every embedding bit.
fn line(g: &psgraph_graph::EdgeList, order: LineOrder) -> String {
    run(|ctx| {
        let edges = distribute_edges(ctx, g, 8).unwrap();
        let job = Line::new(LineConfig { order, epochs: 2, ..Default::default() });
        let out = job.run(ctx, &edges, g.num_vertices()).unwrap();
        let loss = fnv(out.loss_per_epoch.iter().map(|l| l.to_bits()));
        let emb = fnv(out.embeddings.iter().flatten().map(|x| x.to_bits() as u64));
        let tag = format!("{order:?}").to_lowercase();
        (format!("line({tag}): loss={loss:016x} embeddings={emb:016x}"), out.stats)
    })
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
        run(|ctx| {
            let s = gen::sbm2(2000, 8.0, 0.5, 16, 0.8, 77);
            let edges = distribute_edges(ctx, &s.graph, 8).unwrap();
            let job = GraphSage::new(GraphSageConfig { epochs: 2, ..Default::default() });
            let out = job
                .run(ctx, &edges, &Arc::new(s.features), &Arc::new(s.labels), 2000)
                .unwrap();
            let loss = fnv(out.loss_per_epoch.iter().map(|l| l.to_bits()));
            let acc = fnv([out.train_accuracy.to_bits(), out.test_accuracy.to_bits()]);
            (format!("graphsage: loss={loss:016x} accuracy={acc:016x}"), out.stats)
        }),
        line(&g, LineOrder::Second),
        line(&g, LineOrder::First),
    ];
    let actual: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert!(actual == EXPECTED, "sim cost changed; actual lines:\n{}", lines.join("\n"));
}

const CYCLE_EXPECTED: &[&str] = &[
    "pagerank(4-cycle, 1 steps): ranks=4c105ca20d7d0bf9 supersteps=1 ps_rpcs=14 ps_bytes=448 spark_bytes=0 elapsed=201140ns",
    "pagerank(4-cycle, 2 steps): ranks=1fa86cd78279a129 supersteps=2 ps_rpcs=22 ps_bytes=704 spark_bytes=0 elapsed=301227ns",
];

/// One PageRank superstep, derived by hand in DESIGN.md §8 (mechanism 10):
/// the directed 4-cycle in one partition, so executor 0 hosts every source
/// and each of the two PS servers owns two vertices. Runs of one and two
/// supersteps differ by exactly the second one.
#[test]
fn one_pagerank_superstep_costs_what_design_md_derives() {
    let g = psgraph_graph::EdgeList::new(4, (0..4u64).map(|v| (v, (v + 1) % 4)).collect());
    let lines = [1, 2].map(|steps| {
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, 1).unwrap();
            let out = PageRank { max_iterations: steps, ..Default::default() }
                .run(ctx, &edges, g.num_vertices())
                .unwrap();
            let digest = fnv(out.ranks.iter().map(|r| r.to_bits()));
            (format!("pagerank(4-cycle, {steps} steps): ranks={digest:016x}"), out.stats)
        })
    });
    assert!(lines == CYCLE_EXPECTED, "sim cost changed; actual lines:\n{}", lines.join("\n"));
    let elapsed = |line: &str| -> u64 {
        line.rsplit_once("elapsed=").unwrap().1.trim_end_matches("ns").parse().unwrap()
    };
    // The two legs of every request leave together, and a leg costs
    // `net(request) + cpu(ops) + net(response)` plus any wait at its port.
    let cost = psgraph_sim::CostModel::default();
    let (net, cpu) = (|bytes| cost.net_cost(bytes), |ops| cost.cpu_cost(ops));
    // Executor 0 pulls Δ of its four sources (two ids per server: 16 B out,
    // 2 × 4 ops, 2 nonzero × 8 + 8 B back), then charges 4 out-edges × 4
    // ops over its 2 cores. The driver's `accumulate_and_reset` leaves at
    // the driver's clock — the superstep's start — and finishes earlier.
    let pull = net(16) + cpu(8) + net(24) + cpu(8);
    // Executor 0 pushes four sums (two per server: 32 B, 8 ops, 8 B back);
    // the driver's `aggregate` leaves with it and queues behind it at each
    // port for its own 8 ops.
    let push_then_aggregate = net(32) + cpu(8) + cpu(8) + net(8);
    assert_eq!(
        elapsed(&lines[1]) - elapsed(&lines[0]),
        (pull + push_then_aggregate).as_nanos()
    );
}
