//! Golden sim-cost test for the batch jobs that talk to the PS once per
//! executor per superstep (Fig. 6's Common Neighbor, Triangle Count,
//! PageRank and K-Core, plus Connected Components), for the two community
//! jobs (Label Propagation, Fast Unfolding) and for the two
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
//! Re-recorded a second time when a stage's PS requests started to be
//! charged in sim order (`sim::stage`: recorded while the stage runs,
//! replayed by departure when it ends) instead of in the order the host ran
//! the executors. Only `elapsed=` moved, and every one fell or held; at the
//! parent commit (bac296d) they read 10143571ns (K-Core), 8473006ns
//! (Connected Components), 83487538ns (GraphSage) and 37603137ns (LINE,
//! both orders). Common Neighbor, Triangle Count and PageRank did not move:
//! their executors' requests of a stage all leave at the stage's start, so
//! (departure, executor) order is the host's order on one thread.
//!
//! The `label_propagation:` and `fast_unfolding:` lines were added
//! before either job moved onto the shared superstep loop, recorded at
//! 58bb7fc. Both jobs read what their own stage writes, so like K-Core's
//! and CC's their lines hold on the one-thread pool below only. Fast
//! Unfolding's held through the move. Label Propagation's was re-recorded
//! when it left one request per partition for its executors' request
//! plans: the labels and superstep count held, and at the parent it read
//! `ps_rpcs=281 ps_bytes=2923944 elapsed=10649789ns`.
//!
//! The `common_neighbor:` and `triangle_count:` lines were re-recorded
//! when an intersection stopped being charged the comparisons of the
//! merge / gallop walk the kernel used to replay and started being charged
//! `graph::metrics::intersection_ops` of the two list lengths. Only
//! `elapsed=` moved; at the parent commit (12f503c) they read 7894570ns
//! (Common Neighbor) and 9037937ns (Triangle Count).
//!
//! Re-recorded a third time when the shuffle's reduce side started to
//! fetch as Spark does: one leg per source executor, all in flight, each
//! source reading its own shuffle files from its own disk port, instead of
//! one chunk at a time with every disk read charged to the reducer. Results,
//! `ps_rpcs` and `ps_bytes` held; every `elapsed=` fell or held; at the
//! parent commit (448987e) they read 8095469ns (Common Neighbor),
//! 9185050ns (Triangle Count), 6526803ns (PageRank), 8829776ns (K-Core),
//! 8089457ns (Connected Components), 8133226ns (Label Propagation),
//! 95753994ns (Fast Unfolding), 23910265ns (GraphSage) and 14145939ns
//! (LINE, both orders). `spark_bytes=` rose by the request legs' block ids
//! alone (8 B per remote block): +384 (Common Neighbor, GraphSage), +768
//! (Triangle Count), +3448 (PageRank), +3456 (K-Core, CC, LPA) and +16984
//! (Fast Unfolding), 32336 B in all; at the parent they read 572192,
//! 788416, 286352, 572192, 572192, 572192, 1514688 and 408096.
//!
//! The `common_neighbor:` and `triangle_count:` lines were re-recorded
//! when the two jobs started to keep a pulled list on its executor until
//! the last round that names it (within the executor's memory budget)
//! instead of pulling every list a round names again. Results, supersteps,
//! `ps_rpcs` and `spark_bytes` held — every round still pulls something
//! here; `ps_bytes` and `elapsed=` fell. At the parent commit (dc1db2d)
//! they read `ps_bytes=4364416 elapsed=5746570ns` (Common Neighbor) and
//! `ps_bytes=4293840 elapsed=6745400ns` (Triangle Count).
//!
//! The `common_neighbor:` and `triangle_count:` lines were re-recorded
//! when the two jobs stopped building their adjacency with a `groupBy`
//! shuffle and pushing the grouped lists: each executor now sends its
//! edges, both directions, to the PS in one request and the servers merge
//! them into the lists. Only these two lines moved, and only their costs:
//! results and supersteps held. No shuffle is left in Common Neighbor
//! (`spark_bytes=0`; Triangle Count keeps its `distinct`). A run is sent
//! per executor and source, not per source, so `ps_bytes` rose by the
//! extra runs' 16 B headers, and `ps_rpcs` by the build's legs: a grouped
//! partition used to land on one server, an executor's edges now reach
//! both. At the parent commit (c33cd47) they read `ps_rpcs=28
//! ps_bytes=1830544 spark_bytes=572576 elapsed=4867334ns` (Common
//! Neighbor) and `ps_rpcs=28 ps_bytes=1824304 spark_bytes=789184
//! elapsed=5953893ns` (Triangle Count).
//!
//! The `kcore:`, `connected_components:`, `label_propagation:`,
//! `common_neighbor:` and `triangle_count:` lines were re-recorded when
//! K-Core, CC and LPA stopped building their adjacency with a `groupBy`
//! and started building it on the servers, as Common Neighbor and
//! Triangle Count do, in a table co-partitioned with the edge RDD that
//! each executor then reads its partitions of back whole; and when the
//! servers stopped merging a run into its list per request and started
//! merging each list once, in one seal after the build, charged
//! `Σ (final_len + 1)` items per server. Results and supersteps held.
//! The three neighbourhood jobs no longer shuffle (`spark_bytes=0`) and
//! move their adjacency over the PS instead (`ps_rpcs` and `ps_bytes`
//! rose); Common Neighbor and Triangle Count pay the seal's two RPCs,
//! 32 B and its server time. At the parent commit (590b8b9) they read
//! `ps_rpcs=123 ps_bytes=752280 spark_bytes=575648 elapsed=4323466ns`
//! (K-Core), `ps_rpcs=53 ps_bytes=421128 spark_bytes=575648
//! elapsed=3583147ns` (CC), `ps_rpcs=53 ps_bytes=421736
//! spark_bytes=575648 elapsed=3626916ns` (LPA), `ps_rpcs=32
//! ps_bytes=1916384 elapsed=1909291ns` (Common Neighbor) and `ps_rpcs=32
//! ps_bytes=1879408 elapsed=3241615ns` (Triangle Count).
//!
//! The `kcore:`, `connected_components:`, `label_propagation:`,
//! `common_neighbor:`, `triangle_count:` and `graphsage:` lines were
//! re-recorded when the PS hash layout started to place a key at
//! `mix64(key) % partitions` instead of `FxHash(key) % partitions`, which
//! kept a key's low bits and so RMAT's degree skew: these six jobs' tables
//! are hash tables (GraphSage's `gs.adj` and `gs.x` too), so which vertices
//! share a partition, a server and a reading executor moved. The results
//! held — common-neighbor pairs and counts, triangles, coreness digest and
//! maximum, components, GraphSage's loss and accuracy digests — except
//! LPA's labels, an order-sensitive fold whose executor grouping moved
//! (`kept_own` and its supersteps held). Common Neighbor and Triangle
//! Count moved `elapsed=` alone. K-Core took one superstep more (8 → 9:
//! its steps read what their own stage writes, on a different grouping).
//! At the parent commit (7288d2e) they read `supersteps=8 ps_rpcs=157
//! ps_bytes=1576936 elapsed=2034396ns` (K-Core), `ps_rpcs=87
//! ps_bytes=1245784 elapsed=1294077ns` (CC), `labels=7e362f97326ff396
//! … ps_rpcs=87 ps_bytes=1246392 elapsed=1337846ns` (LPA),
//! `elapsed=2022881ns` (Common Neighbor), `elapsed=3355205ns` (Triangle
//! Count) and `ps_rpcs=964 ps_bytes=10057232 elapsed=23492046ns`
//! (GraphSage). PageRank, Fast Unfolding and LINE use Range layouts only
//! and did not move.
//!
//! The `common_neighbor:` and `triangle_count:` lines were re-recorded
//! when an executor round stopped being charged `intersection_ops` per
//! pair and started being charged `graph::metrics::anchored_run_ops` per
//! key: the pairs of a round that share a key list load it once, as the
//! kernel always did, and are charged the cheaper of counting each pair
//! alone and walking every partner against that one load. A key named by
//! one pair is charged as before. Only `elapsed=` moved, and both fell;
//! pairs, counts, triangles, supersteps, RPCs and bytes held. At the
//! parent commit (45afb93) they read `elapsed=1828543ns` (Common Neighbor)
//! and `elapsed=3165733ns` (Triangle Count).
//!
//! A deliberate cost-model change re-records the lines (the failure
//! message prints the actual ones); a digest must not move with it.

use std::sync::Arc;

use psgraph_core::algos::{
    CommonNeighbor, ConnectedComponents, FastUnfolding, GraphSage, GraphSageConfig, KCore,
    LabelPropagation, Line, LineConfig, LineOrder, PageRank, TriangleCount,
};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{PsGraphConfig, PsGraphContext, RunStats};
use psgraph_graph::gen;
use psgraph_harness::Pool;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};

/// A fresh default deployment on a one-thread pool: K-Core's and CC's
/// superstep counts, so their RPCs and clocks, and LPA's and Fast
/// Unfolding's results still depend on the schedule on a larger one (a
/// stage's reads see whichever of its pushes ran first).
fn deployment() -> Arc<PsGraphContext> {
    PsGraphContext::new(PsGraphConfig::default().with_pool(Arc::new(Pool::new(1))))
}

/// Run `job` on a fresh [`deployment`] and render its result, `RunStats`
/// and the PS RPCs it made as one line.
fn run(job: impl FnOnce(&Arc<PsGraphContext>) -> (String, RunStats)) -> String {
    let ctx = deployment();
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
    "common_neighbor: pairs=23860 common=673803 supersteps=4 ps_rpcs=34 ps_bytes=1916416 spark_bytes=0 elapsed=1091063ns",
    "triangle_count: triangles=170022 supersteps=4 ps_rpcs=34 ps_bytes=1879440 spark_bytes=283168 elapsed=2546599ns",
    "pagerank: ranks=62ea99719e63829e supersteps=10 ps_rpcs=240 ps_bytes=998402 spark_bytes=0 elapsed=1857000ns",
    "kcore: coreness=76d043e535627bf0 max=47 supersteps=9 ps_rpcs=172 ps_bytes=1706080 spark_bytes=0 elapsed=1883227ns",
    "connected_components: components=328 supersteps=4 ps_rpcs=88 ps_bytes=1267200 spark_bytes=0 elapsed=1124817ns",
    "label_propagation: labels=f4078fb9556c4418 kept_own=328 supersteps=4 ps_rpcs=89 ps_bytes=1268632 spark_bytes=0 elapsed=1145276ns",
    "fast_unfolding: communities=cdb9917dd8802be7 modularity=3fbd61e8a9877559 supersteps=47 ps_rpcs=4278 ps_bytes=20028112 spark_bytes=1531672 elapsed=78332097ns",
    "graphsage: loss=f8bfd9cb90d44881 accuracy=92328807b4eb6fed supersteps=4 ps_rpcs=980 ps_bytes=10057360 spark_bytes=408480 elapsed=23500505ns",
    "line(second): loss=8913c0a2c2554574 embeddings=211cd4d92341965c supersteps=2 ps_rpcs=390 ps_bytes=27783296 spark_bytes=0 elapsed=14145939ns",
    "line(first): loss=9fea2211ca7f304e embeddings=2bf198f17803dab8 supersteps=2 ps_rpcs=388 ps_bytes=27783232 spark_bytes=0 elapsed=14145939ns",
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
            let edges = distribute_edges(ctx, &g, PARTITIONS).unwrap();
            let out = LabelPropagation::default().run(ctx, &edges, n).unwrap();
            let digest = fnv(out.labels.iter().copied());
            let kept = out.labels.iter().enumerate().filter(|&(v, &l)| v as u64 == l).count();
            (format!("label_propagation: labels={digest:016x} kept_own={kept}"), out.stats)
        }),
        run(|ctx| {
            let edges = distribute_edges(ctx, &g, PARTITIONS).unwrap();
            let out = FastUnfolding::default().run_unweighted(ctx, &edges, n).unwrap();
            let digest = fnv(out.communities.iter().copied());
            let q = out.modularity.to_bits();
            (format!("fast_unfolding: communities={digest:016x} modularity={q:016x}"), out.stats)
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
    "pagerank(4-cycle, 1 steps): ranks=4c105ca20d7d0bf9 supersteps=1 ps_rpcs=18 ps_bytes=688 spark_bytes=0 elapsed=350404ns",
    "pagerank(4-cycle, 2 steps): ranks=1fa86cd78279a129 supersteps=2 ps_rpcs=26 ps_bytes=944 spark_bytes=0 elapsed=450491ns",
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

const STAGE_EXPECTED: &str =
    "stage(executor 0 computes then pulls, executor 1 pulls then computes): ps_rpcs=2 ps_bytes=64 elapsed=150032ns";

/// One two-executor stage, derived by hand in DESIGN.md §8 (mechanism 11):
/// executor 0 computes for 100 µs and then pulls two ids from PS server 0;
/// executor 1 pulls the same two ids at once and then computes for 100 µs.
/// On a one-thread pool the host runs executor 0's task first, but
/// executor 1's pull left first, so it is served first.
#[test]
fn one_two_executor_stage_costs_what_design_md_derives() {
    let ctx = deployment();
    let v = VectorHandle::<f64>::create(
        ctx.ps(), "v", 4, Partitioner::Range, RecoveryMode::Inconsistent,
    )
    .unwrap();
    let stats = ctx.ps().network().stats();
    let (t0, rpcs0, bytes0) = (ctx.now(), stats.rpcs(), stats.total_bytes());
    // 400 000 ops over an executor's two cores.
    let compute = 400_000;
    ctx.cluster()
        .run_executors(2, |exec, _| {
            let pull = || v.pull(exec.clock(), &[0, 1]).unwrap();
            if exec.id() == 0 {
                exec.charge_cpu(ctx.cost(), compute);
                pull();
            } else {
                pull();
                exec.charge_cpu(ctx.cost(), compute);
            }
            Ok(())
        })
        .unwrap();
    let elapsed = ctx.now() - t0;
    let line = format!(
        "stage(executor 0 computes then pulls, executor 1 pulls then computes): ps_rpcs={} ps_bytes={} elapsed={}ns",
        stats.rpcs() - rpcs0,
        stats.total_bytes() - bytes0,
        elapsed.as_nanos(),
    );
    assert!(line == STAGE_EXPECTED, "sim cost changed; actual line:\n{line}");
    // Executor 1's pull leaves at the stage's start and is back one round
    // trip later (16 B out, 2 × 4 ops, 16 B back), with 100 µs of compute
    // still to do; executor 0's leaves after its 100 µs and finds the port
    // idle. Both end one round trip and 100 µs after the start.
    let cost = ctx.cost();
    let round_trip = cost.net_cost(16) + cost.cpu_cost(8) + cost.net_cost(16);
    assert_eq!(elapsed, round_trip + cost.cpu_cost(compute / 2));
}
