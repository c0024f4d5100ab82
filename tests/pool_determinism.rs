//! Satellite suite for the thread pool: outputs must be
//! *byte-identical* for every pool size and across repeated runs. The
//! engine's rule is that parallel stages combine partial results in
//! canonical partition order, never completion order — these tests pin
//! that rule end-to-end through PageRank, the monotone fixed-point jobs
//! (K-Core, Connected Components), Common Neighbor, the shuffle
//! machinery, the serving frontend's per-shard scatter and the sharded
//! stream drain's table write. The sim clock
//! of a stage is pinned the same way: its PS requests are charged in sim
//! order, not in the order the pool ran the executors.

use std::sync::Arc;

use psgraph::core::algos::{
    CommonNeighbor, ConnectedComponents, GraphSage, GraphSageConfig, KCore, Line, LineConfig,
    PageRank, TriangleCount,
};
use psgraph::core::runner::{self, distribute_edges};
use psgraph::core::{PsGraphConfig, PsGraphContext};
use psgraph::dataflow::{Cluster, ClusterConfig, Rdd};
use psgraph::graph::gen;
use psgraph::net::rpc::NodeId;
use psgraph::ps::{Ps, PsConfig};
use psgraph::serve::{loadgen, QueryMix, ServeCluster, ServeConfig, Workload};
use psgraph::sim::{NodeClock, SimTime};
use psgraph_harness::Pool;
use psgraph_stream::{BatchEffect, DriftRmat, IngestConfig, IngestStats, ShardedIngestor};

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn pagerank_bits(threads: usize) -> Vec<u64> {
    let g = gen::rmat(128, 900, Default::default(), 11).dedup();
    let pool = Arc::new(Pool::with_perturb(threads, None));
    let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(pool));
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    PageRank { max_iterations: 15, ..Default::default() }
        .run(&ctx, &edges, g.num_vertices())
        .unwrap()
        .ranks
        .iter()
        .map(|r| r.to_bits())
        .collect()
}

#[test]
fn pagerank_bit_identical_across_pool_sizes() {
    let baseline = pagerank_bits(1);
    assert!(!baseline.is_empty());
    for threads in &POOL_SIZES[1..] {
        assert_eq!(
            pagerank_bits(*threads),
            baseline,
            "ranks diverge on a {threads}-worker pool"
        );
    }
}

#[test]
fn pagerank_repeated_runs_on_one_pool_size_are_bit_identical() {
    // Claim schedules differ between runs even at a fixed pool size; the
    // canonical-order reduction must hide that entirely.
    let first = pagerank_bits(4);
    for _ in 0..2 {
        assert_eq!(pagerank_bits(4), first, "re-run diverged at 4 workers");
    }
}

/// A shuffle whose reduce-side fold is order-sensitive (float addition):
/// identical output requires the reduce side to merge map-side chunks in
/// canonical partition order, not arrival order.
fn shuffle_sums(threads: usize) -> Vec<(u64, u64)> {
    let pool = Arc::new(Pool::with_perturb(threads, None));
    let cluster = Cluster::new(ClusterConfig::default().with_pool(pool));
    let records: Vec<(u64, f64)> =
        (0..4_000u64).map(|i| (i % 97, (i as f64) * 0.1 + 1.0 / (i + 1) as f64)).collect();
    let rdd = Rdd::from_vec(&cluster, records, 8).unwrap();
    let summed = rdd.reduce_by_key(5, |a, b| a + b).unwrap();
    // No sorting: partition order and within-partition order must already
    // be deterministic.
    summed.collect().unwrap().into_iter().map(|(k, v)| (k, v.to_bits())).collect()
}

#[test]
fn shuffle_reduce_bit_identical_across_pool_sizes() {
    let baseline = shuffle_sums(1);
    assert!(!baseline.is_empty());
    for threads in &POOL_SIZES[1..] {
        assert_eq!(
            shuffle_sums(*threads),
            baseline,
            "shuffle output diverges on a {threads}-worker pool"
        );
    }
}

#[test]
fn shuffle_repeated_runs_are_bit_identical() {
    let first = shuffle_sums(8);
    for _ in 0..2 {
        assert_eq!(shuffle_sums(8), first, "re-run diverged at 8 workers");
    }
}

#[test]
fn perturbed_schedules_do_not_change_outputs() {
    // Same pool size, adversarially perturbed claim schedules (seeded
    // yields, job order and helper head starts) — outputs must not move.
    let run = |perturb: Option<u64>| {
        let g = gen::rmat(96, 600, Default::default(), 5).dedup();
        let pool = Arc::new(Pool::with_perturb(4, perturb));
        let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, &g, 6).unwrap();
        PageRank { max_iterations: 10, ..Default::default() }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap()
            .ranks
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<u64>>()
    };
    let baseline = run(None);
    for seed in [1u64, 7, 42] {
        assert_eq!(run(Some(seed)), baseline, "perturbation seed {seed} changed the ranks");
    }
}

/// A skewed groupBy on `pool`: its groups, in partition order, and the
/// sim time the shuffle took. A third of the records share one key, so
/// one reducer reads far more than the others, and every reducer's legs
/// queue at the same four source disks: the order they are served in is
/// the stage's sim order, never the order the pool ran the reducers.
fn group_by(pool: Pool) -> (Vec<(u64, Vec<u64>)>, u64) {
    let cluster = Cluster::new(ClusterConfig::default().with_pool(Arc::new(pool)));
    let records: Vec<(u64, u64)> =
        (0..6_000u64).map(|i| (if i % 3 == 0 { 0 } else { i % 101 }, i)).collect();
    let rdd = Rdd::from_vec(&cluster, records, 12).unwrap();
    let start = cluster.now();
    let grouped = rdd.group_by_key(8).unwrap();
    let took = (cluster.now() - start).as_nanos();
    (grouped.collect().unwrap(), took)
}

#[test]
fn group_by_output_and_sim_time_identical_across_pools_and_schedules() {
    let baseline = group_by(Pool::with_perturb(1, None));
    assert_eq!(baseline.0.iter().map(|(_, vs)| vs.len()).sum::<usize>(), 6_000);
    for threads in [2, 4] {
        assert_eq!(
            group_by(Pool::with_perturb(threads, None)),
            baseline,
            "groupBy diverges on a {threads}-worker pool"
        );
    }
    for seed in [1u64, 7, 42] {
        assert_eq!(
            group_by(Pool::with_perturb(4, Some(seed))),
            baseline,
            "perturbation seed {seed} changed the groupBy"
        );
    }
}

/// K-Core coreness, CC labels and Common Neighbor counts on one pool. The
/// executors talk to the PS once per superstep for all their partitions
/// (12 partitions on 4 executors), concurrently: which of a superstep's
/// pushes a K-Core / CC read already sees depends on the schedule, the
/// fixed point must not.
fn batch_outputs(pool: Pool) -> (Vec<u64>, Vec<u64>, Vec<(u64, u64, u64)>) {
    let g = gen::rmat(160, 1_200, Default::default(), 23).dedup();
    let n = g.num_vertices();
    let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(Arc::new(pool)));
    let edges = distribute_edges(&ctx, &g, 12).unwrap();
    (
        KCore::default().run(&ctx, &edges, n).unwrap().coreness,
        ConnectedComponents::default().run(&ctx, &edges, n).unwrap().labels,
        CommonNeighbor { batch_size: 32, ..Default::default() }.run(&ctx, &edges, n).unwrap().counts,
    )
}

#[test]
fn kcore_cc_and_common_neighbor_identical_across_pools_and_schedules() {
    let baseline = batch_outputs(Pool::with_perturb(1, None));
    assert!(baseline.0.iter().any(|&c| c > 1) && !baseline.2.is_empty());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [nproc, 4, 8] {
        assert!(
            batch_outputs(Pool::with_perturb(threads, None)) == baseline,
            "outputs diverge on a {threads}-worker pool"
        );
    }
    for seed in [1u64, 7, 42] {
        assert!(
            batch_outputs(Pool::with_perturb(4, Some(seed))) == baseline,
            "perturbation seed {seed} changed the outputs"
        );
    }
}

/// Sim time of PageRank, Common Neighbor, Triangle Count, GraphSage and
/// LINE, each on a fresh deployment on `pool`, and the PS bytes PageRank,
/// Common Neighbor and Triangle Count moved (which lists a round pulls
/// depends on what its executor kept, never on the schedule; PageRank's
/// out-table is built and read back on the servers, and which destinations
/// a superstep pushes follows the canonical fold). K-Core, CC, Label
/// Propagation and Fast Unfolding are left out on purpose: their stages
/// read what the same stage writes on the PS, and which of a stage's pushes
/// a read sees still follows the host's schedule — K-Core's and CC's
/// superstep counts, and with them their RPCs and clocks, can differ on a
/// larger pool. What those three do before their first superstep is in:
/// building the undirected table on the servers (whose seal is charged by
/// the table's content) and reading it back onto the executors; the
/// directed table PageRank builds the same way is its own row.
fn sim_elapsed(pool: Pool) -> Vec<(&'static str, u64)> {
    let pool = Arc::new(pool);
    let ctx = || PsGraphContext::new(PsGraphConfig::default().with_pool(Arc::clone(&pool)));
    let g = gen::rmat(256, 2_000, Default::default(), 31).dedup();
    let n = g.num_vertices();
    let pagerank = {
        let ctx = ctx();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        PageRank { max_iterations: 8, ..Default::default() }.run(&ctx, &edges, n).unwrap().stats
    };
    let common_neighbor = {
        let ctx = ctx();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        CommonNeighbor { batch_size: 64, ..Default::default() }.run(&ctx, &edges, n).unwrap().stats
    };
    let triangle_count = {
        let ctx = ctx();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        TriangleCount { batch_size: 64 }.run(&ctx, &edges, n).unwrap().stats
    };
    let graphsage = {
        let ctx = ctx();
        let s = gen::sbm2(400, 6.0, 0.5, 16, 0.8, 5);
        let edges = distribute_edges(&ctx, &s.graph, 8).unwrap();
        GraphSage::new(GraphSageConfig { epochs: 1, ..Default::default() })
            .run(&ctx, &edges, &Arc::new(s.features), &Arc::new(s.labels), 400)
            .unwrap()
            .stats
    };
    let line = {
        let ctx = ctx();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let job = Line::new(LineConfig { epochs: 1, ..Default::default() });
        job.run(&ctx, &edges, n).unwrap().stats
    };
    let neighbor_tables = |records: fn(&(u64, u64), &mut Vec<(u64, u64)>)| {
        let ctx = ctx();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        let start = ctx.now();
        let adj = runner::table_on_ps(&ctx, &edges, "adj", n, records).unwrap();
        runner::pull_neighbor_tables(&ctx, &adj).unwrap();
        ctx.now().saturating_sub(start).as_nanos()
    };
    vec![
        ("PageRank", pagerank.elapsed.as_nanos()),
        ("PageRank PS bytes", pagerank.ps_net_bytes),
        ("Common Neighbor", common_neighbor.elapsed.as_nanos()),
        ("Common Neighbor PS bytes", common_neighbor.ps_net_bytes),
        ("Triangle Count", triangle_count.elapsed.as_nanos()),
        ("Triangle Count PS bytes", triangle_count.ps_net_bytes),
        ("GraphSage", graphsage.elapsed.as_nanos()),
        ("LINE", line.elapsed.as_nanos()),
        ("undirected table built on the PS and read back", neighbor_tables(runner::undirected)),
        ("directed table built on the PS and read back", neighbor_tables(runner::directed)),
    ]
}

#[test]
fn stage_sim_time_identical_across_pools_and_schedules() {
    let baseline = sim_elapsed(Pool::with_perturb(1, None));
    for threads in &POOL_SIZES[1..] {
        assert_eq!(
            sim_elapsed(Pool::with_perturb(*threads, None)),
            baseline,
            "sim time or PS bytes diverge at {threads} threads"
        );
    }
    for seed in [1u64, 7, 42] {
        assert_eq!(
            sim_elapsed(Pool::with_perturb(4, Some(seed))),
            baseline,
            "perturbation seed {seed} changed the sim time or PS bytes"
        );
    }
}

/// The heaviest serve op — `TopKAll`, scored on every shard and merged at
/// the frontend — driven through frontends whose scatter runs on `pool`.
/// Shard partials merge in shard order, so neither an answer nor a
/// simulated latency may depend on which thread scored which shard.
fn topk_all_report(pool: Pool) -> loadgen::LoadReport {
    let cfg = ServeConfig { cache_budget: 256 * 1024, ..Default::default() }
        .with_pool(Arc::new(pool));
    let (mut cluster, _truth) = ServeCluster::demo(2_048, 16, &cfg).unwrap();
    let mix = QueryMix {
        rank: 0,
        community: 0,
        embedding: 0,
        neighbors: 0,
        khop: 0,
        topk: 0,
        topk_all: 1,
        compound: 0,
    };
    let wl = Workload { queries: 200, zipf_s: 1.0, mix, ..Default::default() };
    loadgen::run(&mut cluster, &wl, true)
}

#[test]
fn serve_answers_and_latencies_identical_across_pools_and_schedules() {
    let baseline = topk_all_report(Pool::with_perturb(1, None));
    assert_eq!(baseline.values.len(), 200, "every TopKAll query must be answered");
    for threads in POOL_SIZES {
        for seed in [1u64, 7, 42] {
            let rep = topk_all_report(Pool::with_perturb(threads, Some(seed)));
            assert!(
                rep.values == baseline.values,
                "answers diverge at {threads} threads, seed {seed}"
            );
            assert!(
                rep.latencies == baseline.latencies,
                "simulated latencies diverge at {threads} threads, seed {seed}"
            );
        }
    }
}

/// Six batches of a drifting RMAT stream drained through four lanes on
/// `pool`: every batch's effect, the lifetime counters and each lane's
/// clock. The table's per-partition writes run on the pool and build the
/// report each effect is read from; the lanes' requests are charged in
/// lane order afterwards, so the clocks must not move with the schedule.
fn sharded_drain(pool: Pool) -> (Vec<BatchEffect>, IngestStats, Vec<SimTime>) {
    let ps = Ps::new(PsConfig { servers: 3, pool: Some(Arc::new(pool)), ..Default::default() });
    let n = 96;
    let cfg = IngestConfig { mailbox_cap: 256, ..IngestConfig::default() };
    let mut ingestor = ShardedIngestor::create(&ps, &cfg, n, 4).unwrap();
    let base = gen::rmat(n, 300, Default::default(), 5).dedup();
    ingestor.bootstrap(&NodeClock::new(), base.edges()).unwrap();
    let drift = DriftRmat { num_vertices: n, remove_fraction: 0.3, seed: 9, ..Default::default() };
    let mut source = drift.start(base.edges());
    let effects = (0..6)
        .map(|_| {
            for _ in 0..200 {
                assert!(ingestor.offer(NodeId::Driver, source.next_event()));
            }
            ingestor.drain_all().unwrap()
        })
        .collect();
    (effects, ingestor.stats(), ingestor.lane_times())
}

#[test]
fn sharded_drain_effects_counters_and_lane_clocks_identical_across_pools_and_schedules() {
    let baseline = sharded_drain(Pool::with_perturb(1, None));
    assert!(baseline.0.iter().all(|fx| !fx.applied.is_empty()), "every batch changes the table");
    assert!(baseline.2.iter().all(|&t| t > SimTime::ZERO), "every lane wrote");
    for threads in POOL_SIZES {
        for seed in [None, Some(1u64), Some(7), Some(42)] {
            let run = sharded_drain(Pool::with_perturb(threads, seed));
            assert!(run == baseline, "sharded drain diverges at {threads} threads, perturbation {seed:?}");
        }
    }
}
