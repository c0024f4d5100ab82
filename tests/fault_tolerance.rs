//! Failure-injection integration tests across the whole stack: executor
//! kills (lineage reload), PS server kills (checkpoint restore), datanode
//! kills (DFS replication), and combinations — results must always match
//! the failure-free run.

use psgraph::core::algos::{
    CommonNeighbor, ConnectedComponents, FastUnfolding, KCore, LabelPropagation, PageRank,
    TriangleCount,
};
use psgraph::core::runner::distribute_edges;
use psgraph::core::{PsGraphConfig, PsGraphContext};
use psgraph::graph::{gen, metrics};
use psgraph::sim::{ChaosConfig, FaultSchedule, FaultSite, SimTime, SplitMix64};
use psgraph_harness::Pool;
use std::fmt::Debug;
use std::sync::Arc;

#[test]
fn executor_and_server_failures_in_one_run() {
    let g = gen::rmat(120, 900, Default::default(), 211).dedup();
    let ctx = PsGraphContext::local();
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    // Kill an executor at superstep 2 and a PS server at superstep 4.
    // Small batches force enough supersteps for both kills to fire.
    let chaos =
        FaultSchedule::scripted([(FaultSite::ExecutorCrash, 2, 2), (FaultSite::PsCrash, 4, 1)]);
    ctx.attach_chaos(chaos.clone());
    let out = CommonNeighbor { checkpoint: true, batch_size: 8 }
        .run(&ctx, &edges, g.num_vertices())
        .unwrap();
    assert_eq!(chaos.stats().crashes, 2);
    let queried: Vec<(u64, u64)> = out.counts.iter().map(|&(a, b, _)| (a, b)).collect();
    let exact = metrics::common_neighbors_exact(&g, &queried);
    for ((_, _, c), e) in out.counts.iter().zip(&exact) {
        assert_eq!(c, e, "counts must survive both failures");
    }
    assert!(ctx.now() >= ctx.cost().restart_overhead());
}

#[test]
fn seeded_crashes_never_change_common_neighbor() {
    // Table II with the kills drawn from a seeded schedule: any executor
    // and any server may die at the top of any superstep, several at once.
    let g = gen::rmat(120, 900, Default::default(), 211).dedup();
    let run = |chaos: FaultSchedule| {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        ctx.attach_chaos(chaos);
        let out = CommonNeighbor { checkpoint: true, batch_size: 8 }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap();
        let cluster = ctx.cluster();
        let restarts: u64 =
            (0..cluster.num_executors()).map(|e| cluster.executor(e).incarnation()).sum();
        (out.counts, restarts, ctx.master().recoveries())
    };
    let (clean, _, _) = run(FaultSchedule::off());
    let (mut executor_kills, mut server_kills) = (0, 0);
    for seed in 1..=20 {
        let chaos = FaultSchedule::new(ChaosConfig { seed, p_crash: 0.05, ..ChaosConfig::off() });
        let (counts, restarts, recoveries) = run(chaos.clone());
        assert_eq!(counts, clean, "seed {seed}: crashes changed the counts");
        assert_eq!(
            restarts + recoveries,
            chaos.stats().crashes,
            "seed {seed}: every crash is recovered once"
        );
        executor_kills += restarts;
        server_kills += recoveries;
    }
    assert!(executor_kills > 0 && server_kills > 0, "both kinds of node must die");
}

/// Twenty seeds, each scripting two executor kills at a superstep and an
/// executor drawn from the seed: `run` — a job on a fresh deployment with
/// the schedule attached, returning its output, superstep count and
/// executor restarts — must give the fault-free output every time, each
/// crash must restart its executor once, and some kill must land.
fn seeded_executor_kills_never_change<T: PartialEq + Debug>(
    job: &str,
    run: impl Fn(FaultSchedule) -> (T, u64, u64),
) {
    let (clean, steps, _) = run(FaultSchedule::off());
    let executors = PsGraphContext::local().cluster().num_executors() as u64;
    let mut landed = 0;
    for seed in 1..=20 {
        let mut rng = SplitMix64::new(seed);
        let chaos = FaultSchedule::scripted(
            (0..2).map(|_| (FaultSite::ExecutorCrash, rng.next_below(steps), rng.next_below(executors))),
        );
        let (out, _, restarts) = run(chaos.clone());
        assert_eq!(out, clean, "{job}, seed {seed}: executor kills changed the output");
        assert_eq!(restarts, chaos.stats().crashes, "{job}, seed {seed}: one restart per crash");
        landed += restarts;
    }
    assert!(landed > 0, "{job}: no kill landed inside the run");
}

#[test]
fn seeded_executor_kills_never_change_label_propagation_or_fast_unfolding() {
    // Both jobs read what their own stages write, so their results follow
    // the order the host runs the executors in: a pool of one fixes it.
    let g = gen::rmat(120, 900, Default::default(), 211).dedup();
    let n = g.num_vertices();
    let deploy = |chaos: FaultSchedule| {
        let pool = Arc::new(Pool::new(1));
        let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        ctx.attach_chaos(chaos);
        (ctx, edges)
    };
    let restarts = |ctx: &PsGraphContext| {
        let cluster = ctx.cluster();
        (0..cluster.num_executors()).map(|e| cluster.executor(e).incarnation()).sum::<u64>()
    };
    seeded_executor_kills_never_change("label propagation", |chaos| {
        let (ctx, edges) = deploy(chaos);
        let out = LabelPropagation::default().run(&ctx, &edges, n).unwrap();
        (out.labels, out.stats.supersteps, restarts(&ctx))
    });
    seeded_executor_kills_never_change("fast unfolding", |chaos| {
        let (ctx, edges) = deploy(chaos);
        let out = FastUnfolding::default().run_unweighted(&ctx, &edges, n).unwrap();
        ((out.communities, out.modularity.to_bits()), out.stats.supersteps, restarts(&ctx))
    });
}

#[test]
fn repeated_executor_failures() {
    let g = gen::rmat(100, 700, Default::default(), 223).dedup();
    let ctx = PsGraphContext::local();
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    // Three kills across the run, different executors. K-Core runs 8 or 9
    // supersteps here, so the last kill still lands.
    let chaos = FaultSchedule::scripted([
        (FaultSite::ExecutorCrash, 2, 0),
        (FaultSite::ExecutorCrash, 4, 1),
        (FaultSite::ExecutorCrash, 6, 3),
    ]);
    ctx.attach_chaos(chaos.clone());
    let out = KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap();
    assert_eq!(out.coreness, metrics::kcore_exact(&g));
    assert_eq!(chaos.stats().crashes, 3, "every kill must land inside the run");
}

#[test]
fn consistent_recovery_rolls_pagerank_back_correctly() {
    let g = gen::rmat(80, 500, Default::default(), 227).dedup();

    let run = |kill: bool| {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let chaos = FaultSchedule::scripted(kill.then_some((FaultSite::PsCrash, 6, 0)));
        ctx.attach_chaos(chaos.clone());
        let out = PageRank { max_iterations: 25, checkpoint_every: 2, ..Default::default() }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap();
        assert_eq!(chaos.stats().crashes, u64::from(kill));
        (out, ctx.now())
    };
    let (clean, t_clean) = run(false);
    let (failed, t_failed) = run(true);
    for (v, (a, b)) in clean.ranks.iter().zip(&failed.ranks).enumerate() {
        assert!((a - b).abs() < 1e-3, "vertex {v}: {a} vs {b}");
    }
    assert!(t_failed > t_clean, "recovery must cost simulated time");
}

#[test]
fn dfs_survives_datanode_loss_under_checkpointing() {
    let g = gen::rmat(80, 500, Default::default(), 229).dedup();
    let ctx = PsGraphContext::local();
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    // Write checkpoints, lose a datanode, then force a server recovery
    // that must read the checkpoint from the surviving replicas.
    let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 3, 1)]);
    ctx.attach_chaos(chaos.clone());
    ctx.dfs().kill_datanode(0).unwrap();
    let out = CommonNeighbor { checkpoint: true, batch_size: 8 }
        .run(&ctx, &edges, g.num_vertices())
        .unwrap();
    assert!(!out.counts.is_empty());
    assert_eq!(chaos.stats().crashes, 1);
}

#[test]
fn unrecoverable_when_checkpoint_missing() {
    // A server dies but nothing was ever checkpointed: the master cannot
    // restore, and the job must surface a clean error (not wrong data).
    let g = gen::rmat(60, 300, Default::default(), 233).dedup();
    let ctx = PsGraphContext::local();
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 1, 0)]);
    ctx.attach_chaos(chaos.clone());
    let err = CommonNeighbor { checkpoint: false, batch_size: 8 }
        .run(&ctx, &edges, g.num_vertices())
        .unwrap_err();
    assert_eq!(chaos.stats().crashes, 1);
    assert!(
        err.to_string().contains("checkpoint"),
        "expected a no-checkpoint error, got: {err}"
    );
}

#[test]
fn an_executor_killed_right_after_the_build_reads_its_adjacency_back_from_the_ps() {
    // K-Core and CC build their adjacency on the servers and read it back
    // whole; an executor killed at superstep 0 or 1 — right after the
    // build — gets its partitions back by reading the servers again, not
    // through a shuffle (`spark_bytes` stays 0).
    let g = gen::rmat(120, 900, Default::default(), 241).dedup();
    let n = g.num_vertices();
    for (step, executor) in [(0, 1), (1, 3)] {
        let deploy = || {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 12).unwrap();
            let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, step, executor)]);
            ctx.attach_chaos(chaos.clone());
            (ctx, edges, chaos)
        };
        let (ctx, edges, chaos) = deploy();
        let out = KCore::default().run(&ctx, &edges, n).unwrap();
        assert_eq!(chaos.stats().crashes, 1, "K-Core, kill at superstep {step}");
        assert_eq!(ctx.cluster().executor(executor as usize).incarnation(), 1);
        assert_eq!(out.coreness, metrics::kcore_exact(&g), "K-Core, kill at superstep {step}");
        assert_eq!(out.stats.spark_net_bytes, 0);

        let (ctx, edges, chaos) = deploy();
        let out = ConnectedComponents::default().run(&ctx, &edges, n).unwrap();
        assert_eq!(chaos.stats().crashes, 1, "CC, kill at superstep {step}");
        assert_eq!(out.labels, metrics::connected_components(&g), "CC, kill at superstep {step}");
        assert_eq!(out.stats.spark_net_bytes, 0);
    }
}

#[test]
fn a_ps_kill_during_kcore_is_no_checkpoint_and_releases_its_objects() {
    // K-Core checkpoints neither its adjacency nor its values: a server
    // lost mid-run cannot be restored, the job says so, and it leaves no
    // object behind on the servers.
    let g = gen::rmat(60, 300, Default::default(), 233).dedup();
    let ctx = PsGraphContext::local();
    let edges = distribute_edges(&ctx, &g, 8).unwrap();
    let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 1, 0)]);
    ctx.attach_chaos(chaos.clone());
    let err = KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap_err();
    assert_eq!(chaos.stats().crashes, 1);
    assert!(err.to_string().contains("no checkpoint"), "expected no checkpoint, got: {err}");
    assert!(!ctx.ps().is_registered("kcore.adj"));
    assert!(!ctx.ps().is_registered("kcore.core"));
}

#[test]
fn executor_kill_mid_run_does_not_change_kcore_or_common_neighbor() {
    // 12 partitions on 4 executors: one executor task covers three
    // partitions. The killed executor's share of the job — K-Core's request
    // plan over its three tables, Common Neighbor's per-round union of its
    // three batches — has to be rebuilt from the recovered partitions (the
    // plan's own life cycle is pinned in `core::agent`'s tests).
    let g = gen::rmat(120, 900, Default::default(), 241).dedup();
    let n = g.num_vertices();
    // `kill` is `(superstep, executor)`; each run checks its kill landed.
    let deploy = |kill: Option<(u64, u64)>| {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        let chaos = FaultSchedule::scripted(
            kill.map(|(step, executor)| (FaultSite::ExecutorCrash, step, executor)),
        );
        ctx.attach_chaos(chaos.clone());
        (ctx, edges, chaos, u64::from(kill.is_some()))
    };
    let kcore = |kill| {
        let (ctx, edges, chaos, scripted) = deploy(kill);
        let out = KCore::default().run(&ctx, &edges, n).unwrap();
        assert_eq!(chaos.stats().crashes, scripted);
        (out.coreness, out.stats.supersteps, ctx.now())
    };
    let (clean, steps, t_clean) = kcore(None);
    assert!(steps > 3, "the kill below must land mid-run");
    let (killed, _, t_killed) = kcore(Some((2, 1)));
    assert_eq!(killed, clean);
    assert_eq!(killed, metrics::kcore_exact(&g));
    assert!(t_killed >= t_clean + PsGraphContext::local().cost().restart_overhead());

    let common = |kill| {
        let (ctx, edges, chaos, scripted) = deploy(kill);
        let out = CommonNeighbor { batch_size: 16, ..Default::default() }.run(&ctx, &edges, n).unwrap();
        assert_eq!(chaos.stats().crashes, scripted);
        (out.counts, out.stats.supersteps)
    };
    let (clean, steps) = common(None);
    assert!(steps > 3, "the kill below must land mid-run");
    // Superstep 1 is the adjacency push; 2 is the second round of pairs.
    let (killed, _) = common(Some((2, 2)));
    assert_eq!(killed, clean, "same counts, in the same order");
}

#[test]
fn executor_kill_mid_rounds_keeps_counts_and_hands_back_kept_lists() {
    // Common Neighbor and Triangle Count keep pulled lists on their
    // executors between rounds. A kill mid-rounds takes them with the
    // executor's memory and its replacement pulls what it needs again: the
    // counts are the fault-free ones, and once the job is over every
    // executor's meter reads what it read before the job — nothing kept is
    // left charged, and nothing the kill already freed is freed twice.
    let g = gen::rmat(120, 900, Default::default(), 241).dedup();
    let n = g.num_vertices();
    // `kill` is `(superstep, executor)`; superstep 1 is the first round of
    // pairs, right after the executors built the adjacency on the PS, and
    // 2 the second. Returns the counts and the supersteps.
    let run = |kill: Option<(u64, u64)>, triangles: bool| {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 12).unwrap();
        let chaos = FaultSchedule::scripted(
            kill.map(|(step, executor)| (FaultSite::ExecutorCrash, step, executor)),
        );
        ctx.attach_chaos(chaos.clone());
        let cluster = ctx.cluster();
        let in_use = || -> Vec<u64> {
            (0..cluster.num_executors()).map(|e| cluster.executor(e).memory().in_use()).collect()
        };
        let before = in_use();
        let out = if triangles {
            let out = TriangleCount { batch_size: 16 }.run(&ctx, &edges, n).unwrap();
            (vec![out.triangles], out.stats.supersteps)
        } else {
            let job = CommonNeighbor { batch_size: 16, ..Default::default() };
            let out = job.run(&ctx, &edges, n).unwrap();
            (out.counts.iter().map(|&(_, _, c)| c).collect(), out.stats.supersteps)
        };
        assert_eq!(chaos.stats().crashes, u64::from(kill.is_some()));
        // Triangle Count reads the edges only before its rounds.
        edges.recover().unwrap();
        assert_eq!(in_use(), before, "kill {kill:?}, triangles {triangles}");
        out
    };
    for triangles in [false, true] {
        let (clean, steps) = run(None, triangles);
        assert!(steps > 3, "the kill below must land mid-rounds");
        assert_eq!(run(Some((1, 0)), triangles), (clean.clone(), steps));
        assert_eq!(run(Some((2, 1)), triangles), (clean.clone(), steps));
        assert_eq!(run(Some((steps - 1, 3)), triangles), (clean, steps));
    }
    assert_eq!(run(None, true).0, vec![metrics::triangles_exact(&g)]);
}

#[test]
fn failure_free_runs_are_reproducible() {
    let g = gen::rmat(100, 800, Default::default(), 239).dedup();
    let run = |ctx: Arc<PsGraphContext>| {
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let out = PageRank { max_iterations: 15, ..Default::default() }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap();
        (out.ranks, out.stats.elapsed)
    };
    let (r1, t1) = run(PsGraphContext::local());
    let (r2, t2) = run(PsGraphContext::local());
    // Ranks are bit-identical: every destination's contributions are
    // folded in (dst, src) order before anything is pushed, and each
    // destination then gets exactly one add per superstep, so no sum
    // depends on the order in which executors reach the servers.
    for (v, (a, b)) in r1.iter().zip(&r2).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
    }
    // Simulated time too: a stage's PS requests are charged in sim order,
    // whichever thread reached a server first.
    assert_eq!(t1, t2);
    assert!(t1 > SimTime::ZERO);
}
