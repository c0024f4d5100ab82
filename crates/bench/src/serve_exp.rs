//! `repro -- serve`: the online-serving reproduction over trained PS state.
//!
//! Pipeline: train PageRank + Label Propagation + LINE on DS3′, push the
//! results into named PS objects, snapshot them to the DFS
//! ([`psgraph_ps::SnapshotWriter`]), load the snapshot into a
//! 2-shard × 2-replica serving tier, and replay a Zipf(1.0) open-loop
//! stream against it. Three scripted events exercise self-healing:
//!
//! 1. At `queries/2` a scripted `ReplicaCrash` point of a
//!    [`psgraph_sim::FaultSchedule`] takes one replica down. A
//!    [`psgraph_serve::Monitor`] heartbeat loop detects the death, charges
//!    a container restart from the cost model, and rejoins the replica —
//!    tail latency degrades, then recovers.
//! 2. At `3·queries/4` the PS "keeps training": a slice of the ranks and
//!    communities and a few embedding rows change, a
//!    [`psgraph_ps::snapshot::DeltaWriter`] exports only the dirty
//!    partitions, and the delta is hot-swapped into the live tier.
//! 3. Every recorded answer is checked bit-for-bit — pre-swap queries
//!    against the original PS state, post-swap queries against the
//!    updated one. `stale` counts post-swap answers that still reflect
//!    the old state (a cache-invalidation bug); it must be 0.

use psgraph_core::algos::{LabelPropagation, Line, LineConfig, PageRank};
use psgraph_core::runner::distribute_edges;
use psgraph_core::truth::out_adjacency;
use psgraph_core::CoreError;
use psgraph_graph::Dataset;
use psgraph_ps::snapshot::DeltaWriter;
use psgraph_ps::{
    ColMatrixHandle, NeighborTableHandle, Partitioner, RecoveryMode, SnapshotWriter, VectorHandle,
};
use psgraph_serve::{
    GraphTruth, Monitor, ObjectMap, ScriptedAction, ServeCluster, ServeConfig, SwapStats,
    Workload,
};
use psgraph_sim::{CostModel, FaultSchedule, FaultSite, NodeClock, SimTime};

use crate::deploy::{psgraph_context, PaperAlloc, ScaleRule};
use crate::report::{Cell, Row, Table};
use crate::stream_state::{answers, Asked};

/// Embedding width for the served LINE model (the paper's online models
/// are narrower than the dim-128 offline runs).
const SERVE_DIM: usize = 16;

/// Open-loop arrival rate the serve repro drives (the [`Workload`]
/// default); the recovery cost model is scaled to `queries / SERVE_QPS`.
const SERVE_QPS: f64 = 20_000.0;

/// Measured serving results.
#[derive(Debug, Clone)]
pub struct ServeRepro {
    pub num_vertices: u64,
    pub issued: usize,
    pub answered: usize,
    pub shed: usize,
    pub failed: usize,
    pub hit_rate: f64,
    pub qps: f64,
    pub p50: SimTime,
    pub p95: SimTime,
    pub p99: SimTime,
    pub max: SimTime,
    /// p99 over queries issued before / after the replica kill.
    pub p99_pre_kill: SimTime,
    pub p99_post_kill: SimTime,
    /// p99 over queries issued after the killed replica rejoined.
    pub p99_post_rejoin: SimTime,
    /// Query index at which the kill fires.
    pub kill_at: usize,
    /// When the monitor's heartbeat declared the replica dead.
    pub detected_at: SimTime,
    /// When the restarted replica rejoined the rotation.
    pub rejoined_at: SimTime,
    /// Query index at which the delta hot-swap fires.
    pub swap_at: usize,
    /// What the hot-swap rebuilt and invalidated.
    pub swap: SwapStats,
    /// Post-swap answers that still reflected pre-swap state. Must be 0.
    pub stale: usize,
    pub live_replicas: usize,
    /// Answers that matched neither the pre- nor post-swap PS state.
    /// Must be 0.
    pub wrong: usize,
    /// Simulated time spent training the served models.
    pub train_time: SimTime,
}

/// Train on DS3′ at `scale`, snapshot, and serve `queries` Zipf queries
/// with a mid-run replica kill (auto-restarted) and delta hot-swap.
pub fn run_serve(scale: f64, queries: usize) -> Result<ServeRepro, CoreError> {
    let g = Dataset::Ds3.generate(scale);
    let n = g.num_vertices();
    let rule = ScaleRule::new(Dataset::Ds3, scale);
    let ctx = psgraph_context(rule, PaperAlloc::PSGRAPH_DS3);
    let edges = distribute_edges(&ctx, &g, ctx.cluster().default_partitions())?;

    // Train the three served models on the deployment's PS.
    let ranks = PageRank { max_iterations: 10, ..Default::default() }
        .run(&ctx, &edges, n)?
        .ranks;
    let labels = LabelPropagation { max_iterations: 5 }.run(&ctx, &edges, n)?.labels;
    let line = Line::new(LineConfig { dim: SERVE_DIM, epochs: 2, ..Default::default() })
        .run(&ctx, &edges, n)?;
    let train_time = ctx.now();

    // The serving copy of the embeddings goes through `push_add` into a
    // zero-initialized matrix; `0.0 + x` is what comes back out, so use
    // that as the bit-level truth (it only differs from `x` for -0.0).
    let embeddings: Vec<Vec<f32>> = line
        .embeddings
        .iter()
        .map(|row| row.iter().map(|x| 0.0f32 + *x).collect())
        .collect();
    let adjacency = out_adjacency(g.edges(), n);

    // Publish the trained state as named PS objects and snapshot them.
    let client = NodeClock::new();
    client.sync_to(train_time);
    let ids: Vec<u64> = (0..n).collect();
    let (ps, range, consistent) = (ctx.ps(), Partitioner::Range, RecoveryMode::Consistent);
    let hr = VectorHandle::<f64>::create(ps, "serve.rank", n, range, consistent)?;
    hr.push_set(&client, &ids, &ranks)?;
    let hc = VectorHandle::<u64>::create(ps, "serve.community", n, range, consistent)?;
    hc.push_set(&client, &ids, &labels)?;
    let hm = ColMatrixHandle::create(ps, "serve.embed", n, SERVE_DIM, RecoveryMode::Inconsistent)?;
    hm.push_add_rows(&client, &ids, &embeddings)?;
    let tables: Vec<(u64, Vec<u64>)> = adjacency
        .iter()
        .enumerate()
        .map(|(i, ns)| (i as u64, ns.clone()))
        .collect();
    let ha = NeighborTableHandle::create(ps, "serve.adj", n, range, consistent)?;
    ha.push(&client, &tables)?;

    let mut w = SnapshotWriter::new(ctx.dfs(), "/serve/snapshot", &client);
    w.vector_f64(&hr)?;
    w.vector_u64(&hc)?;
    w.colmatrix(&hm)?;
    w.neighbor_table(&ha)?;
    let manifest = w.finish()?;

    // Bring up 2 shards × 2 replicas over the snapshot. The default cost
    // model's detection and restart delays (10 s + 20 s, sized for YARN
    // containers) would dwarf a run of `queries / SERVE_QPS` simulated
    // seconds, so scale them to the run the way the paper's Table II
    // relates recovery time to job runtime: detection ≈ 2 % and restart
    // ≈ 8 % of the expected duration — an online-tier process respawn,
    // not a batch container.
    let expected = queries as f64 / SERVE_QPS;
    let cost = CostModel {
        failure_detect: SimTime::from_secs_f64(expected / 50.0),
        container_restart: SimTime::from_secs_f64(expected / 12.0),
        ..CostModel::default()
    };
    let cfg = ServeConfig { cost: cost.clone(), ..ServeConfig::default() };
    let objects = ObjectMap {
        ranks: Some("serve.rank".into()),
        communities: Some("serve.community".into()),
        embeddings: Some("serve.embed".into()),
        adjacency: Some("serve.adj".into()),
    };
    let mut cluster = ServeCluster::load(ctx.dfs(), "/serve/snapshot", &objects, &cfg, &client)
        .map_err(|e| CoreError::Invalid(format!("serve: {e}")))?;

    // The mid-run "continued training": a tenth of the ranks and
    // communities move (dirtying only the PS partitions that cover them
    // — the delta must stay partial) and a few embedding rows take a
    // gradient step (dirtying every column partition). Adjacency is left
    // untouched, so the delta must omit it entirely. Truth is computed
    // client-side with the same f32/f64 operations the PS applies, so
    // the post-swap comparison stays bit-exact.
    let patch_ids: Vec<u64> = (0..(n / 10).max(1)).collect();
    let ranks_patch: Vec<f64> =
        patch_ids.iter().map(|&v| ranks[v as usize] * 0.5 + 1.0).collect();
    let labels_patch: Vec<u64> = patch_ids.iter().map(|&v| labels[v as usize] + 1_000).collect();
    let embed_ids: Vec<u64> = (0..n.min(4)).collect();
    let embed_step: Vec<Vec<f32>> =
        embed_ids.iter().map(|_| vec![0.25f32; SERVE_DIM]).collect();

    let mut ranks1 = ranks.clone();
    let mut labels1 = labels.clone();
    let mut embeddings1 = embeddings.clone();
    for (i, &v) in patch_ids.iter().enumerate() {
        ranks1[v as usize] = ranks_patch[i];
        labels1[v as usize] = labels_patch[i];
    }
    for &v in &embed_ids {
        for x in &mut embeddings1[v as usize] {
            *x += 0.25;
        }
    }

    // Replay the Zipf stream: one replica dies halfway (the monitor
    // restarts it), the delta swaps in at three quarters.
    let kill_at = queries / 2;
    let swap_at = queries * 3 / 4;
    let wl = Workload { queries, ..Default::default() };
    let chaos = FaultSchedule::scripted([(FaultSite::ReplicaCrash, kill_at as u64, 1)]);
    let monitor = Monitor::new(cost);
    let mut swap_stats: Option<SwapStats> = None;
    let report;
    {
        let mut actions = [ScriptedAction::new(swap_at, |cluster: &mut ServeCluster| {
            hr.push_set(&client, &patch_ids, &ranks_patch).expect("rank retrain");
            hc.push_set(&client, &patch_ids, &labels_patch).expect("community retrain");
            hm.push_add_rows(&client, &embed_ids, &embed_step).expect("embed retrain");
            let mut dw = DeltaWriter::new(ctx.dfs(), "/serve/snapshot", &manifest, &client);
            dw.vector_f64(&hr).expect("delta ranks");
            dw.vector_u64(&hc).expect("delta communities");
            dw.colmatrix(&hm).expect("delta embeddings");
            let untouched = dw.neighbor_table(&ha).expect("delta adjacency");
            assert_eq!(untouched, 0, "adjacency never changed — no partition may export");
            let delta = dw.finish().expect("delta export");
            swap_stats = Some(cluster.swap_in(&delta).expect("hot swap"));
        })];
        report = psgraph_serve::loadgen::run_with(
            &mut cluster,
            &wl,
            &chaos,
            true,
            Some(&monitor),
            &mut actions,
        );
    }
    let swap = swap_stats.expect("the scripted swap must fire");
    let events = monitor.events();
    let (detected_at, rejoined_at) = events
        .first()
        .map(|e| (e.detected_at, e.rejoined_at))
        .unwrap_or((SimTime::ZERO, SimTime::ZERO));

    // Pre-swap answers must match the original PS state; post-swap
    // answers the updated one. An answer matching only the old state
    // after the swap is a stale cache entry.
    let truth1 = GraphTruth {
        num_vertices: n,
        ranks: Some(ranks1),
        communities: Some(labels1),
        adjacency: Some(adjacency.clone()),
        embeddings: Some(embeddings1),
    };
    let truth0 = GraphTruth {
        num_vertices: n,
        ranks: Some(ranks),
        communities: Some(labels),
        adjacency: Some(adjacency),
        embeddings: Some(embeddings),
    };
    let mut wrong = 0usize;
    let mut stale = 0usize;
    for (idx, query, value) in &report.values {
        let ok0 = answers(&truth0, cfg.shards, Asked::Query(query), value);
        if *idx < swap_at {
            if !ok0 {
                wrong += 1;
            }
        } else if !answers(&truth1, cfg.shards, Asked::Query(query), value) {
            if ok0 {
                stale += 1;
            } else {
                wrong += 1;
            }
        }
    }

    Ok(ServeRepro {
        num_vertices: n,
        issued: report.issued,
        answered: report.answered,
        shed: report.shed,
        failed: report.failed,
        hit_rate: report.hit_rate,
        qps: report.qps(),
        p50: report.percentile(0.50),
        p95: report.percentile(0.95),
        p99: report.percentile(0.99),
        max: report.max_latency(),
        p99_pre_kill: report.percentile_where(0.99, |i| i < kill_at),
        p99_post_kill: report.percentile_where(0.99, |i| i >= kill_at),
        p99_post_rejoin: if events.is_empty() {
            SimTime::ZERO
        } else {
            report.percentile_where(0.99, |i| report.issued_at[i] >= rejoined_at)
        },
        kill_at,
        detected_at,
        rejoined_at,
        swap_at,
        swap,
        stale,
        live_replicas: cluster.live_replicas(),
        wrong,
        train_time,
    })
}

/// Render the SLO table.
pub fn table(r: &ServeRepro) -> Table {
    let mut t = Table::new(
        "Serving — DS3′ snapshot, 2 shards × 2 replicas, Zipf(1.0)",
        &["measured"],
    );
    let text = |s: String| vec![Cell::Text(s)];
    t.push(Row::new("vertices served", text(r.num_vertices.to_string())));
    t.push(Row::new("training (simulated)", text(r.train_time.to_string())));
    t.push(Row::new(
        "queries issued / answered",
        text(format!("{} / {}", r.issued, r.answered)),
    ));
    t.push(Row::new(
        "shed / failed",
        text(format!("{} / {}", r.shed, r.failed)),
    ));
    t.push(Row::new("served QPS (simulated)", text(format!("{:.0}", r.qps))));
    t.push(Row::new("cache hit rate", vec![Cell::Percent(r.hit_rate)]));
    t.push(Row::new("p50 latency", text(r.p50.to_string())));
    t.push(Row::new("p95 latency", text(r.p95.to_string())));
    t.push(Row::new("p99 latency", text(r.p99.to_string())));
    t.push(Row::new("max latency", text(r.max.to_string())));
    t.push(Row::new(
        format!("p99 before kill (q < {})", r.kill_at),
        text(r.p99_pre_kill.to_string()),
    ));
    t.push(Row::new(
        "p99 after kill",
        text(r.p99_post_kill.to_string()),
    ));
    t.push(Row::new(
        "kill detected / rejoined at",
        text(format!("{} / {}", r.detected_at, r.rejoined_at)),
    ));
    t.push(Row::new(
        "p99 after rejoin",
        text(r.p99_post_rejoin.to_string()),
    ));
    t.push(Row::new(
        format!("delta hot-swap (q = {})", r.swap_at),
        text(format!(
            "{} regions, {} shards rebuilt, {} keys invalidated",
            r.swap.regions_applied, r.swap.shards_rebuilt, r.swap.keys_invalidated
        )),
    ));
    t.push(Row::new("stale answers after swap", text(r.stale.to_string())));
    t.push(Row::new(
        "replicas live at end",
        text(format!("{}/4", r.live_replicas)),
    ));
    t.push(Row::new("wrong answers", text(r.wrong.to_string())));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_repro_self_heals_with_zero_wrong_or_stale_answers() {
        let r = run_serve(0.02, 3_000).expect("serve repro must run");
        assert_eq!(r.wrong, 0, "served answers must match the live PS state");
        assert_eq!(r.stale, 0, "the hot-swap must invalidate every stale cache entry");
        assert!(r.answered > 0 && r.answered + r.shed + r.failed == r.issued);
        assert!(r.hit_rate > 0.0, "Zipf traffic must hit the cache");
        assert!(r.p50 <= r.p99 && r.p99 <= r.max);
        assert!(r.qps > 0.0);

        // The kill fired, was detected, and the replica rejoined in time.
        assert_eq!(r.live_replicas, 4, "the killed replica must rejoin");
        assert!(r.detected_at > SimTime::ZERO, "the monitor must detect the kill");
        assert!(r.rejoined_at > r.detected_at);
        assert!(
            r.p99_post_rejoin <= r.p99_pre_kill.scale(2.0),
            "p99 after rejoin ({}) must be within 2x of pre-kill ({})",
            r.p99_post_rejoin,
            r.p99_pre_kill
        );

        // The swap was partial (adjacency untouched) yet invalidating.
        assert!(r.swap.regions_applied >= 1);
        assert!(r.swap.shards_rebuilt >= 1);
        assert!(table(&r).to_string().contains("stale answers after swap"));
    }
}
