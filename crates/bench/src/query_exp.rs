//! Declarative query-plan experiment: mixed compound-plan serving with
//! every answer checked against the single-node interpreter, plus the
//! pushdown ablation (`PushPolicy::Auto` vs `FrontendOnly`) the
//! cost-based planner is judged by.
//!
//! Two legs:
//!
//! 1. **Mixed correctness** — a Zipf workload blending every legacy
//!    query shape with compound plans (including the full
//!    filter → expand → score → top-k pipeline) against a synthetic
//!    random graph. Every answered legacy query is verified against the
//!    frontend `reference` oracle and every answered plan bit-exactly
//!    against [`Interpreter`]; `wrong` must be 0.
//! 2. **Pushdown ablation** — the same plan-only workload replayed on
//!    two fresh clusters differing only in push policy. Answers must be
//!    identical, and the `Auto` leg must move strictly fewer bytes
//!    shard→frontend than the frontend-only baseline.
//!
//! `repro -- query` drives both and `write_report` lands the result in
//! `results/BENCH_query.json`.

use psgraph_core::truth::TruthBuilder;
use psgraph_core::CoreError;
use psgraph_harness::json::Json;
use psgraph_serve::loadgen::{self, LoadReport};
use psgraph_serve::{
    ExpandMode, Interpreter, Mode, Plan, PlanCounters, PlanOutput, Pred, PushPolicy,
    Query, QueryMix, Scorer, ServeCluster, ServeConfig, Source, Stage, Value, Workload,
};
use psgraph_sim::failpoint::FailureInjector;
use psgraph_sim::{SimTime, SplitMix64};

use crate::report::{Cell, Row, Table};

/// Embedding width of the synthetic graph.
const QUERY_DIM: usize = 16;

/// One ablation leg's measurements.
#[derive(Debug, Clone)]
pub struct AblationLeg {
    pub counters: PlanCounters,
    pub answered: usize,
    pub p50: SimTime,
    pub p99: SimTime,
}

/// What `repro -- query` reports.
#[derive(Debug, Clone)]
pub struct QueryRepro {
    pub num_vertices: u64,
    pub dim: usize,
    pub shards: usize,
    pub queries: usize,
    pub answered: usize,
    pub shed: usize,
    pub failed: usize,
    /// Answered compound plans in the mixed leg.
    pub plans_answered: usize,
    /// Answers (legacy or plan) that did not match their oracle. Must
    /// be 0.
    pub wrong: usize,
    /// Plan-executor counters for the mixed leg.
    pub mixed: PlanCounters,
    /// Ablation: cost-based pushdown.
    pub auto: AblationLeg,
    /// Ablation: everything evaluated at the frontend.
    pub frontend_only: AblationLeg,
}

/// Synthetic truth arrays: grid-valued embeddings (multiples of 0.25,
/// so `0.0 + x` round-trips bit-exactly through the PS load path) and
/// sorted, deduplicated adjacency (what the CSR snapshot stores).
fn synth_graph(n: u64, seed: u64) -> (Vec<f64>, Vec<u64>, Vec<Vec<u64>>, Vec<Vec<f32>>) {
    let mut rng = SplitMix64::new(seed);
    let ranks: Vec<f64> = (0..n).map(|_| rng.next_below(1_000) as f64 / 1_000.0).collect();
    let communities: Vec<u64> = (0..n).map(|_| rng.next_below(16)).collect();
    let adjacency: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            let deg = 1 + rng.next_below(6) as usize;
            let mut ns: Vec<u64> = (0..deg).map(|_| rng.next_below(n)).collect();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();
    let embeddings: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            (0..QUERY_DIM).map(|_| (rng.next_below(9) as f32 - 4.0) * 0.25).collect()
        })
        .collect();
    (ranks, communities, adjacency, embeddings)
}

/// The compound shapes the mixed leg draws (re-anchored per query).
/// The first is the full filter → expand → score → top-k pipeline.
fn mixed_palette() -> Vec<Plan> {
    vec![
        Plan {
            source: Source::Seed(0),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand { hops: 2, cap: 4096, mode: ExpandMode::Frontier },
                Stage::Score(Scorer::Dot(0)),
                Stage::TopK(8),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::RankAtLeast(0.5)),
                Stage::Collect { cap: 32 },
            ],
        },
        Plan {
            source: Source::Seed(0),
            stages: vec![
                Stage::Expand { hops: 1, cap: 4096, mode: ExpandMode::Union },
                Stage::Score(Scorer::Degree),
                Stage::TopK(4),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![Stage::Score(Scorer::Dot(0)), Stage::TopK(8)],
        },
    ]
}

/// All-source shapes only: the ablation isolates pushdown, and seed
/// plans are refused by the planner under either policy.
fn ablation_palette() -> Vec<Plan> {
    vec![
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::RankAtLeast(0.5)),
                Stage::Collect { cap: 32 },
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![Stage::Score(Scorer::Dot(0)), Stage::TopK(8)],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(2)),
                Stage::Filter(Pred::CommunityNe(0)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(16),
            ],
        },
    ]
}

/// Does a plan's served value match the interpreter's output bit for
/// bit?
pub(crate) fn plan_matches(value: &Value, want: &PlanOutput) -> bool {
    match (value, want) {
        (Value::Vertices(got), PlanOutput::Vertices(w)) => got == w,
        (Value::Ranked(got), PlanOutput::Ranked(w)) => {
            got.len() == w.len()
                && got
                    .iter()
                    .zip(w)
                    .all(|((gv, gs), (wv, ws))| gv == wv && gs.to_bits() == ws.to_bits())
        }
        _ => false,
    }
}

fn cluster(
    arrays: &(Vec<f64>, Vec<u64>, Vec<Vec<u64>>, Vec<Vec<f32>>),
    shards: usize,
    push: PushPolicy,
) -> Result<ServeCluster, psgraph_serve::ServeError> {
    let (ranks, communities, adjacency, embeddings) = arrays;
    let cfg = ServeConfig { shards, push, ..ServeConfig::default() };
    ServeCluster::from_arrays(
        Some(ranks),
        Some(communities),
        Some(adjacency),
        Some(embeddings),
        &cfg,
    )
}

/// Run both legs. `scale` sizes the synthetic graph like the other
/// experiments; `queries` sizes the mixed leg (the ablation replays a
/// tenth of it, clamped to [500, 5000]).
pub fn run_query(scale: f64, queries: usize) -> Result<QueryRepro, CoreError> {
    let n = ((16_384.0 * scale) as u64).max(512);
    let shards = 4usize;
    let arrays = synth_graph(n, 0xBEEF);
    let (ranks, communities, adjacency, embeddings) = &arrays;
    let truth = TruthBuilder::new(n)
        .ranks(ranks.clone())
        .communities(communities.clone())
        .adjacency(adjacency.clone())
        .embeddings(embeddings.clone())
        .build();
    let interp = Interpreter::new(&truth, shards);

    // Leg 1: mixed legacy + compound traffic, everything verified.
    let mut mixed_cluster =
        cluster(&arrays, shards, PushPolicy::Auto).map_err(|e| CoreError::Invalid(e.to_string()))?;
    let wl = Workload {
        queries,
        zipf_s: 1.0,
        seed: 11,
        mix: QueryMix {
            rank: 20,
            community: 10,
            embedding: 15,
            neighbors: 10,
            khop: 10,
            topk: 10,
            topk_all: 10,
            compound: 15,
        },
        plan_palette: mixed_palette(),
        ..Workload::default()
    };
    let report = loadgen::run(&mut mixed_cluster, &wl, &FailureInjector::none(), true);

    let mut wrong = 0usize;
    for (_, q, value) in &report.values {
        let legacy = |plan: Plan| interp.run(&plan).is_ok_and(|want| plan_matches(value, &want));
        let ok = match (q, value) {
            (Query::Rank(v), Value::Rank(r)) => r.to_bits() == ranks[*v as usize].to_bits(),
            (Query::Community(v), Value::Community(c)) => *c == communities[*v as usize],
            (Query::Embedding(v), Value::Embedding(e)) => {
                e.iter()
                    .zip(&embeddings[*v as usize])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && e.len() == embeddings[*v as usize].len()
            }
            (Query::Neighbors(v), Value::Neighbors(ns)) => ns == &adjacency[*v as usize],
            (Query::KHop { v, hops }, _) => legacy(Plan::khop(*v, *hops)),
            (Query::TopK { v, k }, _) => legacy(Plan::topk(*v, *k)),
            (Query::TopKAll { v, k }, _) => legacy(Plan::topk_all(*v, *k)),
            _ => false,
        };
        if !ok {
            wrong += 1;
        }
    }
    for (_, plan, value) in &report.plans {
        match interp.run(plan) {
            Ok(want) => {
                if !plan_matches(value, &want) {
                    wrong += 1;
                }
            }
            Err(_) => wrong += 1,
        }
    }

    // Leg 2: plan-only ablation, closed-loop so admission never sheds
    // and both policies see the identical request stream.
    let leg_queries = (queries / 10).clamp(500, 5_000);
    let leg_wl = Workload {
        queries: leg_queries,
        zipf_s: 1.0,
        seed: 23,
        mix: QueryMix {
            rank: 0,
            community: 0,
            embedding: 0,
            neighbors: 0,
            khop: 0,
            topk: 0,
            topk_all: 0,
            compound: 1,
        },
        mode: Mode::Closed { workers: 1, think: SimTime::from_micros(100) },
        plan_palette: ablation_palette(),
        ..Workload::default()
    };
    let run_leg = |push: PushPolicy| -> Result<(AblationLeg, LoadReport), CoreError> {
        let mut c = cluster(&arrays, shards, push).map_err(|e| CoreError::Invalid(e.to_string()))?;
        let rep = loadgen::run(&mut c, &leg_wl, &FailureInjector::none(), true);
        assert_eq!(rep.shed, 0, "closed-loop ablation leg must not shed");
        assert_eq!(rep.failed, 0, "ablation leg must not fail");
        let leg = AblationLeg {
            counters: rep.plan_counters,
            answered: rep.answered,
            p50: rep.percentile(0.50),
            p99: rep.percentile(0.99),
        };
        Ok((leg, rep))
    };
    let (auto, auto_rep) = run_leg(PushPolicy::Auto)?;
    let (frontend_only, fo_rep) = run_leg(PushPolicy::FrontendOnly)?;
    assert_eq!(
        auto_rep.plans, fo_rep.plans,
        "pushdown changed plan answers — the deterministic-reduction rule is broken"
    );
    for (_, plan, value) in &auto_rep.plans {
        match interp.run(plan) {
            Ok(want) => {
                if !plan_matches(value, &want) {
                    wrong += 1;
                }
            }
            Err(_) => wrong += 1,
        }
    }

    Ok(QueryRepro {
        num_vertices: n,
        dim: QUERY_DIM,
        shards,
        queries,
        answered: report.answered,
        shed: report.shed,
        failed: report.failed,
        plans_answered: report.plans.len(),
        wrong,
        mixed: report.plan_counters,
        auto,
        frontend_only,
    })
}

/// Render the experiment table.
pub fn table(r: &QueryRepro) -> Table {
    let mut t = Table::new(
        "Query plans — compound serving vs interpreter, pushdown ablation",
        &["measured"],
    );
    let text = |s: String| vec![Cell::Text(s)];
    t.push(Row::new(
        "graph (vertices / dim / shards)",
        text(format!("{} / {} / {}", r.num_vertices, r.dim, r.shards)),
    ));
    t.push(Row::new(
        "mixed leg (answered / shed / failed)",
        text(format!("{} / {} / {}", r.answered, r.shed, r.failed)),
    ));
    t.push(Row::new("compound plans answered", text(format!("{}", r.plans_answered))));
    t.push(Row::new("wrong answers (must be 0)", text(format!("{}", r.wrong))));
    t.push(Row::new(
        "mixed pushdown (pushed / stages / bytes)",
        text(format!(
            "{} / {} / {}",
            r.mixed.pushed_plans, r.mixed.stages_pushed, r.mixed.shard_bytes
        )),
    ));
    t.push(Row::new(
        "mixed rows pruned (filter/score/topk/collect)",
        text(format!(
            "{} / {} / {} / {}",
            r.mixed.pruned_filter, r.mixed.pruned_score, r.mixed.pruned_topk,
            r.mixed.pruned_collect
        )),
    ));
    t.push(Row::new(
        "ablation shard→frontend bytes (auto vs frontend-only)",
        text(format!(
            "{} vs {} ({:.1}% of baseline)",
            r.auto.counters.shard_bytes,
            r.frontend_only.counters.shard_bytes,
            100.0 * r.auto.counters.shard_bytes as f64
                / r.frontend_only.counters.shard_bytes.max(1) as f64
        )),
    ));
    t.push(Row::new(
        "ablation p50 / p99 (auto)",
        text(format!("{} / {}", r.auto.p50, r.auto.p99)),
    ));
    t.push(Row::new(
        "ablation p50 / p99 (frontend-only)",
        text(format!("{} / {}", r.frontend_only.p50, r.frontend_only.p99)),
    ));
    t
}

fn counters_json(c: &PlanCounters) -> Json {
    Json::Obj(vec![
        ("plans".into(), Json::Int(c.plans as i64)),
        ("pushed_plans".into(), Json::Int(c.pushed_plans as i64)),
        ("stages_pushed".into(), Json::Int(c.stages_pushed as i64)),
        ("shard_bytes".into(), Json::Int(c.shard_bytes as i64)),
        ("pruned_filter".into(), Json::Int(c.pruned_filter as i64)),
        ("pruned_score".into(), Json::Int(c.pruned_score as i64)),
        ("pruned_topk".into(), Json::Int(c.pruned_topk as i64)),
        ("pruned_collect".into(), Json::Int(c.pruned_collect as i64)),
        ("rows_pruned".into(), Json::Int(c.rows_pruned() as i64)),
    ])
}

/// Write the experiment summary to `results/BENCH_query.json`.
pub fn write_report(r: &QueryRepro) -> std::io::Result<std::path::PathBuf> {
    let dir = psgraph_harness::bench::out_dir();
    std::fs::create_dir_all(&dir)?;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let leg = |l: &AblationLeg| {
        Json::Obj(vec![
            ("counters".into(), counters_json(&l.counters)),
            ("answered".into(), Json::Int(l.answered as i64)),
            ("p50_ns".into(), Json::Int(l.p50.as_nanos() as i64)),
            ("p99_ns".into(), Json::Int(l.p99.as_nanos() as i64)),
        ])
    };
    let json = Json::Obj(vec![
        ("group".into(), Json::str("query")),
        ("unit".into(), Json::str("ns")),
        ("timestamp_unix".into(), Json::Int(ts as i64)),
        ("num_vertices".into(), Json::Int(r.num_vertices as i64)),
        ("dim".into(), Json::Int(r.dim as i64)),
        ("shards".into(), Json::Int(r.shards as i64)),
        ("queries".into(), Json::Int(r.queries as i64)),
        ("answered".into(), Json::Int(r.answered as i64)),
        ("shed".into(), Json::Int(r.shed as i64)),
        ("failed".into(), Json::Int(r.failed as i64)),
        ("plans_answered".into(), Json::Int(r.plans_answered as i64)),
        ("wrong".into(), Json::Int(r.wrong as i64)),
        ("mixed".into(), counters_json(&r.mixed)),
        ("pushdown_auto".into(), leg(&r.auto)),
        ("frontend_only".into(), leg(&r.frontend_only)),
        (
            "pushdown_bytes_ratio".into(),
            Json::Float(
                r.auto.counters.shard_bytes as f64
                    / r.frontend_only.counters.shard_bytes.max(1) as f64,
            ),
        ),
    ]);
    let path = dir.join("BENCH_query.json");
    std::fs::write(&path, json.pretty())?;
    Ok(path)
}
