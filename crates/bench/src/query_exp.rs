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
//!    against [`Interpreter`](psgraph_serve::Interpreter); `wrong` must be 0.
//! 2. **Pushdown ablation** — the same plan-only workload replayed on
//!    two fresh clusters differing only in push policy. Answers must be
//!    identical, and the `Auto` leg must move strictly fewer bytes
//!    shard→frontend than the frontend-only baseline.
//!
//! `repro -- query` drives both and prints one table.

use psgraph_core::CoreError;
use psgraph_serve::loadgen::{self, LoadReport};
use psgraph_serve::{
    ExpandMode, GraphTruth, Mode, Plan, PlanCounters, Pred, PushPolicy, QueryMix, Scorer,
    ServeCluster, ServeConfig, Source, Stage, Workload,
};
use psgraph_sim::failpoint::FailureInjector;
use psgraph_sim::{SimTime, SplitMix64};

use crate::report::{Cell, Row, Table};
use crate::stream_state::{answers, Asked};

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

/// A synthetic truth: grid-valued embeddings (multiples of 0.25, so
/// `0.0 + x` round-trips bit-exactly through the PS load path) and
/// sorted, deduplicated adjacency (what the CSR snapshot stores).
fn synth_graph(n: u64, seed: u64) -> GraphTruth {
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
    GraphTruth {
        num_vertices: n,
        ranks: Some(ranks),
        communities: Some(communities),
        adjacency: Some(adjacency),
        embeddings: Some(embeddings),
    }
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

fn cluster(
    truth: &GraphTruth,
    shards: usize,
    push: PushPolicy,
) -> Result<ServeCluster, CoreError> {
    let cfg = ServeConfig { shards, push, ..ServeConfig::default() };
    ServeCluster::from_arrays(
        truth.ranks.as_deref(),
        truth.communities.as_deref(),
        truth.adjacency.as_deref(),
        truth.embeddings.as_deref(),
        &cfg,
    )
    .map_err(|e| CoreError::Invalid(e.to_string()))
}

/// Run both legs. `scale` sizes the synthetic graph like the other
/// experiments; `queries` sizes the mixed leg (the ablation replays a
/// tenth of it, clamped to [500, 5000]).
pub fn run_query(scale: f64, queries: usize) -> Result<QueryRepro, CoreError> {
    let n = ((16_384.0 * scale) as u64).max(512);
    let shards = 4usize;
    let truth = synth_graph(n, 0xBEEF);
    let wrong_in = |rep: &LoadReport| {
        let queries = rep.values.iter().map(|(_, q, value)| (Asked::Query(q), value));
        let plans = rep.plans.iter().map(|(_, plan, value)| (Asked::Plan(plan), value));
        let wrong = |(asked, value): &(Asked<'_>, &_)| !answers(&truth, shards, *asked, value);
        queries.chain(plans).filter(wrong).count()
    };

    // Leg 1: mixed legacy + compound traffic, everything verified.
    let mut mixed_cluster = cluster(&truth, shards, PushPolicy::Auto)?;
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
    let mut wrong = wrong_in(&report);

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
        let mut c = cluster(&truth, shards, push)?;
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
    wrong += wrong_in(&auto_rep);

    Ok(QueryRepro {
        num_vertices: n,
        dim: QUERY_DIM,
        shards,
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
