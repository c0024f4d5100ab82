//! The query engine's central contract, as a shrinkable property: for
//! random graphs, shard counts, and plans — including plans the planner
//! refuses to push and plans the validator rejects — the distributed
//! executor returns *bit-for-bit* what the single-node interpreter
//! returns, under both `PushPolicy::Auto` and the frontend-only
//! baseline. Errors must agree by presence (a plan the interpreter
//! rejects must fail distributed too, and vice versa).

use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_serve::frontend::Outcome;
use psgraph_serve::{
    ExpandMode, GraphTruth, Interpreter, Plan, PlanOutput, Pred, PushPolicy, Scorer,
    ServeCluster, ServeConfig, Source as PlanSource, Stage, Value,
};
use psgraph_sim::SimTime;

/// A random graph whose served bits equal its truth arrays: ranks on a
/// milli-grid, embeddings on a 0.25 grid (so `0.0 + x` in the PS load
/// path is exact), adjacency sorted and deduplicated (what the CSR
/// snapshot stores).
struct Case {
    n: u64,
    dim: usize,
    shards: usize,
    replicas: usize,
    ranks: Option<Vec<f64>>,
    communities: Option<Vec<u64>>,
    adjacency: Vec<Vec<u64>>,
    embeddings: Option<Vec<Vec<f32>>>,
    plans: Vec<Plan>,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case")
            .field("n", &self.n)
            .field("dim", &self.dim)
            .field("shards", &self.shards)
            .field("replicas", &self.replicas)
            .field("has_ranks", &self.ranks.is_some())
            .field("has_communities", &self.communities.is_some())
            .field("has_embeddings", &self.embeddings.is_some())
            .field("plans", &self.plans)
            .finish()
    }
}

fn gen_pred(src: &mut Source) -> Pred {
    match src.usize_range(0, 5) {
        0 => Pred::RankAtLeast(src.u64_range(0, 1000) as f64 / 1000.0),
        1 => Pred::RankBelow(src.u64_range(0, 1000) as f64 / 1000.0),
        2 => Pred::CommunityEq(src.u64_range(0, 4)),
        3 => Pred::CommunityNe(src.u64_range(0, 4)),
        4 => Pred::DegreeAtLeast(src.u64_range(0, 4)),
        _ => Pred::DegreeBelow(src.u64_range(1, 6)),
    }
}

fn gen_scorer(src: &mut Source, n: u64) -> Scorer {
    match src.usize_range(0, 2) {
        0 => Scorer::Rank,
        1 => Scorer::Degree,
        _ => Scorer::Dot(src.u64_range(0, n - 1)),
    }
}

/// One random plan. Anchors may land just past the vertex range and
/// shapes may reference objects the cluster does not serve — those must
/// error identically on both sides. Invalid *structures* (validator
/// rejections) appear too via the raw-stage arm.
fn gen_plan(src: &mut Source, n: u64) -> Plan {
    // A sometimes-out-of-range anchor exercises the bounds check.
    let v = src.u64_range(0, n + 1);
    match src.usize_range(0, 6) {
        0 => Plan::khop(v, src.u64_range(1, 3) as u32),
        1 => Plan::topk(v, src.usize_range(1, 6)),
        2 => Plan::topk_all(v, src.usize_range(1, 6)),
        3 => {
            // All-source pipeline: filters, optional score, terminal.
            let mut stages = Vec::new();
            for _ in 0..src.usize_range(0, 2) {
                stages.push(Stage::Filter(gen_pred(src)));
            }
            if src.bool() {
                stages.push(Stage::Score(gen_scorer(src, n)));
                stages.push(Stage::TopK(src.usize_range(1, 8)));
            } else {
                stages.push(Stage::Collect { cap: src.usize_range(1, 24) });
            }
            Plan { source: PlanSource::All, stages }
        }
        4 => {
            // Seed-source pipeline: expand, filters, score, top-k.
            let mut stages = Vec::new();
            if src.bool() {
                stages.push(Stage::Filter(gen_pred(src)));
            }
            stages.push(Stage::Expand {
                hops: src.u64_range(1, 2) as u32,
                cap: src.usize_range(4, 64),
                mode: if src.bool() { ExpandMode::Frontier } else { ExpandMode::Union },
            });
            if src.bool() {
                stages.push(Stage::Filter(gen_pred(src)));
            }
            if src.bool() {
                stages.push(Stage::Score(gen_scorer(src, n)));
                stages.push(Stage::TopK(src.usize_range(1, 8)));
            } else {
                stages.push(Stage::Collect { cap: src.usize_range(1, 24) });
            }
            Plan { source: PlanSource::Seed(v), stages }
        }
        _ => {
            // Free-form stage soup — often invalid (validator rejects it
            // on both sides), occasionally a legal shape the arms above
            // never produce.
            let stages = src.vec_with(0, 4, |s| match s.usize_range(0, 4) {
                0 => Stage::Filter(gen_pred(s)),
                1 => Stage::Score(gen_scorer(s, n)),
                2 => Stage::TopK(s.usize_range(1, 6)),
                3 => Stage::Collect { cap: s.usize_range(1, 16) },
                _ => Stage::Expand {
                    hops: s.u64_range(1, 2) as u32,
                    cap: s.usize_range(4, 32),
                    mode: ExpandMode::Frontier,
                },
            });
            let source =
                if src.bool() { PlanSource::All } else { PlanSource::Seed(v) };
            Plan { source, stages }
        }
    }
}

fn gen_case(src: &mut Source) -> Case {
    let n = src.u64_range(6, 32);
    let dim = [0usize, 2, 4][src.usize_range(0, 2)];
    let shards = src.usize_range(1, 4);
    let replicas = src.usize_range(1, 2);
    let ranks = src
        .bool()
        .then(|| (0..n).map(|_| src.u64_range(0, 1000) as f64 / 1000.0).collect());
    let communities =
        src.bool().then(|| (0..n).map(|_| src.u64_range(0, 4)).collect());
    let adjacency: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            let mut ns: Vec<u64> =
                (0..src.usize_range(0, 4)).map(|_| src.u64_range(0, n - 1)).collect();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();
    let embeddings = (dim > 0).then(|| {
        (0..n)
            .map(|_| {
                (0..dim).map(|_| (src.u64_range(0, 8) as f32 - 4.0) * 0.25).collect()
            })
            .collect()
    });
    let plans = src.vec_with(1, 6, |s| gen_plan(s, n));
    Case { n, dim, shards, replicas, ranks, communities, adjacency, embeddings, plans }
}

fn build_truth(c: &Case) -> GraphTruth {
    let mut t = GraphTruth::new(c.n);
    t.ranks = c.ranks.clone();
    t.communities = c.communities.clone();
    t.adjacency = Some(c.adjacency.clone());
    t.embeddings = c.embeddings.clone();
    t
}

fn build_cluster(c: &Case, push: PushPolicy) -> ServeCluster {
    let cfg = ServeConfig {
        shards: c.shards,
        replicas_per_shard: c.replicas,
        push,
        ..ServeConfig::default()
    };
    ServeCluster::from_arrays(
        c.ranks.as_deref(),
        c.communities.as_deref(),
        Some(&c.adjacency),
        c.embeddings.as_deref(),
        &cfg,
    )
    .expect("from_arrays")
}

/// Bit-exact equality between a served value and an interpreter output.
fn matches(value: &Value, want: &PlanOutput) -> bool {
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

#[test]
fn distributed_plans_match_interpreter_bit_exactly() {
    check_with(
        "distributed_plans_match_interpreter_bit_exactly",
        &Config::with_cases(48),
        gen_case,
        |c| {
            let truth = build_truth(c);
            let interp = Interpreter::new(&truth, c.shards);
            for (policy, policy_name) in
                [(PushPolicy::Auto, "auto"), (PushPolicy::FrontendOnly, "frontend-only")]
            {
                let mut cluster = build_cluster(c, policy);
                for (i, plan) in c.plans.iter().enumerate() {
                    // Spaced arrivals: admission must never shed, so
                    // every plan reaches the executor.
                    let at = SimTime::from_millis(10 * (i as u64 + 1));
                    let want = interp.run(plan);
                    for (_, outcome) in
                        cluster.frontend_mut().submit_plan(i, at, plan)
                    {
                        match (&outcome, &want) {
                            (Outcome::Answered { value, .. }, Ok(w)) => {
                                if !matches(value, w) {
                                    return Err(format!(
                                        "[{policy_name}] plan {plan:?} served {value:?}, \
                                         interpreter says {w:?}"
                                    ));
                                }
                            }
                            (Outcome::Failed(_), Err(_)) => {}
                            (Outcome::Answered { value, .. }, Err(e)) => {
                                return Err(format!(
                                    "[{policy_name}] plan {plan:?} served {value:?} but \
                                     the interpreter rejects it: {e}"
                                ));
                            }
                            (Outcome::Failed(e), Ok(w)) => {
                                return Err(format!(
                                    "[{policy_name}] plan {plan:?} failed ({e}) but the \
                                     interpreter answers {w:?}"
                                ));
                            }
                            (Outcome::Shed { .. }, _) => {
                                return Err(format!(
                                    "[{policy_name}] plan {plan:?} was shed despite \
                                     spaced arrivals"
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
