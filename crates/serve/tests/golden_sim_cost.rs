//! Golden sim-cost test: pins what "identical" means for the serve tier.
//!
//! Every query shape the frontend can fan out is issued once against the
//! 2-shard × 2-replica demo tier, and its answer, completion `SimTime`,
//! RPC count, bytes moved, and plan-counter deltas are compared with
//! values recorded at commit fcbb214 — before the seven hand-written
//! fan-outs became one `scatter`. A refactor of the fan-out protocol must
//! leave every line unchanged; a deliberate cost-model change re-records
//! them (the failure message prints the actual lines).

use psgraph_serve::{
    ExpandMode, Outcome, Plan, PlanCounters, Pred, PushPolicy, Query, Scorer, ServeCluster,
    ServeConfig, Source, Stage,
};
use psgraph_sim::SimTime;

enum Op {
    Q(Query),
    P(Plan),
    /// Switch the planner to frontend-only execution from here on.
    FrontendOnly,
}

fn filter_rank_topk() -> Plan {
    Plan {
        source: Source::All,
        stages: vec![
            Stage::Filter(Pred::CommunityEq(3)),
            Stage::Score(Scorer::Rank),
            Stage::TopK(3),
        ],
    }
}

fn filter_dot_topk() -> Plan {
    Plan {
        source: Source::All,
        stages: vec![
            Stage::Filter(Pred::RankAtLeast(0.5)),
            Stage::Score(Scorer::Dot(5)),
            Stage::TopK(3),
        ],
    }
}

fn seed_dot() -> Plan {
    Plan {
        source: Source::Seed(2),
        stages: vec![
            Stage::Expand { hops: 1, cap: 16, mode: ExpandMode::Union },
            Stage::Filter(Pred::DegreeAtLeast(1)),
            Stage::Score(Scorer::Dot(2)),
            Stage::TopK(2),
        ],
    }
}

fn script() -> Vec<(&'static str, Op)> {
    vec![
        ("rank", Op::Q(Query::Rank(1))),
        ("community", Op::Q(Query::Community(13))),
        ("neighbors", Op::Q(Query::Neighbors(5))),
        ("embedding", Op::Q(Query::Embedding(7))),
        ("khop", Op::Q(Query::KHop { v: 10, hops: 2 })),
        ("topk", Op::Q(Query::TopK { v: 3, k: 3 })),
        ("topk_all", Op::Q(Query::TopKAll { v: 5, k: 4 })),
        ("pushed filter-rank", Op::P(filter_rank_topk())),
        ("pushed filter-dot", Op::P(filter_dot_topk())),
        ("seed dot", Op::P(seed_dot())),
        ("", Op::FrontendOnly),
        ("frontend filter-rank", Op::P(filter_rank_topk())),
        ("frontend filter-dot", Op::P(filter_dot_topk())),
    ]
}

/// Issue `op` at `at`; the policy switch issues nothing.
fn issue(cluster: &mut ServeCluster, idx: usize, at: SimTime, op: &Op) -> Vec<(usize, Outcome)> {
    match op {
        Op::Q(q) => cluster.frontend_mut().submit(idx, at, *q),
        Op::P(p) => cluster.frontend_mut().submit_plan(idx, at, p),
        Op::FrontendOnly => {
            cluster.frontend_mut().set_push_policy(PushPolicy::FrontendOnly);
            Vec::new()
        }
    }
}

fn counters(c: PlanCounters) -> String {
    format!(
        "plans={} pushed={} stages={} shard_bytes={} pruned={}/{}/{}/{}",
        c.plans,
        c.pushed_plans,
        c.stages_pushed,
        c.shard_bytes,
        c.pruned_filter,
        c.pruned_score,
        c.pruned_topk,
        c.pruned_collect
    )
}

/// Recorded at fcbb214 (see the module docs).
const EXPECTED: &[&str] = &[
    "rank: completed=1050074ns rpcs=1 bytes=80 plans=0 pushed=0 stages=0 shard_bytes=0 pruned=0/0/0/0 value=Rank(0.041666666666666664)",
    "community: completed=2050074ns rpcs=1 bytes=80 plans=0 pushed=0 stages=0 shard_bytes=0 pruned=0/0/0/0 value=Community(6)",
    "neighbors: completed=3050082ns rpcs=1 bytes=88 plans=0 pushed=0 stages=0 shard_bytes=0 pruned=0/0/0/0 value=Neighbors([6, 7])",
    "embedding: completed=4050045ns rpcs=2 bytes=96 plans=0 pushed=0 stages=0 shard_bytes=0 pruned=0/0/0/0 value=Embedding([0.3, -0.3, 0.39999998, -0.20000002])",
    "khop: completed=5100106ns rpcs=3 bytes=168 plans=1 pushed=0 stages=0 shard_bytes=96 pruned=0/0/0/0 value=Vertices([11, 12, 13, 14])",
    "topk: completed=6150240ns rpcs=4 bytes=344 plans=1 pushed=0 stages=0 shard_bytes=176 pruned=0/0/1/0 value=Ranked([(6, 0.5000000238418583), (5, -0.02000003337860079), (4, -0.40999999880790483)])",
    "topk_all: completed=7100239ns rpcs=4 bytes=368 plans=1 pushed=1 stages=2 shard_bytes=208 pruned=0/1/15/0 value=Ranked([(18, 0.730000050067904), (6, -1.7881394143159923e-8), (19, -1.7881394143159923e-8), (11, -0.010000016689300395)])",
    "pushed filter-rank: completed=8050114ns rpcs=2 bytes=176 plans=1 pushed=1 stages=3 shard_bytes=80 pruned=21/0/0/0 value=Ranked([(17, 0.7083333333333334), (10, 0.4166666666666667), (3, 0.125)])",
    "pushed filter-dot: completed=9050244ns rpcs=2 bytes=208 plans=1 pushed=1 stages=3 shard_bytes=80 pruned=12/0/9/0 value=Ranked([(18, 0.730000050067904), (19, -1.7881394143159923e-8), (16, -0.02000003337860079)])",
    "seed dot: completed=10150188ns rpcs=4 bytes=264 plans=1 pushed=0 stages=0 shard_bytes=128 pruned=0/0/0/0 value=Ranked([(4, 0.27999999940395526), (3, -0.41000002562999605)])",
    "frontend filter-rank: completed=11150410ns rpcs=6 bytes=832 plans=1 pushed=0 stages=0 shard_bytes=504 pruned=21/0/0/0 value=Ranked([(17, 0.7083333333333334), (10, 0.4166666666666667), (3, 0.125)])",
    "frontend filter-dot: completed=12150618ns rpcs=6 bytes=1168 plans=1 pushed=0 stages=0 shard_bytes=672 pruned=12/0/9/0 value=Ranked([(18, 0.730000050067904), (19, -1.7881394143159923e-8), (16, -0.02000003337860079)])",
];

#[test]
fn every_fan_out_kind_costs_exactly_what_it_did() {
    let (mut cluster, _) = ServeCluster::demo(24, 4, &ServeConfig::default()).unwrap();
    let mut lines = Vec::new();
    let mut at = SimTime::from_millis(1);
    for (idx, (name, op)) in script().into_iter().enumerate() {
        let (rpcs0, bytes0) = {
            let s = cluster.network().stats();
            (s.rpcs(), s.total_bytes())
        };
        let plans0 = cluster.frontend().plan_counters();
        let outs = issue(&mut cluster, idx, at, &op);
        if matches!(op, Op::FrontendOnly) {
            continue;
        }
        let (value, completed) = match outs.as_slice() {
            [(i, Outcome::Answered { value, completed, cached: false, .. })] if *i == idx => {
                (value, *completed)
            }
            other => panic!("{name}: expected one uncached answer, got {other:?}"),
        };
        let s = cluster.network().stats();
        lines.push(format!(
            "{name}: completed={}ns rpcs={} bytes={} {} value={value:?}",
            completed.as_nanos(),
            s.rpcs() - rpcs0,
            s.total_bytes() - bytes0,
            counters(cluster.frontend().plan_counters().minus(&plans0)),
        ));
        at += SimTime::from_millis(1);
    }
    assert!(cluster.frontend_mut().drain().is_empty(), "nothing may be left batched");
    let actual: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert!(actual == EXPECTED, "sim cost changed; actual lines:\n{}", lines.join("\n"));
}

/// Every fan-out kind, with shards 1 and 2 of a 3-shard tier dead and
/// the anchors on live shard 0 (so admission passes and the fan-out
/// itself meets the dead shards): each fails with the *first* dead shard
/// by index, whatever order the legs ran in.
#[test]
fn every_fan_out_kind_reports_the_first_dead_shard() {
    let cfg = ServeConfig { shards: 3, replicas_per_shard: 1, ..ServeConfig::default() };
    let (mut cluster, _) = ServeCluster::demo(24, 6, &cfg).unwrap();
    // Cache row 3 while the tier is whole, so the TopKAll below gets past
    // its query-row gather and into the pushed scatter.
    let warm = cluster.frontend_mut().submit(0, SimTime::ZERO, Query::Embedding(3));
    assert!(matches!(warm[0].1, Outcome::Answered { .. }));
    assert!(cluster.kill_replica(1) && cluster.kill_replica(2));

    let seed_plan = |stages: Vec<Stage>| {
        let mut all = vec![Stage::Expand { hops: 1, cap: 16, mode: ExpandMode::Union }];
        all.extend(stages);
        // Vertex 7 lives on shard 0; its neighbors 8 and 9 on dead shard 1.
        Op::P(Plan { source: Source::Seed(7), stages: all })
    };
    let cases = vec![
        ("embedding rows", Op::Q(Query::Embedding(4))),
        ("neighbor lists", Op::Q(Query::KHop { v: 7, hops: 2 })),
        ("column-shard dots", Op::Q(Query::TopK { v: 3, k: 3 })),
        ("pushed prefix, cached query row", Op::Q(Query::TopKAll { v: 3, k: 3 })),
        ("pushed prefix", Op::P(filter_rank_topk())),
        (
            "per-vertex predicate",
            seed_plan(vec![Stage::Filter(Pred::CommunityEq(0)), Stage::Collect { cap: 8 }]),
        ),
        ("per-vertex score", seed_plan(vec![Stage::Score(Scorer::Rank), Stage::TopK(2)])),
    ];
    let mut at = SimTime::from_millis(1);
    for (idx, (name, op)) in cases.into_iter().enumerate() {
        match issue(&mut cluster, idx + 1, at, &op).as_slice() {
            [(_, Outcome::Failed(msg))] => {
                assert_eq!(msg, "no live replica for shard 1", "{name}")
            }
            other => panic!("{name}: expected a NoReplica failure, got {other:?}"),
        }
        at += SimTime::from_millis(1);
    }
    // The live shard still answers.
    let outs = cluster.frontend_mut().submit(99, at, Query::Rank(2));
    assert!(matches!(outs[0].1, Outcome::Answered { .. }));
}
