//! Zipf-skewed load generation and the report the benchmarks consume.
//!
//! Two driving modes:
//!
//! * **Open loop** — arrivals are a Poisson process at a target QPS,
//!   independent of completions. This is the honest way to measure tail
//!   latency (no coordinated omission) and is what `repro -- serve` and
//!   the benchmark's `serve_ladder` workload use.
//! * **Closed loop** — `workers` clients each issue, wait for the answer,
//!   think, repeat. Throughput self-limits; batching is bypassed because
//!   a worker needs its answer before its next send.
//!
//! Vertices are drawn Zipf(s) and then scrambled by a coprime multiplier
//! so the hot head of the distribution spreads across range-partitioned
//! shards instead of all landing on shard 0.

use psgraph_sim::{FaultSchedule, FaultSite, SimTime, SplitMix64};
use std::collections::BinaryHeap;

use crate::cluster::ServeCluster;
use crate::frontend::{Outcome, PlanCounters};
use crate::monitor::Monitor;
use crate::shard::{Query, Value};
use psgraph_query::Plan;

/// Relative weights of each query kind in the generated stream.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    pub rank: u32,
    pub community: u32,
    pub embedding: u32,
    pub neighbors: u32,
    pub khop: u32,
    pub topk: u32,
    /// Cross-shard scatter-gather top-k over *all* vertices (not just the
    /// candidate neighborhood). Zero in the stock mixes; streaming
    /// workloads opt in.
    pub topk_all: u32,
    /// Compound declarative plans drawn from
    /// [`Workload::plan_palette`], re-anchored on the Zipf-drawn
    /// vertex. Zero in the stock mixes; `repro -- query` opts in.
    pub compound: u32,
}

impl Default for QueryMix {
    fn default() -> Self {
        QueryMix {
            rank: 30,
            community: 20,
            embedding: 25,
            neighbors: 15,
            khop: 5,
            topk: 5,
            topk_all: 0,
            compound: 0,
        }
    }
}

impl QueryMix {
    fn total(&self) -> u64 {
        (self.rank
            + self.community
            + self.embedding
            + self.neighbors
            + self.khop
            + self.topk
            + self.topk_all
            + self.compound) as u64
    }
}

/// How arrivals are produced.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Poisson arrivals at `qps` queries per simulated second.
    Open { qps: f64 },
    /// `workers` clients, each waiting `think` between answer and next
    /// query.
    Closed { workers: usize, think: SimTime },
}

/// A load-generation recipe.
#[derive(Debug, Clone)]
pub struct Workload {
    pub queries: usize,
    pub zipf_s: f64,
    pub seed: u64,
    pub mix: QueryMix,
    pub mode: Mode,
    /// Hop count for generated `KHop` queries.
    pub khop_hops: u32,
    /// `k` for generated `TopK` queries.
    pub topk_k: usize,
    /// Plan shapes `compound` draws cycle through, each re-anchored on
    /// the Zipf-drawn vertex via [`Plan::with_anchor`]. Must be
    /// non-empty when `mix.compound > 0`.
    pub plan_palette: Vec<Plan>,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            queries: 10_000,
            zipf_s: 1.0,
            seed: 7,
            mix: QueryMix::default(),
            mode: Mode::Open { qps: 20_000.0 },
            khop_hops: 2,
            topk_k: 8,
            plan_palette: Vec::new(),
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A multiplier coprime with `n`, used to permute Zipf ranks across the
/// vertex id space.
fn coprime_multiplier(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut p = n / 2 + 1;
    while gcd(p, n) != 1 {
        p += 1;
    }
    p
}

/// One generated request: a legacy query shape or a compound plan.
enum Draw {
    Q(Query),
    P(Plan),
}

/// Draw one request: Zipf-ranked vertex, scrambled, kind by mix weight.
/// The `compound` weight sits last in the walk and draws from the rng
/// only when selected, so mixes with `compound: 0` consume the exact
/// rng stream earlier releases did.
fn next_query(rng: &mut SplitMix64, n: u64, scramble: u64, wl: &Workload) -> Draw {
    let rank = rng.next_zipf(n, wl.zipf_s) - 1; // 0-based popularity rank
    let v = ((rank as u128 * scramble as u128) % n as u128) as u64;
    let mut w = rng.next_below(wl.mix.total());
    let mix = &wl.mix;
    for (weight, make) in [
        (mix.rank, Query::Rank(v)),
        (mix.community, Query::Community(v)),
        (mix.embedding, Query::Embedding(v)),
        (mix.neighbors, Query::Neighbors(v)),
        (mix.khop, Query::KHop { v, hops: wl.khop_hops }),
        (mix.topk, Query::TopK { v, k: wl.topk_k }),
        (mix.topk_all, Query::TopKAll { v, k: wl.topk_k }),
    ] {
        if w < weight as u64 {
            return Draw::Q(make);
        }
        w -= weight as u64;
    }
    if w < mix.compound as u64 {
        assert!(!wl.plan_palette.is_empty(), "compound mix weight needs a plan palette");
        let shape = rng.next_below(wl.plan_palette.len() as u64) as usize;
        return Draw::P(wl.plan_palette[shape].clone().with_anchor(v));
    }
    Draw::Q(Query::Rank(v))
}

/// What the run produced, with enough detail to split percentiles around
/// a replica kill and to verify every answer.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub issued: usize,
    pub answered: usize,
    pub shed: usize,
    pub failed: usize,
    /// Cache hits *during this run* (the frontend's counters are
    /// cumulative across runs; these are per-run deltas).
    pub cache_hits: u64,
    /// Cache misses during this run.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)` for this run alone.
    pub hit_rate: f64,
    /// Replica completion-queue entries dropped at saturation during this
    /// run (summed over replicas; per-run delta like the cache counters).
    pub mailbox_dropped: u64,
    /// Sender-side retries recorded against replica queues this run.
    pub mailbox_retried: u64,
    /// First arrival to last completion.
    pub makespan: SimTime,
    /// Arrival time of each issued query, indexed by query index — lets
    /// callers split percentiles around a simulated-time event (a kill,
    /// a rejoin, a hot-swap).
    pub issued_at: Vec<SimTime>,
    /// `(query index, latency)` for every answered query.
    pub latencies: Vec<(usize, SimTime)>,
    /// `(query index, query, value)` when recording was requested.
    /// Compound-plan answers land in `plans`, never here, so baseline
    /// comparisons over legacy query values stay stable as mixes grow.
    pub values: Vec<(usize, Query, Value)>,
    /// `(query index, plan, value)` for answered compound plans when
    /// recording was requested.
    pub plans: Vec<(usize, Plan, Value)>,
    /// Plan-executor counters for this run alone (stages pushed, bytes
    /// moved shard→frontend, rows pruned per stage kind) — per-run
    /// deltas of the frontend's cumulative counters.
    pub plan_counters: PlanCounters,
}

impl LoadReport {
    /// Served throughput in simulated queries/second.
    pub fn qps(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            0.0
        } else {
            self.answered as f64 / self.makespan.as_secs_f64()
        }
    }

    /// Latency percentile (0 < p <= 1) over answered queries matching
    /// `keep` by query index.
    pub fn percentile_where(&self, p: f64, keep: impl Fn(usize) -> bool) -> SimTime {
        let mut v: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(i, _)| keep(*i))
            .map(|(_, l)| l.as_nanos())
            .collect();
        if v.is_empty() {
            return SimTime::ZERO;
        }
        v.sort_unstable();
        let rank = ((v.len() as f64) * p).ceil() as usize;
        SimTime::from_nanos(v[rank.clamp(1, v.len()) - 1])
    }

    pub fn percentile(&self, p: f64) -> SimTime {
        self.percentile_where(p, |_| true)
    }

    pub fn max_latency(&self) -> SimTime {
        self.latencies
            .iter()
            .map(|(_, l)| *l)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// A callback fired at a scripted query index — the hook `repro -- serve`
/// uses to hot-swap a snapshot delta mid-run. Pending batches are drained
/// before the action runs, so every earlier query completes against the
/// pre-action state and every later one against the post-action state.
pub struct ScriptedAction<'a> {
    /// Fires just before this query index is issued.
    pub at_query: usize,
    pub action: Box<dyn FnMut(&mut ServeCluster) + 'a>,
    /// Simulated arrival time of the query the action fired before —
    /// recorded by [`run_with`], so freshness bounds can be checked
    /// against the actual swap instant.
    pub fired_at: Option<SimTime>,
}

impl<'a> ScriptedAction<'a> {
    pub fn new(at_query: usize, action: impl FnMut(&mut ServeCluster) + 'a) -> Self {
        ScriptedAction { at_query, action: Box::new(action), fired_at: None }
    }
}

/// Drive `wl` against the cluster, fault-free. Answers are recorded when
/// `record_values` is set (for verification).
pub fn run(cluster: &mut ServeCluster, wl: &Workload, record_values: bool) -> LoadReport {
    run_with(cluster, wl, &FaultSchedule::off(), record_values, None, &mut [])
}

/// [`run`], plus replica kills, self-healing and scripted mutations:
/// replica `r` dies just before query `i` when `crash(ReplicaCrash, i, r)`
/// fires in `chaos` (a [`FaultSchedule::scripted`] point, say), a
/// [`Monitor`] is ticked at every arrival (heartbeats, detection, and
/// rejoin happen on the workload's simulated timeline), and each
/// [`ScriptedAction`] fires once at its query index.
pub fn run_with(
    cluster: &mut ServeCluster,
    wl: &Workload,
    chaos: &FaultSchedule,
    record_values: bool,
    monitor: Option<&Monitor>,
    actions: &mut [ScriptedAction<'_>],
) -> LoadReport {
    let n = cluster.num_vertices();
    assert!(n > 0, "cannot load an empty graph");
    let scramble = coprime_multiplier(n);
    let mut rng = SplitMix64::new(wl.seed);
    let hits0 = cluster.frontend().cache().hits();
    let misses0 = cluster.frontend().cache().misses();
    let queue_sum = |cluster: &ServeCluster| {
        cluster.replicas().iter().fold((0u64, 0u64), |(d, r), rep| {
            let c = rep.queue_counters();
            (d + c.dropped, r + c.retried)
        })
    };
    let (dropped0, retried0) = queue_sum(cluster);
    let counters0 = cluster.frontend().plan_counters();
    let mut queries: Vec<Query> = Vec::with_capacity(wl.queries);
    // Parallel to `queries`: `Some(plan)` when index `i` was a compound
    // draw (its `queries` slot holds a placeholder for indexing).
    let mut plans_issued: Vec<Option<Plan>> = Vec::with_capacity(wl.queries);
    let mut issued_at: Vec<SimTime> = Vec::with_capacity(wl.queries);
    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(wl.queries);
    let mut t_last = SimTime::ZERO;

    // Everything that happens between queries, in order: replica kills,
    // monitor heartbeats and rejoins, then scripted actions (draining
    // first so batches complete pre-action).
    fn prologue(
        cluster: &mut ServeCluster,
        chaos: &FaultSchedule,
        monitor: Option<&Monitor>,
        actions: &mut [ScriptedAction<'_>],
        i: usize,
        now: SimTime,
        outcomes: &mut Vec<(usize, Outcome)>,
    ) {
        for r in 0..cluster.replicas().len() {
            if chaos.crash(FaultSite::ReplicaCrash, i as u64, r as u64) {
                cluster.kill_replica(r);
            }
        }
        if let Some(m) = monitor {
            m.tick(cluster, now);
        }
        for a in actions.iter_mut() {
            if a.at_query == i {
                outcomes.extend(cluster.frontend_mut().drain());
                (a.action)(cluster);
                a.fired_at = Some(now);
            }
        }
    }

    match wl.mode {
        Mode::Open { qps } => {
            assert!(qps > 0.0, "open-loop workload needs a positive rate");
            let mut t = SimTime::ZERO;
            for i in 0..wl.queries {
                prologue(cluster, chaos, monitor, actions, i, t, &mut outcomes);
                issued_at.push(t);
                match next_query(&mut rng, n, scramble, wl) {
                    Draw::Q(q) => {
                        queries.push(q);
                        plans_issued.push(None);
                        outcomes.extend(cluster.frontend_mut().submit(i, t, q));
                    }
                    Draw::P(plan) => {
                        queries.push(Query::Rank(plan.anchor().unwrap_or(0)));
                        outcomes.extend(cluster.frontend_mut().submit_plan(i, t, &plan));
                        plans_issued.push(Some(plan));
                    }
                }
                t += SimTime::from_secs_f64(rng.next_exp(qps));
            }
            outcomes.extend(cluster.frontend_mut().drain());
            t_last = t;
        }
        Mode::Closed { workers, think } => {
            assert!(workers > 0, "closed-loop workload needs workers");
            // Min-heap of (next issue time, worker id).
            let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
                (0..workers).map(|w| std::cmp::Reverse((0, w))).collect();
            for i in 0..wl.queries {
                let std::cmp::Reverse((at_ns, w)) = heap.pop().expect("worker heap");
                let at = SimTime::from_nanos(at_ns);
                prologue(cluster, chaos, monitor, actions, i, at, &mut outcomes);
                issued_at.push(at);
                let outs = match next_query(&mut rng, n, scramble, wl) {
                    Draw::Q(q) => {
                        queries.push(q);
                        plans_issued.push(None);
                        cluster.frontend_mut().execute_now(i, at, q)
                    }
                    Draw::P(plan) => {
                        queries.push(Query::Rank(plan.anchor().unwrap_or(0)));
                        let outs = cluster.frontend_mut().submit_plan(i, at, &plan);
                        plans_issued.push(Some(plan));
                        outs
                    }
                };
                let mut next = at + think;
                for (idx, o) in &outs {
                    if *idx == i {
                        if let Outcome::Answered { completed, .. } = o {
                            next = *completed + think;
                        }
                    }
                }
                outcomes.extend(outs);
                t_last = t_last.max(at);
                heap.push(std::cmp::Reverse((next.as_nanos(), w)));
            }
            outcomes.extend(cluster.frontend_mut().drain());
        }
    }
    // Let restarts still in flight at the last arrival complete, so a
    // late kill's recovery is observable in the monitor's event log. The
    // drain horizon covers the grace window (two silent rounds), the
    // round quantization, and the restart itself.
    if let Some(m) = monitor {
        let cost = cluster.network().cost_model().clone();
        m.tick(cluster, t_last + cost.failure_detect.scale(3.0) + cost.restart_overhead());
    }

    let mut answered = 0;
    let mut shed = 0;
    let mut failed = 0;
    let mut makespan = SimTime::ZERO;
    let mut latencies = Vec::new();
    let mut values = Vec::new();
    let mut plans = Vec::new();
    for (idx, o) in outcomes {
        match o {
            Outcome::Answered { value, latency, completed, .. } => {
                answered += 1;
                makespan = makespan.max(completed);
                latencies.push((idx, latency));
                if record_values {
                    match &plans_issued[idx] {
                        Some(plan) => plans.push((idx, plan.clone(), value)),
                        None => values.push((idx, queries[idx], value)),
                    }
                }
            }
            Outcome::Shed { .. } => shed += 1,
            Outcome::Failed(_) => failed += 1,
        }
    }
    latencies.sort_by_key(|(i, _)| *i);
    values.sort_by_key(|(i, _, _)| *i);
    plans.sort_by_key(|(i, _, _)| *i);

    let cache = cluster.frontend().cache();
    let cache_hits = cache.hits() - hits0;
    let cache_misses = cache.misses() - misses0;
    let lookups = cache_hits + cache_misses;
    let (dropped1, retried1) = queue_sum(cluster);
    LoadReport {
        issued: wl.queries,
        answered,
        shed,
        failed,
        cache_hits,
        cache_misses,
        hit_rate: if lookups == 0 { 0.0 } else { cache_hits as f64 / lookups as f64 },
        mailbox_dropped: dropped1 - dropped0,
        mailbox_retried: retried1 - retried0,
        makespan,
        issued_at,
        latencies,
        values,
        plans,
        plan_counters: cluster.frontend().plan_counters().minus(&counters0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ServeCluster, ServeConfig};

    #[test]
    fn cache_counters_are_per_run_on_a_reused_cluster() {
        // Two runs on the SAME cluster: the frontend's counters are
        // cumulative, so a report built from them instead of from deltas
        // would count the first run's lookups again in the second.
        let (mut cluster, _) = ServeCluster::demo(4_096, 16, &ServeConfig::default()).unwrap();
        let wl = Workload { queries: 3_000, ..Workload::default() };
        let warm = run(&mut cluster, &wl, false);
        let second = run(&mut cluster, &wl, false);
        assert!(warm.cache_hits + warm.cache_misses > 0, "the warm-up must look up the cache");
        assert!(
            second.cache_hits + second.cache_misses <= wl.queries as u64,
            "per-run cache counters leaked from the warm-up: {} lookups over {} queries",
            second.cache_hits + second.cache_misses,
            wl.queries
        );
        assert!(second.hit_rate > 0.0 && second.hit_rate <= 1.0, "hit rate {}", second.hit_rate);
    }

    #[test]
    fn zipf_point_lookups_hit_a_small_cache_and_never_a_zero_budget_one() {
        // Point lookups only (rank / community / neighbors / embedding).
        let mix = QueryMix { khop: 0, topk: 0, rank: 35, neighbors: 20, ..QueryMix::default() };
        let wl = Workload { queries: 5_000, mix, ..Workload::default() };
        let report = |cache_budget: u64| {
            let cfg = ServeConfig { cache_budget, ..ServeConfig::default() };
            let (mut cluster, _) = ServeCluster::demo(4_096, 16, &cfg).unwrap();
            run(&mut cluster, &wl, false)
        };
        assert_eq!(report(0).cache_hits, 0, "a zero-budget cache cannot hit");
        let hit_rate = report(256 * 1024).hit_rate;
        assert!(hit_rate > 0.2, "Zipf(1.0) should hit a 256 KiB cache, got {hit_rate:.3}");
    }

    #[test]
    fn scripted_actions_record_fire_time_and_topk_all_mix_draws() {
        let (mut cluster, _) = ServeCluster::demo(24, 4, &ServeConfig::default()).unwrap();
        let wl = Workload {
            queries: 200,
            mix: QueryMix { topk_all: 50, ..QueryMix::default() },
            ..Workload::default()
        };
        let fired = std::cell::Cell::new(false);
        let mut actions = [ScriptedAction::new(100, |_c: &mut ServeCluster| {
            fired.set(true);
        })];
        let report =
            run_with(&mut cluster, &wl, &FaultSchedule::off(), true, None, &mut actions);
        assert!(actions[0].fired_at.is_some(), "action records when it fired");
        assert_eq!(actions[0].fired_at.unwrap(), report.issued_at[100]);
        assert!(fired.get());
        assert_eq!(report.answered + report.shed + report.failed, report.issued);
        assert!(
            report
                .values
                .iter()
                .any(|(_, q, _)| matches!(q, Query::TopKAll { .. })),
            "mix weight routes TopKAll queries"
        );
    }
}
