//! The serving frontend: hot-key cache, admission control, batching, and
//! query execution against the replicated shards.
//!
//! One frontend drives the whole tier in simulated time. Point lookups
//! (rank / community / neighbors) are cached, admission-controlled, and
//! batched per shard — a batch is one RPC whose response carries every
//! item, so batching trades a little queueing delay for fewer
//! per-message latencies. Multi-shard queries (embedding gather, top-k,
//! k-hop) fan out to one live replica of each shard and complete at the
//! slowest leg; every such phase is one call of `Frontend::scatter`,
//! the only place a fan-out leg is routed, charged, and recorded.
//!
//! Admission control sheds load in two regimes: a hard bound on the
//! routed replica's in-flight queue, and an SLO guard that starts
//! shedding once the sliding-window p99 exceeds the target while the
//! queue is half full — bounded queues plus backpressure instead of
//! unbounded tail growth.
//!
//! Compound queries are [`Plan`]s (`psgraph-query`): the legacy
//! `Query::KHop`/`TopK`/`TopKAll` variants compile to plans via the
//! `Plan::khop`/`topk`/`topk_all` constructors and run through the same
//! executor as caller-built compound plans. For `All`-source plans the
//! cost-based planner picks a prefix to push shard-side
//! ([`psgraph_query::decide`]); each shard evaluates it over its own
//! vertex range and the frontend merges partials in canonical shard
//! order before running the remaining suffix — so answers are
//! bit-identical to the single-node interpreter at any shard count,
//! pool size, or pushdown decision.

use psgraph_harness::Pool;
use psgraph_net::Network;
use psgraph_query::exec;
use psgraph_query::plan::{DotAssoc, ExpandMode, Plan, Scorer, Source, Stage};
use psgraph_query::{decide, PushPolicy, TierStats};
use psgraph_sim::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::cache::LruCache;
use crate::error::{Result, ServeError};
use crate::router::Router;
use crate::shard::{owner_of, Query, ShardData, ShardSpec, Value};

/// Minimum sample count before the SLO guard trusts the window p99.
const SLO_MIN_SAMPLES: usize = 32;

/// Knobs for admission control, batching, and the latency SLO.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Tail-latency target the shedder defends.
    pub slo_p99: SimTime,
    /// Sliding window length (completed queries) for the p99 estimate.
    pub window: usize,
    /// Per-replica in-flight bound; at this depth new queries are shed.
    pub queue_cap: usize,
    /// Flush a shard batch at this many items.
    pub batch_max: usize,
    /// ... or this long after its first item arrived.
    pub batch_window: SimTime,
    /// Server CPU ops charged per served item.
    pub ops_per_item: u64,
    /// Frontend CPU ops charged for a cache hit.
    pub cache_hit_ops: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            slo_p99: SimTime::from_millis(5),
            window: 512,
            queue_cap: 64,
            batch_max: 8,
            batch_window: SimTime::from_micros(200),
            ops_per_item: 4,
            cache_hit_ops: 64,
        }
    }
}

/// Cumulative counters for compound-plan execution, exposed per run as
/// deltas in `LoadReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCounters {
    /// Plans executed (answered or failed, not shed).
    pub plans: u64,
    /// Plans whose pushed prefix was non-empty.
    pub pushed_plans: u64,
    /// Total stages evaluated shard-side across all plans.
    pub stages_pushed: u64,
    /// Bytes shipped shard→frontend across all plan RPC responses.
    pub shard_bytes: u64,
    /// Rows pruned by stage kind (shard-side and frontend combined).
    pub pruned_filter: u64,
    pub pruned_score: u64,
    pub pruned_topk: u64,
    pub pruned_collect: u64,
}

impl PlanCounters {
    /// Rows pruned across all stage kinds.
    pub fn rows_pruned(&self) -> u64 {
        self.pruned_filter + self.pruned_score + self.pruned_topk + self.pruned_collect
    }

    /// `self - earlier`, fieldwise (per-run deltas from cumulative
    /// counters).
    pub fn minus(&self, earlier: &PlanCounters) -> PlanCounters {
        PlanCounters {
            plans: self.plans - earlier.plans,
            pushed_plans: self.pushed_plans - earlier.pushed_plans,
            stages_pushed: self.stages_pushed - earlier.stages_pushed,
            shard_bytes: self.shard_bytes - earlier.shard_bytes,
            pruned_filter: self.pruned_filter - earlier.pruned_filter,
            pruned_score: self.pruned_score - earlier.pruned_score,
            pruned_topk: self.pruned_topk - earlier.pruned_topk,
            pruned_collect: self.pruned_collect - earlier.pruned_collect,
        }
    }
}

/// Per-plan accumulator threaded through the executor legs.
#[derive(Debug, Default)]
struct LegAcc {
    cut: usize,
    bytes: u64,
    pruned_filter: u64,
    pruned_score: u64,
    pruned_topk: u64,
    pruned_collect: u64,
}

/// Cache key: query-kind tag + vertex.
pub type CacheKey = (u8, u64);

/// The query-kind tags of a [`CacheKey`], one per served object: the
/// frontend keys cached answers by them and the hot-swap path
/// invalidates by them.
pub const TAG_RANK: u8 = 0;
pub const TAG_COMMUNITY: u8 = 1;
pub const TAG_EMBEDDING: u8 = 2;
pub const TAG_NEIGHBORS: u8 = 3;

fn cache_key(q: &Query) -> Option<CacheKey> {
    match *q {
        Query::Rank(v) => Some((TAG_RANK, v)),
        Query::Community(v) => Some((TAG_COMMUNITY, v)),
        Query::Embedding(v) => Some((TAG_EMBEDDING, v)),
        Query::Neighbors(v) => Some((TAG_NEIGHBORS, v)),
        Query::KHop { .. } | Query::TopK { .. } | Query::TopKAll { .. } => None,
    }
}

/// What happened to one submitted query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Answered {
        value: Value,
        latency: SimTime,
        /// Absolute completion time (arrival + latency).
        completed: SimTime,
        /// Served from the frontend cache, no replica touched.
        cached: bool,
    },
    /// Rejected by admission control.
    Shed { reason: &'static str },
    Failed(String),
}

struct BatchItem {
    idx: usize,
    arrival: SimTime,
    query: Query,
}

struct Batch {
    first_arrival: SimTime,
    items: Vec<BatchItem>,
}

/// The serving frontend. Single-threaded driver over simulated time:
/// callers must submit queries in arrival order.
pub struct Frontend {
    router: Router,
    net: Network,
    cache: LruCache<CacheKey, Value>,
    policy: SloPolicy,
    specs: Vec<ShardSpec>,
    num_vertices: u64,
    batches: Vec<Option<Batch>>,
    /// Latencies (ns) of the most recent completions, for the SLO guard.
    recent: VecDeque<u64>,
    answered: u64,
    shed: u64,
    failed: u64,
    /// Pool for multi-shard scatter phases (fan-out legs run
    /// concurrently; results merge in canonical shard order).
    pool: Arc<Pool>,
    /// Per-shard statistics feeding the pushdown cost model; refreshed
    /// on snapshot hot-swaps.
    stats: TierStats,
    push_policy: PushPolicy,
    metrics: PlanCounters,
}

impl Frontend {
    /// Build a frontend over `router`, running its scatter phases on
    /// `pool`. Every shard must have at least one replica (dead or alive)
    /// so its layout is known.
    pub fn with_pool(
        router: Router,
        net: Network,
        cache_budget: u64,
        policy: SloPolicy,
        num_vertices: u64,
        pool: Arc<Pool>,
    ) -> Self {
        assert!(policy.batch_max >= 1, "batch_max must be at least 1");
        let specs: Vec<ShardSpec> = (0..router.num_shards())
            .map(|s| {
                router.replicas(s).first().expect("shard with no replicas").data().spec
            })
            .collect();
        let batches = (0..router.num_shards()).map(|_| None).collect();
        let stats = Self::tier_stats(&router);
        Frontend {
            router,
            net,
            cache: LruCache::new(cache_budget),
            policy,
            specs,
            num_vertices,
            batches,
            recent: VecDeque::new(),
            answered: 0,
            shed: 0,
            failed: 0,
            pool,
            stats,
            push_policy: PushPolicy::default(),
            metrics: PlanCounters::default(),
        }
    }

    fn tier_stats(router: &Router) -> TierStats {
        TierStats {
            shards: (0..router.num_shards())
                .map(|s| {
                    router
                        .replicas(s)
                        .first()
                        .expect("shard with no replicas")
                        .data()
                        .stats()
                })
                .collect(),
        }
    }

    /// Recompute shard statistics from the currently-installed data (the
    /// hot-swap path calls this after installing a delta).
    pub fn refresh_stats(&mut self) {
        self.stats = Self::tier_stats(&self.router);
    }

    pub fn push_policy(&self) -> PushPolicy {
        self.push_policy
    }

    pub fn set_push_policy(&mut self, policy: PushPolicy) {
        self.push_policy = policy;
    }

    /// Cumulative compound-plan counters.
    pub fn plan_counters(&self) -> PlanCounters {
        self.metrics
    }

    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    pub fn cache(&self) -> &LruCache<CacheKey, Value> {
        &self.cache
    }

    /// Drop cached entries whose key fails `keep` — the hot-swap path
    /// calls this with exactly the keys a snapshot delta touched, so
    /// surviving entries are provably still valid. Returns the number
    /// invalidated.
    pub fn invalidate_keys(&mut self, keep: impl FnMut(&CacheKey) -> bool) -> usize {
        self.cache.retain(keep)
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    pub fn answered(&self) -> u64 {
        self.answered
    }

    pub fn shed(&self) -> u64 {
        self.shed
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Submit a query arriving at `arrival`. Returns outcomes that became
    /// known during this step — the submitted query's own outcome when it
    /// completed immediately (cache hit, shed, multi-shard), plus any
    /// batched queries whose batch flushed. Batched point lookups resolve
    /// on a later submit or at [`Frontend::drain`].
    pub fn submit(
        &mut self,
        idx: usize,
        arrival: SimTime,
        query: Query,
    ) -> Vec<(usize, Outcome)> {
        let mut out = Vec::new();
        self.flush_due(arrival, &mut out);
        self.handle(idx, arrival, query, false, &mut out);
        out
    }

    /// Like [`Frontend::submit`] but never leaves the query pending in a
    /// batch — used by closed-loop load generators that need the outcome
    /// before issuing the worker's next query.
    pub fn execute_now(
        &mut self,
        idx: usize,
        arrival: SimTime,
        query: Query,
    ) -> Vec<(usize, Outcome)> {
        let mut out = Vec::new();
        self.flush_due(arrival, &mut out);
        self.handle(idx, arrival, query, true, &mut out);
        out
    }

    /// Submit a compound plan arriving at `arrival`. Plans always
    /// complete within the step (they are never batched), but flushing
    /// due batches first may resolve earlier point lookups too.
    pub fn submit_plan(
        &mut self,
        idx: usize,
        arrival: SimTime,
        plan: &Plan,
    ) -> Vec<(usize, Outcome)> {
        let mut out = Vec::new();
        self.flush_due(arrival, &mut out);
        self.handle_plan(idx, arrival, plan, &mut out);
        out
    }

    /// Flush every pending batch (end of workload).
    pub fn drain(&mut self) -> Vec<(usize, Outcome)> {
        let mut out = Vec::new();
        for shard in 0..self.batches.len() {
            if let Some(b) = &self.batches[shard] {
                let t = b.first_arrival + self.policy.batch_window;
                self.flush_batch(shard, t, &mut out);
            }
        }
        out
    }

    /// The sliding-window p99 latency, once enough samples exist.
    pub fn window_p99(&self) -> Option<SimTime> {
        if self.recent.len() < SLO_MIN_SAMPLES {
            return None;
        }
        let mut v: Vec<u64> = self.recent.iter().copied().collect();
        v.sort_unstable();
        let rank = ((v.len() as f64) * 0.99).ceil() as usize;
        Some(SimTime::from_nanos(v[rank.clamp(1, v.len()) - 1]))
    }

    fn record_latency(&mut self, latency: SimTime) {
        if self.recent.len() == self.policy.window {
            self.recent.pop_front();
        }
        self.recent.push_back(latency.as_nanos());
    }

    fn flush_due(&mut self, now: SimTime, out: &mut Vec<(usize, Outcome)>) {
        for shard in 0..self.batches.len() {
            let due = match &self.batches[shard] {
                Some(b) => b.first_arrival + self.policy.batch_window <= now,
                None => false,
            };
            if due {
                let t = self.batches[shard].as_ref().unwrap().first_arrival
                    + self.policy.batch_window;
                self.flush_batch(shard, t, out);
            }
        }
    }

    fn answer(
        &mut self,
        idx: usize,
        arrival: SimTime,
        completed: SimTime,
        value: Value,
        cached: bool,
        out: &mut Vec<(usize, Outcome)>,
    ) {
        let latency = completed.saturating_sub(arrival);
        self.record_latency(latency);
        self.answered += 1;
        out.push((idx, Outcome::Answered { value, latency, completed, cached }));
    }

    fn fail(&mut self, idx: usize, err: ServeError, out: &mut Vec<(usize, Outcome)>) {
        self.failed += 1;
        out.push((idx, Outcome::Failed(err.to_string())));
    }

    /// The prologue every submitted query or plan passes through:
    /// bounds-check the anchor vertex, answer from the cache when `key`
    /// hits, then route + admission-check against the least-loaded replica
    /// of the anchor's owner shard (plans without an anchor scatter
    /// everywhere; gate on shard 0 as the canonical proxy). Returns that
    /// shard and its routed replica's load, or `None` once an
    /// answered/shed/failed outcome has been pushed.
    fn enter(
        &mut self,
        idx: usize,
        arrival: SimTime,
        anchor: Option<u64>,
        key: Option<CacheKey>,
        out: &mut Vec<(usize, Outcome)>,
    ) -> Option<(usize, usize)> {
        if let Some(v) = anchor.filter(|&v| v >= self.num_vertices) {
            self.fail(
                idx,
                ServeError::BadQuery(format!(
                    "vertex {v} out of range (graph has {})",
                    self.num_vertices
                )),
                out,
            );
            return None;
        }
        if let Some(value) = key.and_then(|key| self.cache.get(&key).cloned()) {
            let done = arrival + self.net.cost_model().cpu_cost(self.policy.cache_hit_ops);
            self.answer(idx, arrival, done, value, true, out);
            return None;
        }

        let primary = anchor.map_or(0, |v| owner_of(v, self.num_vertices, self.specs.len()));
        let Some(rep) = self.router.route(primary, arrival) else {
            self.fail(idx, ServeError::NoReplica { shard: primary }, out);
            return None;
        };
        let load = rep.load_at(arrival);
        if load >= self.policy.queue_cap {
            self.shed += 1;
            out.push((idx, Outcome::Shed { reason: "queue full" }));
            return None;
        }
        if load > self.policy.queue_cap / 2 {
            if let Some(p99) = self.window_p99() {
                if p99 > self.policy.slo_p99 {
                    self.shed += 1;
                    out.push((idx, Outcome::Shed { reason: "p99 over SLO" }));
                    return None;
                }
            }
        }
        Some((primary, load))
    }

    fn handle(
        &mut self,
        idx: usize,
        arrival: SimTime,
        query: Query,
        immediate: bool,
        out: &mut Vec<(usize, Outcome)>,
    ) {
        let v = query.vertex();
        let Some((primary, load)) = self.enter(idx, arrival, Some(v), cache_key(&query), out)
        else {
            return;
        };
        match query {
            Query::Rank(_) | Query::Community(_) | Query::Neighbors(_) => {
                let batch = self.batches[primary].get_or_insert_with(|| Batch {
                    first_arrival: arrival,
                    items: Vec::new(),
                });
                batch.items.push(BatchItem { idx, arrival, query });
                // Adaptive flush (TCP_NODELAY-style): batching only pays
                // off when there is a queue to amortize against. With the
                // routed replica idle, holding the item buys it nothing
                // but the full batch window of latency — which on an idle
                // tier puts the whole window into p99.
                if immediate || batch.items.len() >= self.policy.batch_max || load == 0 {
                    self.flush_batch(primary, arrival, out);
                }
            }
            Query::Embedding(_) => match self.load_embedding(v, arrival) {
                Ok((row, done, _)) => {
                    self.answer(idx, arrival, done, Value::Embedding(row), false, out)
                }
                Err(e) => self.fail(idx, e, out),
            },
            Query::KHop { hops, .. } => self.run_plan(idx, arrival, &Plan::khop(v, hops), out),
            Query::TopK { k, .. } => self.run_plan(idx, arrival, &Plan::topk(v, k), out),
            Query::TopKAll { k, .. } => self.run_plan(idx, arrival, &Plan::topk_all(v, k), out),
        }
    }

    /// Validate a compound plan, pass it through the shared prologue
    /// (keyed on its anchor, never cached), then execute it.
    fn handle_plan(
        &mut self,
        idx: usize,
        arrival: SimTime,
        plan: &Plan,
        out: &mut Vec<(usize, Outcome)>,
    ) {
        if let Err(e) = plan.validate() {
            return self.fail(idx, ServeError::BadQuery(e.to_string()), out);
        }
        if self.enter(idx, arrival, plan.anchor(), None, out).is_some() {
            self.run_plan(idx, arrival, plan, out);
        }
    }

    fn compute_point(data: &ShardData, query: Query) -> Result<Value> {
        match query {
            Query::Rank(v) => data.rank(v).map(Value::Rank),
            Query::Community(v) => data.community(v).map(Value::Community),
            Query::Neighbors(v) => data.neighbors(v).map(|n| Value::Neighbors(n.to_vec())),
            _ => unreachable!("only point lookups are batched"),
        }
    }

    fn flush_batch(&mut self, shard: usize, t_flush: SimTime, out: &mut Vec<(usize, Outcome)>) {
        let Some(batch) = self.batches[shard].take() else { return };
        let rep = match self.router.route(shard, t_flush) {
            Some(r) => r,
            None => {
                for item in batch.items {
                    self.fail(item.idx, ServeError::NoReplica { shard }, out);
                }
                return;
            }
        };

        let data = rep.data();
        let mut ops = 0u64;
        let mut resp_bytes = 16u64;
        let mut results = Vec::with_capacity(batch.items.len());
        for item in &batch.items {
            let res = Self::compute_point(&data, item.query);
            if let Ok(value) = &res {
                ops += self.policy.ops_per_item;
                if let Value::Neighbors(n) = value {
                    ops += n.len() as u64;
                }
                resp_bytes += value.approx_bytes();
            }
            results.push(res);
        }
        let req_bytes = 16 + 16 * batch.items.len() as u64;

        let done = self.net.rpc_at(t_flush, rep.port(), req_bytes, ops, resp_bytes);

        for (item, res) in batch.items.into_iter().zip(results) {
            rep.record_completion(item.arrival, done);
            match res {
                Ok(value) => {
                    if let Some(key) = cache_key(&item.query) {
                        self.cache.insert(key, value.clone(), value.approx_bytes());
                    }
                    self.answer(item.idx, item.arrival, done, value, false, out);
                }
                Err(e) => self.fail(item.idx, e, out),
            }
        }
    }

    /// The one multi-shard fan-out. Each `(shard, work)` item becomes a
    /// leg against one live replica of that shard: `leg` sees the routed
    /// replica's data and returns its result with the request bytes,
    /// server ops, and response bytes it declares; `scatter` alone
    /// routes, charges the leg as one `Network::rpc_at` departing at `at`,
    /// and records the completion on the replica.
    ///
    /// Legs run concurrently on the frontend pool and merge serially in
    /// `work` order (ascending shard — the deterministic reduction rule),
    /// so the results, the slowest leg's completion time, the response
    /// bytes shipped, and the choice of first error by shard index are
    /// identical for every pool size.
    fn scatter<W: Send, T: Send>(
        &self,
        work: Vec<(usize, W)>,
        at: SimTime,
        leg: impl Fn(&ShardData, W) -> Result<(T, u64, u64, u64)> + Send + Sync,
    ) -> Result<(Vec<T>, SimTime, u64)> {
        let (router, net) = (&self.router, &self.net);
        let legs: Vec<Result<(T, SimTime, u64)>> = self.pool.map(work, move |(shard, w)| {
            let rep = router.route(shard, at).ok_or(ServeError::NoReplica { shard })?;
            let (result, req_bytes, ops, resp_bytes) = leg(&rep.data(), w)?;
            let done = net.rpc_at(at, rep.port(), req_bytes, ops, resp_bytes);
            rep.record_completion(at, done);
            Ok((result, done, resp_bytes))
        });
        let mut results = Vec::with_capacity(legs.len());
        let mut done_max = at;
        let mut bytes = 0u64;
        for leg in legs {
            let (result, done, resp_bytes) = leg?;
            results.push(result);
            done_max = done_max.max(done);
            bytes += resp_bytes;
        }
        Ok((results, done_max, bytes))
    }

    /// Scatter work for per-vertex fetches: positions into `vertices`
    /// grouped by owner shard, shards with nothing to fetch left out.
    fn by_owner(&self, vertices: &[u64]) -> Vec<(usize, Vec<usize>)> {
        let num_shards = self.specs.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (i, &u) in vertices.iter().enumerate() {
            by_shard[owner_of(u, self.num_vertices, num_shards)].push(i);
        }
        by_shard.into_iter().enumerate().filter(|(_, idxs)| !idxs.is_empty()).collect()
    }

    /// Scatter work for whole-shard legs: every shard whose placement
    /// satisfies `serves`.
    fn shards_where(&self, serves: impl Fn(&ShardSpec) -> bool) -> Vec<(usize, ())> {
        (0..self.specs.len()).filter(|&s| serves(&self.specs[s])).map(|s| (s, ())).collect()
    }

    /// Scatter work for embedding legs: every shard that serves a
    /// column slice.
    fn col_shards(&self) -> Vec<(usize, ())> {
        self.shards_where(|spec| spec.col_width() != 0)
    }

    /// Undo [`Frontend::by_owner`]: per-shard `(position, result)` lists
    /// back into input order.
    fn in_input_order<T: Clone + Default>(n: usize, parts: Vec<Vec<(usize, T)>>) -> Vec<T> {
        let mut results = vec![T::default(); n];
        for (i, x) in parts.into_iter().flatten() {
            results[i] = x;
        }
        results
    }

    /// Evaluate a per-vertex `kernel` (a predicate or a scalar scorer)
    /// shard-side for each vertex (grouped by owner). Returns the results
    /// in input order, the slowest completion, and response bytes.
    fn fetch_per_vertex<T: Clone + Default + Send>(
        &self,
        vertices: &[u64],
        at: SimTime,
        kernel: impl Fn(&ShardData, u64) -> std::result::Result<T, exec::ExecError> + Send + Sync,
    ) -> Result<(Vec<T>, SimTime, u64)> {
        let ops_per_item = self.policy.ops_per_item;
        let (parts, done, bytes) = self.scatter(self.by_owner(vertices), at, |data, idxs| {
            let mut got = Vec::with_capacity(idxs.len());
            for &i in &idxs {
                let x = kernel(data, vertices[i])
                    .map_err(|e| ServeError::BadQuery(e.to_string()))?;
                got.push((i, x));
            }
            let n = idxs.len() as u64;
            Ok((got, 16 + 8 * n, n * ops_per_item, 16 + 8 * n))
        })?;
        Ok((Self::in_input_order(vertices.len(), parts), done, bytes))
    }

    /// Fetch neighbor lists of `vertices` (grouped by owner shard) at
    /// time `at`. Returns the lists in input order, the slowest
    /// completion, and the response bytes shipped.
    fn fetch_neighbors(
        &self,
        vertices: &[u64],
        at: SimTime,
    ) -> Result<(Vec<Vec<u64>>, SimTime, u64)> {
        let ops_per_item = self.policy.ops_per_item;
        let (parts, done, bytes) = self.scatter(self.by_owner(vertices), at, |data, idxs| {
            // Compute first so the response size is the real payload.
            let mut ops = 0u64;
            let mut resp = 16u64;
            let mut got = Vec::with_capacity(idxs.len());
            for &i in &idxs {
                let ns = data.neighbors(vertices[i])?;
                ops += ops_per_item + ns.len() as u64;
                resp += 8 * ns.len() as u64;
                got.push((i, ns.to_vec()));
            }
            Ok((got, 16 + 8 * idxs.len() as u64, ops, resp))
        })?;
        Ok((Self::in_input_order(vertices.len(), parts), done, bytes))
    }

    /// Gather the full embedding rows of `vertices`: one leg per column
    /// shard, each shipping that shard's column segment for every
    /// requested row; segments concatenate in shard order — which is
    /// column order, the shards tile the columns ascending — so the
    /// reassembled rows are bit-identical to the stored ones. Returns
    /// rows in input order, the slowest completion, and response bytes.
    fn fetch_embed_rows(
        &self,
        vertices: &[u64],
        at: SimTime,
    ) -> Result<(Vec<Vec<f32>>, SimTime, u64)> {
        let ops_per_item = self.policy.ops_per_item;
        let n = vertices.len() as u64;
        let (parts, done, bytes) = self.scatter(self.col_shards(), at, |data, ()| {
            let width = data.spec.col_width() as u64;
            let segs = vertices
                .iter()
                .map(|&v| data.embed_cols(v).map(<[f32]>::to_vec))
                .collect::<Result<Vec<Vec<f32>>>>()?;
            Ok((segs, 16 + 8 * n, n * (ops_per_item + width), 16 + n * 4 * width))
        })?;
        if parts.is_empty() {
            return Err(ServeError::BadQuery("no embeddings served".into()));
        }
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); vertices.len()];
        for segs in parts {
            for (row, seg) in rows.iter_mut().zip(segs) {
                row.extend(seg);
            }
        }
        Ok((rows, done, bytes))
    }

    /// Gather `v`'s full embedding row and cache it as the answer to
    /// `Query::Embedding(v)`.
    fn load_embedding(&mut self, v: u64, at: SimTime) -> Result<(Vec<f32>, SimTime, u64)> {
        let (mut rows, done, bytes) = self.fetch_embed_rows(&[v], at)?;
        let row = rows.pop().expect("one row per requested vertex");
        let value = Value::Embedding(row.clone());
        let footprint = value.approx_bytes();
        self.cache.insert((TAG_EMBEDDING, v), value, footprint);
        Ok((row, done, bytes))
    }

    /// Execute a validated, admitted plan and record its outcome plus
    /// plan metrics.
    fn run_plan(
        &mut self,
        idx: usize,
        arrival: SimTime,
        plan: &Plan,
        out: &mut Vec<(usize, Outcome)>,
    ) {
        let mut acc = LegAcc::default();
        let res = self.plan_legs(arrival, plan, &mut acc);
        self.metrics.plans += 1;
        self.metrics.stages_pushed += acc.cut as u64;
        if acc.cut > 0 {
            self.metrics.pushed_plans += 1;
        }
        self.metrics.shard_bytes += acc.bytes;
        self.metrics.pruned_filter += acc.pruned_filter;
        self.metrics.pruned_score += acc.pruned_score;
        self.metrics.pruned_topk += acc.pruned_topk;
        self.metrics.pruned_collect += acc.pruned_collect;
        match res {
            Ok((value, done)) => self.answer(idx, arrival, done, value, false, out),
            Err(e) => self.fail(idx, e, out),
        }
    }

    /// The distributed plan executor: push the planner-chosen prefix to
    /// every shard, merge partials in canonical shard order, then run
    /// the suffix stages at the frontend. Returns the value and its
    /// completion time.
    fn plan_legs(
        &mut self,
        arrival: SimTime,
        plan: &Plan,
        acc: &mut LegAcc,
    ) -> Result<(Value, SimTime)> {
        // `All`-source dot plans ship the query row to every shard:
        // acquire it first, cache-served exactly like an Embedding query.
        let needs_full_q =
            matches!(plan.source, Source::All) && plan.dot_vertex().is_some();
        let (q_row, mut done) = if needs_full_q {
            let v = plan.dot_vertex().unwrap();
            match self.cache.get(&(TAG_EMBEDDING, v)).cloned() {
                Some(Value::Embedding(e)) => {
                    (Some(e), arrival + self.net.cost_model().cpu_cost(self.policy.cache_hit_ops))
                }
                _ => {
                    let (q, t, bytes) = self.load_embedding(v, arrival)?;
                    acc.bytes += bytes;
                    (Some(q), t)
                }
            }
        } else {
            (None, arrival)
        };

        let (mut ids, mut scores, cut) = match plan.source {
            Source::All => {
                let decision = decide(plan, &self.stats, self.push_policy);
                let cut = decision.cut;
                acc.cut = cut;
                let (rows, scored, t) =
                    self.scatter_pushed(plan, cut, q_row.as_deref(), done, acc)?;
                done = t;
                if cut == plan.stages.len() {
                    // The terminal ran shard-side; finish the canonical
                    // merge here and we are done.
                    return Ok(match plan.stages.last().unwrap() {
                        Stage::TopK(k) => {
                            let mut rows = rows;
                            exec::sort_ranked(&mut rows);
                            rows.truncate(*k);
                            (Value::Ranked(rows), done)
                        }
                        Stage::Collect { cap } => {
                            let mut ids: Vec<u64> = rows.into_iter().map(|(v, _)| v).collect();
                            ids.truncate(*cap);
                            (Value::Vertices(ids), done)
                        }
                        _ => unreachable!("validated plans end in a terminal"),
                    });
                }
                let ids: Vec<u64> = rows.iter().map(|&(v, _)| v).collect();
                let scores: Option<Vec<f64>> =
                    scored.then(|| rows.iter().map(|&(_, s)| s).collect());
                (ids, scores, cut)
            }
            Source::Seed(v) => (vec![v], None, 0),
        };

        // Frontend suffix: one operator at a time over (ids, scores).
        for st in &plan.stages[cut..] {
            match st {
                Stage::Filter(p) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let before = ids.len();
                    let (keep, t, bytes) = self
                        .fetch_per_vertex(&ids, done, |data, v| exec::pred_keep(data, v, *p))?;
                    done = t;
                    acc.bytes += bytes;
                    let mut it = keep.iter();
                    ids.retain(|_| *it.next().unwrap());
                    if let Some(sc) = &mut scores {
                        let mut it = keep.iter();
                        sc.retain(|_| *it.next().unwrap());
                    }
                    acc.pruned_filter += (before - ids.len()) as u64;
                }
                Stage::Expand { hops, cap, mode } => {
                    let this: &Frontend = &*self;
                    let mut t_cur = done;
                    let mut bytes = 0u64;
                    let mut fetch = |vs: &[u64]| -> Result<Vec<Vec<u64>>> {
                        let (lists, t, b) = this.fetch_neighbors(vs, t_cur)?;
                        t_cur = t;
                        bytes += b;
                        Ok(lists)
                    };
                    ids = match mode {
                        ExpandMode::Frontier => {
                            exec::expand_frontier(&ids, *hops, *cap, &mut fetch)?
                        }
                        ExpandMode::Union => exec::expand_union(&ids, *hops, *cap, &mut fetch)?,
                    };
                    done = t_cur;
                    acc.bytes += bytes;
                    scores = None;
                }
                Stage::Score(Scorer::Dot(qv)) => {
                    let before = ids.len();
                    ids.retain(|&u| u != *qv);
                    acc.pruned_score += (before - ids.len()) as u64;
                    if ids.is_empty() {
                        scores = Some(Vec::new());
                        continue;
                    }
                    if plan.dot_assoc() == DotAssoc::FullRow {
                        // An `All`-source dot evaluated at the frontend
                        // (the planner refused or was forbidden to push):
                        // ship every candidate's full embedding row over
                        // and accumulate in column order, exactly like
                        // the shard-side kernel.
                        let q = q_row.as_deref().expect("All-source dot acquires q up front");
                        let (rows, t, bytes) = self.fetch_embed_rows(&ids, done)?;
                        done = t;
                        acc.bytes += bytes;
                        scores = Some(rows.iter().map(|r| exec::dot_full(q, r)).collect());
                        continue;
                    }
                    // Partial dot products on every column shard, all
                    // issued at `done`, partials summed in shard order —
                    // the ColShards association.
                    let ops_per_item = self.policy.ops_per_item;
                    let n = ids.len() as u64;
                    let (partials, t, bytes) =
                        self.scatter(self.col_shards(), done, |data, ()| {
                            let width = data.spec.col_width() as u64;
                            let dots = data.partial_dots(*qv, &ids)?;
                            Ok((dots, 24 + 8 * n, n * (2 * width + ops_per_item), 16 + 8 * n))
                        })?;
                    if partials.is_empty() {
                        // No shard serves embedding columns: fail like
                        // the interpreter, not with all-zero scores.
                        return Err(ServeError::BadQuery("no embeddings served".into()));
                    }
                    done = t;
                    acc.bytes += bytes;
                    let mut sc = vec![0.0f64; ids.len()];
                    for dots in partials {
                        for (s, p) in sc.iter_mut().zip(dots) {
                            *s += p;
                        }
                    }
                    scores = Some(sc);
                }
                Stage::Score(s) => {
                    if ids.is_empty() {
                        scores = Some(Vec::new());
                        continue;
                    }
                    let (vals, t, bytes) = self
                        .fetch_per_vertex(&ids, done, |data, v| exec::scalar_score(data, v, *s))?;
                    done = t;
                    acc.bytes += bytes;
                    scores = Some(vals);
                }
                Stage::TopK(k) => {
                    let sc = scores.take().unwrap_or_default();
                    let mut ranked: Vec<(u64, f64)> = ids.iter().copied().zip(sc).collect();
                    exec::sort_ranked(&mut ranked);
                    acc.pruned_topk += ranked.len().saturating_sub(*k) as u64;
                    ranked.truncate(*k);
                    return Ok((Value::Ranked(ranked), done));
                }
                Stage::Collect { cap } => {
                    acc.pruned_collect += ids.len().saturating_sub(*cap) as u64;
                    ids.truncate(*cap);
                    return Ok((Value::Vertices(ids), done));
                }
            }
        }
        Err(ServeError::BadQuery("plan missing terminal stage".into()))
    }

    /// Scatter the pushed prefix `stages[..cut]` to one live replica of
    /// every (non-empty) vertex shard; each evaluates it over its own
    /// range via the shared kernel and ships surviving rows back, which
    /// concatenate in canonical shard order (ascending vertex ranges).
    fn scatter_pushed(
        &self,
        plan: &Plan,
        cut: usize,
        q_row: Option<&[f32]>,
        at: SimTime,
        acc: &mut LegAcc,
    ) -> Result<(Vec<(u64, f64)>, bool, SimTime)> {
        let stages = &plan.stages[..cut];
        let shards = self.shards_where(|spec| spec.vertex_hi != spec.vertex_lo);
        let ops_per_item = self.policy.ops_per_item;
        let dim = q_row.map_or(0, <[f32]>::len) as u64;
        let dot_pushed = stages.iter().any(|s| matches!(s, Stage::Score(Scorer::Dot(_))));
        // Request: header + one stage descriptor each + the query row if
        // a dot scorer ships with the prefix.
        let req = 24 + 8 * cut as u64 + if dot_pushed { 4 * dim } else { 0 };
        let (partials, done, bytes) = self.scatter(shards, at, |data, ()| {
            let (lo, hi) = (data.spec.vertex_lo, data.spec.vertex_hi);
            let pp = exec::run_pushed(data, lo, hi, stages, q_row)
                .map_err(|e| ServeError::BadQuery(e.to_string()))?;
            // Ops: rows entering each stage, reconstructed from the
            // per-stage pruning counts.
            let mut ops = 0u64;
            let mut entering = hi - lo;
            for (i, st) in stages.iter().enumerate() {
                ops += match st {
                    Stage::Filter(_) | Stage::Score(Scorer::Rank | Scorer::Degree) => {
                        entering * ops_per_item
                    }
                    Stage::Score(Scorer::Dot(_)) => entering * (2 * dim + ops_per_item),
                    Stage::TopK(_) | Stage::Collect { .. } | Stage::Expand { .. } => 0,
                };
                entering -= pp.pruned[i];
            }
            let resp = 16 + pp.rows.len() as u64 * if pp.scored { 16 } else { 8 };
            Ok((pp, req, ops, resp))
        })?;
        acc.bytes += bytes;
        let mut rows: Vec<(u64, f64)> = Vec::new();
        let mut scored = false;
        for pp in partials {
            for (i, st) in stages.iter().enumerate() {
                let pruned = pp.pruned[i];
                match st {
                    Stage::Filter(_) => acc.pruned_filter += pruned,
                    Stage::Score(_) => acc.pruned_score += pruned,
                    Stage::TopK(_) => acc.pruned_topk += pruned,
                    Stage::Collect { .. } => acc.pruned_collect += pruned,
                    Stage::Expand { .. } => {}
                }
            }
            rows.extend(pp.rows);
            scored |= pp.scored;
        }
        Ok((rows, scored, done))
    }
}
