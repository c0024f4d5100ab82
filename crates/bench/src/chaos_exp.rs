//! `repro -- chaos`: the fault-injection soak — train → serve → drift
//! streaming driven through a seeded [`psgraph_sim::FaultSchedule`] and
//! recovered end to end.
//!
//! One fault-free reference run fixes the ground truth: the final PS
//! content (rank bits, component labels, degree bits, live adjacency)
//! after streaming a fixed drift-RMAT event log. Then the *same* event
//! log is re-run under `>= 20` chaos seeds, each injecting:
//!
//! * **message loss + duplication** on the event transport — every
//!   micro-batch is split into per-shard lanes (ingest runs on a
//!   [`ShardedIngestor`], one owner-keyed writer per source range) and
//!   each lane travels via [`psgraph_net::Network::send_reliable`]
//!   (retry/backoff/deadline) gated by an
//!   [`psgraph_net::IdempotencyFilter`], so a fault can lose or
//!   duplicate one shard's lane while the others land — at-least-once
//!   delivery still applies each lane exactly once, and the min-merged
//!   watermark must survive per-shard faults uncorrupted;
//! * **bounded delay** on every PS / DFS / serve RPC;
//! * **PS crash-points** at arbitrary positions — after an
//!   un-checkpointed batch, *mid-checkpoint* (generation written but
//!   never published), or right after a publish. Recovery rolls every
//!   `Consistent` object back to the last *published* checkpoint
//!   generation, rewinds the ingestor to the checkpoint watermark, and
//!   replays the DFS event log suffix with idempotent reapplication;
//! * **replica kills** on the serving tier (restarted a few batches
//!   later);
//! * **block corruption** on DFS writes, detected by checksums and
//!   survived via replica fallback.
//!
//! Assertions per seed: zero wrong answers, freshness lag within a
//! crash-count-aware bound, and a final PS state **bit-identical** to
//! the fault-free reference. Recovery latency percentiles land in
//! `results/BENCH_chaos.json`. Any failure is reproducible from its
//! printed seed alone: `repro -- chaos --seed <S>` replays just that
//! schedule.

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank};
use psgraph_core::CoreError;
use psgraph_dfs::Dfs;
use psgraph_graph::Dataset;
use psgraph_harness::json::Json;
use psgraph_net::rpc::{NodeId, ServicePort};
use psgraph_net::{IdempotencyFilter, RetryPolicy};
use psgraph_ps::{Ps, PsConfig, SnapshotWriter};
use psgraph_serve::frontend::Outcome;
use psgraph_serve::{
    Interpreter, ObjectMap, Plan, PlanOutput, Pred, Query, Scorer, ServeCluster, ServeConfig,
    Source, Stage, Value,
};
use psgraph_sim::{
    ChaosConfig, FaultSchedule, FaultSite, FaultStats, NodeClock, SimTime, SplitMix64,
};
use psgraph_stream::{
    DriftRmat, EdgeEvent, EventLog, IngestConfig, RefreshConfig, RefreshDriver, ShardedIngestor,
    StreamCheckpoint,
};

use crate::report::{Cell, Row, Table};
use crate::stream_state::{Fingerprint, Mirror};

/// Events per micro-batch (every shard mailbox sized to match, so even a
/// batch routed entirely to one shard fits).
const BATCH: usize = 256;
/// Owner-keyed ingestor shards the soak streams through. Three shards
/// give asymmetric lanes: seeded faults routinely hit one shard's
/// delivery while the others land, exercising the min-merged watermark
/// under per-shard loss/dup/delay.
const SHARDS: usize = 3;
/// Checkpoint the PS + stream position every this many batches.
const CKPT_EVERY: usize = 6;
/// Verified queries interleaved after every micro-batch.
const QUERIES_PER_BATCH: usize = 2;
/// PS crash-recovery cycles injected per seed at most (keeps a soak
/// seed's wall clock bounded; draws beyond the cap are ignored).
const CRASH_CAP: usize = 3;
/// A killed serve replica is restarted this many batches later.
const REPLICA_DOWN_BATCHES: usize = 3;

const LOG_PATH: &str = "/chaos/events";
const CKPT_PATH: &str = "/chaos/ckpt";

fn se(e: impl std::fmt::Display) -> CoreError {
    CoreError::Invalid(format!("chaos: {e}"))
}

/// What one soak run (fault-free or seeded) measured.
pub struct SeedOutcome {
    pub seed: u64,
    /// Injected-fault tallies from the schedule's own counters.
    pub faults: FaultStats,
    /// PS crash-recovery cycles actually executed.
    pub ps_crashes: usize,
    /// Serve replica kills injected (each later revived).
    pub replica_kills: usize,
    /// Batches whose first delivery attempt was lost / duplicated.
    pub transport_retries: u64,
    /// Duplicate batch applications absorbed by the idempotency filter.
    pub dup_suppressed: u64,
    /// Corrupt DFS replicas survived via fallback reads.
    pub corrupt_fallbacks: u64,
    /// Batches replayed from the event log during recoveries.
    pub batches_replayed: usize,
    pub queries: usize,
    pub answered: usize,
    /// Answered compound plans (a subset of `answered`), each verified
    /// bit-for-bit against the interpreter over the swap-time truth.
    pub compound_answered: usize,
    /// Queries shed or failed (degraded service is allowed; wrong is not).
    pub unserved: usize,
    /// Answers diverging from the swap-time PS state. Must be 0.
    pub wrong: usize,
    pub freshness_max: SimTime,
    pub freshness_bound: SimTime,
    /// Simulated crash-to-caught-up latency per PS recovery.
    pub recovery_latencies: Vec<SimTime>,
    /// Final PS content equals the fault-free reference bit-for-bit.
    pub state_identical: bool,
}

/// The full soak result.
pub struct ChaosRepro {
    pub num_vertices: u64,
    pub base_edges: usize,
    pub events: usize,
    pub batches: usize,
    pub seeds: Vec<SeedOutcome>,
    /// Recovery latencies pooled across seeds, sorted.
    pub recovery_sorted: Vec<SimTime>,
}

impl ChaosRepro {
    pub fn total_wrong(&self) -> usize {
        self.seeds.iter().map(|s| s.wrong).sum()
    }

    pub fn mismatched_seeds(&self) -> Vec<u64> {
        self.seeds.iter().filter(|s| !s.state_identical).map(|s| s.seed).collect()
    }

    pub fn freshness_violations(&self) -> Vec<u64> {
        self.seeds
            .iter()
            .filter(|s| s.freshness_max > s.freshness_bound)
            .map(|s| s.seed)
            .collect()
    }

    pub fn recovery_percentile(&self, p: f64) -> SimTime {
        if self.recovery_sorted.is_empty() {
            return SimTime::ZERO;
        }
        let rank = ((self.recovery_sorted.len() as f64) * p).ceil() as usize;
        self.recovery_sorted[rank.clamp(1, self.recovery_sorted.len()) - 1]
    }
}

struct RunResult {
    print: Fingerprint,
    outcome: SeedOutcome,
}

/// One complete soak run over `events`: bootstrap, serve, stream with
/// periodic checkpoints + delta hot-swaps, and (when `chaos` is a live
/// schedule) injected faults with full recovery.
fn run_once(
    base: &psgraph_graph::EdgeList,
    events: &[EdgeEvent],
    events_per_sec: f64,
    chaos: FaultSchedule,
) -> Result<RunResult, CoreError> {
    let n = base.num_vertices();
    let ps = Ps::new(PsConfig::default());
    let dfs = Dfs::in_memory();
    let client = NodeClock::new();
    let active = chaos.is_active();
    if active {
        ps.network().attach_chaos(chaos.clone());
        dfs.network().attach_chaos(chaos.clone());
    }

    // Train: sharded mutable ingest state + incremental maintainers,
    // converged on the base graph.
    let icfg = IngestConfig { prefix: "stream".into(), mailbox_cap: BATCH };
    let mut ingestor = ShardedIngestor::create(&ps, &icfg, n, SHARDS).map_err(se)?;
    ingestor.bootstrap(&client, base.edges()).map_err(se)?;
    let pr = IncrementalPageRank::default();
    let mut pr_state = pr.create_state(&ps, "stream.pr", n)?;
    pr.init_full(&mut pr_state, &client, ingestor.adjacency())?;
    let mut cc = IncrementalCc::create(&ps, "stream.cc", n)?;
    cc.bootstrap(&client, ingestor.adjacency())?;

    // Serve: snapshot the trained state, load the tier over it.
    let mut w = SnapshotWriter::new(&dfs, "/chaos/snapshot", &client);
    w.vector_f64(&pr_state.ranks)?;
    w.vector_u64(&cc.labels)?;
    w.neighbor_table(ingestor.adjacency())?;
    let manifest = w.finish()?;
    let objects = ObjectMap {
        ranks: Some("stream.pr.ranks".into()),
        communities: Some("stream.cc.labels".into()),
        embeddings: None,
        adjacency: Some("stream.adj".into()),
    };
    let scfg = ServeConfig::default();
    let mut cluster =
        ServeCluster::load(&dfs, "/chaos/snapshot", &objects, &scfg, &client).map_err(se)?;
    if active {
        cluster.network().attach_chaos(chaos.clone());
    }
    let rcfg = RefreshConfig::default();
    let swap_every = rcfg.swap_every_batches;
    let mut driver = RefreshDriver::new("/chaos/snapshot", manifest, rcfg);
    let mut mirror = Mirror::capture(&client, ingestor.adjacency(), &pr, &pr_state, &cc, n)?;
    let mut truth = mirror.truth(n);

    // Durable stream: the event log and the initial checkpoint pair, so a
    // crash at *any* later point has something published to roll back to.
    EventLog::write(&dfs, LOG_PATH, events, &client).map_err(se)?;
    let mut generation = 0u64;
    ps.checkpoint_all_generation(&dfs, generation)?;
    StreamCheckpoint {
        generation,
        batches_done: 0,
        events_done: 0,
        watermark: ingestor.watermark(),
    }
    .write(&dfs, CKPT_PATH, &client)
    .map_err(se)?;

    let nbatches = events.len().div_ceil(BATCH);
    let transport_port = ServicePort::new(NodeId::Executor(0));
    let policy = RetryPolicy::default();
    let filter = IdempotencyFilter::new();
    let num_replicas = cluster.replicas().len();

    // The freshness bound scales with the injected crash budget: each
    // crash can wipe (and replay) up to a checkpoint interval of batches
    // and suppress publishing while catching up.
    let span = |batches: usize| {
        SimTime::from_secs_f64(batches as f64 * BATCH as f64 / events_per_sec)
    };
    let crash_budget = if active { CRASH_CAP } else { 0 };
    let freshness_bound = span(2 * swap_every + crash_budget * (CKPT_EVERY + swap_every))
        + SimTime::from_secs(5).scale(crash_budget as f64);

    let mut rng = SplitMix64::new(0x50AC ^ chaos.seed());
    let mut pending: Vec<(usize, SimTime)> = Vec::new();
    let mut lags: Vec<SimTime> = Vec::new();
    let mut queries = 0usize;
    let mut answered = 0usize;
    let mut compound_answered = 0usize;
    let mut unserved = 0usize;
    let mut wrong = 0usize;
    let mut ps_crashes = 0usize;
    let mut replica_kills = 0usize;
    let mut transport_retries = 0u64;
    let mut batches_replayed = 0usize;
    let mut incarnation = 0u64;
    // Highest batch index ever applied; publishing is suppressed while
    // replay catches back up to it.
    let mut high_water = 0usize;
    let mut recoveries_inflight: Vec<(SimTime, usize)> = Vec::new();
    let mut recovery_latencies: Vec<SimTime> = Vec::new();
    let mut revives: Vec<(usize, usize)> = Vec::new();

    let mut b = 0usize;
    while b < nbatches {
        let lo = b * BATCH;
        let hi = (lo + BATCH).min(events.len());
        let evs = &events[lo..hi];

        // Deliver the batch, one reliable lane per owner shard. Under
        // chaos each lane is its own keyed message: a seeded fault can
        // lose or duplicate shard 1's lane while shard 0's lands, lost
        // sends retry with backoff, and duplicated deliveries are
        // absorbed by the idempotency filter (keyed per incarnation — a
        // post-crash replay is a legitimately new delivery).
        if active {
            for shard in 0..SHARDS {
                let lane: Vec<EdgeEvent> =
                    evs.iter().copied().filter(|e| ingestor.owner(e) == shard).collect();
                if lane.is_empty() {
                    continue;
                }
                let key = (incarnation << 40) | ((b * SHARDS + shard) as u64);
                let ing = &mut ingestor;
                let receipt = ps
                    .network()
                    .send_reliable(
                        &client,
                        &transport_port,
                        lane.len() as u64 * 25,
                        lane.len() as u64 * 4,
                        16,
                        &policy,
                        FaultSite::Ingest,
                        key,
                        &mut || {
                            filter.apply_once(key, || {
                                for ev in &lane {
                                    if !ing.offer(NodeId::Driver, *ev) {
                                        ing.note_offer_retry(ev);
                                    }
                                }
                            });
                        },
                    )
                    .map_err(se)?;
                transport_retries += (receipt.attempts - 1) as u64;
            }
        } else {
            for ev in evs {
                assert!(ingestor.offer(NodeId::Driver, *ev), "mailboxes sized to the batch");
            }
        }

        // Apply + maintain: one logical micro-batch drained across all
        // shards, effects merged source-sorted, applied in arrival order.
        let fx = ingestor.drain_all().map_err(se)?;
        pr.on_batch(&mut pr_state, &client, &fx.effects)?;
        pr.propagate(&mut pr_state, &client, ingestor.adjacency())?;
        cc.on_batch(&client, &fx.applied, ingestor.adjacency())?;
        pending.push((b, fx.watermark));
        if b < high_water {
            batches_replayed += 1;
        }
        recoveries_inflight.retain(|&(t0, target)| {
            if b >= target {
                recovery_latencies.push(client.now().saturating_sub(t0));
                false
            } else {
                true
            }
        });
        high_water = high_water.max(b);
        let catching_up = b < high_water;

        // Serve-tier replica kills (revived a few batches later) — only
        // on first visits, so replay never re-kills deterministically.
        if active && b == high_water {
            revives.retain(|&(due, id)| {
                if b >= due {
                    cluster.revive_replica(id);
                    false
                } else {
                    true
                }
            });
            if chaos.crash(FaultSite::ReplicaCrash, b as u64, 0) {
                let victim = chaos.pick(FaultSite::ReplicaCrash, b as u64, 1, num_replicas);
                if cluster.kill_replica(victim) {
                    replica_kills += 1;
                    revives.push((b + REPLICA_DOWN_BATCHES, victim));
                }
            }
        }

        // Checkpoint cadence and PS crash-points. The crash draw is keyed
        // by (batch, incarnation): deterministic from the seed, but a
        // replayed batch draws differently, so recovery always makes
        // progress instead of re-crashing forever.
        let due_ckpt = (b + 1) % CKPT_EVERY == 0;
        let crash_now = active
            && ps_crashes < CRASH_CAP
            && chaos.crash(FaultSite::PsCrash, b as u64, incarnation);
        let crash_point = if crash_now {
            chaos.pick(FaultSite::PsCrash, b as u64, incarnation + 1, 3)
        } else {
            3 // no crash
        };

        // Crash-point 1 with a checkpoint due: the generation is written
        // but the crash lands before the StreamCheckpoint publish —
        // recovery must come up from the *previous* published pair.
        if due_ckpt && crash_point != 0 {
            generation += 1;
            ps.checkpoint_all_generation(&dfs, generation)?;
            if !(crash_now && crash_point == 1) {
                StreamCheckpoint {
                    generation,
                    batches_done: (b + 1) as u64,
                    events_done: hi as u64,
                    watermark: fx.watermark,
                }
                .write(&dfs, CKPT_PATH, &client)
                .map_err(se)?;
                if generation >= 2 {
                    ps.discard_checkpoint_generation(&dfs, generation - 2);
                }
            }
        }

        if crash_now {
            // Kill every PS server at this instant, restart, and recover:
            // all Consistent objects roll back to the last *published*
            // generation, the ingestor rewinds to its watermark, and the
            // event-log suffix will replay through the main loop.
            let t0 = client.now();
            for s in 0..ps.num_servers() {
                ps.kill_server(s);
            }
            for s in 0..ps.num_servers() {
                ps.restart_server(s, t0);
            }
            let ck = StreamCheckpoint::read(&dfs, CKPT_PATH, &client).map_err(se)?;
            ps.recover_server_from_generation(0, &dfs, &client, ck.generation)?;
            ingestor.reset_for_replay(ck.watermark);
            pr_state.reset_after_recovery();
            cc.restore_from_ps(&client)?;
            pending.retain(|&(bi, _)| bi < ck.batches_done as usize);
            recoveries_inflight.push((t0, b));
            ps_crashes += 1;
            incarnation += 1;
            b = ck.batches_done as usize;
            continue;
        }

        // Delta hot-swap cadence — only effective batches advance it
        // (replayed all-duplicate batches are no-ops), and it is
        // suppressed while a recovery is still replaying (publishing a
        // rolled-back PS would serve time-travel).
        if driver.tick(!fx.effects.is_empty()) && !catching_up {
            if let Some(rec) = driver
                .refresh(
                    &dfs,
                    &client,
                    &mut cluster,
                    &pr_state.ranks,
                    &cc.labels,
                    ingestor.adjacency(),
                    ingestor.watermark(),
                )
                .map_err(se)?
            {
                for (_, wmark) in pending.drain(..) {
                    lags.push(rec.at.saturating_sub(wmark));
                }
                mirror = Mirror::capture(&client, ingestor.adjacency(), &pr, &pr_state, &cc, n)?;
                truth = mirror.truth(n);
            }
        }

        // Interleaved queries, verified bit-for-bit against the swap-time
        // truth. Shed/failed (dead replicas, load) is degraded service;
        // a *wrong* answer is a correctness bug.
        for _ in 0..QUERIES_PER_BATCH {
            let v = rng.next_below(n);
            let at = client.now();
            match rng.next_below(4) {
                // Compound plan leg: an All-source filter → score → top-k
                // pipeline over the published community labels, checked
                // bit-for-bit against the interpreter on the swap-time
                // truth. Faults may shed it; they must not corrupt it.
                3 => {
                    let plan = Plan {
                        source: Source::All,
                        stages: vec![
                            Stage::Filter(Pred::CommunityEq(mirror.labels[v as usize])),
                            Stage::Score(Scorer::Rank),
                            Stage::TopK(8),
                        ],
                    };
                    for (_, outcome) in cluster.frontend_mut().submit_plan(queries, at, &plan)
                    {
                        match outcome {
                            Outcome::Answered { value, .. } => {
                                answered += 1;
                                compound_answered += 1;
                                let ok = match (Interpreter::new(&truth, 1).run(&plan), &value) {
                                    (Ok(PlanOutput::Ranked(want)), Value::Ranked(got)) => {
                                        want.len() == got.len()
                                            && want.iter().zip(got).all(|((wv, ws), (gv, gs))| {
                                                wv == gv && ws.to_bits() == gs.to_bits()
                                            })
                                    }
                                    _ => false,
                                };
                                if !ok {
                                    wrong += 1;
                                }
                            }
                            Outcome::Shed { .. } | Outcome::Failed(_) => unserved += 1,
                        }
                    }
                }
                kind => {
                    let q = match kind {
                        0 => Query::Rank(v),
                        1 => Query::Community(v),
                        _ => Query::Neighbors(v),
                    };
                    for (_, outcome) in cluster.frontend_mut().execute_now(queries, at, q) {
                        match outcome {
                            Outcome::Answered { value, .. } => {
                                answered += 1;
                                if !mirror.answers(&q, &value) {
                                    wrong += 1;
                                }
                            }
                            Outcome::Shed { .. } | Outcome::Failed(_) => unserved += 1,
                        }
                    }
                }
            }
            queries += 1;
        }
        b += 1;
    }

    // Publish the tail so freshness accounting closes out. A `None` here
    // means everything pending was a no-op (nothing dirty since the last
    // swap) — there is nothing to publish, so those batches carry no lag.
    if driver.batches_since_swap() > 0 || !pending.is_empty() {
        if let Some(rec) = driver
            .refresh(
                &dfs,
                &client,
                &mut cluster,
                &pr_state.ranks,
                &cc.labels,
                ingestor.adjacency(),
                ingestor.watermark(),
            )
            .map_err(se)?
        {
            for (_, wmark) in pending.drain(..) {
                lags.push(rec.at.saturating_sub(wmark));
            }
        }
    }

    let print = Fingerprint::capture(
        &client,
        ingestor.adjacency(),
        ingestor.degrees(),
        &pr.ranks(&pr_state, &client)?,
        cc.labels(),
        ingestor.watermark(),
        n,
    )?;
    let freshness_max = lags.iter().copied().max().unwrap_or(SimTime::ZERO);
    Ok(RunResult {
        print,
        outcome: SeedOutcome {
            seed: chaos.seed(),
            faults: chaos.stats(),
            ps_crashes,
            replica_kills,
            transport_retries,
            dup_suppressed: filter.suppressed(),
            corrupt_fallbacks: dfs.corrupt_fallbacks(),
            batches_replayed,
            queries,
            answered,
            compound_answered,
            unserved,
            wrong,
            freshness_max,
            freshness_bound,
            recovery_latencies,
            state_identical: false, // settled by the caller
        },
    })
}

/// Run the soak: one fault-free reference plus one chaos run per seed.
/// `seeds` are the schedule seeds (`ChaosConfig::soak`); pass one seed to
/// replay a single failing schedule.
pub fn run_chaos(scale: f64, total_events: usize, seeds: &[u64]) -> Result<ChaosRepro, CoreError> {
    assert!(!seeds.is_empty(), "chaos soak needs at least one seed");
    let base = Dataset::Ds3.generate(scale).dedup();
    let n = base.num_vertices();
    let drift = DriftRmat {
        num_vertices: n,
        remove_fraction: 0.25,
        seed: 0xC4A05,
        ..DriftRmat::default()
    };
    let mut source = drift.start(base.edges());
    let events: Vec<EdgeEvent> = (0..total_events).map(|_| source.next_event()).collect();

    let reference = run_once(&base, &events, drift.events_per_sec, FaultSchedule::off())?;
    assert_eq!(reference.outcome.wrong, 0, "the fault-free reference must serve correctly");

    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut recovery_sorted = Vec::new();
    for &seed in seeds {
        let run = run_once(
            &base,
            &events,
            drift.events_per_sec,
            FaultSchedule::new(ChaosConfig::soak(seed)),
        )?;
        let mut out = run.outcome;
        out.state_identical = run.print == reference.print;
        recovery_sorted.extend(out.recovery_latencies.iter().copied());
        outcomes.push(out);
    }
    recovery_sorted.sort_unstable();

    Ok(ChaosRepro {
        num_vertices: n,
        base_edges: base.edges().len(),
        events: total_events,
        batches: total_events.div_ceil(BATCH),
        seeds: outcomes,
        recovery_sorted,
    })
}

/// The replay command that reproduces one seed's schedule exactly.
pub fn replay_command(seed: u64, scale: f64, events: usize) -> String {
    format!(
        "cargo run -p psgraph-bench --release --bin repro -- chaos --seed {seed} --scale {scale} --events {events}"
    )
}

/// Write the soak summary (recovery-latency percentiles, fault tallies,
/// per-seed outcomes) to `results/BENCH_chaos.json`.
pub fn write_report(r: &ChaosRepro) -> std::io::Result<std::path::PathBuf> {
    let dir = psgraph_harness::bench::out_dir();
    std::fs::create_dir_all(&dir)?;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let agg = |f: fn(&SeedOutcome) -> u64| -> i64 {
        r.seeds.iter().map(f).sum::<u64>() as i64
    };
    let seeds: Vec<Json> = r
        .seeds
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("seed".into(), Json::Int(s.seed as i64)),
                ("ps_crashes".into(), Json::Int(s.ps_crashes as i64)),
                ("replica_kills".into(), Json::Int(s.replica_kills as i64)),
                ("losses".into(), Json::Int(s.faults.losses as i64)),
                ("duplicates".into(), Json::Int(s.faults.duplicates as i64)),
                ("delays".into(), Json::Int(s.faults.delays as i64)),
                ("corruptions".into(), Json::Int(s.faults.corruptions as i64)),
                ("dup_suppressed".into(), Json::Int(s.dup_suppressed as i64)),
                ("corrupt_fallbacks".into(), Json::Int(s.corrupt_fallbacks as i64)),
                ("batches_replayed".into(), Json::Int(s.batches_replayed as i64)),
                ("wrong".into(), Json::Int(s.wrong as i64)),
                ("unserved".into(), Json::Int(s.unserved as i64)),
                ("compound_answered".into(), Json::Int(s.compound_answered as i64)),
                ("freshness_max_ns".into(), Json::Int(s.freshness_max.as_nanos() as i64)),
                ("state_identical".into(), Json::Bool(s.state_identical)),
                (
                    "recovery_ns".into(),
                    Json::Arr(
                        s.recovery_latencies
                            .iter()
                            .map(|l| Json::Int(l.as_nanos() as i64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let json = Json::Obj(vec![
        ("group".into(), Json::str("chaos")),
        ("unit".into(), Json::str("ns")),
        ("timestamp_unix".into(), Json::Int(ts as i64)),
        ("num_vertices".into(), Json::Int(r.num_vertices as i64)),
        ("events".into(), Json::Int(r.events as i64)),
        ("batches".into(), Json::Int(r.batches as i64)),
        ("seeds".into(), Json::Int(r.seeds.len() as i64)),
        ("wrong_total".into(), Json::Int(r.total_wrong() as i64)),
        (
            "state_mismatches".into(),
            Json::Int(r.mismatched_seeds().len() as i64),
        ),
        ("recoveries".into(), Json::Int(r.recovery_sorted.len() as i64)),
        (
            "recovery_p50_ns".into(),
            Json::Int(r.recovery_percentile(0.50).as_nanos() as i64),
        ),
        (
            "recovery_p99_ns".into(),
            Json::Int(r.recovery_percentile(0.99).as_nanos() as i64),
        ),
        (
            "recovery_max_ns".into(),
            Json::Int(
                r.recovery_sorted.last().copied().unwrap_or(SimTime::ZERO).as_nanos() as i64,
            ),
        ),
        ("ps_crashes_total".into(), Json::Int(agg(|s| s.ps_crashes as u64))),
        ("replica_kills_total".into(), Json::Int(agg(|s| s.replica_kills as u64))),
        ("losses_total".into(), Json::Int(agg(|s| s.faults.losses))),
        ("duplicates_total".into(), Json::Int(agg(|s| s.faults.duplicates))),
        ("delays_total".into(), Json::Int(agg(|s| s.faults.delays))),
        ("corruptions_total".into(), Json::Int(agg(|s| s.faults.corruptions))),
        ("per_seed".into(), Json::Arr(seeds)),
    ]);
    let path = dir.join("BENCH_chaos.json");
    std::fs::write(&path, json.pretty())?;
    Ok(path)
}

/// Render the soak table.
pub fn table(r: &ChaosRepro) -> Table {
    let mut t = Table::new(
        "Chaos soak — loss+dup+delay+crash+corruption over seeded schedules",
        &["measured"],
    );
    let text = |s: String| vec![Cell::Text(s)];
    t.push(Row::new(
        "vertices / base edges",
        text(format!("{} / {}", r.num_vertices, r.base_edges)),
    ));
    t.push(Row::new(
        format!("events per run ({} batches of ≤{BATCH})", r.batches),
        text(r.events.to_string()),
    ));
    t.push(Row::new("fault-schedule seeds", text(r.seeds.len().to_string())));
    let sum = |f: fn(&SeedOutcome) -> u64| r.seeds.iter().map(f).sum::<u64>();
    t.push(Row::new(
        "injected loss / dup / delay / corruption",
        text(format!(
            "{} / {} / {} / {}",
            sum(|s| s.faults.losses),
            sum(|s| s.faults.duplicates),
            sum(|s| s.faults.delays),
            sum(|s| s.faults.corruptions)
        )),
    ));
    t.push(Row::new(
        "PS crash-recoveries / replica kills",
        text(format!(
            "{} / {}",
            sum(|s| s.ps_crashes as u64),
            sum(|s| s.replica_kills as u64)
        )),
    ));
    t.push(Row::new(
        "transport retries / dups absorbed / corrupt reads survived",
        text(format!(
            "{} / {} / {}",
            sum(|s| s.transport_retries),
            sum(|s| s.dup_suppressed),
            sum(|s| s.corrupt_fallbacks)
        )),
    ));
    t.push(Row::new(
        "event-log batches replayed",
        text(sum(|s| s.batches_replayed as u64).to_string()),
    ));
    t.push(Row::new(
        "queries answered / unserved (degraded)",
        text(format!(
            "{} / {}",
            sum(|s| s.answered as u64),
            sum(|s| s.unserved as u64)
        )),
    ));
    t.push(Row::new(
        "compound plans answered (verified vs interpreter)",
        text(sum(|s| s.compound_answered as u64).to_string()),
    ));
    t.push(Row::new("wrong answers", text(r.total_wrong().to_string())));
    t.push(Row::new(
        "final-state mismatches vs fault-free",
        text(r.mismatched_seeds().len().to_string()),
    ));
    t.push(Row::new(
        "recovery latency p50 / p99 / max (simulated)",
        text(format!(
            "{} / {} / {}",
            r.recovery_percentile(0.50),
            r.recovery_percentile(0.99),
            r.recovery_sorted.last().copied().unwrap_or(SimTime::ZERO)
        )),
    ));
    let worst_fresh = r
        .seeds
        .iter()
        .map(|s| s.freshness_max)
        .max()
        .unwrap_or(SimTime::ZERO);
    let bound = r
        .seeds
        .iter()
        .map(|s| s.freshness_bound)
        .max()
        .unwrap_or(SimTime::ZERO);
    t.push(Row::new(
        "freshness lag worst / bound",
        text(format!("{worst_fresh} / {bound}")),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_small_sweep_is_correct_and_bit_identical() {
        let r = run_chaos(0.02, 2_560, &[11, 12, 13]).expect("chaos soak must run");
        assert_eq!(r.total_wrong(), 0, "chaos produced wrong answers");
        assert!(
            r.mismatched_seeds().is_empty(),
            "final PS state diverged for seeds {:?} — replay with e.g. `{}`",
            r.mismatched_seeds(),
            replay_command(r.mismatched_seeds()[0], 0.02, 2_560),
        );
        assert!(
            r.freshness_violations().is_empty(),
            "freshness bound violated for seeds {:?}",
            r.freshness_violations()
        );
        let injected: u64 = r
            .seeds
            .iter()
            .map(|s| s.faults.losses + s.faults.duplicates + s.faults.delays)
            .sum();
        assert!(injected > 0, "the soak schedule must actually inject faults");
        assert!(
            r.seeds.iter().any(|s| s.ps_crashes > 0),
            "at least one seed must exercise PS crash recovery"
        );
        assert!(
            r.seeds.iter().all(|s| s.ps_crashes == 0 || !s.recovery_latencies.is_empty()),
            "every crash must report a recovery latency"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let a = run_chaos(0.02, 1_280, &[7]).expect("run a");
        let b = run_chaos(0.02, 1_280, &[7]).expect("run b");
        let (sa, sb) = (&a.seeds[0], &b.seeds[0]);
        assert_eq!(sa.faults, sb.faults, "fault tallies must replay bit-identically");
        assert_eq!(sa.ps_crashes, sb.ps_crashes);
        assert_eq!(sa.wrong, sb.wrong);
        assert_eq!(sa.recovery_latencies, sb.recovery_latencies);
        assert_eq!(sa.freshness_max, sb.freshness_max);
    }
}
