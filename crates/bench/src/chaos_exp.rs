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
//!   [`psgraph_stream::ShardedIngestor`], one owner-keyed writer per
//!   source range) and
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
//! the fault-free reference. Recovery latency percentiles are a row of
//! the summary table; a second table has one row per seed. Any failure is
//! reproducible from its printed seed alone: `repro -- chaos --seed <S>`
//! replays just that schedule.

use psgraph_core::CoreError;
use psgraph_graph::Dataset;
use psgraph_net::rpc::{NodeId, ServicePort};
use psgraph_net::{IdempotencyFilter, RetryPolicy};
use psgraph_serve::{Plan, Pred, Query, Scorer, Source, Stage};
use psgraph_sim::{ChaosConfig, FaultSchedule, FaultSite, FaultStats, SimTime, SplitMix64};
use psgraph_stream::{DriftRmat, EdgeEvent, EventLog, StreamCheckpoint};

use crate::report::{percentile, Cell, Row, Table};
use crate::stream_state::{Asked, Fingerprint, Rig};

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
    fn total_wrong(&self) -> usize {
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
    let active = chaos.is_active();
    let mut rig = Rig::build(base, SHARDS, BATCH, "/chaos/snapshot", &chaos)?;

    // Durable stream: the event log and the initial checkpoint pair, so a
    // crash at *any* later point has something published to roll back to.
    EventLog::write(&rig.dfs, LOG_PATH, events, &rig.client).map_err(se)?;
    let mut generation = 0u64;
    rig.ps.checkpoint_all_generation(&rig.dfs, generation)?;
    StreamCheckpoint {
        generation,
        batches_done: 0,
        events_done: 0,
        watermark: rig.ingest.watermark(),
    }
    .write(&rig.dfs, CKPT_PATH, &rig.client)
    .map_err(se)?;

    let nbatches = events.len().div_ceil(BATCH);
    let transport_port = ServicePort::new(NodeId::Executor(0));
    let policy = RetryPolicy::default();
    let filter = IdempotencyFilter::new();
    let num_replicas = rig.cluster.replicas().len();

    // The freshness bound scales with the injected crash budget: each
    // crash can wipe (and replay) up to a checkpoint interval of batches
    // and suppress publishing while catching up.
    let span = |batches: usize| {
        SimTime::from_secs_f64(batches as f64 * BATCH as f64 / events_per_sec)
    };
    let crash_budget = if active { CRASH_CAP } else { 0 };
    let freshness_bound = span(2 * rig.swap_every + crash_budget * (CKPT_EVERY + rig.swap_every))
        + SimTime::from_secs(5).scale(crash_budget as f64);

    let mut rng = SplitMix64::new(0x50AC ^ chaos.seed());
    let mut compound_answered = 0usize;
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
                    evs.iter().copied().filter(|e| rig.ingest.owner(e) == shard).collect();
                if lane.is_empty() {
                    continue;
                }
                let key = (incarnation << 40) | ((b * SHARDS + shard) as u64);
                let ing = &mut rig.ingest;
                let receipt = rig
                    .ps
                    .network()
                    .send_reliable(
                        &rig.client,
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
                assert!(rig.ingest.offer(NodeId::Driver, *ev), "mailboxes sized to the batch");
            }
        }

        // Apply + maintain: one logical micro-batch drained across all
        // shards, effects merged source-sorted, applied in arrival order.
        let (fx, _) = rig.apply()?;
        rig.pending.push((b, fx.watermark));
        if b < high_water {
            batches_replayed += 1;
        }
        recoveries_inflight.retain(|&(t0, target)| {
            if b >= target {
                recovery_latencies.push(rig.client.now().saturating_sub(t0));
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
                    rig.cluster.revive_replica(id);
                    false
                } else {
                    true
                }
            });
            if chaos.crash(FaultSite::ReplicaCrash, b as u64, 0) {
                let victim = chaos.pick(FaultSite::ReplicaCrash, b as u64, 1, num_replicas);
                if rig.cluster.kill_replica(victim) {
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
            rig.ps.checkpoint_all_generation(&rig.dfs, generation)?;
            if !(crash_now && crash_point == 1) {
                StreamCheckpoint {
                    generation,
                    batches_done: (b + 1) as u64,
                    events_done: hi as u64,
                    watermark: fx.watermark,
                }
                .write(&rig.dfs, CKPT_PATH, &rig.client)
                .map_err(se)?;
                if generation >= 2 {
                    rig.ps.discard_checkpoint_generation(&rig.dfs, generation - 2);
                }
            }
        }

        if crash_now {
            // Kill every PS server at this instant, restart, and recover:
            // all Consistent objects roll back to the last *published*
            // generation, the ingestor rewinds to its watermark, and the
            // event-log suffix will replay through the main loop.
            let t0 = rig.client.now();
            for s in 0..rig.ps.num_servers() {
                rig.ps.kill_server(s);
            }
            for s in 0..rig.ps.num_servers() {
                rig.ps.restart_server(s, t0);
            }
            let ck = StreamCheckpoint::read(&rig.dfs, CKPT_PATH, &rig.client).map_err(se)?;
            rig.ps.recover_server_from_generation(0, &rig.dfs, &rig.client, ck.generation)?;
            rig.ingest.reset_for_replay(ck.watermark);
            rig.pr_state.reset_after_recovery();
            rig.cc.restore_from_ps(&rig.client)?;
            rig.pending.retain(|&(bi, _)| bi < ck.batches_done as usize);
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
        if rig.driver.tick(!fx.effects.is_empty()) && !catching_up {
            rig.publish()?;
        }

        // Interleaved queries, verified bit-for-bit against the swap-time
        // truth. Shed/failed (dead replicas, load) is degraded service;
        // a *wrong* answer is a correctness bug.
        for _ in 0..QUERIES_PER_BATCH {
            let v = rng.next_below(n);
            let at = rig.client.now();
            match rng.next_below(4) {
                // Compound plan leg: an All-source filter → score → top-k
                // pipeline over the published community labels, checked
                // bit-for-bit against the interpreter on the swap-time
                // truth. Faults may shed it; they must not corrupt it.
                3 => {
                    let labels = rig.truth.communities.as_ref().expect("the rig publishes labels");
                    let plan = Plan {
                        source: Source::All,
                        stages: vec![
                            Stage::Filter(Pred::CommunityEq(labels[v as usize])),
                            Stage::Score(Scorer::Rank),
                            Stage::TopK(8),
                        ],
                    };
                    compound_answered += rig.ask(at, Asked::Plan(&plan));
                }
                kind => {
                    let q = match kind {
                        0 => Query::Rank(v),
                        1 => Query::Community(v),
                        _ => Query::Neighbors(v),
                    };
                    rig.ask(at, Asked::Query(&q));
                }
            }
        }
        b += 1;
    }
    // A crash after the last batch's checkpoint has no later batch to
    // settle it at: the restart + restore is charged and nothing is left
    // to replay, so the recovery ends here.
    let now = rig.client.now();
    recovery_latencies.extend(recoveries_inflight.iter().map(|&(t0, _)| now.saturating_sub(t0)));

    // Publish the tail so freshness accounting closes out. Nothing
    // published means everything pending was a no-op (nothing dirty since
    // the last swap), so those batches carry no lag.
    if rig.driver.batches_since_swap() > 0 || !rig.pending.is_empty() {
        rig.swap()?;
    }

    let print = rig.fingerprint()?;
    let freshness_max = rig.lags.iter().copied().max().unwrap_or(SimTime::ZERO);
    Ok(RunResult {
        print,
        outcome: SeedOutcome {
            seed: chaos.seed(),
            faults: chaos.stats(),
            ps_crashes,
            replica_kills,
            transport_retries,
            dup_suppressed: filter.suppressed(),
            corrupt_fallbacks: rig.dfs.corrupt_fallbacks(),
            batches_replayed,
            answered: rig.tally.answered,
            compound_answered,
            unserved: rig.tally.unserved,
            wrong: rig.tally.wrong,
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
            percentile(&r.recovery_sorted, 0.50),
            percentile(&r.recovery_sorted, 0.99),
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

/// One row per seed — what its schedule injected and what that cost; the
/// summary table's rows are sums and maxima over these.
pub fn seed_table(r: &ChaosRepro) -> Table {
    let columns = |s: &SeedOutcome| {
        let f = &s.faults;
        let recoveries: Vec<String> = s.recovery_latencies.iter().map(|l| l.to_string()).collect();
        [
            (
                "loss/dup/delay/corrupt",
                format!("{}/{}/{}/{}", f.losses, f.duplicates, f.delays, f.corruptions),
            ),
            ("PS crashes", s.ps_crashes.to_string()),
            ("replica kills", s.replica_kills.to_string()),
            ("dups absorbed", s.dup_suppressed.to_string()),
            ("corrupt reads", s.corrupt_fallbacks.to_string()),
            ("replayed", s.batches_replayed.to_string()),
            ("answered/unserved", format!("{}/{}", s.answered, s.unserved)),
            ("compound", s.compound_answered.to_string()),
            ("wrong", s.wrong.to_string()),
            ("freshness max", s.freshness_max.to_string()),
            (
                "recovery latencies (simulated)",
                if recoveries.is_empty() { "—".into() } else { recoveries.join(", ") },
            ),
            ("final state", if s.state_identical { "identical" } else { "DIVERGED" }.into()),
        ]
    };
    let headers = columns(&r.seeds[0]).map(|(name, _)| name);
    let mut t =
        Table::new("Chaos soak — per seed (replay one with `repro -- chaos --seed S`)", &headers);
    for s in &r.seeds {
        let cells = columns(s).into_iter().map(|(_, value)| Cell::Text(value)).collect();
        t.push(Row::new(format!("seed {}", s.seed), cells));
    }
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
        assert_eq!(
            r.recovery_sorted.len(),
            r.seeds.iter().map(|s| s.ps_crashes).sum::<usize>(),
            "every crash must report a recovery latency"
        );
        assert_eq!(seed_table(&r).rows.len(), 3);
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
