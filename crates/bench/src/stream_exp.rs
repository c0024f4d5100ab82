//! `repro -- stream`: the streaming-ingestion reproduction — closing the
//! train → serve → refresh loop end to end.
//!
//! Pipeline: bootstrap DS3′ into the mutable ingest state (tombstone
//! neighbor table + degree vector), converge incremental PageRank and
//! connected components, snapshot everything, and load a serving tier
//! (the rig in `stream_state`, shared with `repro -- chaos`).
//! Then a drift-parameterized RMAT source emits timestamped edge
//! add/remove events which are applied in micro-batches:
//!
//! 1. Each batch updates the neighbor table, re-pushes PageRank residuals
//!    and unions / recomputes components. With `--shards N` the batch is
//!    routed across N ingestor shards keyed by edge owner (source-range
//!    tiling) and drained as one logical batch whose watermark is the
//!    min-merge across shards ([`psgraph_stream::ShardedIngestor`]).
//! 2. Every `swap_every_batches` *effective* batches a
//!    [`psgraph_stream::RefreshDriver`] exports a
//!    [`psgraph_ps::snapshot::DeltaWriter`] delta of the dirtied
//!    partitions and hot-swaps it into the live replicas.
//! 3. Queries are interleaved throughout and checked bit-for-bit against
//!    the *swap-time* PS state (the tier serves the last published
//!    snapshot, not the live PS) — `wrong` must be 0.
//! 4. At the end the incremental PageRank is compared against a
//!    from-scratch recompute (L∞ must stay under 1e-6), the component
//!    labels against [`metrics::connected_components`] of the live
//!    edges, and the whole final state (adjacency + degrees + ranks +
//!    labels) is folded into `state_digest` — the digest must be
//!    bit-identical across every shard count.
//!
//! The freshness metric: a micro-batch's lag is the event-time gap
//! between its watermark (latest event it applied) and the watermark of
//! the swap that first published it. With a swap every `K` batches the
//! lag is bounded by the event-time span of `K` batches. All freshness
//! numbers are event-time, so they are identical across shard counts and
//! pool sizes; only the wall-clock rows (events/s, swap cost) vary.

use std::time::Instant;

use psgraph_core::CoreError;
use psgraph_graph::{metrics, Dataset, EdgeList};
use psgraph_net::rpc::NodeId;
use psgraph_ps::SnapshotWriter;
use psgraph_serve::{Query, ServeCluster};
use psgraph_sim::{FaultSchedule, SimTime, SplitMix64};
use psgraph_stream::DriftRmat;

use crate::report::{percentile, Cell, Row, Table};
use crate::stream_state::{Asked, Rig};

/// Events per micro-batch; every ingest mailbox is sized to match, so
/// within a batch no offer is rejected even if all events route to one
/// shard (backpressure is unit-tested in `psgraph-stream`).
const BATCH: usize = 512;

/// Verified queries interleaved after every micro-batch.
const QUERIES_PER_BATCH: usize = 4;

/// Measured streaming results.
#[derive(Debug, Clone)]
pub struct StreamRepro {
    pub num_vertices: u64,
    pub base_edges: usize,
    /// Ingestor shards the stream was routed across.
    pub shards: usize,
    /// Events emitted by the drift source.
    pub events: usize,
    pub batches: usize,
    pub applied_adds: u64,
    pub applied_removes: u64,
    /// At-least-once duplicates (add of a live edge).
    pub skipped_dup_adds: u64,
    /// Removes of absent edges.
    pub skipped_missing_removes: u64,
    pub live_edges: usize,
    /// Delta hot-swaps into the serving tier.
    pub swaps: usize,
    /// Dirty partitions exported across all swaps.
    pub dirty_partitions: usize,
    pub swap_every_batches: usize,
    /// Worst observed effective-batches-until-published; must stay
    /// within the configured swap cadence.
    pub max_batches_to_publish: usize,
    /// Event-time lag from a batch's watermark to its publishing swap.
    pub freshness_p50: SimTime,
    pub freshness_p99: SimTime,
    pub freshness_max: SimTime,
    /// 2× the expected event-time span of one swap interval.
    pub freshness_bound: SimTime,
    pub queries: usize,
    pub answered: usize,
    /// Answers that did not match the swap-time PS state. Must be 0.
    pub wrong: usize,
    /// L∞ between incremental PageRank and a from-scratch recompute.
    pub pr_linf: f64,
    /// Incremental component labels equal the reference labels.
    pub cc_ok: bool,
    pub components: usize,
    /// Event-time high-water mark at the end of the run (min-merged
    /// across shards when sharded).
    pub final_watermark: SimTime,
    /// FNV-1a fold of the final adjacency lists, degree bits, rank bits
    /// and component labels — bit-identical across shard counts.
    pub state_digest: u64,
    /// Wall-clock ingest + maintain + swap throughput.
    pub events_per_sec: f64,
    /// Wall-clock cost of each delta swap, milliseconds.
    pub swap_walls_ms: Vec<f64>,
    /// Wall-clock cost of a full refresh (export every object + cold
    /// load), for comparison.
    pub full_reload_ms: f64,
    /// Per-batch maintainer telemetry from the run's own counters — no
    /// wall-clock column, so it is identical across shard counts.
    pub maintenance: Table,
}

impl StreamRepro {
    fn mean_swap_ms(&self) -> f64 {
        if self.swap_walls_ms.is_empty() {
            0.0
        } else {
            self.swap_walls_ms.iter().sum::<f64>() / self.swap_walls_ms.len() as f64
        }
    }
}

/// Bootstrap DS3′ at `scale`, serve it, then stream `total_events` drift
/// events through micro-batches with periodic delta hot-swaps, the event
/// stream routed across `shards` ingestor shards keyed by edge owner.
/// Every shard count must end with the same `state_digest`.
pub fn run_stream(
    scale: f64,
    total_events: usize,
    shards: usize,
) -> Result<StreamRepro, CoreError> {
    let g = Dataset::Ds3.generate(scale).dedup();
    let n = g.num_vertices();
    let mut rig = Rig::build(&g, shards, BATCH, "/stream/snapshot", &FaultSchedule::off())?;

    // The drifting event source, seeded with the base edge set so
    // removals can name live edges from the start.
    let drift = DriftRmat {
        num_vertices: n,
        remove_fraction: 0.25,
        seed: 0xD51F,
        ..DriftRmat::default()
    };
    let mut source = drift.start(g.edges());
    let expected_interval =
        SimTime::from_secs_f64(rig.swap_every as f64 * BATCH as f64 / drift.events_per_sec);
    let freshness_bound = expected_interval.scale(2.0);

    let mut rng = SplitMix64::new(0xBEEF);
    let mut max_batches_to_publish = 0usize;
    let mut swap_walls_ms: Vec<f64> = Vec::new();
    let mut batches = 0usize;
    let mut effective_batches = 0usize;
    let mut emitted = 0usize;
    let mut maintenance = Table::new(
        "Streaming — per-batch maintainer telemetry (run counters, sim cost model)",
        &[
            "PR rounds",
            "absorbed",
            "cross-part Δ",
            "PS RPCs/round",
            "PS KB/round",
            "CC unions",
            "recomputes",
            "relabeled",
        ],
    );
    // A publish with the swap itself timed (not the truth capture after
    // it); a swap that ran settles how long its oldest batch (pending is
    // in batch order) waited, in effective batches.
    let mut publish = |rig: &mut Rig, effective_batches: usize| -> Result<(), CoreError> {
        let oldest = rig.pending.first().map(|&(bi, _)| bi);
        let t0 = Instant::now();
        if rig.swap()? {
            swap_walls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rig.recapture()?;
            if let Some(bi) = oldest {
                max_batches_to_publish = max_batches_to_publish.max(effective_batches - bi);
            }
        }
        Ok(())
    };

    let ingest_t0 = Instant::now();
    while emitted < total_events {
        let take = BATCH.min(total_events - emitted);
        for _ in 0..take {
            let ev = source.next_event();
            assert!(rig.ingest.offer(NodeId::Driver, ev), "mailboxes sized to the batch");
        }
        emitted += take;

        let (fx, telemetry) = rig.apply()?;
        maintenance.push(Row::new(format!("batch {batches}"), telemetry));
        batches += 1;
        let effective = !fx.effects.is_empty();
        if effective {
            rig.pending.push((effective_batches, fx.watermark));
            effective_batches += 1;
        }
        if rig.driver.tick(effective) {
            publish(&mut rig, effective_batches)?;
        }

        // Interleaved queries, verified against the swap-time truth.
        for _ in 0..QUERIES_PER_BATCH {
            let v = rng.next_below(n);
            let q = match rng.next_below(3) {
                0 => Query::Rank(v),
                1 => Query::Community(v),
                _ => Query::Neighbors(v),
            };
            rig.ask(rig.client.now(), Asked::Query(&q));
        }
    }
    // Publish the tail so the tier ends bit-identical to the PS.
    if rig.driver.batches_since_swap() > 0 {
        publish(&mut rig, effective_batches)?;
    }
    let ingest_wall = ingest_t0.elapsed();
    let events_per_sec = emitted as f64 / ingest_wall.as_secs_f64().max(1e-9);

    // Incremental vs from-scratch: PageRank within 1e-6 L∞, components
    // equal to the reference labels of the live edge set.
    let mut full = rig.pr.create_state(&rig.ps, "stream.fullck", n)?;
    rig.pr.init_full(&mut full, &rig.client, rig.ingest.adjacency())?;
    let inc = rig.pr.ranks(&rig.pr_state, &rig.client)?;
    let fr = rig.pr.ranks(&full, &rig.client)?;
    let pr_linf =
        inc.iter().zip(&fr).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);

    let ids: Vec<u64> = (0..n).collect();
    let lists = rig.ingest.adjacency().pull(&rig.client, &ids)?;
    let mut live = Vec::new();
    for (s, l) in lists.iter().enumerate() {
        for &d in l.iter() {
            live.push((s as u64, d));
        }
    }
    let live_edges = live.len();
    let reference = metrics::connected_components(&EdgeList::new(n, live));
    let cc_ok = rig.cc.labels() == reference.as_slice();
    let components = {
        let mut u = reference;
        u.sort_unstable();
        u.dedup();
        u.len()
    };
    let state_digest = rig.fingerprint()?.digest();

    // Swap cost vs a full refresh of the same final state. Both sides
    // include their export: the delta path exports dirty partitions and
    // installs a patch; the full path re-exports every object and cold
    // loads the tier.
    let reload_t0 = Instant::now();
    let mut fw = SnapshotWriter::new(&rig.dfs, "/stream/full", &rig.client);
    fw.vector_f64(&rig.pr_state.ranks)?;
    fw.vector_u64(&rig.cc.labels)?;
    fw.neighbor_table(rig.ingest.adjacency())?;
    fw.finish()?;
    let reload =
        ServeCluster::load(&rig.dfs, "/stream/full", &rig.objects, &rig.serve, &rig.client)
            .map_err(|e| CoreError::Invalid(format!("stream: {e}")))?;
    let full_reload_ms = reload_t0.elapsed().as_secs_f64() * 1e3;
    drop(reload);

    rig.lags.sort_unstable();
    let stats = rig.ingest.stats();
    Ok(StreamRepro {
        num_vertices: n,
        base_edges: g.edges().len(),
        shards,
        events: emitted,
        batches,
        applied_adds: stats.applied_adds,
        applied_removes: stats.applied_removes,
        skipped_dup_adds: stats.skipped_dup_adds,
        skipped_missing_removes: stats.skipped_missing_removes,
        live_edges,
        swaps: rig.driver.swaps().len(),
        dirty_partitions: rig.driver.swaps().iter().map(|s| s.dirty_partitions).sum(),
        swap_every_batches: rig.swap_every,
        max_batches_to_publish,
        freshness_p50: percentile(&rig.lags, 0.50),
        freshness_p99: percentile(&rig.lags, 0.99),
        freshness_max: rig.lags.last().copied().unwrap_or(SimTime::ZERO),
        freshness_bound,
        queries: rig.tally.queries,
        answered: rig.tally.answered,
        wrong: rig.tally.wrong,
        pr_linf,
        cc_ok,
        components,
        final_watermark: rig.ingest.watermark(),
        state_digest,
        events_per_sec,
        swap_walls_ms,
        full_reload_ms,
        maintenance,
    })
}

/// Render the streaming table.
pub fn table(r: &StreamRepro) -> Table {
    let mut t = Table::new(
        "Streaming — DS3′ base, drift-RMAT events, delta hot-swap refresh",
        &["measured"],
    );
    let text = |s: String| vec![Cell::Text(s)];
    t.push(Row::new("vertices / base edges", text(format!("{} / {}", r.num_vertices, r.base_edges))));
    t.push(Row::new("ingestor shards", text(r.shards.to_string())));
    t.push(Row::new(
        format!("events streamed ({} batches of ≤{BATCH})", r.batches),
        text(r.events.to_string()),
    ));
    t.push(Row::new(
        "applied adds / removes",
        text(format!("{} / {}", r.applied_adds, r.applied_removes)),
    ));
    t.push(Row::new(
        "skipped dup adds / missing removes",
        text(format!("{} / {}", r.skipped_dup_adds, r.skipped_missing_removes)),
    ));
    t.push(Row::new("live edges at end", text(r.live_edges.to_string())));
    t.push(Row::new(
        format!("delta hot-swaps (every {} batches)", r.swap_every_batches),
        text(format!("{} ({} dirty partitions)", r.swaps, r.dirty_partitions)),
    ));
    t.push(Row::new(
        "batches until published (worst)",
        text(r.max_batches_to_publish.to_string()),
    ));
    t.push(Row::new(
        "freshness lag p50 / p99 / max",
        text(format!("{} / {} / {}", r.freshness_p50, r.freshness_p99, r.freshness_max)),
    ));
    t.push(Row::new("freshness bound (2× swap interval)", text(r.freshness_bound.to_string())));
    t.push(Row::new(
        "queries issued / answered",
        text(format!("{} / {}", r.queries, r.answered)),
    ));
    t.push(Row::new("wrong answers", text(r.wrong.to_string())));
    t.push(Row::new("incremental PageRank L∞ vs recompute", text(format!("{:.2e}", r.pr_linf))));
    t.push(Row::new(
        "components (labels match reference)",
        text(format!("{} ({})", r.components, if r.cc_ok { "yes" } else { "NO" })),
    ));
    t.push(Row::new("event-time watermark", text(r.final_watermark.to_string())));
    t.push(Row::new("final state digest", text(format!("{:016x}", r.state_digest))));
    t.push(Row::new("ingest throughput (wall)", text(format!("{:.0} events/s", r.events_per_sec))));
    t.push(Row::new(
        "swap cost (wall, mean) vs full refresh",
        text(format!("{:.2} ms vs {:.2} ms", r.mean_swap_ms(), r.full_reload_ms)),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_repro_stays_fresh_and_correct() {
        let r = run_stream(0.02, 5_000, 1).expect("stream repro must run");
        assert_eq!(r.wrong, 0, "served answers must match the swap-time PS state");
        assert!(r.answered > 0, "queries must be answered");
        assert!(r.swaps >= 2, "expected a scheduled swap plus the tail swap");
        assert!(r.pr_linf < 1e-6, "incremental PageRank drifted: L∞ {}", r.pr_linf);
        assert!(r.cc_ok, "incremental components diverged from the reference");
        assert!(
            r.max_batches_to_publish <= r.swap_every_batches,
            "a batch waited {} batches to publish, cadence is {}",
            r.max_batches_to_publish,
            r.swap_every_batches
        );
        assert!(
            r.freshness_max <= r.freshness_bound,
            "freshness lag {} exceeded bound {}",
            r.freshness_max,
            r.freshness_bound
        );
        assert!(r.applied_removes > 0, "the drift stream must remove edges");
        assert!(
            r.skipped_dup_adds > 0,
            "an RMAT stream must produce at-least-once duplicates"
        );
        assert!(table(&r).to_string().contains("freshness lag"));
    }

    #[test]
    fn sharded_stream_is_bit_identical_to_one_shard() {
        let single = run_stream(0.01, 2_000, 1).expect("reference run");
        let sharded = run_stream(0.01, 2_000, 4).expect("sharded run");
        assert_eq!(
            sharded.state_digest, single.state_digest,
            "sharded final PS state must be bit-identical to the reference"
        );
        assert_eq!(sharded.wrong, 0);
        assert_eq!(sharded.applied_adds, single.applied_adds);
        assert_eq!(sharded.applied_removes, single.applied_removes);
        assert_eq!(sharded.skipped_dup_adds, single.skipped_dup_adds);
        assert_eq!(sharded.skipped_missing_removes, single.skipped_missing_removes);
        assert_eq!(sharded.swaps, single.swaps);
        // Freshness is event-time, so it is shard-count-invariant too.
        assert_eq!(sharded.freshness_p99, single.freshness_p99);
        assert_eq!(sharded.final_watermark, single.final_watermark);
    }
}
