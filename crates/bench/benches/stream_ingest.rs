//! Streaming ingest bench: drift-RMAT edge events through micro-batch
//! ingestion, incremental PageRank/CC maintenance, and periodic delta
//! hot-swaps into a live serving tier — swept across owner-keyed
//! ingestor shard counts (1/2/4/8).
//!
//! Recorded samples are the wall-clock cost of each delta hot-swap (from
//! the one-shard run); per shard count the metrics carry
//! ingest throughput, event-time freshness lag (p50/p99 — event-time, so
//! shard-count-invariant by construction) and the final-state digest,
//! which every shard count must reproduce bit-identically. The
//! throughput-scaling assertion only fires on hosts with >= 8 cores
//! (sharding parallelizes mirror planning and partition writes; on a
//! smaller runner the sweep still proves correctness, not speed, and
//! prints an explicit `SKIPPED (host_cores=N)` line). Output lands in
//! `results/BENCH_stream.json`.

use psgraph_bench::stream_exp;
use psgraph_harness::bench::{BenchmarkId, Harness};
use std::time::Duration;

fn stream_ingest(c: &mut Harness) {
    let fast = std::env::var("PSGRAPH_BENCH_FAST").is_ok_and(|v| v != "0");
    let events = if fast { 6_000 } else { 25_000 };
    let mut group = c.benchmark_group("stream");

    let mut reference_digest = None;
    let mut throughputs: Vec<(usize, f64)> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let r = stream_exp::run_stream(0.02, events, shards).expect("stream repro");
        assert_eq!(r.wrong, 0, "served answers must match the swap-time PS state");
        assert!(r.cc_ok && r.pr_linf < 1e-6, "incremental maintainers drifted");
        let reference = *reference_digest.get_or_insert(r.state_digest);
        assert_eq!(
            r.state_digest, reference,
            "final PS state at {shards} shards diverged from the one-shard run"
        );

        if shards == 1 {
            let samples: Vec<Duration> = r
                .swap_walls_ms
                .iter()
                .map(|ms| Duration::from_secs_f64(ms / 1e3))
                .collect();
            group.bench_recorded(BenchmarkId::new("swap_wall", "delta"), &samples);
            group
                .metric("events", r.events as f64)
                .metric("batches", r.batches as f64)
                .metric("swaps", r.swaps as f64)
                .metric("dirty_partitions", r.dirty_partitions as f64)
                .metric("skipped_dup_adds", r.skipped_dup_adds as f64)
                .metric("skipped_missing_removes", r.skipped_missing_removes as f64)
                .metric("freshness_p50_ms", r.freshness_p50.as_secs_f64() * 1e3)
                .metric("freshness_p99_ms", r.freshness_p99.as_secs_f64() * 1e3)
                .metric("freshness_max_ms", r.freshness_max.as_secs_f64() * 1e3)
                .metric("swap_wall_mean_ms", r.mean_swap_ms())
                .metric("full_reload_ms", r.full_reload_ms)
                .metric("pr_linf", r.pr_linf)
                .metric("queries_answered", r.answered as f64);
        }
        group
            .metric(format!("events_per_sec_shards{shards}"), r.events_per_sec)
            .metric(
                format!("freshness_p99_ms_shards{shards}"),
                r.freshness_p99.as_secs_f64() * 1e3,
            )
            .metric(
                format!("freshness_p50_ms_shards{shards}"),
                r.freshness_p50.as_secs_f64() * 1e3,
            );
        throughputs.push((shards, r.events_per_sec));
        eprintln!(
            "[sim] stream shards={shards}: {:.0} events/s, {} swaps, freshness p99 {}, digest {:016x}",
            r.events_per_sec, r.swaps, r.freshness_p99, r.state_digest,
        );
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    group.metric("host_cores", host as f64);
    let (_, at8) = *throughputs.last().unwrap();
    if host >= 8 && !fast {
        assert!(
            at8 >= 100_000.0,
            "expected >=100k events/s at 8 shards on an 8-core host, got {at8:.0}"
        );
    } else {
        eprintln!(
            "[sim] stream >=100k events/s at 8 shards: SKIPPED (host_cores={host}, fast={fast}); measured {at8:.0} events/s"
        );
    }
    group.finish();
}

psgraph_harness::bench_main!(stream_ingest);
