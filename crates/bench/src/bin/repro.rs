//! Regenerate every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! cargo run -p psgraph-bench --release --bin repro -- [fig6|line|table1|table2|serve|stream|chaos|all] [--scale S] [--queries N] [--events N] [--shards N] [--seeds N] [--seed S] [--threads T]
//! ```
//!
//! Default scale is 0.05 (DS1′ = 10 k vertices / 137.5 k edges). Budgets
//! scale with the datasets per `deploy::ScaleRule`; reported times are
//! *simulated* cluster time (see DESIGN.md §2 "Simulated time").
//! `--queries` sizes the `serve` stream (default 100 000); `--events`
//! sizes the `stream` edge-event stream (default 50 000; the chaos soak
//! defaults to 12 000 per run unless `--events` is given explicitly);
//! `--shards` routes the stream across N owner-keyed ingestor shards
//! (default 1; the printed state digest is the same at every N, which
//! `scripts/ci.sh` checks by diffing the `--shards 1` and `--shards 4`
//! outputs);
//! `--seeds` sizes the chaos fault-schedule sweep (default 20) and
//! `--seed` replays exactly one failing schedule; `--threads` sizes the
//! global thread pool (default: host parallelism; the simulated
//! times are thread-count-invariant, only wall clock changes).

use psgraph_bench::{chaos_exp, fig6, line_exp, query_exp, serve_exp, stream_exp, table1, table2};

/// First seed of the standard chaos sweep; sweep seed `i` is `BASE + i`,
/// so any failure is nameable (and replayable) as a single integer.
const CHAOS_SEED_BASE: u64 = 0xC0FFEE;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = 0.05f64;
    let mut queries = 100_000usize;
    let mut events = 50_000usize;
    let mut events_explicit = false;
    let mut shards = 1usize;
    let mut chaos_seeds = 20usize;
    let mut chaos_seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "--queries" => {
                queries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--queries needs a count");
            }
            "--events" => {
                events = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--events needs a count");
                events_explicit = true;
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--shards needs a count");
                assert!(shards > 0, "--shards must be positive");
            }
            "--seeds" => {
                chaos_seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds needs a count");
                assert!(chaos_seeds > 0, "--seeds must be positive");
            }
            "--seed" => {
                chaos_seed = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs a schedule seed"),
                );
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threads needs a count");
                assert!(t > 0, "--threads must be positive");
                // Must happen before anything touches Pool::global().
                std::env::set_var("POOL_THREADS", t.to_string());
            }
            other => which = other.to_string(),
        }
    }
    assert!(scale > 0.0, "scale must be positive");
    assert!(queries > 0, "queries must be positive");
    assert!(events > 0, "events must be positive");
    println!("psgraph repro — scale {scale} (DS1′ = {} vertices / {} edges)\n",
        psgraph_graph::Dataset::Ds1.spec(scale).vertices,
        psgraph_graph::Dataset::Ds1.spec(scale).edges);

    let do_all = which == "all";
    if do_all || which == "fig6" {
        let t0 = std::time::Instant::now();
        let cells = fig6::run_fig6(scale).expect("fig6");
        println!("{}", fig6::table(&cells));
        println!("{}", fig6::digest_line(&cells));
        println!("(fig6 wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "line" {
        let t0 = std::time::Instant::now();
        let r = line_exp::run_line(scale).expect("line");
        println!("{}", line_exp::table(&r));
        println!("(line wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "table1" {
        let t0 = std::time::Instant::now();
        let r = table1::run_table1(scale).expect("table1");
        println!("{}", table1::table(&r));
        println!("(table1 wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "table2" {
        let t0 = std::time::Instant::now();
        let r = table2::run_table2(scale).expect("table2");
        println!("{}", table2::table(&r));
        println!("(table2 wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "serve" {
        let t0 = std::time::Instant::now();
        let r = serve_exp::run_serve(scale, queries).expect("serve");
        println!("{}", serve_exp::table(&r));
        assert_eq!(r.wrong, 0, "serving returned wrong answers");
        assert_eq!(r.stale, 0, "stale cached answers survived the hot-swap");
        assert!(
            r.rejoined_at > psgraph_sim::SimTime::ZERO,
            "the killed replica never rejoined"
        );
        assert_eq!(r.live_replicas, 4, "a replica was still down at the end");
        assert!(
            r.p99_post_rejoin <= r.p99_pre_kill.scale(2.0),
            "p99 after rejoin ({}) did not recover to within 2x of pre-kill ({})",
            r.p99_post_rejoin,
            r.p99_pre_kill
        );
        println!("(serve wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "query" {
        let t0 = std::time::Instant::now();
        let r = query_exp::run_query(scale, queries).expect("query");
        println!("{}", query_exp::table(&r));
        assert_eq!(r.wrong, 0, "a served plan or query diverged from the interpreter");
        assert!(r.plans_answered > 0, "the mixed workload answered no compound plans");
        assert!(
            r.auto.counters.pushed_plans > 0,
            "the cost-based planner never pushed a stage prefix"
        );
        assert!(
            r.auto.counters.shard_bytes < r.frontend_only.counters.shard_bytes,
            "pushdown must move strictly fewer shard→frontend bytes ({} vs {})",
            r.auto.counters.shard_bytes,
            r.frontend_only.counters.shard_bytes
        );
        match query_exp::write_report(&r) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write BENCH_query.json: {e}"),
        }
        println!("(query wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "stream" {
        let t0 = std::time::Instant::now();
        let r = stream_exp::run_stream(scale, events, shards).expect("stream");
        println!("{}", stream_exp::table(&r));
        println!("{}", r.maintenance);
        assert_eq!(r.wrong, 0, "served answers diverged from the swap-time PS state");
        assert!(r.swaps >= 1, "at least one delta hot-swap must run");
        assert!(
            r.pr_linf < 1e-6,
            "incremental PageRank drifted from a full recompute: L∞ {}",
            r.pr_linf
        );
        assert!(r.cc_ok, "incremental components diverged from the reference");
        assert!(
            r.max_batches_to_publish <= r.swap_every_batches,
            "a micro-batch waited {} batches to publish, cadence is {}",
            r.max_batches_to_publish,
            r.swap_every_batches
        );
        assert!(
            r.freshness_max <= r.freshness_bound,
            "freshness lag {} exceeded the swap-interval bound {}",
            r.freshness_max,
            r.freshness_bound
        );
        println!("(stream wall clock: {:?})\n", t0.elapsed());
    }
    if do_all || which == "chaos" {
        let t0 = std::time::Instant::now();
        // A full event stream per seeded run is overkill for fault
        // coverage; soak a shorter stream per schedule unless the caller
        // sized it explicitly.
        let chaos_events = if events_explicit { events } else { 12_000.min(events) };
        let seeds: Vec<u64> = match chaos_seed {
            Some(s) => vec![s],
            None => (0..chaos_seeds as u64).map(|i| CHAOS_SEED_BASE + i).collect(),
        };
        let r = chaos_exp::run_chaos(scale, chaos_events, &seeds).expect("chaos");
        println!("{}", chaos_exp::table(&r));
        match chaos_exp::write_report(&r) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write BENCH_chaos.json: {e}"),
        }
        let replay = |seed: u64| chaos_exp::replay_command(seed, scale, chaos_events);
        if let Some(bad) = r.seeds.iter().find(|s| s.wrong > 0) {
            panic!(
                "chaos seed {} served {} wrong answers — replay with:\n  {}",
                bad.seed,
                bad.wrong,
                replay(bad.seed)
            );
        }
        if let Some(&seed) = r.mismatched_seeds().first() {
            panic!(
                "chaos seed {seed} ended with PS state diverging from the fault-free run — replay with:\n  {}",
                replay(seed)
            );
        }
        if let Some(&seed) = r.freshness_violations().first() {
            panic!(
                "chaos seed {seed} exceeded the freshness bound — replay with:\n  {}",
                replay(seed)
            );
        }
        assert!(
            r.seeds.iter().any(|s| s.ps_crashes > 0),
            "the sweep never drew a PS crash — widen the seed set"
        );
        assert!(
            r.seeds.iter().any(|s| s.compound_answered > 0),
            "the soak never served a compound plan — widen the query mix"
        );
        println!("(chaos wall clock: {:?})\n", t0.elapsed());
    }
}
