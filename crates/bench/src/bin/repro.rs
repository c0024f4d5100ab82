//! Regenerate every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! cargo run -p psgraph-bench --release --bin repro -- [SECTION] [--scale S] [--queries N] [--events N] [--shards N] [--seeds N] [--seed S] [--threads T]
//! ```
//!
//! `SECTION` is one of `fig6`, `line`, `table1`, `table2`, `ablations`,
//! `serve`, `query`, `stream`, `chaos`, or `all` (the default); anything
//! else prints the usage and exits 2.
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

use psgraph_bench::{
    ablations, chaos_exp, fig6, line_exp, query_exp, serve_exp, stream_exp, table1, table2,
};

/// First seed of the standard chaos sweep; sweep seed `i` is `BASE + i`,
/// so any failure is nameable (and replayable) as a single integer.
const CHAOS_SEED_BASE: u64 = 0xC0FFEE;

struct Args {
    scale: f64,
    queries: usize,
    events: usize,
    events_explicit: bool,
    shards: usize,
    chaos_seeds: usize,
    chaos_seed: Option<u64>,
}

type Section = (&'static str, fn(&Args));

/// Every section, in the order `all` runs them.
const SECTIONS: [Section; 9] = [
    ("fig6", run_fig6),
    ("line", run_line),
    ("table1", run_table1),
    ("table2", run_table2),
    ("ablations", run_ablations),
    ("serve", run_serve),
    ("query", run_query),
    ("stream", run_stream),
    ("chaos", run_chaos),
];

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "repro: {problem}\nusage: repro [{}|all] [--scale S] [--queries N] [--events N] \
         [--shards N] [--seeds N] [--seed S] [--threads T]",
        names.join("|")
    );
    std::process::exit(2)
}

/// The value after `flag`, which must parse and (for the counts and the
/// scale) be positive.
fn value<T: std::str::FromStr + PartialOrd + Default>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> T {
    match it.next().and_then(|s| s.parse::<T>().ok()) {
        Some(v) if v > T::default() => v,
        _ => usage(&format!("{flag} needs a positive number")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all";
    let mut args = Args {
        scale: 0.05,
        queries: 100_000,
        events: 50_000,
        events_explicit: false,
        shards: 1,
        chaos_seeds: 20,
        chaos_seed: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = value(&mut it, a),
            "--queries" => args.queries = value(&mut it, a),
            "--events" => {
                args.events = value(&mut it, a);
                args.events_explicit = true;
            }
            "--shards" => args.shards = value(&mut it, a),
            "--seeds" => args.chaos_seeds = value(&mut it, a),
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(seed) => args.chaos_seed = Some(seed),
                None => usage("--seed needs a schedule seed"),
            },
            "--threads" => {
                let t: usize = value(&mut it, a);
                // Must happen before anything touches Pool::global().
                std::env::set_var("POOL_THREADS", t.to_string());
            }
            name if name == "all" || SECTIONS.iter().any(|(s, _)| *s == name) => which = name,
            other => usage(&format!("unknown section or flag `{other}`")),
        }
    }
    println!("psgraph repro — scale {} (DS1′ = {} vertices / {} edges)\n",
        args.scale,
        psgraph_graph::Dataset::Ds1.spec(args.scale).vertices,
        psgraph_graph::Dataset::Ds1.spec(args.scale).edges);

    for (name, section) in SECTIONS {
        if which == "all" || which == name {
            let t0 = std::time::Instant::now();
            section(&args);
            println!("({name} wall clock: {:?})\n", t0.elapsed());
        }
    }
}

fn run_fig6(a: &Args) {
    let cells = fig6::run_fig6(a.scale).expect("fig6");
    println!("{}", fig6::table(&cells));
    println!("{}", fig6::digest_line(&cells));
    println!("{}", fig6::sim_digest_line(&cells));
}

fn run_line(a: &Args) {
    let r = line_exp::run_line(a.scale).expect("line");
    println!("{}", line_exp::table(&r));
}

fn run_table1(a: &Args) {
    let r = table1::run_table1(a.scale).expect("table1");
    println!("{}", table1::table(&r));
}

fn run_table2(a: &Args) {
    let r = table2::run_table2(a.scale).expect("table2");
    println!("{}", table2::table(&r));
}

fn run_ablations(a: &Args) {
    let rows = ablations::run(a.scale).expect("ablations");
    println!("{}", ablations::table(&rows));
    for r in &rows {
        assert!(r.holds(), "ablation inverted — {}: {} vs {}", r.what, r.design, r.baseline);
    }
}

fn run_serve(a: &Args) {
    let r = serve_exp::run_serve(a.scale, a.queries).expect("serve");
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
}

fn run_query(a: &Args) {
    let r = query_exp::run_query(a.scale, a.queries).expect("query");
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
}

fn run_stream(a: &Args) {
    let r = stream_exp::run_stream(a.scale, a.events, a.shards).expect("stream");
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
}

fn run_chaos(a: &Args) {
    // A full event stream per seeded run is overkill for fault
    // coverage; soak a shorter stream per schedule unless the caller
    // sized it explicitly.
    let chaos_events = if a.events_explicit { a.events } else { 12_000.min(a.events) };
    let seeds: Vec<u64> = match a.chaos_seed {
        Some(s) => vec![s],
        None => (0..a.chaos_seeds as u64).map(|i| CHAOS_SEED_BASE + i).collect(),
    };
    let r = chaos_exp::run_chaos(a.scale, chaos_events, &seeds).expect("chaos");
    println!("{}", chaos_exp::table(&r));
    println!("{}", chaos_exp::seed_table(&r));
    let replay = |seed: u64| chaos_exp::replay_command(seed, a.scale, chaos_events);
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
    let crashes: usize = r.seeds.iter().map(|s| s.ps_crashes).sum();
    assert!(crashes > 0, "the sweep never drew a PS crash — widen the seed set");
    assert_eq!(
        r.recovery_sorted.len(),
        crashes,
        "a PS crash never reported its recovery latency"
    );
    assert!(
        r.seeds.iter().any(|s| s.compound_answered > 0),
        "the soak never served a compound plan — widen the query mix"
    );
}
