//! psgraph benchmark: four seeded workloads over the train → serve → stream
//! loop, end-to-end metrics on two named clocks, per-layer attribution
//! measured from outside the program. See `README.md`.
//!
//! ```text
//! psgraph-benchmark --workload W|all [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! psgraph-benchmark compare A.json B.json
//! psgraph-benchmark print-contract
//! psgraph-benchmark check-contract BENCHMARK.json [RESULT.json]
//! ```
//!
//! With `--trace 0|1` (the driver's protocol) nothing is written to disk;
//! the last line of standard output is one JSON object with the
//! end-to-end (`0`) or per-layer (`1`) metrics. Without `--trace` both
//! sets are measured and printed, and `<out>/<workload>.json` plus
//! `<out>/trace-<workload>.json` are written.

mod compare;
mod gen;
mod hostspeed;
mod json;
mod metrics;
mod runner;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{per_layer_decl, END_TO_END, PER_LAYER, WORKLOADS};
use runner::{Mode, Opts, RunResult};

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 16;

struct Cli {
    workload: String,
    opts: Opts,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        opts: Opts {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            mode: Mode::Both,
            smoke: false,
        },
        out: PathBuf::from("benchmark/results/latest"),
    };
    let mut out_given = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cli.workload = value("a workload name or 'all'")?,
            "--seed" => {
                cli.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cli.opts.mode = match value("0 or 1")?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => cli.opts.smoke = true,
            "--out" => {
                cli.out = PathBuf::from(value("a directory")?);
                out_given = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.iter().any(|w| w.0 == cli.workload) {
        return Err(format!("unknown workload {}", cli.workload));
    }
    if cli.opts.seconds.is_nan() || cli.opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Smoke results never land in benchmark/results/: they go next to the
    // build output unless --out says otherwise.
    if cli.opts.smoke && !out_given {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        cli.out = Path::new(&target).join("smoke");
    }
    Ok(cli)
}

fn run_workload(name: &str, opts: &Opts) -> sut::Res<RunResult> {
    use workloads::{
        gnn_epoch::GnnEpoch, serve_ladder::ServeLadder, stream_refresh::StreamRefresh,
        tg_batch::TgBatch,
    };
    match name {
        "tg_batch" => runner::run::<TgBatch>(opts),
        "gnn_epoch" => runner::run::<GnnEpoch>(opts),
        "serve_ladder" => runner::run::<ServeLadder>(opts),
        "stream_refresh" => runner::run::<StreamRefresh>(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn stamp(opts: &Opts) -> Json {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let git_rev = match rev {
        Some(r) if dirty => format!("{r}+dirty"),
        Some(r) => r,
        None => "unknown".into(),
    };
    Json::obj([
        ("git_rev", Json::Str(git_rev)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::Num(runner::nproc() as f64)),
        ("pool_threads", Json::Num(runner::nproc() as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ])
}

fn workload_json(r: &RunResult) -> Json {
    let e2e = r.end_to_end.iter().zip(END_TO_END).map(|((name, s), d)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(d.unit)),
                ("clock", Json::str(d.clock.label())),
                ("better", Json::str(d.better.label())),
                ("bound", Json::Num(d.bound)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
            ]),
        )
    });
    let layers = r.per_layer.0.iter().map(|(name, v)| {
        let d = per_layer_decl(name).expect("declared");
        (
            *name,
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::str(d.unit)),
                ("clock", Json::str(d.clock.label())),
            ]),
        )
    });
    let checks = r.checks.iter().map(|c| {
        Json::obj([
            ("name", Json::str(&c.name)),
            ("ok", Json::Bool(c.ok)),
            ("detail", Json::str(&c.detail)),
        ])
    });
    Json::obj([
        (
            "input_digest",
            Json::Str(format!("{:016x}", r.input_digest)),
        ),
        ("host_passes", Json::Num(r.host_passes as f64)),
        ("traced_passes", Json::Num(r.traced_passes as f64)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("end_to_end", Json::obj(e2e)),
        ("per_layer", Json::obj(layers)),
        ("checks", Json::Arr(checks.collect())),
    ])
}

/// The driver's result line.
fn result_line(r: &RunResult, mode: Mode) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if mode != Mode::PerLayer {
        for ((name, s), d) in r.end_to_end.iter().zip(END_TO_END) {
            metrics.push((name.to_string(), metric(s.median, d.unit)));
        }
    }
    if mode != Mode::EndToEnd {
        for d in PER_LAYER {
            metrics.push((
                d.name.into(),
                metric(r.per_layer.get(d.name).unwrap_or(0.0), d.unit),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_report(r: &RunResult, mode: Mode) {
    println!(
        "== {}  seed {}  inputs {:016x}  nproc {}  host passes {}  traced passes {}",
        r.workload, r.seed, r.input_digest, r.nproc, r.host_passes, r.traced_passes
    );
    if mode != Mode::PerLayer {
        println!("-- end to end");
        for ((name, s), d) in r.end_to_end.iter().zip(END_TO_END) {
            println!(
                "{:<34} {:>16.6} {:<6} [{}] {} is better, bound {:.0}%  (q1 {:.6}, q3 {:.6}, n {})",
                name,
                s.median,
                d.unit,
                d.clock.label(),
                d.better.label(),
                d.bound * 100.0,
                s.q1,
                s.q3,
                s.n
            );
        }
    }
    if mode != Mode::EndToEnd {
        println!("-- per layer (0 = layer not exercised by this workload)");
        for d in PER_LAYER {
            let v = r.per_layer.get(d.name).unwrap_or(0.0);
            println!(
                "{:<40} {:>18.6} {:<7} [{}]",
                d.name,
                v,
                d.unit,
                d.clock.label()
            );
        }
    }
    println!(
        "-- checks ({} attempted operations, {} failed)",
        r.attempted, r.failed
    );
    // Passing checks repeated by every host pass are left out.
    for c in &r.checks {
        let repeated = ["host:", "traced:", "warm-up:"]
            .iter()
            .any(|p| c.name.starts_with(p));
        if !c.ok || !repeated {
            println!(
                "{} {} — {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let r = run_workload(&cli.workload, &cli.opts)?;
    print_report(&r, cli.opts.mode);
    if cli.opts.mode == Mode::Both {
        let doc = Json::obj([
            ("stamp", stamp(&cli.opts)),
            ("workloads", Json::obj([(r.workload, workload_json(&r))])),
        ]);
        write_file(&cli.out.join(format!("{}.json", r.workload)), &doc.pretty())?;
        if let Some(trace) = &r.trace {
            write_file(
                &cli.out.join(format!("trace-{}.json", r.workload)),
                &trace.pretty(),
            )?;
        }
    }
    println!("{}", result_line(&r, cli.opts.mode).compact());
    Ok(r.correct())
}

/// `--workload all`: one child process per workload (so `peak_rss_mb` is
/// each workload's own), then one merged result file.
fn run_all(cli: &Cli, args: &[String]) -> Result<bool, String> {
    if cli.opts.mode != Mode::Both {
        return Err("--trace needs a single --workload".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passthrough: Vec<&String> = {
        let mut keep = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" || a == "--out" {
                it.next();
            } else {
                keep.push(a);
            }
        }
        keep
    };
    let mut all_ok = true;
    let mut merged: Vec<(String, Json)> = Vec::new();
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--out"])
            .arg(&cli.out)
            .args(&passthrough)
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        all_ok &= status.success();
        let path = cli.out.join(format!("{name}.json"));
        let doc = Json::read_file(&path.to_string_lossy())?;
        let w = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or("child wrote no result")?;
        merged.push((name.to_string(), w.clone()));
        // run.json carries it from here on.
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let doc = Json::obj([
        ("stamp", stamp(&cli.opts)),
        ("workloads", Json::Obj(merged)),
    ]);
    let path = cli.out.join("run.json");
    write_file(&path, &doc.pretty())?;
    println!("merged results: {}", path.display());
    Ok(all_ok)
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs`.
fn contract() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better.label())),
                            ("bound", Json::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The declared contract must equal the tables in `metrics.rs`, and a
/// result file (if given) must report exactly the declared names.
fn check_contract(paths: &[String]) -> Result<(), String> {
    let [contract_path, results @ ..] = paths else {
        return Err("check-contract needs BENCHMARK.json".into());
    };
    if Json::read_file(contract_path)? != contract() {
        return Err(format!(
            "{contract_path} differs from `print-contract`; regenerate it"
        ));
    }
    for path in results {
        let doc = Json::read_file(path)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no workloads in result")?;
        let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
        if !names.iter().all(|n| WORKLOADS.iter().any(|w| w.0 == *n)) {
            return Err(format!("{path}: undeclared workload among {names:?}"));
        }
        for (name, w) in workloads {
            for (section, declared) in [
                (
                    "end_to_end",
                    END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>(),
                ),
                (
                    "per_layer",
                    PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(),
                ),
            ] {
                let mut got: Vec<&str> = w
                    .get(section)
                    .and_then(Json::as_obj)
                    .ok_or(format!("{path}: {name} has no {section}"))?
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let mut want = declared;
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    return Err(format!(
                        "{path}: {name}.{section} names differ from the declared ones"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("print-contract") => {
            print!("{}", contract().pretty());
            Ok(true)
        }
        Some("check-contract") => check_contract(&args[1..]).map(|()| true),
        Some("host-speed") => {
            // For re-deriving `hostspeed::NOMINAL_S` on another host.
            let runs: Vec<f64> = (0..50).map(|_| hostspeed::reference_s()).collect();
            let s = metrics::Summary::of(&runs);
            let fastest = runs.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "reference kernel: fastest {fastest:.4} s, median {:.4} s of {} runs",
                s.median, s.n
            );
            Ok(true)
        }
        _ => parse_cli(&args).and_then(|cli| {
            if cli.workload == "all" {
                run_all(&cli, &args)
            } else {
                run_one(&cli)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("psgraph-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
