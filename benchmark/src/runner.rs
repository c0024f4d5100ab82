//! One workload run = one process: generate inputs from the seed, then
//!
//! * a **serial** pass (pool of 1) — source of every sim-clock metric and
//!   of the correctness checks, because sim time and ML results are
//!   bit-reproducible only there today;
//! * **host** passes (pool of `nproc`, tracing off), one discarded warm-up
//!   and then as many as fit in `--seconds` (at least three) — source of
//!   every wall-clock end-to-end metric, reported as a median;
//! * with tracing requested, **traced** host passes interleaved with the
//!   untraced ones, plus isolated layer probes — source of the per-layer
//!   wall numbers and of the tracing overhead.
//!
//! Every pass brings its deployment up afresh, so set-up is timed once per
//! pass and reported as a median too. Wall end-to-end metrics are reported
//! at the reference host speed (see `hostspeed.rs`): the host this runs on
//! drifts by a factor of two over minutes, and a reference kernel timed
//! next to every pass cancels most of that.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::hostspeed;
use crate::json::Json;
use crate::metrics::{median, Clock, Layer, Src, Summary, END_TO_END, PER_LAYER};
use crate::sut::{self, Pool, Res};
use crate::trace::{PassSummary, Tracer};

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    Serial,
    Host,
}

/// What one pass over the workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds to bring the deployment up (clusters, bootstrap,
    /// snapshot, load).
    pub setup_s: f64,
    /// Wall seconds of the measured section.
    pub work_wall_s: f64,
    /// Modelled seconds the measured work costs the cluster.
    pub work_sim_s: f64,
    /// Nearest-rank p99 of the modelled wait of the workload's unit of
    /// service (job, epoch, query, or event publication), milliseconds.
    pub wait_p99_sim_ms: f64,
    /// Operations attempted / failed (jobs, queries, offers, events).
    pub attempted: u64,
    pub failed: u64,
    /// Bit-exact digests of outputs that must not depend on the pool size
    /// or the pass; compared against the serial pass.
    pub digests: Vec<(&'static str, u64)>,
    /// Modelled seconds per job, for the pool-invariance reading.
    pub sim_parts: Vec<(&'static str, f64)>,
    /// Per-layer readings; span-derived ones only when traced.
    pub layer: Layer,
    pub checks: Vec<Check>,
}

pub trait Workload {
    const NAME: &'static str;
    type Inputs;

    /// Generate every input from `seed`; returns them with an FNV digest.
    fn generate(seed: u64, smoke: bool) -> (Self::Inputs, u64);

    /// Bring the deployment up, run the measured section, verify.
    fn pass(inputs: &Self::Inputs, kind: PassKind, pool: &Arc<Pool>, t: &Tracer) -> Res<Pass>;

    /// Isolated probes of the layers this workload leans on.
    fn probes(inputs: &Self::Inputs, pool: &Arc<Pool>) -> Res<Layer>;
}

/// Time a pass's set-up section.
pub fn timed_setup<R>(f: impl FnOnce() -> Res<R>) -> Res<(f64, R)> {
    let w0 = Instant::now();
    let r = f()?;
    Ok((w0.elapsed().as_secs_f64(), r))
}

/// Time a pass's measured section under the root span `bench.work`; the
/// root's self time is the benchmark's own code (load generation,
/// bookkeeping), reported as `bench.generator_wall_share`.
pub fn timed_work<R>(t: &Tracer, f: impl FnOnce() -> Res<R>) -> Res<(f64, R)> {
    let w0 = Instant::now();
    let r = t.span("bench.work", "bench", f)?;
    Ok((w0.elapsed().as_secs_f64(), r))
}

/// Fill the benchmark's own per-layer readings from a traced pass.
pub fn bench_layer(s: &PassSummary, out: &mut Layer) {
    let root = s.get("bench.work").wall_s;
    if root > 0.0 {
        let own = s.self_s_by_layer.get("bench").copied().unwrap_or(0.0);
        out.set("bench.generator_wall_share", own / root);
    }
    out.set("bench.trace_accounted_share", s.accounted);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics only.
    EndToEnd,
    /// `--trace 1`: per-layer metrics only.
    PerLayer,
    /// No `--trace`: both, for people.
    Both,
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub smoke: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub input_digest: u64,
    pub nproc: usize,
    pub host_passes: usize,
    pub traced_passes: usize,
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub per_layer: Layer,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Raw spans kept in a trace file, after the per-pass summaries (a serve
/// pass alone records tens of thousands).
const MAX_RAW_SPANS: usize = 500;

/// A pass with the host speed measured around it.
struct Timed {
    pass: Pass,
    /// Host speed relative to nominal while the pass ran.
    speed: f64,
}

impl Timed {
    /// Wall seconds of the measured section at the reference host speed.
    fn work_wall_s(&self) -> f64 {
        self.pass.work_wall_s * self.speed
    }
}

pub fn run<W: Workload>(opts: &Opts) -> Res<RunResult> {
    let threads = nproc();
    sut::pin_global_pool(threads);
    let serial_pool = sut::new_pool(1);
    let host_pool = sut::new_pool(threads);

    // Every timed section is bracketed by two runs of the reference
    // kernel; the later one also opens the next bracket.
    let mut ref_prev = hostspeed::reference_s();
    let mut host_speed = move || {
        let after = hostspeed::reference_s();
        let speed = hostspeed::speed(ref_prev, after);
        ref_prev = after;
        speed
    };

    let g0 = Instant::now();
    let (inputs, input_digest) = W::generate(opts.seed, opts.smoke);
    let gen_raw_s = g0.elapsed().as_secs_f64();
    let gen_wall_s = gen_raw_s * host_speed();

    let tracing = opts.mode != Mode::EndToEnd;
    let tracer = Tracer::new(tracing);
    let off = Tracer::new(false);

    let mut checks: Vec<Check> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups: Vec<f64> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut run_pass = |kind: PassKind,
                        pool: &Arc<Pool>,
                        t: &Tracer,
                        label: &str,
                        checks: &mut Vec<Check>|
     -> Res<Timed> {
        let mut pass = W::pass(&inputs, kind, pool, t)?;
        let speed = host_speed();
        attempted += pass.attempted;
        failed += pass.failed;
        setups.push(pass.setup_s * speed + gen_wall_s);
        speeds.push(speed);
        for mut c in pass.checks.drain(..) {
            c.name = format!("{label}:{}", c.name);
            checks.push(c);
        }
        Ok(Timed { pass, speed })
    };

    tracer.next_pass();
    let serial = run_pass(
        PassKind::Serial,
        &serial_pool,
        &tracer,
        "serial",
        &mut checks,
    )?;
    // Discarded for timing; its set-up and checks still count.
    run_pass(PassKind::Host, &host_pool, &off, "warm-up", &mut checks)?;

    let min_passes = if opts.smoke { 1 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut hosts: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut pool_tasks: Vec<f64> = Vec::new();
    while hosts.len() < min_passes || Instant::now() < deadline {
        hosts.push(run_pass(
            PassKind::Host,
            &host_pool,
            &off,
            "host",
            &mut checks,
        )?);
        if tracing {
            tracer.next_pass();
            let tasks0 = sut::pool_tasks(&host_pool);
            let p = run_pass(PassKind::Host, &host_pool, &tracer, "traced", &mut checks)?;
            pool_tasks.push((sut::pool_tasks(&host_pool) - tasks0) as f64);
            let accounted = p
                .pass
                .layer
                .get("bench.trace_accounted_share")
                .unwrap_or(0.0);
            checks.push(Check::new(
                "traced: span self times sum to the pass wall within 2 %",
                (accounted - 1.0).abs() <= 0.02,
                format!("{accounted:.4}"),
            ));
            traced.push(p);
        }
        if opts.smoke {
            break;
        }
    }

    // Outputs must not depend on the pass or the pool size.
    for (label, p) in hosts
        .iter()
        .map(|p| ("host", p))
        .chain(traced.iter().map(|p| ("traced", p)))
    {
        for ((name, want), (_, got)) in serial.pass.digests.iter().zip(&p.pass.digests) {
            checks.push(Check::new(
                format!("{label}:{name} equals serial pass"),
                want == got,
                format!("serial {want:016x}, {label} {got:016x}"),
            ));
        }
    }
    failed += checks.iter().filter(|c| !c.ok).count() as u64;
    attempted += checks.len() as u64;

    let host_wall = Summary::of(&hosts.iter().map(Timed::work_wall_s).collect::<Vec<_>>());
    let single = |v: f64| Summary {
        median: v,
        q1: v,
        q3: v,
        n: 1,
    };
    let end_to_end = vec![
        ("setup_s", Summary::of(&setups)),
        ("work_wall_s", host_wall),
        ("work_sim_s", single(serial.pass.work_sim_s)),
        ("wait_p99_sim_ms", single(serial.pass.wait_p99_sim_ms)),
        ("peak_rss_mb", single(peak_rss_mb())),
    ];
    debug_assert!(end_to_end
        .iter()
        .map(|e| e.0)
        .eq(END_TO_END.iter().map(|d| d.name)));

    let mut per_layer = Layer::default();
    if tracing {
        let probe_sim = W::probes(&inputs, &serial_pool)?;
        let probe_wall: Vec<Layer> = (0..3)
            .map(|_| W::probes(&inputs, &host_pool))
            .collect::<Res<_>>()?;
        for d in PER_LAYER {
            let over = |layers: &mut dyn Iterator<Item = &Layer>| -> Option<f64> {
                let vals: Vec<f64> = layers.filter_map(|l| l.get(d.name)).collect();
                (!vals.is_empty()).then(|| median(&vals))
            };
            let v = match d.src {
                Src::Serial => serial.pass.layer.get(d.name),
                Src::Host => over(&mut traced.iter().map(|p| &p.pass.layer)),
                Src::Probe if d.clock == Clock::Wall => over(&mut probe_wall.iter()),
                Src::Probe => probe_sim.get(d.name),
                Src::Runner => None,
            };
            per_layer.set(d.name, v.unwrap_or(0.0));
        }
        let traced_wall = median(&traced.iter().map(Timed::work_wall_s).collect::<Vec<_>>());
        let skew = hosts
            .iter()
            .flat_map(|p| p.pass.sim_parts.iter().zip(&serial.pass.sim_parts))
            .filter(|(_, (_, s))| *s > 0.0)
            .map(|((_, h), (_, s))| (h / s - 1.0).abs())
            .fold(0.0, f64::max);
        per_layer.set("harness.pool_tasks", median(&pool_tasks));
        per_layer.set(
            "harness.pool_speedup",
            serial.work_wall_s() / host_wall.median,
        );
        per_layer.set("harness.pool_sim_skew", skew);
        per_layer.set("graph.gen_wall_s", gen_raw_s);
        per_layer.set(
            "bench.trace_overhead_share",
            traced_wall / host_wall.median - 1.0,
        );
        per_layer.set("bench.fail_share", failed as f64 / attempted.max(1) as f64);
        per_layer.set("bench.host_speed", median(&speeds));
        per_layer.set(
            "bench.work_wall_raw_s",
            median(&hosts.iter().map(|p| p.pass.work_wall_s).collect::<Vec<_>>()),
        );
    }

    Ok(RunResult {
        workload: W::NAME,
        seed: opts.seed,
        input_digest,
        nproc: threads,
        host_passes: hosts.len(),
        traced_passes: traced.len(),
        end_to_end,
        per_layer,
        attempted,
        failed,
        checks,
        trace: tracing.then(|| tracer.to_json(MAX_RAW_SPANS)),
    })
}
