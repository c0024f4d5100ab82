//! `serve_ladder` — the read-only online path. A 4-shard × 2-replica tier
//! over DS3' with seeded ranks, communities and dim-32 embeddings, behind a
//! cache smaller than the Zipf working set. The load is **open loop**:
//! Poisson arrivals in sim time from the benchmark's own generator through
//! `Frontend::submit` / `submit_plan` / `drain`, latency counted from the
//! scheduled arrival, sim time running on from warm-up into measurement.
//!
//! The serial pass bisects a rate ladder (fresh tier per rung) for the
//! knee — the highest rate that meets the p99 limit without shedding or a
//! growing backlog. Every pass then serves
//! one fixed-rate stream, which is the measured section: `serve`, `query`
//! and `net` do all the work there; `ps`, `dataflow` and `core` appear
//! only in set-up.

use std::ops::Range;
use std::sync::Arc;

use crate::gen::{Fnv, Rng, Zipf};
use crate::metrics::{percentile, Layer};
use crate::runner::{bench_layer, timed_setup, timed_work, Check, Pass, PassKind, Workload};
use crate::sut::{
    self, Ds, ExpandMode, GraphTruth, Interpreter, Plan, PlanOutput, Pool, Pred, Query, Req, Res,
    Scorer, ServeArrays, Source, Stage, Value,
};
use crate::trace::Tracer;

/// DS3' scale: 15 k vertices / 50 k edges.
const DS3_SCALE: f64 = 0.25;
const EMBED_DIM: usize = 32;
const COMMUNITIES: u64 = 16;
/// The rate ladder spans 32 000 … 32 000 × 2^(8/3) sim QPS; the knee is
/// bisected in log rate between its ends, six steps resolving it to
/// 2^(8/3/64), about 3 %.
const LADDER_BOTTOM_QPS: f64 = 32_000.0;
const LADDER_TOP_QPS: f64 = 203_187.0;
const BISECT_STEPS: u32 = 6;
const RUNG_WARM: usize = 1_000;
const RUNG_MEASURED: usize = 6_000;
/// The fixed rung every pass serves: 32 000 × 2^(2/3), well under the knee.
const FIXED_QPS: f64 = 50_797.0;
const FIXED_WARM: usize = 2_000;
const FIXED_MEASURED: usize = 12_000;
/// Further queries only the serial pass serves: sim percentiles need more
/// samples than a host pass can afford in wall time.
const FIXED_SERIAL_TAIL: usize = 16_000;
/// Every 16th answer is compared bit-exactly with the interpreter.
const VERIFY_EVERY: usize = 16;
const KHOP_HOPS: u32 = 2;
const TOPK_K: usize = 8;
/// A rung passes only with at most this share of queries shed or failed.
const MAX_MISSING_SHARE: f64 = 0.001;
/// Query mix, per cent: rank, community, embedding, neighbors, k-hop,
/// top-k, top-k-all, compound.
const MIX: [u64; 8] = [25, 15, 20, 20, 6, 6, 2, 6];

pub struct ServeLadder;

pub struct Stream {
    reqs: Vec<Req>,
    arrivals_ns: Vec<u64>,
    /// Queries before this index warm the tier and are not measured.
    warm: usize,
    /// Answers before this index are sampled for verification.
    verified: usize,
}

pub struct Inputs {
    arrays: ServeArrays,
    truth: GraphTruth,
    zipf: Zipf,
    fixed: Stream,
    seed: u64,
    /// Divisor applied to query counts (10 in smoke).
    shrink: usize,
}

fn draw_req(rng: &mut Rng, v: u64) -> Req {
    let mut w = rng.below(MIX.iter().sum());
    let kind = MIX.iter().position(|&m| {
        if w < m {
            true
        } else {
            w -= m;
            false
        }
    });
    match kind.expect("weights cover the draw") {
        0 => Req::Q(Query::Rank(v)),
        1 => Req::Q(Query::Community(v)),
        2 => Req::Q(Query::Embedding(v)),
        3 => Req::Q(Query::Neighbors(v)),
        4 => Req::Q(Query::KHop { v, hops: KHOP_HOPS }),
        5 => Req::Q(Query::TopK { v, k: TOPK_K }),
        6 => Req::Q(Query::TopKAll { v, k: TOPK_K }),
        // Two compound shapes: a seeded neighbourhood scored by embedding
        // similarity, and a whole-graph community filter ranked by rank.
        _ if rng.below(2) == 0 => Req::P(Plan {
            source: Source::Seed(v),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand {
                    hops: 2,
                    cap: 4096,
                    mode: ExpandMode::Frontier,
                },
                Stage::Score(Scorer::Dot(v)),
                Stage::TopK(8),
            ],
        }),
        _ => Req::P(Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(v % COMMUNITIES)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        }),
    }
}

/// `warm + measured` queries every pass serves, then `tail` more that only
/// the serial pass serves to steady its sim percentiles.
fn make_stream(
    seed: u64,
    stream: u64,
    zipf: &Zipf,
    qps: f64,
    (warm, measured, tail): (usize, usize, usize),
) -> Stream {
    let mut rng = Rng::new(seed, stream);
    let mut t = 0.0f64;
    let (mut reqs, mut arrivals_ns) = (Vec::new(), Vec::new());
    for _ in 0..warm + measured + tail {
        let v = zipf.draw(&mut rng);
        reqs.push(draw_req(&mut rng, v));
        arrivals_ns.push((t * 1e9) as u64);
        t += rng.exp(qps);
    }
    Stream {
        reqs,
        arrivals_ns,
        warm,
        verified: warm + measured,
    }
}

/// What serving one stream produced.
struct Drive {
    /// Latency from scheduled arrival per query; `u64::MAX` = shed, failed
    /// or never answered, which misses any limit.
    lat_ns: Vec<u64>,
    sampled: Vec<(usize, Value)>,
    shed: u64,
    failed: u64,
    last_done_ns: u64,
}

impl Drive {
    fn new(s: &Stream) -> Drive {
        Drive {
            lat_ns: vec![u64::MAX; s.reqs.len()],
            sampled: Vec::new(),
            shed: 0,
            failed: 0,
            last_done_ns: 0,
        }
    }

    fn absorb(&mut self, s: &Stream, outs: Vec<(usize, sut::Outcome)>) {
        for (idx, o) in outs {
            match o {
                sut::Outcome::Answered {
                    value, completed, ..
                } => {
                    let done = completed.as_nanos();
                    self.lat_ns[idx] = done.saturating_sub(s.arrivals_ns[idx]);
                    self.last_done_ns = self.last_done_ns.max(done);
                    if (s.warm..s.verified).contains(&idx) && idx % VERIFY_EVERY == 0 {
                        self.sampled.push((idx, value));
                    }
                }
                sut::Outcome::Shed { .. } if idx >= s.warm => self.shed += 1,
                sut::Outcome::Failed(_) if idx >= s.warm => self.failed += 1,
                _ => {}
            }
        }
    }
}

/// Submit `s.reqs[range]` at their scheduled arrivals, then flush.
fn drive(t: &Tracer, c: &mut sut::ServeCluster, s: &Stream, range: Range<usize>, d: &mut Drive) {
    for i in range {
        let outs = sut::submit(t, c, i, s.arrivals_ns[i], &s.reqs[i]);
        d.absorb(s, outs);
    }
    let outs = sut::drain(t, c);
    d.absorb(s, outs);
}

#[derive(Debug, Clone, Copy)]
struct RungStats {
    p50_ns: u64,
    p99_ns: u64,
    missing_share: f64,
    backlog_ns: u64,
}

impl RungStats {
    /// Over the measured queries before index `upto`.
    fn of(s: &Stream, d: &Drive, upto: usize) -> RungStats {
        let mut lat = d.lat_ns[s.warm..upto].to_vec();
        lat.sort_unstable();
        let missing = lat.iter().filter(|&&l| l == u64::MAX).count();
        RungStats {
            p50_ns: percentile(&lat, 0.50),
            p99_ns: percentile(&lat, 0.99),
            missing_share: missing as f64 / lat.len().max(1) as f64,
            backlog_ns: d.last_done_ns.saturating_sub(s.arrivals_ns[upto - 1]),
        }
    }

    /// Meets the p99 limit, sheds (almost) nothing, and leaves no backlog
    /// growing behind the last arrival.
    fn sustainable(&self) -> bool {
        let slo = sut::slo_p99_ns();
        self.p99_ns <= slo && self.missing_share <= MAX_MISSING_SHARE && self.backlog_ns <= slo
    }
}

fn same_ranked(got: &[(u64, f64)], want: &[(u64, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gv, gs), (wv, ws))| gv == wv && gs.to_bits() == ws.to_bits())
}

fn answer_matches(a: &ServeArrays, interp: &Interpreter<'_>, req: &Req, value: &Value) -> bool {
    let by_plan = |plan: &Plan| match (interp.run(plan), value) {
        (Ok(PlanOutput::Vertices(want)), Value::Vertices(got)) => got == &want,
        (Ok(PlanOutput::Ranked(want)), Value::Ranked(got)) => same_ranked(got, &want),
        _ => false,
    };
    match (req, value) {
        (Req::Q(Query::Rank(v)), Value::Rank(r)) => r.to_bits() == a.ranks[*v as usize].to_bits(),
        (Req::Q(Query::Community(v)), Value::Community(c)) => *c == a.communities[*v as usize],
        (Req::Q(Query::Embedding(v)), Value::Embedding(e)) => {
            let want = &a.embeddings[*v as usize];
            e.len() == want.len() && e.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Req::Q(Query::Neighbors(v)), Value::Neighbors(ns)) => ns == &a.adjacency[*v as usize],
        (Req::Q(Query::KHop { v, hops }), _) => by_plan(&Plan::khop(*v, *hops)),
        (Req::Q(Query::TopK { v, k }), _) => by_plan(&Plan::topk(*v, *k)),
        (Req::Q(Query::TopKAll { v, k }), _) => by_plan(&Plan::topk_all(*v, *k)),
        (Req::P(plan), _) => by_plan(plan),
        _ => false,
    }
}

fn digest_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Rank(r) => h.u64(r.to_bits()),
        Value::Community(c) => h.u64(*c),
        Value::Embedding(e) => e.iter().for_each(|x| h.u64(x.to_bits() as u64)),
        Value::Neighbors(ns) | Value::Vertices(ns) => h.u64s(ns),
        Value::Ranked(r) => r.iter().for_each(|(v, s)| {
            h.u64(*v);
            h.u64(s.to_bits());
        }),
    }
}

/// Find the knee by bisection in log rate between the bottom and the top
/// rung, a fresh tier per rung. Returns the highest sustainable rate found
/// (0 when even the bottom rung is not) and the top rung's stats.
fn find_knee(inp: &Inputs, pool: &Arc<Pool>) -> Res<(f64, RungStats)> {
    let off = Tracer::new(false);
    let (warm, measured) = (RUNG_WARM / inp.shrink, RUNG_MEASURED / inp.shrink);
    let mut next_stream = 100u64;
    let mut rung = |qps: f64| -> Res<RungStats> {
        next_stream += 1;
        let s = make_stream(inp.seed, next_stream, &inp.zipf, qps, (warm, measured, 0));
        let mut c = sut::serve_cluster(&off, &inp.arrays, pool)?;
        let mut d = Drive::new(&s);
        drive(&off, &mut c, &s, 0..s.reqs.len(), &mut d);
        Ok(RungStats::of(&s, &d, s.reqs.len()))
    };
    let top = rung(LADDER_TOP_QPS)?;
    if top.sustainable() {
        return Ok((LADDER_TOP_QPS, top));
    }
    if !rung(LADDER_BOTTOM_QPS)?.sustainable() {
        return Ok((0.0, top));
    }
    let (mut lo, mut hi) = (LADDER_BOTTOM_QPS, LADDER_TOP_QPS);
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if rung(mid)?.sustainable() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, top))
}

impl Workload for ServeLadder {
    const NAME: &'static str = "serve_ladder";
    type Inputs = Inputs;

    fn generate(seed: u64, smoke: bool) -> (Inputs, u64) {
        let shrink = if smoke { 10 } else { 1 };
        let g = sut::rmat(Ds::Ds3, DS3_SCALE / shrink as f64, seed);
        let n = g.num_vertices();
        let mut rng = Rng::new(seed, 1);
        // Grid-valued attributes: `0.0 + x` through the PS load path is
        // then bit-exact, so answers compare by bits.
        let arrays = ServeArrays {
            ranks: (0..n).map(|_| rng.below(1000) as f64 / 1000.0).collect(),
            communities: (0..n).map(|_| rng.below(COMMUNITIES)).collect(),
            adjacency: sut::out_adjacency(&g),
            embeddings: (0..n)
                .map(|_| {
                    (0..EMBED_DIM)
                        .map(|_| (rng.below(9) as f32 - 4.0) * 0.25)
                        .collect()
                })
                .collect(),
        };
        let zipf = Zipf::new(n, 1.0);
        let sizes = (
            FIXED_WARM / shrink,
            FIXED_MEASURED / shrink,
            FIXED_SERIAL_TAIL / shrink,
        );
        let fixed = make_stream(seed, 2, &zipf, FIXED_QPS, sizes);
        let mut h = Fnv::default();
        h.edges(g.edges());
        h.f64s(&arrays.ranks);
        h.u64s(&arrays.communities);
        h.f32_rows(&arrays.embeddings);
        h.u64s(&fixed.arrivals_ns);
        let truth = arrays.truth();
        (
            Inputs {
                arrays,
                truth,
                zipf,
                fixed,
                seed,
                shrink,
            },
            h.0,
        )
    }

    fn pass(inp: &Inputs, kind: PassKind, pool: &Arc<Pool>, t: &Tracer) -> Res<Pass> {
        let (setup_s, mut c) = timed_setup(|| sut::serve_cluster(t, &inp.arrays, pool))?;
        let stream = &inp.fixed;
        let mut d = Drive::new(stream);
        let (work_wall_s, ()) = timed_work(t, || {
            drive(t, &mut c, stream, 0..stream.verified, &mut d);
            Ok(())
        })?;
        let fixed = RungStats::of(stream, &d, stream.verified);
        let counters = sut::serve_counters(&c);

        let interp = Interpreter::new(&inp.truth, sut::SERVE_SHARDS);
        let mut answers = Fnv::default();
        let mut wrong = 0u64;
        for (idx, value) in &d.sampled {
            digest_value(&mut answers, value);
            if !answer_matches(&inp.arrays, &interp, &inp.fixed.reqs[*idx], value) {
                wrong += 1;
            }
        }

        let measured = (stream.verified - stream.warm) as f64;
        let mut p = Pass {
            setup_s,
            work_wall_s,
            attempted: stream.verified as u64 + d.sampled.len() as u64,
            failed: d.shed + d.failed + wrong,
            digests: vec![
                ("fixed-rung p99 (sim ns)", fixed.p99_ns),
                ("sampled answers", answers.0),
            ],
            sim_parts: vec![("fixed-rung p99", fixed.p99_ns as f64)],
            ..Pass::default()
        };
        p.checks.push(Check::new(
            "sampled answers equal the interpreter bit for bit",
            wrong == 0 && !d.sampled.is_empty(),
            format!("{wrong} wrong of {} sampled", d.sampled.len()),
        ));
        p.checks.push(Check::new(
            "fixed rung is sustainable",
            fixed.sustainable(),
            format!("{fixed:?}"),
        ));

        let l = &mut p.layer;
        l.set(
            "serve.cache_hit_rate",
            counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
        );
        l.set("serve.cache_evictions", counters.evictions as f64);
        l.set("serve.shed_share", d.shed as f64 / measured);
        l.set("serve.failed_share", d.failed as f64 / measured);
        l.set("serve.mailbox_dropped", counters.mailbox_dropped as f64);
        l.set("serve.mailbox_retried", counters.mailbox_retried as f64);
        l.set("net.serve_rpcs", counters.rpcs as f64);
        l.set("net.serve_bytes", counters.bytes as f64);
        let plans = counters.plans.max(1) as f64;
        l.set("query.pushed_share", counters.pushed_plans as f64 / plans);
        l.set(
            "query.shard_bytes_per_plan",
            counters.shard_bytes as f64 / plans,
        );
        l.set(
            "query.rows_pruned_per_plan",
            counters.rows_pruned as f64 / plans,
        );

        if kind == PassKind::Serial {
            // Same tier, same sim timeline: the tail only adds samples.
            drive(
                t,
                &mut c,
                stream,
                stream.verified..stream.reqs.len(),
                &mut d,
            );
            let long = RungStats::of(stream, &d, stream.reqs.len());
            p.wait_p99_sim_ms = long.p99_ns as f64 / 1e6;
            l.set("serve.p50_sim_us", long.p50_ns as f64 / 1e3);
            l.set("serve.p99_sim_us", long.p99_ns as f64 / 1e3);
            let (knee, top) = find_knee(inp, pool)?;
            p.work_sim_s = if knee > 0.0 {
                measured / knee
            } else {
                f64::INFINITY
            };
            p.checks.push(Check::new(
                "knee lies on the ladder",
                knee > 0.0,
                format!("knee {knee:.0} QPS, top rung {top:?}"),
            ));
            l.set("serve.knee_qps", knee);
            l.set("serve.backlog_sim_ms", top.backlog_ns as f64 / 1e6);
        }
        if let Some(s) = t.current() {
            l.set(
                "serve.wall_us_per_query",
                work_wall_s * 1e6 / stream.verified as f64,
            );
            l.set(
                "serve.point_hit_wall_us",
                s.get("serve.point_hit").wall_per_call(1e6),
            );
            l.set(
                "serve.point_miss_wall_us",
                s.get("serve.point_miss").wall_per_call(1e6),
            );
            l.set(
                "query.plan_wall_us",
                s.get("query.submit_plan").wall_per_call(1e6),
            );
            l.set("serve.load_wall_s", s.get("serve.load").wall_s);
            bench_layer(&s, l);
        }
        Ok(p)
    }

    fn probes(inp: &Inputs, pool: &Arc<Pool>) -> Res<Layer> {
        let mut l = Layer::default();
        super::common_probes(pool, &mut l);
        let c = sut::serve_cluster(&Tracer::new(false), &inp.arrays, pool)?;
        let stats = sut::tier_stats(&c);
        let plan = Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        };
        l.set(
            "query.decide_wall_ns",
            sut::probe_decide(&plan, &stats, 20_000) * 1e9,
        );
        // The snapshot a tier loads: ranks, communities, embeddings, CSR.
        let a = &inp.arrays;
        let edges: usize = a.adjacency.iter().map(Vec::len).sum();
        super::dfs_probe(a.ranks.len() * (16 + 4 * EMBED_DIM + 8) + edges * 8, &mut l)?;
        Ok(l)
    }
}
