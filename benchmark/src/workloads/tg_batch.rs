//! `tg_batch` — the paper's Fig. 6 path. RMAT DS1' on a PSGraph deployment
//! sized by the paper's DS1 allocation: PageRank, CommonNeighbor and KCore
//! back to back, plus GraphX PageRank as the baseline leg. `core`, `ps`,
//! `net`, `dataflow` and the pool do nearly all the work; `serve`, `query`,
//! `stream` and `tensor` do none. PS use is vector pull / push-add and
//! neighbor-table reads.

use std::sync::Arc;

use crate::gen::Fnv;
use crate::metrics::Layer;
use crate::runner::{bench_layer, timed_setup, timed_work, Check, Pass, PassKind, Workload};
use crate::sut::{self, Ds, EdgeList, Pool, Res};
use crate::trace::Tracer;

/// DS1' scale: 20 k vertices / 275 k edges (a tenth of that in smoke).
const SCALE: f64 = 0.1;
const PAGERANK_ITERATIONS: u64 = 30;
/// PSGraph and GraphX PageRank after 30 iterations, as max |a − b| ÷
/// max(b, 1) like `tests/baseline_parity.rs` (which holds 1e-6 only at 120
/// iterations; 30 leave the delta formulation's geometric tail, about
/// 0.85^30). Measured at baseline as 9.4e-3 on every seed tried, then
/// frozen with a factor of two to spare.
const PARITY_BOUND: f64 = 2e-2;

pub struct TgBatch;

pub struct Inputs {
    graph: EdgeList,
    scale: f64,
    smoke: bool,
}

fn digest_f64(xs: &[f64]) -> u64 {
    let mut h = Fnv::default();
    h.f64s(xs);
    h.0
}

impl Workload for TgBatch {
    const NAME: &'static str = "tg_batch";
    type Inputs = Inputs;

    fn generate(seed: u64, smoke: bool) -> (Inputs, u64) {
        let scale = if smoke { SCALE / 10.0 } else { SCALE };
        // Deduplicated and closed with a ring so no vertex dangles: the
        // delta-push and the textbook PageRank formulations then share one
        // fixed point and the parity check below means something.
        let raw = sut::rmat(Ds::Ds1, scale, seed);
        let n = raw.num_vertices();
        let mut edges = raw.into_edges();
        edges.extend((0..n).map(|v| (v, (v + 1) % n)));
        let graph = EdgeList::new(n, edges).dedup();
        let mut h = Fnv::default();
        h.edges(graph.edges());
        (
            Inputs {
                graph,
                scale,
                smoke,
            },
            h.0,
        )
    }

    fn pass(inp: &Inputs, kind: PassKind, pool: &Arc<Pool>, t: &Tracer) -> Res<Pass> {
        let (setup_s, d) = timed_setup(|| sut::tg_deploy(t, &inp.graph, inp.scale, pool))?;
        let (work_wall_s, (pr, cn, kc)) = timed_work(t, || {
            Ok((
                d.pagerank(t, PAGERANK_ITERATIONS)?,
                d.common_neighbor(t)?,
                d.kcore(t)?,
            ))
        })?;
        let jobs = [
            ("pagerank", &pr.1),
            ("common_neighbor", &cn.1),
            ("kcore", &kc.1),
        ];
        let sims: Vec<f64> = jobs.iter().map(|(_, s)| s.elapsed.as_secs_f64()).collect();

        let mut counts = cn.0.clone();
        counts.sort_unstable();
        let mut cn_digest = Fnv::default();
        for (a, b, c) in counts {
            cn_digest.u64s(&[a, b, c]);
        }
        let mut kc_digest = Fnv::default();
        kc_digest.u64s(&kc.0);

        let mut p = Pass {
            setup_s,
            work_wall_s,
            work_sim_s: sims.iter().sum(),
            wait_p99_sim_ms: sims.iter().copied().fold(0.0, f64::max) * 1e3,
            attempted: jobs.len() as u64,
            digests: vec![
                ("pagerank ranks", digest_f64(&pr.0)),
                ("common_neighbor counts", cn_digest.0),
                ("kcore coreness", kc_digest.0),
            ],
            sim_parts: jobs
                .iter()
                .map(|(n, _)| *n)
                .zip(sims.iter().copied())
                .collect(),
            ..Pass::default()
        };
        let l = &mut p.layer;
        sut::context_counters(&d.ctx, l);
        l.set("core.pagerank_sim_s", sims[0]);
        l.set("core.pagerank_iters", pr.1.supersteps as f64);
        l.set("core.common_neighbor_sim_s", sims[1]);
        l.set("core.kcore_sim_s", sims[2]);

        // The GraphX leg is the baseline, not the product: it is excluded
        // from work_* and runs only where its numbers are read.
        if kind == PassKind::Serial || t.is_on() {
            let (gx_ranks, gx_sim_s) = d.graphx_pagerank(t, PAGERANK_ITERATIONS)?;
            p.attempted += 1;
            l.set("graphx.pagerank_sim_s", gx_sim_s);
            l.set("graphx.sim_ratio_vs_psgraph", gx_sim_s / sims[0]);
            if kind == PassKind::Serial {
                let linf =
                    pr.0.iter()
                        .zip(&gx_ranks)
                        .map(|(a, b)| (a - b).abs() / b.max(1.0))
                        .fold(0.0, f64::max);
                p.checks.push(Check::new(
                    "PSGraph vs GraphX PageRank relative L-inf",
                    linf <= PARITY_BOUND,
                    format!("{linf:.3e} (bound {PARITY_BOUND:.0e})"),
                ));
                // At smoke scale (2 k vertices) fixed latencies dominate
                // both systems and the shape does not emerge.
                p.checks.push(Check::new(
                    "GraphX slower than PSGraph on the sim clock (Fig. 6 shape)",
                    inp.smoke || gx_sim_s > sims[0],
                    format!(
                        "graphx {gx_sim_s:.3}s vs psgraph {:.3}s{}",
                        sims[0],
                        if inp.smoke {
                            " (SKIPPED at smoke scale)"
                        } else {
                            ""
                        }
                    ),
                ));
            }
        }
        if let Some(s) = t.current() {
            let l = &mut p.layer;
            l.set(
                "dataflow.distribute_wall_s",
                s.get("dataflow.distribute").wall_s,
            );
            l.set(
                "dataflow.distribute_sim_s",
                s.get("dataflow.distribute").sim_s,
            );
            l.set("core.pagerank_wall_s", s.get("core.pagerank").wall_s);
            l.set(
                "core.common_neighbor_wall_s",
                s.get("core.common_neighbor").wall_s,
            );
            l.set("core.kcore_wall_s", s.get("core.kcore").wall_s);
            l.set("graphx.pagerank_wall_s", s.get("graphx.pagerank").wall_s);
            bench_layer(&s, l);
        }
        Ok(p)
    }

    fn probes(inp: &Inputs, pool: &Arc<Pool>) -> Res<Layer> {
        let mut l = Layer::default();
        super::common_probes(pool, &mut l);
        let records = inp.graph.num_edges() as f64;
        let (wall, sim, bytes) = sut::probe_groupby(&inp.graph, inp.scale, pool)?;
        l.set("dataflow.groupby_wall_ns_per_record", wall * 1e9 / records);
        l.set("dataflow.groupby_sim_ns_per_record", sim * 1e9 / records);
        l.set("dataflow.groupby_net_bytes", bytes);
        let keys = inp.graph.num_vertices();
        let (pw, ps, uw, us) = sut::probe_ps_vector(keys, pool)?;
        l.set("ps.pull_wall_ns_per_key", pw * 1e9 / keys as f64);
        l.set("ps.pull_sim_ns_per_key", ps * 1e9 / keys as f64);
        l.set("ps.push_wall_ns_per_key", uw * 1e9 / keys as f64);
        l.set("ps.push_sim_ns_per_key", us * 1e9 / keys as f64);
        Ok(l)
    }
}
