//! `gnn_epoch` — the paper's Table I / §V-B2 path. GraphSage on DS3'
//! features read through `graph::io` from the DFS, then LINE (dim 128,
//! server-side psFuncs) on a small DS1'. The same `ps` layer as `tg_batch`
//! is used differently here — matrix rows and `dot_pairs` / `axpy_pairs` /
//! Adam psFuncs instead of vector pull/push — and this is the only
//! workload where `tensor` and DFS reads matter.

use std::sync::Arc;

use crate::gen::{Fnv, Rng};
use crate::metrics::Layer;
use crate::runner::{bench_layer, timed_setup, timed_work, Check, Pass, PassKind, Workload};
use crate::sut::{self, Ds, EdgeList, Pool, Res, Sbm2};
use crate::trace::Tracer;

/// DS3' scale for GraphSage: 3 k vertices / 10 k edges.
const DS3_SCALE: f64 = 0.05;
/// DS1' scale for LINE: 4 k vertices / 55 k edges before deduplication.
const LINE_SCALE: f64 = 0.02;
const FEAT_DIM: usize = 16;
const EPOCHS: u64 = 2;
const LINE_DIM: usize = 128;
const MIN_TEST_ACCURACY: f64 = 0.88;
const PSFUNC_PROBE_PAIRS: usize = 65_536;

pub struct GnnEpoch;

pub struct Inputs {
    ds3: Sbm2,
    ds3_scale: f64,
    line_graph: EdgeList,
    line_scale: f64,
    probe_pairs: Vec<(u64, u64)>,
}

impl Workload for GnnEpoch {
    const NAME: &'static str = "gnn_epoch";
    type Inputs = Inputs;

    fn generate(seed: u64, smoke: bool) -> (Inputs, u64) {
        let shrink = if smoke { 10.0 } else { 1.0 };
        let (ds3_scale, line_scale) = (DS3_SCALE / shrink, LINE_SCALE / shrink);
        let ds3 = sut::ds3_features(ds3_scale, FEAT_DIM, seed);
        // Deduplicated, so the edge count — and with it LINE's modelled
        // epoch time — follows the seed instead of reading the same on
        // every run.
        let line_graph = sut::rmat(Ds::Ds1, line_scale, seed ^ 0x11E).dedup();
        let mut rng = Rng::new(seed, 3);
        let n = line_graph.num_vertices();
        let probe_pairs: Vec<(u64, u64)> = (0..PSFUNC_PROBE_PAIRS / shrink as usize)
            .map(|_| (rng.below(n), rng.below(n)))
            .collect();
        let mut h = Fnv::default();
        h.edges(ds3.graph.edges());
        h.f32_rows(&ds3.features);
        h.edges(line_graph.edges());
        h.edges(&probe_pairs);
        (
            Inputs {
                ds3,
                ds3_scale,
                line_graph,
                line_scale,
                probe_pairs,
            },
            h.0,
        )
    }

    fn pass(inp: &Inputs, kind: PassKind, pool: &Arc<Pool>, t: &Tracer) -> Res<Pass> {
        let (setup_s, d) = timed_setup(|| {
            sut::gnn_deploy(
                t,
                &inp.ds3,
                inp.ds3_scale,
                &inp.line_graph,
                inp.line_scale,
                pool,
            )
        })?;
        let (work_wall_s, out) = timed_work(t, || d.train(t, FEAT_DIM, EPOCHS, LINE_DIM))?;

        let gs_sim = out.gs_stats.elapsed.as_secs_f64();
        let line_sim = out.line_stats.elapsed.as_secs_f64();
        let line_epoch_sim = line_sim / EPOCHS as f64;
        let slowest_epoch = out
            .gs_epoch_sim_s
            .iter()
            .copied()
            .fold(line_epoch_sim, f64::max);
        let mut p = Pass {
            setup_s,
            work_wall_s,
            work_sim_s: gs_sim + line_sim,
            wait_p99_sim_ms: slowest_epoch * 1e3,
            attempted: 2,
            sim_parts: vec![("graphsage", gs_sim), ("line", line_sim)],
            ..Pass::default()
        };

        // Quality is checked where it is reproducible: the serial pass.
        if kind == PassKind::Serial {
            p.checks.push(Check::new(
                "GraphSage test accuracy",
                out.test_accuracy >= MIN_TEST_ACCURACY,
                format!("{:.4} (need >= {MIN_TEST_ACCURACY})", out.test_accuracy),
            ));
            let (first, last) = (out.gs_losses[0], out.gs_losses[out.gs_losses.len() - 1]);
            p.checks.push(Check::new(
                "GraphSage loss decreasing",
                last < first,
                format!("{first:.4} -> {last:.4}"),
            ));
            let finite = out.line_losses.iter().all(|l| l.is_finite())
                && out.line_embeddings.iter().flatten().all(|x| x.is_finite());
            p.checks.push(Check::new(
                "LINE loss and embeddings finite",
                finite,
                format!("losses {:?}", out.line_losses),
            ));
        }

        let l = &mut p.layer;
        sut::context_counters(&d.gs_ctx, l);
        sut::context_counters(&d.line_ctx, l);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        l.set("core.graphsage_epoch_sim_s", mean(&out.gs_epoch_sim_s));
        l.set("core.graphsage_prep_sim_s", out.gs_prep_sim_s);
        l.set("core.line_epoch_sim_s", line_epoch_sim);
        if let Some(s) = t.current() {
            l.set(
                "dataflow.distribute_wall_s",
                s.get("dataflow.distribute").wall_s,
            );
            l.set(
                "dataflow.distribute_sim_s",
                s.get("dataflow.distribute").sim_s,
            );
            l.set("graph.io_read_wall_s", s.get("graph.io_read").wall_s);
            l.set("graph.io_read_sim_s", s.get("graph.io_read").sim_s);
            l.set("core.graphsage_wall_s", s.get("core.graphsage").wall_s);
            l.set("core.line_wall_s", s.get("core.line").wall_s);
            bench_layer(&s, l);
        }
        Ok(p)
    }

    fn probes(inp: &Inputs, pool: &Arc<Pool>) -> Res<Layer> {
        let mut l = Layer::default();
        super::common_probes(pool, &mut l);
        let pairs = inp.probe_pairs.len() as f64;
        let (w, s) = sut::probe_psfunc(
            inp.line_graph.num_vertices(),
            LINE_DIM,
            &inp.probe_pairs,
            pool,
        )?;
        l.set("ps.psfunc_wall_ns_per_pair", w * 1e9 / pairs);
        l.set("ps.psfunc_sim_ns_per_pair", s * 1e9 / pairs);
        l.set(
            "tensor.fwd_bwd_wall_us_per_batch",
            sut::probe_tensor(64, FEAT_DIM, 32, 50) * 1e6,
        );
        // The features file GraphSage reads: n x (dim f32 + u32 label).
        super::dfs_probe(inp.ds3.features.len() * (FEAT_DIM * 4 + 4), &mut l)?;
        Ok(l)
    }
}
