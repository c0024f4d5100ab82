//! Extending PSGraph: user-defined server-side operators (psFunc, §III-A)
//! and the Listing-1 job API.
//!
//! This example implements **degree centrality normalization** as a custom
//! algorithm: compute out-degrees into a PS vector, then run a
//! user-defined psFunc that rescales the whole vector *on the servers* —
//! no degree ever crosses the network after the initial push. The job is
//! then driven end-to-end through `run_job` (load → transform → save).
//!
//! ```text
//! cargo run --release --example custom_operator
//! ```

use std::sync::Arc;

use psgraph::core::runner;
use psgraph::core::{run_job, GraphAlgorithm, PsGraphContext};
use psgraph::dataflow::Rdd;
use psgraph::graph::{gen, io};
use psgraph::ps::{PartitionViewMut, Partitioner, RecoveryMode, VectorHandle};

/// A user-defined algorithm: normalized degree centrality.
struct DegreeCentrality;

impl GraphAlgorithm for DegreeCentrality {
    fn name(&self) -> &'static str {
        "degree_centrality"
    }

    fn transform(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> psgraph::core::error::Result<Vec<(u64, f64)>> {
        // Executors count their local out-degrees and push increments.
        let degrees = VectorHandle::<f64>::create(
            ctx.ps(), "deg", num_vertices, Partitioner::Range, RecoveryMode::Inconsistent,
        )?;
        let deg_ref = &degrees;
        ctx.cluster()
            .run_stage(edges.num_partitions(), |p, exec| {
                let part = edges.partition(p)?;
                let mut local: std::collections::BTreeMap<u64, f64> = Default::default();
                for &(s, _) in part.iter() {
                    *local.entry(s).or_default() += 1.0;
                }
                let (idx, vals): (Vec<u64>, Vec<f64>) = local.into_iter().unzip();
                if !idx.is_empty() {
                    deg_ref
                        .push_add(exec.clock(), &idx, &vals)
                        .map_err(|e| psgraph::dataflow::DataflowError::Other(e.to_string()))?;
                }
                Ok(())
            })
            .map_err(psgraph::core::CoreError::from)?;

        // Custom psFunc #1: find the maximum degree, server-side.
        let driver = ctx.cluster().driver();
        let max_deg = degrees.ps_func(
            driver,
            16,
            8,
            |view| match view {
                PartitionViewMut::Dense { data, .. } => {
                    data.iter().copied().fold(0.0f64, f64::max)
                }
                PartitionViewMut::Sparse(map) => {
                    map.values().copied().fold(0.0f64, f64::max)
                }
            },
            f64::max,
        )?;

        // Custom psFunc #2: normalize in place (built-in `scale`).
        if max_deg > 0.0 {
            degrees.scale(driver, 1.0 / max_deg)?;
        }

        let out = degrees.pull_all(driver)?;
        ctx.ps().unregister("deg");
        Ok(out.into_iter().enumerate().map(|(v, c)| (v as u64, c)).collect())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = PsGraphContext::local();
    let g = gen::rmat(20_000, 150_000, gen::RmatParams::default(), 12);
    io::write_binary(ctx.dfs(), "/in/graph.bin", &g, ctx.cluster().driver())?;

    // Listing-1 flow with the custom algorithm.
    let out_path = run_job(&ctx, &DegreeCentrality, "/in/graph.bin", g.num_vertices())?;
    let centrality = runner::load_vertex_values(&ctx, &out_path)?;
    let mut top = centrality.clone();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("degree centrality written to {out_path}; top-5:");
    for (v, c) in top.iter().take(5) {
        println!("  vertex {v:>6}  centrality {c:.4}");
    }
    assert!((top[0].1 - 1.0).abs() < 1e-12, "max normalizes to 1.0");

    println!("total simulated cluster time: {}", ctx.now());
    Ok(())
}
