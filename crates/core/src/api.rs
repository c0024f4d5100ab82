//! The paper's programming interface (Listing 1): a `GraphAlgo` with a
//! `transform` method, driven by a `GraphRunner` that loads the dataset,
//! runs the algorithm, and saves the output.
//!
//! ```text
//! class GraphRunner {
//!   def main(args) = {
//!     SparkContext.getOrCreate(); PSContext.getOrCreate()
//!     val algo   = new GraphAlgo(params)
//!     val graph  = GraphIO.load(params)
//!     val output = algo.transform(graph)
//!     GraphIO.save(output)
//!   }
//! }
//! ```

use std::sync::Arc;

use psgraph_dataflow::Rdd;

use crate::algos::superstep::{run_program, NeighborhoodProgram};
use crate::algos::PageRank;
use crate::context::PsGraphContext;
use crate::error::Result;
use crate::runner;

/// An algorithm that transforms an edge dataset into per-vertex values —
/// the `GraphAlgo.transform(dataset)` of Listing 1. Implemented by every
/// traditional-graph algorithm whose output is a vertex table.
pub trait GraphAlgorithm {
    /// Human-readable job name (used for output paths / logs).
    fn name(&self) -> &'static str;

    /// Run on an edge RDD; return `(vertex, value)` rows.
    fn transform(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<Vec<(u64, f64)>>;
}

impl GraphAlgorithm for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn transform(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<Vec<(u64, f64)>> {
        let out = self.run(ctx, edges, num_vertices)?;
        Ok(out.ranks.iter().enumerate().map(|(v, &r)| (v as u64, r)).collect())
    }
}

/// K-Core, Label Propagation and Connected Components: one `u64` per
/// vertex, reported as `f64`.
impl<P: NeighborhoodProgram> GraphAlgorithm for P {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn transform(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<Vec<(u64, f64)>> {
        let (values, _) = run_program(self, ctx, edges, num_vertices)?;
        Ok(values.iter().enumerate().map(|(v, &x)| (v as u64, x as f64)).collect())
    }
}

/// Listing 1's `GraphRunner.main`: load from the DFS, transform, save.
/// Returns the output DFS path.
pub fn run_job(
    ctx: &Arc<PsGraphContext>,
    algo: &dyn GraphAlgorithm,
    input_path: &str,
    num_vertices: u64,
) -> Result<String> {
    let edges = runner::load_edges(ctx, input_path)?;
    let output = algo.transform(ctx, &edges, num_vertices)?;
    let out_path = format!("/out/{}.bin", algo.name());
    runner::save_vertex_values(ctx, &out_path, &output)?;
    Ok(out_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{ConnectedComponents, KCore, LabelPropagation};
    use psgraph_graph::{gen, io, metrics};

    #[test]
    fn run_job_executes_listing1_flow() {
        let ctx = PsGraphContext::local();
        let g = gen::rmat(100, 600, Default::default(), 501).dedup();
        io::write_binary(ctx.dfs(), "/in/g.bin", &g, ctx.cluster().driver()).unwrap();

        let path = run_job(&ctx, &KCore::default(), "/in/g.bin", 100).unwrap();
        assert_eq!(path, "/out/kcore.bin");
        let saved = runner::load_vertex_values(&ctx, &path).unwrap();
        let exact = metrics::kcore_exact(&g);
        for (v, x) in saved {
            assert_eq!(x as u64, exact[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn multiple_algorithms_through_the_same_runner() {
        let ctx = PsGraphContext::local();
        let g = gen::rmat(60, 300, Default::default(), 503).dedup();
        io::write_binary(ctx.dfs(), "/in/g.bin", &g, ctx.cluster().driver()).unwrap();
        let algos: Vec<Box<dyn GraphAlgorithm>> = vec![
            Box::new(PageRank { max_iterations: 10, ..Default::default() }),
            Box::new(KCore::default()),
            Box::new(LabelPropagation::default()),
            Box::new(ConnectedComponents::default()),
        ];
        let mut paths = Vec::new();
        for a in &algos {
            paths.push(run_job(&ctx, a.as_ref(), "/in/g.bin", 60).unwrap());
        }
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert!(ctx.dfs().exists(p), "{p} missing");
        }
        // PS must be clean between jobs (objects unregistered).
        assert_eq!(ctx.ps().resident_bytes(), 0);
    }
}
