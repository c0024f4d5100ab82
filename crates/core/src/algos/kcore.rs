//! Distributed K-core decomposition (paper §V-B1: "The implementation of
//! K-core is similar to PageRank").
//!
//! Uses the h-index iteration of Montresor, De Pellegrini & Miorandi
//! (2013): start with `core[v] = degree(v)` and repeatedly set `core[v]`
//! to the H-index of its neighbors' current values. The sequence is
//! monotonically non-increasing and converges to the exact coreness. It is
//! one fold of the shared neighbourhood program (`algos::superstep`): the
//! `coreness` vector lives on the PS, each executor reads the estimates of
//! its partitions' vertices and their neighbors once per superstep and
//! pushes only changed values, the same increment-sparsity trick as
//! PageRank. The iteration is monotone, so its fixed point does not depend
//! on which of this superstep's pushes a read already sees.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_graph::metrics::h_index;
use psgraph_ps::VectorHandle;

use super::superstep::{run_program, NeighborhoodProgram};
use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::Result;

/// K-core job configuration.
#[derive(Debug, Clone)]
pub struct KCore {
    pub max_iterations: u64,
}

impl Default for KCore {
    fn default() -> Self {
        KCore { max_iterations: 100 }
    }
}

/// Result: per-vertex coreness plus run statistics.
#[derive(Debug, Clone)]
pub struct KCoreOutput {
    pub coreness: Vec<u64>,
    pub stats: RunStats,
}

impl KCore {
    /// Run on an edge RDD (treated as undirected) over `[0, num_vertices)`.
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<KCoreOutput> {
        let (coreness, stats) = run_program(self, ctx, edges, num_vertices)?;
        Ok(KCoreOutput { coreness, stats })
    }
}

impl NeighborhoodProgram for KCore {
    const NAME: &'static str = "kcore";
    const VECTOR: &'static str = "kcore.core";
    const ADJ: &'static str = "kcore.adj";
    /// The h-index's counting buffer.
    type Scratch = Vec<u32>;

    fn max_iterations(&self) -> u64 {
        self.max_iterations
    }

    /// `core[v] = degree(v)`: each executor pushes the degrees of all its
    /// partitions as one request. A vertex without edges is in no table
    /// and keeps 0.
    fn init(
        &self,
        ctx: &PsGraphContext,
        tables: &Rdd<(u64, Vec<u64>)>,
        values: &VectorHandle<u64>,
    ) -> Result<()> {
        ctx.cluster().run_executors(tables.num_partitions(), |exec, parts| {
            let local = tables.partitions(parts)?;
            let (idx, vals): (Vec<u64>, Vec<u64>) =
                local.iter().flat_map(|part| part.iter()).map(|(v, ns)| (*v, ns.len() as u64)).unzip();
            if !idx.is_empty() {
                values.push_set(exec.clock(), &idx, &vals).df()?;
            }
            Ok(())
        })?;
        Ok(())
    }

    fn update(own: u64, nbrs: &[u64], scratch: &mut Vec<u32>) -> Option<u64> {
        let h = h_index(nbrs, scratch).min(own);
        (h < own).then_some(h)
    }

    fn cpu_ops(_vertices: u64, neighbors: u64) -> u64 {
        6 * neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};

    fn run_kcore(g: &EdgeList) -> KCoreOutput {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap()
    }

    #[test]
    fn clique_plus_tail_matches_exact() {
        let mut edges = gen::complete(5).into_edges();
        edges.push((4, 5));
        edges.push((5, 6));
        let g = EdgeList::new(7, edges);
        let out = run_kcore(&g);
        assert_eq!(out.coreness, metrics::kcore_exact(&g));
        assert_eq!(out.coreness[0], 4);
        assert_eq!(out.coreness[6], 1);
    }

    #[test]
    fn ring_is_all_twos() {
        let out = run_kcore(&gen::ring(12));
        assert!(out.coreness.iter().all(|&c| c == 2), "{:?}", out.coreness);
    }

    #[test]
    fn random_graph_matches_exact() {
        let g = gen::erdos_renyi(50, 300, 23).dedup();
        let out = run_kcore(&g);
        assert_eq!(out.coreness, metrics::kcore_exact(&g));
    }

    #[test]
    fn powerlaw_graph_matches_exact() {
        let g = gen::rmat(60, 400, Default::default(), 29).dedup();
        let out = run_kcore(&g);
        assert_eq!(out.coreness, metrics::kcore_exact(&g));
        assert!(out.stats.supersteps < 100, "h-index converges fast");
    }

    #[test]
    fn isolated_vertices_have_zero_core() {
        let g = EdgeList::new(10, vec![(0, 1), (1, 2), (2, 0)]);
        let out = run_kcore(&g);
        assert_eq!(out.coreness[0], 2);
        assert_eq!(out.coreness[9], 0);
    }

    #[test]
    fn survives_executor_failure() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(40, 200, Default::default(), 31).dedup();
        // A pool of 1: the job is order-sensitive and these tests are
        // about the algorithm, not the claim schedule (DESIGN.md §6,
        // ROADMAP item 2) — on a larger pool the superstep count can
        // differ and the scripted kill can miss its superstep.
        let pool = Arc::new(psgraph_harness::Pool::new(1));
        let ctx = PsGraphContext::new(crate::PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 2, 0)]);
        ctx.attach_chaos(chaos.clone());
        let out = KCore::default().run(&ctx, &edges, 40).unwrap();
        assert_eq!(chaos.stats().crashes, 1);
        assert_eq!(out.coreness, metrics::kcore_exact(&g));
    }
}
