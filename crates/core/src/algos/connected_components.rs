//! Connected components on the parameter server: min-label propagation
//! with the labels vector on the PS — the same increments-only pattern as
//! PageRank (§IV-A): a vertex pushes its label only when it shrank. It is
//! one fold of the shared neighbourhood program (`algos::superstep`), one
//! read of `[v, N(v)…]` per executor per superstep; min-label propagation
//! is monotone, so the fixed point is the same whichever pushes a read
//! sees.

use std::sync::Arc;

use psgraph_dataflow::Rdd;

use super::superstep::{run_program, NeighborhoodProgram};
use crate::context::{PsGraphContext, RunStats};
use crate::error::Result;

/// Connected-components job configuration.
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    pub max_iterations: u64,
}

impl Default for ConnectedComponents {
    fn default() -> Self {
        ConnectedComponents { max_iterations: 200 }
    }
}

/// Result: component label per vertex (the minimum vertex id reachable).
#[derive(Debug, Clone)]
pub struct ConnectedComponentsOutput {
    pub labels: Vec<u64>,
    pub stats: RunStats,
}

impl ConnectedComponents {
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<ConnectedComponentsOutput> {
        let (labels, stats) = run_program(self, ctx, edges, num_vertices)?;
        Ok(ConnectedComponentsOutput { labels, stats })
    }
}

impl NeighborhoodProgram for ConnectedComponents {
    const NAME: &'static str = "connected_components";
    const VECTOR: &'static str = "cc.labels";
    const ADJ: &'static str = "cc.adj";
    type Scratch = ();

    fn max_iterations(&self) -> u64 {
        self.max_iterations
    }

    fn update(own: u64, nbrs: &[u64], _: &mut ()) -> Option<u64> {
        nbrs.iter().copied().min().filter(|&m| m < own)
    }

    fn cpu_ops(vertices: u64, neighbors: u64) -> u64 {
        2 * (vertices + neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};

    fn run_cc(g: &EdgeList) -> Vec<u64> {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        ConnectedComponents::default()
            .run(&ctx, &edges, g.num_vertices())
            .unwrap()
            .labels
    }

    #[test]
    fn two_islands_and_isolated() {
        let g = EdgeList::new(7, vec![(0, 1), (1, 2), (4, 5)]);
        let cc = run_cc(&g);
        assert_eq!(cc, vec![0, 0, 0, 3, 4, 4, 6]);
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = gen::erdos_renyi(80, 120, 401).dedup();
        let ours = run_cc(&g);
        let reference = metrics::connected_components(&g);
        for a in 0..80usize {
            for b in 0..80usize {
                assert_eq!(ours[a] == ours[b], reference[a] == reference[b]);
            }
        }
    }

    #[test]
    fn single_component_on_ring() {
        let cc = run_cc(&gen::ring(20));
        assert!(cc.iter().all(|&l| l == 0));
    }

    #[test]
    fn survives_executor_failure() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(50, 120, Default::default(), 31).dedup();
        // A pool of 1: the job is order-sensitive and these tests are
        // about the algorithm, not the claim schedule (DESIGN.md §6,
        // ROADMAP item 2) — on a larger pool the superstep count can
        // differ and the scripted kill can miss its superstep.
        let pool = Arc::new(psgraph_harness::Pool::new(1));
        let ctx = PsGraphContext::new(crate::PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 1, 2)]);
        ctx.attach_chaos(chaos.clone());
        let out = ConnectedComponents::default().run(&ctx, &edges, 50).unwrap();
        assert_eq!(chaos.stats().crashes, 1);
        let reference = metrics::connected_components(&g);
        for a in 0..50usize {
            for b in 0..50usize {
                assert_eq!(out.labels[a] == out.labels[b], reference[a] == reference[b]);
            }
        }
    }
}
