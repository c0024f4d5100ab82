//! Label Propagation community detection (paper §II-B lists it among the
//! traditional graph algorithms PSGraph supports).
//!
//! Labels live on the PS; each superstep every vertex adopts the most
//! frequent label among its neighbors (ties broken toward the smaller
//! label for determinism). Converges when no label changes. It is one
//! fold of the shared neighbourhood program (`algos::superstep`): one read
//! of `[v, N(v)…]` per executor per superstep, one push of the changes.
//! Unlike K-Core and CC it is not monotone: the labels found depend on
//! which of a superstep's pushes each executor's read saw.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_sim::FxHashMap;

use super::superstep::{run_program, NeighborhoodProgram};
use crate::context::{PsGraphContext, RunStats};
use crate::error::Result;

/// Label-propagation job configuration.
#[derive(Debug, Clone)]
pub struct LabelPropagation {
    pub max_iterations: u64,
}

impl Default for LabelPropagation {
    fn default() -> Self {
        LabelPropagation { max_iterations: 30 }
    }
}

/// Result: final label per vertex plus statistics.
#[derive(Debug, Clone)]
pub struct LabelPropagationOutput {
    pub labels: Vec<u64>,
    pub stats: RunStats,
}

impl LabelPropagation {
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<LabelPropagationOutput> {
        let (labels, stats) = run_program(self, ctx, edges, num_vertices)?;
        Ok(LabelPropagationOutput { labels, stats })
    }
}

impl NeighborhoodProgram for LabelPropagation {
    const NAME: &'static str = "label_propagation";
    const VECTOR: &'static str = "lp.labels";
    const ADJ: &'static str = "lp.adj";
    /// Label frequencies among one vertex's neighbors.
    type Scratch = FxHashMap<u64, u64>;

    fn max_iterations(&self) -> u64 {
        self.max_iterations
    }

    fn update(own: u64, nbrs: &[u64], freq: &mut FxHashMap<u64, u64>) -> Option<u64> {
        freq.clear();
        for &l in nbrs {
            *freq.entry(l).or_default() += 1;
        }
        // The most frequent label, ties to the smallest; a vertex without
        // neighbours keeps its own.
        let (_, std::cmp::Reverse(best)) =
            freq.iter().map(|(&l, &c)| (c, std::cmp::Reverse(l))).max()?;
        (best != own).then_some(best)
    }

    fn cpu_ops(_vertices: u64, neighbors: u64) -> u64 {
        4 * neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, EdgeList};

    fn run_lp(g: &EdgeList) -> LabelPropagationOutput {
        // A pool of 1: the job is order-sensitive and these tests are
        // about the algorithm, not the claim schedule (DESIGN.md §6,
        // ROADMAP item 2).
        let pool = Arc::new(psgraph_harness::Pool::new(1));
        let ctx = PsGraphContext::new(crate::PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        LabelPropagation::default().run(&ctx, &edges, g.num_vertices()).unwrap()
    }

    #[test]
    fn two_cliques_get_two_labels() {
        // Two K4s joined by one bridge edge.
        let mut edges = gen::complete(4).into_edges();
        for s in 4..8u64 {
            for d in 4..8u64 {
                if s != d {
                    edges.push((s, d));
                }
            }
        }
        edges.push((0, 4));
        let g = EdgeList::new(8, edges);
        let out = run_lp(&g);
        // Each clique converges internally to one label.
        assert_eq!(out.labels[1], out.labels[2]);
        assert_eq!(out.labels[1], out.labels[3]);
        assert_eq!(out.labels[5], out.labels[6]);
        assert_eq!(out.labels[5], out.labels[7]);
    }

    #[test]
    fn isolated_vertex_keeps_own_label() {
        let g = EdgeList::new(5, vec![(0, 1), (1, 0)]);
        let out = run_lp(&g);
        assert_eq!(out.labels[4], 4);
    }

    #[test]
    fn sbm_communities_recovered() {
        let s = gen::sbm2(80, 10.0, 0.2, 2, 0.1, 61);
        let out = run_lp(&s.graph);
        // Majority label within each true community should dominate.
        for half in [0..40usize, 40..80] {
            let mut freq: FxHashMap<u64, usize> = FxHashMap::default();
            for v in half.clone() {
                *freq.entry(out.labels[v]).or_default() += 1;
            }
            let max = freq.values().max().copied().unwrap_or(0);
            assert!(max >= 30, "community not coherent: {max}/40");
        }
    }

    #[test]
    fn converges_and_reports_stats() {
        let out = run_lp(&gen::complete(6));
        assert!(out.stats.supersteps <= 5, "clique converges immediately");
        assert!(out.stats.elapsed > psgraph_sim::SimTime::ZERO);
    }
}
