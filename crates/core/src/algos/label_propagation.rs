//! Label Propagation community detection (paper §II-B lists it among the
//! traditional graph algorithms PSGraph supports).
//!
//! Labels live on the PS; each superstep every vertex adopts the most
//! frequent label among its neighbors (ties broken toward the smaller
//! label for determinism). Converges when no label changes.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};
use psgraph_sim::FxHashMap;

use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
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
        let start = ctx.now();
        let snap = ctx.net_snapshot();

        let tables = crate::runner::to_undirected_neighbor_tables(edges)?;

        let _objects = super::PsObjects::new(ctx, &["lp.labels"]);
        let labels = VectorHandle::<u64>::create(
            ctx.ps(), "lp.labels", num_vertices, Partitioner::Range, RecoveryMode::Consistent,
        )?;
        // Initial label = own vertex id.
        let ids: Vec<u64> = (0..num_vertices).collect();
        labels.push_set(ctx.cluster().driver(), &ids, &ids)?;

        let mut supersteps = 0;
        for step in 0..self.max_iterations {
            let (killed_execs, _) = ctx.superstep_maintenance(step)?;
            if !killed_execs.is_empty() {
                tables.recover()?;
            }
            supersteps += 1;

            let labels_ref = &labels;
            let changes: Vec<u64> = ctx
                .cluster()
                .run_stage(tables.num_partitions(), |p, exec| {
                    let part = tables.partition(p)?;
                    let mut wanted = Vec::new();
                    for (v, ns) in part.iter() {
                        wanted.push(*v);
                        wanted.extend_from_slice(ns);
                    }
                    let got = labels_ref.pull(exec.clock(), &wanted).df()?;
                    let mut cursor = 0;
                    let mut upd_idx = Vec::new();
                    let mut upd_val = Vec::new();
                    let mut work = 0u64;
                    for (v, ns) in part.iter() {
                        let own = got[cursor];
                        cursor += 1;
                        let nlabels = &got[cursor..cursor + ns.len()];
                        cursor += ns.len();
                        let mut freq: FxHashMap<u64, u64> = FxHashMap::default();
                        for &l in nlabels {
                            *freq.entry(l).or_default() += 1;
                        }
                        // The most frequent label, ties to the smallest; a
                        // vertex without neighbours keeps its own.
                        let best = freq.iter().map(|(&l, &c)| (c, std::cmp::Reverse(l))).max();
                        let Some((_, std::cmp::Reverse(best))) = best else {
                            continue;
                        };
                        work += ns.len() as u64;
                        if best != own {
                            upd_idx.push(*v);
                            upd_val.push(best);
                        }
                    }
                    exec.charge_cpu(ctx.cluster().cost(), work * 4);
                    if !upd_idx.is_empty() {
                        labels_ref.push_set(exec.clock(), &upd_idx, &upd_val).df()?;
                    }
                    Ok(upd_idx.len() as u64)
                })
                .map_err(crate::error::CoreError::from)?;

            if changes.iter().sum::<u64>() == 0 {
                break;
            }
        }

        let out = labels.pull_all(ctx.cluster().driver())?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);
        Ok(LabelPropagationOutput { labels: out, stats: ctx.stats_since(start, snap, supersteps) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, EdgeList};

    fn run_lp(g: &EdgeList) -> LabelPropagationOutput {
        // A pool of 1: the job is order-sensitive and these tests are
        // about the algorithm, not the claim schedule (ROADMAP 1(c)).
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
