//! Connected components on the parameter server: min-label propagation
//! with the labels vector on the PS — the same increments-only pattern as
//! PageRank (§IV-A): a vertex pushes its label only when it shrank. Each
//! executor reads `[v, N(v)…]` of all its partitions through its
//! [`PsAgent`]'s plan, one request per superstep; min-label propagation is
//! monotone, so the fixed point is the same whichever pushes a read sees.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};

use crate::agent::PsAgent;
use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
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
        let start = ctx.now();
        let snap = ctx.net_snapshot();

        let tables = crate::runner::to_undirected_neighbor_tables(edges)?;

        let _objects = super::PsObjects::new(ctx, &["cc.labels"]);
        let labels = VectorHandle::<u64>::create(
            ctx.ps(), "cc.labels", num_vertices, Partitioner::Range, RecoveryMode::Consistent,
        )?;
        let ids: Vec<u64> = (0..num_vertices).collect();
        labels.push_set(ctx.cluster().driver(), &ids, &ids)?;

        let agent = PsAgent::new(ctx.cluster());
        let mut supersteps = 0;
        for step in 0..self.max_iterations {
            let (killed_execs, _) = ctx.superstep_maintenance(step)?;
            if !killed_execs.is_empty() {
                tables.recover()?;
            }
            supersteps += 1;

            let changes: Vec<u64> = ctx
                .cluster()
                .run_executors(tables.num_partitions(), |exec, parts| {
                    let local = tables.partitions(parts)?;
                    let got = agent.pull(exec, &labels, || super::neighborhood_keys(&local))?;
                    let mut cursor = 0;
                    let mut upd_idx = Vec::new();
                    let mut upd_val = Vec::new();
                    for (v, ns) in local.iter().flat_map(|part| part.iter()) {
                        let own = got[cursor];
                        cursor += 1;
                        let min_nbr = got[cursor..cursor + ns.len()].iter().copied().min();
                        cursor += ns.len();
                        if let Some(m) = min_nbr {
                            if m < own {
                                upd_idx.push(*v);
                                upd_val.push(m);
                            }
                        }
                    }
                    exec.charge_cpu(ctx.cluster().cost(), got.len() as u64 * 2);
                    if !upd_idx.is_empty() {
                        labels.push_set(exec.clock(), &upd_idx, &upd_val).df()?;
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
        Ok(ConnectedComponentsOutput {
            labels: out,
            stats: ctx.stats_since(start, snap, supersteps),
        })
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
        let ctx = PsGraphContext::local();
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
