//! Distributed K-core decomposition (paper §V-B1: "The implementation of
//! K-core is similar to PageRank").
//!
//! Uses the h-index iteration of Montresor, De Pellegrini & Miorandi
//! (2013): start with `core[v] = degree(v)` and repeatedly set `core[v]`
//! to the H-index of its neighbors' current values. The sequence is
//! monotonically non-increasing and converges to the exact coreness. The
//! `coreness` vector lives on the PS; executors hold the (undirected)
//! neighbor tables, read the estimates through their [`PsAgent`]'s plan —
//! one request per executor per superstep — and push only changed values,
//! the same increment-sparsity trick as PageRank. The iteration is
//! monotone, so its fixed point does not depend on which of this
//! superstep's pushes a read already sees.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_graph::metrics::h_index;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};

use crate::agent::PsAgent;
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
        let start = ctx.now();
        let snap = ctx.net_snapshot();

        // Undirected neighbor tables: both edge directions are emitted
        // inside the shuffle write (pipelined — no symmetric copy), and
        // groups are sorted/deduped inside the aggregation.
        let tables = crate::runner::to_undirected_neighbor_tables(edges)?;

        let _objects = super::PsObjects::new(ctx, &["kcore.core"]);
        let core = VectorHandle::<u64>::create(
            ctx.ps(), "kcore.core", num_vertices, Partitioner::Range, RecoveryMode::Consistent,
        )?;

        // Initialize core[v] = degree(v): each executor pushes the degrees
        // of all its partitions as one request.
        ctx.cluster()
            .run_executors(tables.num_partitions(), |exec, parts| {
                let local = tables.partitions(parts)?;
                let (idx, vals): (Vec<u64>, Vec<u64>) =
                    local.iter().flat_map(|part| part.iter()).map(|(v, ns)| (*v, ns.len() as u64)).unzip();
                if !idx.is_empty() {
                    core.push_set(exec.clock(), &idx, &vals).df()?;
                }
                Ok(())
            })
            .map_err(crate::error::CoreError::from)?;

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
                    // One planned pull of the current estimates of every
                    // local vertex and its neighbors, all partitions at once.
                    let got = agent.pull(exec, &core, || super::neighborhood_keys(&local))?;
                    let mut cursor = 0usize;
                    let mut upd_idx = Vec::new();
                    let mut upd_val = Vec::new();
                    let mut work = 0u64;
                    let mut scratch = Vec::new();
                    for (v, ns) in local.iter().flat_map(|part| part.iter()) {
                        let own = got[cursor];
                        cursor += 1;
                        let h = h_index(&got[cursor..cursor + ns.len()], &mut scratch).min(own);
                        cursor += ns.len();
                        work += ns.len() as u64;
                        if h < own {
                            upd_idx.push(*v);
                            upd_val.push(h);
                        }
                    }
                    exec.charge_cpu(ctx.cluster().cost(), work * 6);
                    if !upd_idx.is_empty() {
                        core.push_set(exec.clock(), &upd_idx, &upd_val).df()?;
                    }
                    Ok(upd_idx.len() as u64)
                })
                .map_err(crate::error::CoreError::from)?;

            if changes.iter().sum::<u64>() == 0 {
                break;
            }
        }

        let coreness = core.pull_all(ctx.cluster().driver())?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);

        Ok(KCoreOutput { coreness, stats: ctx.stats_since(start, snap, supersteps) })
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
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 2, 0)]);
        ctx.attach_chaos(chaos.clone());
        let out = KCore::default().run(&ctx, &edges, 40).unwrap();
        assert_eq!(chaos.stats().crashes, 1);
        assert_eq!(out.coreness, metrics::kcore_exact(&g));
    }
}
