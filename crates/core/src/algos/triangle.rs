//! Triangle counting (paper §V-B1: "the implementation of triangle count
//! is similar to common neighbor").
//!
//! With the undirected adjacency on the PS, each executor streams its edge
//! batch, pulls both endpoints' neighbor lists, and counts the overlap;
//! `Σ_edges |N(u) ∩ N(v)|` over each undirected edge counted once equals
//! `3 × triangles`.

use std::sync::Arc;

use psgraph_dataflow::Rdd;

use crate::context::{PsGraphContext, RunStats};
use crate::error::{CoreError, Result};

use super::common_neighbor::stream_pairs;

/// Triangle-count job configuration.
#[derive(Debug, Clone)]
pub struct TriangleCount {
    pub batch_size: usize,
}

impl Default for TriangleCount {
    fn default() -> Self {
        TriangleCount { batch_size: 1024 }
    }
}

/// Result: global triangle count plus per-run statistics.
#[derive(Debug, Clone)]
pub struct TriangleOutput {
    pub triangles: u64,
    pub stats: RunStats,
}

impl TriangleCount {
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<TriangleOutput> {
        let start = ctx.now();
        let snap = ctx.net_snapshot();

        // Canonical undirected edges (a < b), deduped via shuffle. The
        // shuffle's files rebuild a lost partition of `canon`, so the
        // undeduped copy is released at once.
        let undeduped = edges.flat_map(|&(s, d)| {
            if s == d {
                vec![]
            } else {
                vec![(s.min(d), s.max(d))]
            }
        })?;
        let canon = undeduped.distinct(undeduped.num_partitions())?;
        undeduped.unpersist();

        // Undirected adjacency, grouped on the servers.
        let _objects = super::PsObjects::new(ctx, &["tc.adj"]);
        let adj = crate::runner::undirected_table_on_ps(ctx, &canon, "tc.adj", num_vertices)?;
        let mut supersteps = 1;

        // Stream canonical edges; each common neighbor of (a, b) closes a
        // triangle; every triangle is counted once per of its 3 edges.
        let rounds = stream_pairs(ctx, &adj, &canon, self.batch_size, &mut supersteps, |_, counts| {
            counts.into_iter().flatten().sum::<u64>()
        })?;
        Ok(TriangleOutput {
            triangles: triangles_from(rounds.into_iter().flatten().sum())?,
            stats: ctx.stats_since(start, snap, supersteps),
        })
    }
}

/// Triangles from `Σ |N(u) ∩ N(v)|` over the canonical edges: each
/// triangle is counted once per edge, so anything but a multiple of three
/// is a wrong count, not a rounding to hide.
fn triangles_from(edge_sum: u64) -> Result<u64> {
    if edge_sum % 3 != 0 {
        return Err(CoreError::Invalid(format!(
            "the edges' common-neighbor counts sum to {edge_sum}, not a multiple of 3"
        )));
    }
    Ok(edge_sum / 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};

    fn count(g: &EdgeList) -> u64 {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        TriangleCount { batch_size: 16 }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap()
            .triangles
    }

    #[test]
    fn known_graphs() {
        assert_eq!(count(&gen::complete(4)), 4);
        assert_eq!(count(&gen::complete(6)), 20);
        assert_eq!(count(&gen::ring(8)), 0);
        assert_eq!(count(&EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)])), 1);
    }

    #[test]
    fn duplicate_and_bidirectional_edges_do_not_double_count() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2), (2, 0), (0, 1), (2, 1)]);
        assert_eq!(count(&g), 1);
    }

    #[test]
    fn random_graph_matches_exact() {
        let g = gen::erdos_renyi(40, 250, 53).dedup();
        assert_eq!(count(&g), metrics::triangles_exact(&g));
    }

    #[test]
    fn powerlaw_graph_matches_exact() {
        let g = gen::rmat(50, 400, Default::default(), 59).dedup();
        assert_eq!(count(&g), metrics::triangles_exact(&g));
    }

    #[test]
    fn failed_run_releases_its_neighbor_table() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(60, 300, Default::default(), 61).dedup();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        // The table is never checkpointed, so a dead server fails the run.
        let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 1, 1)]);
        ctx.attach_chaos(chaos.clone());
        TriangleCount { batch_size: 8 }.run(&ctx, &edges, g.num_vertices()).unwrap_err();
        assert_eq!(chaos.stats().crashes, 1);
        assert!(!ctx.ps().is_registered("tc.adj"));
        assert_eq!(ctx.ps().resident_bytes(), 0);
    }

    #[test]
    fn a_sum_that_is_not_three_per_triangle_is_an_error() {
        assert_eq!(triangles_from(0).unwrap(), 0);
        assert_eq!(triangles_from(3 * 56).unwrap(), 56);
        for wrong in [1, 7, 3 * 56 + 2] {
            let err = triangles_from(wrong).unwrap_err();
            let names_it = matches!(&err, CoreError::Invalid(m) if m.contains(&wrong.to_string()));
            assert!(names_it, "{err}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let ctx = PsGraphContext::local();
        let g = gen::complete(8);
        let edges = distribute_edges(&ctx, &g, 4).unwrap();
        let out = TriangleCount::default().run(&ctx, &edges, 8).unwrap();
        assert_eq!(out.triangles, 56);
        assert!(out.stats.elapsed > psgraph_sim::SimTime::ZERO);
        assert!(out.stats.ps_net_bytes > 0);
    }
}
