//! GraphX triangle count: Spark's adjacency-set join.
//!
//! Each canonical edge is joined against the neighbor-set table twice, so
//! the join outputs carry full adjacency `Vec`s as payload — on power-law
//! graphs the hub rows are huge and replicated once per incident edge.
//! This is the second Fig. 6 OOM.

use psgraph_dataflow::DataflowError;
use psgraph_graph::metrics::{sorted_intersection_count, Anchor};

use crate::graph::GxGraph;

/// Count triangles (each once).
pub fn gx_triangle_count(gx: &GxGraph) -> Result<u64, DataflowError> {
    let parts = gx.edges.num_partitions();
    let canon = gx.canonical_edges()?;
    let nbrs = gx.neighbor_sets()?;

    // (a, b) ⋈ N(a): payload = adjacency of a, replicated per edge.
    let with_na = canon.join(&nbrs, parts)?; // (a, (b, N(a)))
    let keyed_by_b = with_na.map(|&(a, (b, ref na))| (b, (a, na.clone())))?;
    // ⋈ N(b): each record now carries TWO adjacency lists.
    let with_both = keyed_by_b.join(&nbrs, parts)?; // (b, ((a, N(a)), N(b)))

    // `map`'s charge, with one intersection anchor per partition.
    let counts = with_both.map_partitions(
        |records| {
            let mut anchor = Anchor::default();
            records
                .iter()
                .map(|(_b, ((_a, na), nb))| sorted_intersection_count(na, nb, &mut anchor))
                .collect()
        },
        gx.cluster().config().ops_per_record,
    )?;

    let total: u64 = counts.fold(0u64, |acc, &c| acc + c)?;
    debug_assert_eq!(total % 3, 0);
    Ok(total / 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::{Cluster, ClusterConfig};
    use psgraph_graph::{gen, metrics, EdgeList};

    fn run(g: &EdgeList) -> u64 {
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, g, 8).unwrap();
        gx_triangle_count(&gx).unwrap()
    }

    #[test]
    fn known_counts() {
        assert_eq!(run(&gen::complete(4)), 4);
        assert_eq!(run(&gen::complete(6)), 20);
        assert_eq!(run(&gen::ring(7)), 0);
    }

    #[test]
    fn matches_exact_references() {
        let g = gen::erdos_renyi(40, 220, 83).dedup();
        assert_eq!(run(&g), metrics::triangles_exact(&g));
        let g = gen::rmat(50, 350, Default::default(), 89).dedup();
        assert_eq!(run(&g), metrics::triangles_exact(&g));
    }

    #[test]
    fn ooms_on_tight_memory_budget() {
        let g = gen::rmat(2000, 40_000, Default::default(), 97);
        let cfg = ClusterConfig::default().with_memory(256 << 10);
        let c = Cluster::new(cfg);
        let err = match GxGraph::from_edgelist(&c, &g, 8) {
            Err(e) => e,
            Ok(gx) => match gx_triangle_count(&gx) {
                Err(e) => e,
                Ok(_) => panic!("expected OOM"),
            },
        };
        assert!(matches!(err, DataflowError::Oom(_)), "got {err}");
    }
}
