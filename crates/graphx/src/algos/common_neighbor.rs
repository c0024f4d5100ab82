//! GraphX common neighbor: the same double adjacency join as triangle
//! count, but returning per-pair overlap counts.

use psgraph_dataflow::{DataflowError, Rdd};
use psgraph_graph::metrics::{sorted_intersection_count, Anchor};

use crate::graph::GxGraph;

/// Pairs per join batch. Common-neighbor jobs stream the pair table in
/// batches (as the production job does — the PSGraph version in paper
/// §IV-B does the same): joining *all* pairs against the adjacency at
/// once would materialize every pair's two neighbor lists simultaneously.
/// Note GraphX's `triangleCount` has no such batching — that is exactly
/// why TC OOMs in Fig. 6 while CN merely runs 3× slower than PSGraph.
pub const CN_BATCH: usize = 128;

/// Count common neighbors for every canonical edge of the graph; returns
/// `(a, b, count)` triples.
pub fn gx_common_neighbor(gx: &GxGraph) -> Result<Vec<(u64, u64, u64)>, DataflowError> {
    let parts = gx.edges.num_partitions();
    let pairs = gx.canonical_edges()?;
    gx_common_neighbor_for_pairs(gx, &pairs, parts)
}

/// Count common neighbors for an explicit pair table (batched joins).
pub fn gx_common_neighbor_for_pairs(
    gx: &GxGraph,
    pairs: &Rdd<(u64, u64)>,
    parts: usize,
) -> Result<Vec<(u64, u64, u64)>, DataflowError> {
    // Build and hash-partition the adjacency table ONCE; every batch then
    // joins against it without re-shuffling it (Spark reuses a partitioned
    // cached table when the partitioners match).
    let nbrs = gx.neighbor_sets()?.partition_by_key(parts)?;
    let total = pairs.count()?;
    let mut out = Vec::with_capacity(total);
    let mut offset = 0usize;
    while offset < total {
        let lo = offset;
        let hi = (offset + CN_BATCH).min(total);
        // Select this batch in deterministic partition order.
        let batch = {
            let mut taken = Vec::with_capacity(hi - lo);
            let mut seen = 0usize;
            for p in 0..pairs.num_partitions() {
                let part = pairs.partition(p)?;
                for &pair in part.iter() {
                    if seen >= lo && seen < hi {
                        taken.push(pair);
                    }
                    seen += 1;
                }
            }
            Rdd::from_vec(gx.cluster(), taken, parts)?
        };
        let mut counted = gx_cn_one_batch(&batch, &nbrs, parts)?;
        out.append(&mut counted);
        offset = hi;
    }
    Ok(out)
}

fn gx_cn_one_batch(
    batch: &Rdd<(u64, u64)>,
    nbrs: &Rdd<(u64, Vec<u64>)>,
    parts: usize,
) -> Result<Vec<(u64, u64, u64)>, DataflowError> {
    let with_both = {
        // Only the (small) batch side shuffles; the adjacency table stays
        // put (co-partitioned join).
        let batch_part = batch.partition_by_key(parts)?;
        let with_na = nbrs.join_copartitioned(&batch_part)?; // (a, (N(a), b))
        let keyed_by_b = with_na.map(|&(_a, (ref na, b))| (b, (na.clone(), _a)))?;
        let keyed_part = keyed_by_b.partition_by_key(parts)?;
        nbrs.join_copartitioned(&keyed_part)? // (b, (N(b), (N(a), a)))
    };
    // `map`'s charge, with one intersection anchor per partition.
    let counted = with_both.map_partitions(
        |records| {
            let mut anchor = Anchor::default();
            records
                .iter()
                .map(|(b, (nb, (na, a)))| (*a, *b, sorted_intersection_count(na, nb, &mut anchor)))
                .collect()
        },
        batch.cluster().config().ops_per_record,
    )?;
    counted.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::{Cluster, ClusterConfig};
    use psgraph_graph::{gen, metrics, EdgeList};
    use psgraph_sim::FxHashMap;

    fn check(g: &EdgeList) {
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, g, 8).unwrap();
        let out = gx_common_neighbor(&gx).unwrap();
        let queried: Vec<(u64, u64)> = out.iter().map(|&(a, b, _)| (a, b)).collect();
        let exact = metrics::common_neighbors_exact(g, &queried);
        let got: FxHashMap<(u64, u64), u64> =
            out.iter().map(|&(a, b, n)| ((a, b), n)).collect();
        for (&(a, b), want) in queried.iter().zip(&exact) {
            assert_eq!(got[&(a, b)], *want, "pair ({a},{b})");
        }
    }

    #[test]
    fn square_with_diagonal() {
        check(&EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]));
    }

    #[test]
    fn matches_exact_on_random_and_powerlaw() {
        check(&gen::erdos_renyi(40, 200, 101).dedup());
        check(&gen::rmat(50, 300, Default::default(), 103).dedup());
    }

    #[test]
    fn explicit_pairs() {
        let c = Cluster::local();
        let g = gen::complete(5);
        let gx = GxGraph::from_edgelist(&c, &g, 4).unwrap();
        let pairs = Rdd::from_vec(&c, vec![(0u64, 1u64), (2, 4)], 2).unwrap();
        let mut out = gx_common_neighbor_for_pairs(&gx, &pairs, 4).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![(0, 1, 3), (2, 4, 3)]);
    }

    #[test]
    fn survives_reasonable_budget_but_not_tiny_one() {
        let g = gen::rmat(1500, 30_000, Default::default(), 107);
        let tight = Cluster::new(ClusterConfig::default().with_memory(256 << 10));
        let err = match GxGraph::from_edgelist(&tight, &g, 8) {
            Err(e) => e,
            Ok(gx) => gx_common_neighbor(&gx).map(|_| ()).unwrap_err(),
        };
        assert!(matches!(err, DataflowError::Oom(_)));
        let roomy = Cluster::new(ClusterConfig::default().with_memory(1 << 30));
        let gx = GxGraph::from_edgelist(&roomy, &g, 8).unwrap();
        assert!(gx_common_neighbor(&gx).is_ok());
    }
}
