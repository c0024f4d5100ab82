//! GraphX PageRank: the textbook Spark implementation — every iteration
//! joins the full edge table against the rank table, shuffles one
//! contribution per edge, and aggregates. No increments, no parameter
//! server: the whole rank table and the whole message volume move through
//! the shuffle each superstep, which is the 8×-slower path of Fig. 6.

use psgraph_dataflow::{DataflowError, Rdd};

use crate::graph::GxGraph;

/// Run `iterations` of damped PageRank; returns `(vertex, rank)` pairs in
/// the unnormalized form `PR = (1-d) + d·Σ PR_j/L_j`.
pub fn gx_pagerank(
    gx: &GxGraph,
    damping: f64,
    iterations: u64,
) -> Result<Vec<(u64, f64)>, DataflowError> {
    let parts = gx.edges.num_partitions();
    let degrees = gx.out_degrees()?;

    // Dense vertex table (every id gets a rank, like `Graph.outerJoin`).
    let n = gx.num_vertices;
    let zeros = Rdd::from_vec(
        gx.cluster(),
        (0..n).map(|v| (v, 0.0f64)).collect(),
        parts,
    )?;

    let mut ranks = zeros.map(|&(v, _)| (v, 1.0f64))?;
    for _ in 0..iterations {
        // Triplets: join edge table (keyed by src) with rank and degree.
        let rank_deg = ranks.join(&degrees, parts)?;
        let contribs = gx
            .edges
            .join(&rank_deg, parts)?
            .map(|&(_src, (dst, (rank, deg)))| (dst, rank / deg as f64))?;
        let sums = contribs.reduce_by_key(parts, |a, b| a + b)?;
        // Re-densify (vertices with no in-edges keep the base rank).
        let merged = zeros.union(&sums)?.reduce_by_key(parts, |a, b| a + b)?;
        // The rank table keeps its lineage: it pins `merged` (vertex-sized)
        // and nothing older, since a shuffle's output replays its retained
        // files instead of its parents.
        ranks = merged.map(move |&(v, s)| (v, (1.0 - damping) + damping * s))?;
    }

    let mut out = ranks.collect()?;
    out.sort_by_key(|&(v, _)| v);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::Cluster;
    use psgraph_graph::{gen, metrics, EdgeList};

    fn run(g: &EdgeList, iters: u64) -> Vec<(u64, f64)> {
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, g, 8).unwrap();
        gx_pagerank(&gx, 0.85, iters).unwrap()
    }

    /// Close the ring so there are no dangling vertices (same caveat as
    /// the PSGraph PageRank tests).
    fn close_ring(g: &EdgeList) -> EdgeList {
        let n = g.num_vertices();
        let mut edges = g.edges().to_vec();
        for v in 0..n {
            edges.push((v, (v + 1) % n));
        }
        EdgeList::new(n, edges).dedup()
    }

    #[test]
    fn uniform_on_ring() {
        let out = run(&gen::ring(10), 30);
        assert_eq!(out.len(), 10);
        for &(_, r) in &out {
            assert!((r - 1.0).abs() < 1e-6, "ring rank {r}");
        }
    }

    #[test]
    fn matches_exact_reference() {
        let g = close_ring(&gen::rmat(50, 300, Default::default(), 7).dedup());
        let out = run(&g, 40);
        let exact = metrics::pagerank_exact(&g, 0.85, 60);
        let n = g.num_vertices() as f64;
        for (v, &(_, r)) in out.iter().enumerate() {
            assert!(
                (r / n - exact[v]).abs() < 1e-3,
                "vertex {v}: graphx {} vs exact {}",
                r / n,
                exact[v]
            );
        }
    }

    #[test]
    fn agrees_with_psgraph_shapewise() {
        // Both engines implement the same math; spot-check the hub.
        let edges = (1..15u64).map(|v| (v, 0)).chain([(0u64, 1u64)]).collect();
        let g = EdgeList::new(15, edges);
        let out = run(&g, 30);
        assert!(out[0].1 > 3.0 * out[2].1, "hub must dominate");
    }

    #[test]
    fn pagerank_costs_grow_with_iterations() {
        let g = gen::rmat(100, 1000, Default::default(), 9).dedup();
        let c1 = Cluster::local();
        let gx1 = GxGraph::from_edgelist(&c1, &g, 8).unwrap();
        gx_pagerank(&gx1, 0.85, 2).unwrap();
        let c2 = Cluster::local();
        let gx2 = GxGraph::from_edgelist(&c2, &g, 8).unwrap();
        gx_pagerank(&gx2, 0.85, 8).unwrap();
        assert!(c2.now() > c1.now().scale(2.0), "per-iteration shuffle cost");
    }

    #[test]
    fn superstep_shuffle_volume_is_combined_map_side() {
        // The baseline must not be naive where Spark is not: the
        // per-destination sum is a `reduceByKey`, so a map task ships one
        // partial sum per destination it saw, not one record per edge.
        // Bound every shuffle of a superstep by what it may ship — the
        // contribution leg by one 16-byte record per (map task, dst) — and
        // hold the measured per-superstep network volume to it.
        use psgraph_dataflow::shuffle::key_partition;
        use psgraph_dataflow::ClusterConfig;
        const PARTS: usize = 8;
        let g = close_ring(&gen::rmat(64, 2_400, Default::default(), 21).dedup());
        let (n, e) = (g.num_vertices(), g.num_edges() as u64);
        let shipped = |iterations| {
            let c = Cluster::new(ClusterConfig::default().with_executors(PARTS));
            let gx = GxGraph::from_edgelist(&c, &g, PARTS).unwrap();
            gx_pagerank(&gx, 0.85, iterations).unwrap();
            c.network().stats().total_bytes()
        };
        let per_superstep = (shipped(3) - shipped(1)) / 2;

        // Contributions are produced by the edge ⋈ (rank, degree) join,
        // whose output is partitioned by source.
        let mut dsts_by_task = vec![std::collections::BTreeSet::new(); PARTS];
        for &(src, dst) in g.edges() {
            dsts_by_task[key_partition(&src, PARTS)].insert(dst);
        }
        let contributions = dsts_by_task.iter().map(|d| d.len() as u64).sum::<u64>() * 16;
        // ranks ⋈ degrees (two 16 B sides), the edge table (16 B an edge)
        // and (src, (rank, degree)) (24 B) into the triplet join, and the
        // re-densifying union of zeros and sums (16 B each, combined).
        let other_legs = n * (16 + 16) + e * 16 + n * 24 + n * (16 + 16);
        assert!(
            per_superstep <= contributions + other_legs,
            "{per_superstep} B per superstep vs bound {contributions} + {other_legs}"
        );
        // One record per edge on the contribution leg would not fit: on 8
        // executors 7/8 of a shuffle crosses the network.
        let naive = (e * 16 + other_legs) * 7 / 8;
        assert!(naive > contributions + other_legs, "bound has no teeth on this graph");
    }
}
