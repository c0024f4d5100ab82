//! The GraphX table abstraction: an edge table + derived vertex tables,
//! all resident as RDDs on the executors (shared-nothing — no parameter
//! server).

use std::sync::Arc;

use psgraph_dataflow::{Cluster, DataflowError, Rdd};
use psgraph_graph::EdgeList;

/// A property graph in GraphX's two-table representation.
pub struct GxGraph {
    cluster: Arc<Cluster>,
    /// The edge table (directed pairs, as loaded).
    pub edges: Rdd<(u64, u64)>,
    pub num_vertices: u64,
}

impl GxGraph {
    /// Build from an in-memory edge list (distributed round-robin, like a
    /// Spark `textFile` + `map`).
    pub fn from_edgelist(
        cluster: &Arc<Cluster>,
        graph: &EdgeList,
        partitions: usize,
    ) -> Result<Self, DataflowError> {
        let edges = Rdd::from_vec(cluster, graph.edges().to_vec(), partitions.max(1))?;
        Ok(GxGraph {
            cluster: Arc::clone(cluster),
            edges,
            num_vertices: graph.num_vertices(),
        })
    }

    /// Build directly from an existing edge RDD.
    pub fn from_rdd(cluster: &Arc<Cluster>, edges: Rdd<(u64, u64)>, num_vertices: u64) -> Self {
        GxGraph { cluster: Arc::clone(cluster), edges, num_vertices }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    fn parts(&self) -> usize {
        self.edges.num_partitions()
    }

    /// Symmetric (undirected) edge table without self-loops or duplicates.
    pub fn undirected_edges(&self) -> Result<Rdd<(u64, u64)>, DataflowError> {
        let sym = self.edges.flat_map(|&(s, d)| {
            if s == d {
                vec![]
            } else {
                vec![(s, d), (d, s)]
            }
        })?;
        sym.distinct(self.parts())
    }

    /// Canonical undirected edges (`a < b`), deduped.
    pub fn canonical_edges(&self) -> Result<Rdd<(u64, u64)>, DataflowError> {
        let canon = self.edges.flat_map(|&(s, d)| {
            if s == d {
                vec![]
            } else {
                vec![(s.min(d), s.max(d))]
            }
        })?;
        canon.distinct(self.parts())
    }

    /// Vertex table of out-degrees (vertices with no out-edges absent, as
    /// in GraphX's `outDegrees`).
    pub fn out_degrees(&self) -> Result<Rdd<(u64, u64)>, DataflowError> {
        let ones = self.edges.map(|&(s, _)| (s, 1u64))?;
        ones.reduce_by_key(self.parts(), |a, b| a + b)
    }

    /// Vertex table of strictly ascending undirected neighbor lists (the
    /// `groupBy` that GraphX's triangle count runs — each executor
    /// materializes its vertices' full adjacency). Triangle count and
    /// common neighbor merge these lists, so the order is a contract.
    pub fn neighbor_sets(&self) -> Result<Rdd<(u64, Vec<u64>)>, DataflowError> {
        let sym = self.undirected_edges()?;
        let grouped = sym.group_by_key(self.parts())?;
        grouped.map_partitions(
            |items| {
                items
                    .iter()
                    .map(|(v, ns)| {
                        let mut ns = ns.clone();
                        ns.sort_unstable();
                        ns.dedup();
                        (*v, ns)
                    })
                    .collect()
            },
            8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_graph::gen;

    fn graph() -> (Arc<Cluster>, GxGraph) {
        let c = Cluster::local();
        let g = gen::rmat(50, 200, Default::default(), 3).dedup();
        let gx = GxGraph::from_edgelist(&c, &g, 8).unwrap();
        (c, gx)
    }

    #[test]
    fn tables_have_expected_shapes() {
        let (_c, gx) = graph();
        assert_eq!(gx.num_vertices, 50);
        assert!(gx.edges.count().unwrap() > 0);
        let und = gx.undirected_edges().unwrap();
        let canon = gx.canonical_edges().unwrap();
        assert_eq!(und.count().unwrap(), 2 * canon.count().unwrap());
    }

    #[test]
    fn out_degrees_match_reference() {
        let c = Cluster::local();
        let g = psgraph_graph::EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2)]);
        let gx = GxGraph::from_edgelist(&c, &g, 2).unwrap();
        let mut deg = gx.out_degrees().unwrap().collect().unwrap();
        deg.sort_unstable();
        assert_eq!(deg, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn neighbor_sets_sorted_unique() {
        let c = Cluster::local();
        let g = psgraph_graph::EdgeList::new(3, vec![(0, 1), (1, 0), (0, 2), (0, 1)]);
        let gx = GxGraph::from_edgelist(&c, &g, 2).unwrap();
        let mut ns = gx.neighbor_sets().unwrap().collect().unwrap();
        ns.sort_by_key(|(v, _)| *v);
        assert_eq!(ns, vec![(0, vec![1, 2]), (1, vec![0]), (2, vec![0])]);
    }
}
