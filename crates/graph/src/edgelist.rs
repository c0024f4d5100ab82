//! Edge lists and adjacency construction.

use psgraph_sim::{FxHashMap, FxHashSet};

/// A directed graph as an edge list over vertex ids `[0, num_vertices)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: u64,
    edges: Vec<(u64, u64)>,
}

impl EdgeList {
    /// Build from raw pairs; `num_vertices` must exceed every endpoint.
    pub fn new(num_vertices: u64, edges: Vec<(u64, u64)>) -> Self {
        debug_assert!(
            edges.iter().all(|&(s, d)| s < num_vertices && d < num_vertices),
            "edge endpoint out of range"
        );
        EdgeList { num_vertices, edges }
    }

    /// Infer the vertex count from the maximum endpoint.
    pub fn from_pairs(edges: Vec<(u64, u64)>) -> Self {
        let n = edges.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0);
        EdgeList { num_vertices: n, edges }
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn edges(&self) -> &[(u64, u64)] {
        &self.edges
    }

    pub fn into_edges(self) -> Vec<(u64, u64)> {
        self.edges
    }

    /// Remove duplicate edges and self-loops.
    pub fn dedup(&self) -> EdgeList {
        let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
        let edges = self
            .edges
            .iter()
            .filter(|&&(s, d)| s != d && seen.insert((s, d)))
            .copied()
            .collect();
        EdgeList { num_vertices: self.num_vertices, edges }
    }

    /// Symmetric closure: for every `(s, d)` also include `(d, s)`.
    pub fn undirected(&self) -> EdgeList {
        let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for &(s, d) in &self.edges {
            if s == d {
                continue;
            }
            if seen.insert((s, d)) {
                edges.push((s, d));
            }
            if seen.insert((d, s)) {
                edges.push((d, s));
            }
        }
        EdgeList { num_vertices: self.num_vertices, edges }
    }

    /// Out-degrees of all vertices.
    pub fn out_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.num_vertices as usize];
        for &(s, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }

    /// Neighbor tables `(src, sorted dsts)` — the `groupBy` the paper runs
    /// on executors to convert edge partitioning to vertex partitioning.
    pub fn neighbor_tables(&self) -> FxHashMap<u64, Vec<u64>> {
        let mut map: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for &(s, d) in &self.edges {
            map.entry(s).or_default().push(d);
        }
        for v in map.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        map
    }

    /// Approximate in-memory/HDFS size in bytes (two u64 per edge).
    pub fn byte_size(&self) -> u64 {
        self.edges.len() as u64 * 16
    }
}

/// A weighted edge list (Fast Unfolding input: `(src, dst, weight)`).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEdgeList {
    num_vertices: u64,
    edges: Vec<(u64, u64, f64)>,
}

impl WeightedEdgeList {
    pub fn new(num_vertices: u64, edges: Vec<(u64, u64, f64)>) -> Self {
        debug_assert!(edges.iter().all(|&(s, d, _)| s < num_vertices && d < num_vertices));
        WeightedEdgeList { num_vertices, edges }
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn edges(&self) -> &[(u64, u64, f64)] {
        &self.edges
    }

    /// Total edge weight `m` (each directed edge counted once).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Weighted degree per vertex (out + in, as Louvain treats the graph
    /// as undirected).
    pub fn weighted_degrees(&self) -> Vec<f64> {
        let mut k = vec![0.0; self.num_vertices as usize];
        for &(s, d, w) in &self.edges {
            k[s as usize] += w;
            k[d as usize] += w;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(5, vec![(0, 1), (1, 2), (0, 1), (3, 3), (2, 0)])
    }

    #[test]
    fn basic_accessors() {
        let e = sample();
        assert_eq!(e.num_vertices(), 5);
        assert_eq!(e.num_edges(), 5);
        assert_eq!(e.byte_size(), 80);
    }

    #[test]
    fn from_pairs_infers_size() {
        let e = EdgeList::from_pairs(vec![(0, 9), (3, 2)]);
        assert_eq!(e.num_vertices(), 10);
        let empty = EdgeList::from_pairs(vec![]);
        assert_eq!(empty.num_vertices(), 0);
    }

    #[test]
    fn dedup_removes_dupes_and_loops() {
        let e = sample().dedup();
        assert_eq!(e.edges(), &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn undirected_symmetric_closure() {
        let e = EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2)]).undirected();
        let mut got = e.edges().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn out_degrees_counted() {
        let e = sample();
        assert_eq!(e.out_degrees(), vec![2, 1, 1, 1, 0]);
    }

    #[test]
    fn neighbor_tables_sorted_dedup() {
        let nt = sample().neighbor_tables();
        assert_eq!(nt[&0], vec![1]);
        assert_eq!(nt[&1], vec![2]);
        assert!(!nt.contains_key(&4));
    }

    #[test]
    fn weighted_degrees_and_total() {
        let w = WeightedEdgeList::new(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(w.total_weight(), 2.0);
        assert_eq!(w.weighted_degrees(), vec![1.0, 2.0, 1.0]);
        assert_eq!(w.num_edges(), 2);
        assert_eq!(w.num_vertices(), 3);
    }
}
