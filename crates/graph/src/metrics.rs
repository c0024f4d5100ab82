//! Exact single-machine reference algorithms for validating the
//! distributed implementations. Deliberately simple and obviously correct;
//! only used on small test graphs.
//!
//! The one exception is [`sorted_intersection_count`]: the per-pair
//! kernel the distributed Common Neighbor / Triangle Count jobs (PSGraph
//! and the GraphX baseline alike) run on every queried pair.

use psgraph_sim::{FxHashMap, FxHashSet};

use crate::edgelist::{EdgeList, WeightedEdgeList};

/// Dense power-iteration PageRank with damping `d` (the paper's update
/// rule `PR_i = Σ_{j∈N(i)} PR_j / L(j)` corresponds to `d = 1`; the usual
/// damped form is `d = 0.85`). Dangling mass is redistributed uniformly.
pub fn pagerank_exact(g: &EdgeList, damping: f64, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let out_deg = g.out_degrees();
    let mut pr = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        let mut dangling = 0.0;
        for (v, &d) in out_deg.iter().enumerate() {
            if d == 0 {
                dangling += pr[v];
            }
        }
        let dangling_share = damping * dangling / n as f64;
        for x in next.iter_mut() {
            *x += dangling_share;
        }
        for &(s, d) in g.edges() {
            next[d as usize] += damping * pr[s as usize] / out_deg[s as usize] as f64;
        }
        pr = next;
    }
    pr
}

/// Exact K-core decomposition by iterative peeling (Batagelj–Zaversnik
/// style, O(m) flavor). Input treated as undirected.
pub fn kcore_exact(g: &EdgeList) -> Vec<u64> {
    let und = g.undirected();
    let n = und.num_vertices() as usize;
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for &(s, d) in und.edges() {
        adj[s as usize].push(d);
    }
    let mut degree: Vec<u64> = adj.iter().map(|a| a.len() as u64).collect();
    let mut core = vec![0u64; n];
    let mut removed = vec![false; n];
    let mut k = 0u64;
    for _ in 0..n {
        // Peel the minimum-degree remaining vertex; its coreness is the
        // running maximum of peel degrees.
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .unwrap();
        k = k.max(degree[v]);
        core[v] = k;
        removed[v] = true;
        for &u in &adj[v] {
            let u = u as usize;
            if !removed[u] && degree[u] > 0 {
                degree[u] -= 1;
            }
        }
    }
    core
}

/// Exact triangle count (each triangle counted once). Input treated as
/// undirected; self-loops ignored.
pub fn triangles_exact(g: &EdgeList) -> u64 {
    let und = g.undirected();
    let n = und.num_vertices() as usize;
    let mut adj: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); n];
    for &(s, d) in und.edges() {
        adj[s as usize].insert(d);
    }
    let mut count = 0u64;
    for v in 0..n as u64 {
        for &u in &adj[v as usize] {
            if u <= v {
                continue;
            }
            for &w in &adj[u as usize] {
                if w > u && adj[v as usize].contains(&w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Exact common-neighbor count for a set of vertex pairs (undirected view).
pub fn common_neighbors_exact(g: &EdgeList, pairs: &[(u64, u64)]) -> Vec<u64> {
    let und = g.undirected();
    let mut adj: FxHashMap<u64, FxHashSet<u64>> = FxHashMap::default();
    for &(s, d) in und.edges() {
        adj.entry(s).or_default().insert(d);
    }
    let empty = FxHashSet::default();
    pairs
        .iter()
        .map(|&(a, b)| {
            let na = adj.get(&a).unwrap_or(&empty);
            let nb = adj.get(&b).unwrap_or(&empty);
            let (small, large) = if na.len() <= nb.len() { (na, nb) } else { (nb, na) };
            small.iter().filter(|v| large.contains(v)).count() as u64
        })
        .collect()
}

/// Below this `large.len() / small.len()` ratio a linear merge is faster;
/// from it on, galloping wins on the host (measured crossover 8–10×) and
/// stays under `small + large` comparisons on every input.
const GALLOP_RATIO: usize = 8;

/// `|a ∩ b|` for two strictly ascending lists, plus the number of element
/// comparisons made — the work a caller charges to its executor clock.
///
/// Lists of comparable length are merged linearly; when one is at least
/// `GALLOP_RATIO` times longer, each element of the shorter one is
/// located in the longer one by an exponential probe from a moving lower
/// bound followed by a binary search, so a hub's list is not walked for
/// every low-degree partner. Either way `comparisons ≤ a.len() + b.len()`.
pub fn sorted_intersection_count(a: &[u64], b: &[u64]) -> (u64, u64) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (mut count, mut comparisons) = (0u64, 0u64);
    if large.len() < small.len().saturating_mul(GALLOP_RATIO) {
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            let (x, y) = (small[i], large[j]);
            comparisons += 1;
            count += (x == y) as u64;
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
        return (count, comparisons);
    }
    // Everything before `lo` in `large` is smaller than the current `x`.
    let mut lo = 0usize;
    for &x in small {
        // Gallop: double the stride until `large[hi] >= x` (or the end).
        let (mut hi, mut step) = (lo, 1usize);
        while hi < large.len() {
            comparisons += 1;
            if large[hi] >= x {
                break;
            }
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        // Lower bound of `x` in `large[lo..hi]`.
        let mut end = hi.min(large.len());
        while lo < end {
            let mid = lo + (end - lo) / 2;
            comparisons += 1;
            if large[mid] < x {
                lo = mid + 1;
            } else {
                end = mid;
            }
        }
        if lo == large.len() {
            break;
        }
        comparisons += 1;
        if large[lo] == x {
            count += 1;
            lo += 1;
        }
    }
    (count, comparisons)
}

/// H-index of a multiset: the largest `h` such that at least `h` values
/// are `≥ h`. Linear in `values.len()`: values are clipped to the length
/// (the answer cannot exceed it) and counted into `scratch`, which a
/// caller keeps across calls so a superstep over many vertices does not
/// allocate per vertex.
pub fn h_index(values: &[u64], scratch: &mut Vec<u32>) -> u64 {
    let d = values.len();
    scratch.clear();
    scratch.resize(d + 1, 0);
    for &v in values {
        scratch[v.min(d as u64) as usize] += 1;
    }
    let mut at_least = 0usize;
    for h in (1..=d).rev() {
        at_least += scratch[h] as usize;
        if at_least >= h {
            return h as u64;
        }
    }
    0
}

/// Newman modularity `Q` of a community assignment on a weighted
/// undirected graph (each undirected edge listed once in `g`).
pub fn modularity(g: &WeightedEdgeList, community: &[u64]) -> f64 {
    let m: f64 = g.total_weight();
    if m == 0.0 {
        return 0.0;
    }
    let k = g.weighted_degrees();
    let mut intra: FxHashMap<u64, f64> = FxHashMap::default();
    for &(s, d, w) in g.edges() {
        if community[s as usize] == community[d as usize] {
            *intra.entry(community[s as usize]).or_default() += w;
        }
    }
    let mut ktot: FxHashMap<u64, f64> = FxHashMap::default();
    for (v, &kv) in k.iter().enumerate() {
        *ktot.entry(community[v]).or_default() += kv;
    }
    let mut q = 0.0;
    for (c, &kc) in &ktot {
        let ein = intra.get(c).copied().unwrap_or(0.0);
        q += ein / m - (kc / (2.0 * m)).powi(2);
    }
    q
}

/// Connected components (undirected view); returns the component id
/// (smallest member) per vertex.
pub fn connected_components(g: &EdgeList) -> Vec<u64> {
    let n = g.num_vertices() as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for &(s, d) in g.edges() {
        let (rs, rd) = (find(&mut parent, s as usize), find(&mut parent, d as usize));
        if rs != rd {
            let (lo, hi) = (rs.min(rd), rs.max(rd));
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn pagerank_uniform_on_ring() {
        let g = gen::ring(10);
        let pr = pagerank_exact(&g, 0.85, 50);
        for &p in &pr {
            assert!((p - 0.1).abs() < 1e-9, "ring must be uniform, got {p}");
        }
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pagerank_hub_ranks_higher() {
        // Star pointing in: everyone links to 0.
        let edges = (1..10u64).map(|v| (v, 0)).collect();
        let g = EdgeList::new(10, edges);
        let pr = pagerank_exact(&g, 0.85, 50);
        assert!(pr[0] > 5.0 * pr[1], "hub {} vs leaf {}", pr[0], pr[1]);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pagerank_empty() {
        assert!(pagerank_exact(&EdgeList::new(0, vec![]), 0.85, 10).is_empty());
    }

    #[test]
    fn kcore_on_clique_plus_tail() {
        // K4 (vertices 0–3) plus a tail 3–4.
        let mut edges = gen::complete(4).into_edges();
        edges.push((3, 4));
        let g = EdgeList::new(5, edges);
        let core = kcore_exact(&g);
        assert_eq!(core[4], 1);
        for (v, &c) in core.iter().enumerate().take(4) {
            assert_eq!(c, 3, "clique member {v}");
        }
    }

    #[test]
    fn kcore_ring_is_two() {
        let core = kcore_exact(&gen::ring(6));
        assert!(core.iter().all(|&c| c == 2), "{core:?}");
    }

    #[test]
    fn triangles_on_known_graphs() {
        assert_eq!(triangles_exact(&gen::complete(4)), 4);
        assert_eq!(triangles_exact(&gen::complete(5)), 10);
        assert_eq!(triangles_exact(&gen::ring(6)), 0);
        let g = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangles_exact(&g), 1);
    }

    #[test]
    fn common_neighbors_on_square_with_diagonal() {
        // 0-1, 1-2, 2-3, 3-0, 0-2.
        let g = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let cn = common_neighbors_exact(&g, &[(1, 3), (0, 2), (0, 0)]);
        assert_eq!(cn[0], 2); // 1 and 3 share {0, 2}
        assert_eq!(cn[1], 2); // 0 and 2 share {1, 3}
    }

    #[test]
    fn h_index_examples() {
        // One scratch across calls of different lengths, as K-Core uses it.
        let scratch = &mut Vec::new();
        assert_eq!(h_index(&[5, 4, 3, 2, 1], scratch), 3);
        assert_eq!(h_index(&[1, 1, 1], scratch), 1);
        assert_eq!(h_index(&[10, 10], scratch), 2);
        assert_eq!(h_index(&[], scratch), 0);
        assert_eq!(h_index(&[0, 0], scratch), 0);
    }

    #[test]
    fn modularity_prefers_true_communities() {
        let s = gen::sbm2(100, 8.0, 0.5, 4, 0.1, 3);
        let w = WeightedEdgeList::from_unweighted(&s.graph);
        let truth: Vec<u64> = s.labels.iter().map(|&l| l as u64).collect();
        let q_true = modularity(&w, &truth);
        let singleton: Vec<u64> = (0..100).collect();
        let q_single = modularity(&w, &singleton);
        let all_one = vec![0u64; 100];
        let q_one = modularity(&w, &all_one);
        assert!(q_true > q_single, "{q_true} vs {q_single}");
        assert!(q_true > q_one, "{q_true} vs {q_one}");
        assert!(q_true > 0.3);
    }

    #[test]
    fn modularity_empty_graph_is_zero() {
        let w = WeightedEdgeList::new(3, vec![]);
        assert_eq!(modularity(&w, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn connected_components_two_islands() {
        let g = EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]);
        let cc = connected_components(&g);
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[1], cc[2]);
        assert_eq!(cc[3], cc[4]);
        assert_ne!(cc[0], cc[3]);
        assert_ne!(cc[5], cc[0]);
        assert_ne!(cc[5], cc[3]);
    }
}
