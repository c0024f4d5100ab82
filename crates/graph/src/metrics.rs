//! Exact single-machine reference algorithms for validating the
//! distributed implementations. Deliberately simple and obviously correct;
//! only used on small test graphs.
//!
//! The exceptions are the kernels the distributed jobs share:
//! [`h_index`] (K-Core's update rule) and [`Anchor`], the sorted-list
//! intersection the Common Neighbor / Triangle Count jobs (PSGraph and the
//! GraphX baseline alike) run on every queried pair. It holds one list as a
//! bitmap over ids, so one executor round loads a hub's list once for all
//! its partners, and returns the count alone;
//! [`sorted_intersection_count`] is its one-pair form. What PSGraph's
//! executors are charged is declared, not measured: [`anchored_run_ops`]
//! of a loaded list and the partners counted against it, built on
//! [`intersection_ops`] of one pair's two list lengths.

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
    // Peel the minimum-degree remaining vertex; its coreness is the
    // running maximum of peel degrees.
    while let Some(v) = (0..n).filter(|&v| !removed[v]).min_by_key(|&v| degree[v]) {
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

/// The ops a sorted-list intersection of an `a_len`-long and a `b_len`-long
/// list is charged: with `s` the shorter length and `l` the longer, the
/// textbook bound `min(s + l, s·(2⌈log₂⌈l/s⌉⌉ + 2))` — a linear merge, or a
/// gallop of the short list through the long one, whichever is cheaper —
/// and `0` when either list is empty. Taking the minimum picks the walk, so
/// no ratio constant does. The charge grows with `l`; in `s` it can step
/// down where `⌈l/s⌉` crosses a power of two, as the bound's ceilings do.
/// It is what a pair counted alone costs; a run of pairs that share one
/// list is charged [`anchored_run_ops`], which is this for a run of one.
pub fn intersection_ops(a_len: usize, b_len: usize) -> u64 {
    let (s, l) = (a_len.min(b_len) as u64, a_len.max(b_len) as u64);
    if s == 0 {
        return 0;
    }
    let log_ratio = u64::from(u64::BITS - (l.div_ceil(s) - 1).leading_zeros());
    (s + l).min(s * (2 * log_ratio + 2))
}

/// The ops a run of pairs that share one list is charged: the shared (key)
/// list has `key_len` ids and its partners `partner_lens`. With `L` the
/// key's length and `s₁…s_r` the partners', the charge is
/// `min(Σᵢ intersection_ops(L, sᵢ), L + Σᵢ sᵢ)` — each pair counted alone,
/// or the key loaded once and every partner walked against it, whichever is
/// cheaper. It is [`intersection_ops`]' minimum lifted from a pair to a run,
/// so no constant is chosen; a run of one is charged exactly
/// [`intersection_ops`], which is already at most `s + L`. It is never more
/// than the pairs counted alone, the same whatever the partners' order, and
/// `0` when the key list is empty.
pub fn anchored_run_ops(key_len: usize, partner_lens: impl IntoIterator<Item = usize>) -> u64 {
    let (mut alone, mut walk) = (0u64, key_len as u64);
    for s in partner_lens {
        alone += intersection_ops(key_len, s);
        walk += s as u64;
    }
    alone.min(walk)
}

/// `|a ∩ b|` for two strictly ascending lists. The one-pair form of
/// [`Anchor`]: it loads the shorter list, counts the longer against it and
/// unloads, so `anchor` is all-zero again when this returns.
pub fn sorted_intersection_count(a: &[u64], b: &[u64], anchor: &mut Anchor) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    anchor.load(short).count(long)
}

/// The sorted-list intersection kernel: one strictly ascending list, the
/// anchor, held as a bitmap over ids, against which any number of partner
/// lists are counted — an executor round that names a hub in many pairs
/// loads the hub's list once. What a caller charges for a load and the
/// partners counted against it is [`anchored_run_ops`] of their lengths
/// (for one pair, [`intersection_ops`]), not anything the kernel does.
///
/// The caller keeps one across loads, like [`h_index`]'s scratch: the
/// bitmap grows to `(last >> 6) + 1` words for the largest last id loaded,
/// and is all-zero whenever no list is loaded.
#[derive(Debug, Default)]
pub struct Anchor {
    bits: Vec<u64>,
}

impl Anchor {
    /// Load `list`, which must be strictly ascending, until the returned
    /// view is dropped.
    pub fn load<'a>(&'a mut self, list: &'a [u64]) -> Anchored<'a> {
        if let Some(&last) = list.last() {
            let words = (last >> 6) as usize + 1;
            if self.bits.len() < words {
                self.bits.resize(words, 0);
            }
            for &x in list {
                self.bits[(x >> 6) as usize] |= 1 << (x & 63);
            }
        }
        Anchored { anchor: self, list }
    }

    /// Whether no bit is set, as whenever no list is loaded.
    pub fn is_clear(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// A list loaded into an [`Anchor`]; dropping it unloads the list.
#[derive(Debug)]
pub struct Anchored<'a> {
    anchor: &'a mut Anchor,
    list: &'a [u64],
}

impl Anchored<'_> {
    /// `|anchor ∩ other|` for a strictly ascending `other`. No id past the
    /// anchor's last can be common, so only `other`'s ids up to it are
    /// tested against the bitmap — a repeated id would be counted twice.
    pub fn count(&self, other: &[u64]) -> u64 {
        let Some(&last) = self.list.last() else {
            return 0;
        };
        let bits = &self.anchor.bits;
        let other = &other[..other.partition_point(|&y| y <= last)];
        other.iter().map(|&y| (bits[(y >> 6) as usize] >> (y & 63)) & 1).sum()
    }
}

impl Drop for Anchored<'_> {
    fn drop(&mut self) {
        for &x in self.list {
            self.anchor.bits[(x >> 6) as usize] = 0;
        }
    }
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
    fn intersection_ops_is_the_cheaper_walk_of_the_two_lengths() {
        assert_eq!(intersection_ops(5, 5), 10, "a merge of two equal lists");
        assert_eq!(intersection_ops(1, 1000), 22, "one id galloped through 1000");
        // A ratio of exactly 8 gallops (3 levels), one of ⌈80/9⌉ = 9 merges.
        assert_eq!(intersection_ops(10, 80), 80);
        assert_eq!(intersection_ops(9, 80), 89);
        for a in 0..300 {
            let mut previous = 0;
            for b in 0..300 {
                let ops = intersection_ops(a, b);
                if a == 0 || b == 0 {
                    assert_eq!(ops, 0, "({a}, {b})");
                }
                assert_eq!(ops, intersection_ops(b, a), "({a}, {b}) in either order");
                assert!(ops <= (a + b) as u64, "({a}, {b}) charged {ops}");
                if b >= a {
                    assert!(ops >= previous, "({a}, {b}) charged less than ({a}, {})", b - 1);
                }
                previous = ops;
            }
        }
    }

    #[test]
    fn anchored_run_ops_is_the_cheaper_walk_of_the_run() {
        // A hub of 40 against eight short partners: one load and a walk of
        // 40 + 17 ids, where the pairs alone gallop for 3·30 + 40 + 24 + 2·14.
        let hub_partners = [3, 3, 4, 3, 2, 0, 1, 1];
        assert_eq!(hub_partners.map(|s| intersection_ops(40, s)).iter().sum::<u64>(), 182);
        assert_eq!(anchored_run_ops(40, hub_partners), 57);
        // Two single ids against 1000: galloping twice beats loading 1000.
        assert_eq!(anchored_run_ops(1000, [1, 1]), 44);
        assert_eq!(anchored_run_ops(40, [3]), intersection_ops(40, 3));
        assert_eq!(anchored_run_ops(0, [5, 9]), 0);
        assert_eq!(anchored_run_ops(7, []), 0);
    }

    #[test]
    fn modularity_prefers_true_communities() {
        let s = gen::sbm2(100, 8.0, 0.5, 4, 0.1, 3);
        let edges = s.graph.edges().iter().map(|&(u, v)| (u, v, 1.0)).collect();
        let w = WeightedEdgeList::new(s.graph.num_vertices(), edges);
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
