//! Exact single-machine reference algorithms for validating the
//! distributed implementations. Deliberately simple and obviously correct;
//! only used on small test graphs.
//!
//! The exceptions are the kernels the distributed jobs share:
//! [`h_index`] (K-Core's update rule) and [`Anchor`], the sorted-list
//! intersection the Common Neighbor / Triangle Count jobs (PSGraph and the
//! GraphX baseline alike) run on every queried pair. It holds one list as a
//! bitmap over ids with per-word prefix popcounts, so one executor round
//! loads a hub's list once for all its partners. Its comparison count is
//! what the callers charge to the sim clock: the steps of a linear merge
//! for lists of comparable length, of a gallop for a hub against a short
//! list — both derived in closed form from ranks, neither walked.
//! [`sorted_intersection_count`] is its one-pair form.

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

/// Below this `long.len() / short.len()` ratio the kernel prices a linear
/// merge; from it on, a gallop of the short list through the long one (the
/// measured host crossover of the two walks was 8–10×). Either way the
/// comparisons stay at most `short + long`.
const GALLOP_RATIO: usize = 8;

/// `|a ∩ b|` for two strictly ascending lists, plus the number of element
/// comparisons a sorted-list intersection makes — the work a caller
/// charges to its executor clock. The one-pair form of [`Anchor`]: it
/// loads the shorter list, counts the longer against it and unloads, so
/// `anchor` is all-zero again when this returns.
pub fn sorted_intersection_count(a: &[u64], b: &[u64], anchor: &mut Anchor) -> (u64, u64) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    anchor.load(short).count(long)
}

/// The sorted-list intersection kernel: one strictly ascending list, the
/// anchor, held as a bitmap over ids, against which any number of partner
/// lists are counted — an executor round that names a hub in many pairs
/// loads the hub's list once.
///
/// [`Anchored::count`] returns `|anchor ∩ other|` and the comparison count
/// of the intersection the callers charge for: a linear merge when the
/// longer list is less than `GALLOP_RATIO` times the shorter, else a
/// gallop of the shorter through the longer (an exponential probe from a
/// moving lower bound, then a binary search). Neither walk is made; both
/// counts are derived in closed form (DESIGN.md §8, mechanism 7).
///
/// The caller keeps one across loads, like [`h_index`]'s scratch: the
/// bitmap grows to `(last >> 6) + 1` words for the largest last id loaded,
/// and is all-zero whenever no list is loaded.
#[derive(Debug, Default)]
pub struct Anchor {
    bits: Vec<u64>,
    /// `ranks[w]` is the number of set bits in `bits[..w]`. Built only when
    /// a loaded list is galloped through; stale otherwise.
    ranks: Vec<usize>,
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
        Anchored { anchor: self, list, ranked: false }
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
    ranked: bool,
}

impl Anchored<'_> {
    /// `(|anchor ∩ other|, comparisons)` for a strictly ascending `other`:
    /// what a counted merge of the two lists returns below `GALLOP_RATIO`,
    /// and a counted gallop of the shorter through the longer from it on,
    /// whichever side the anchor is. The comparisons are at most
    /// `anchor.len() + other.len()`.
    pub fn count(&mut self, other: &[u64]) -> (u64, u64) {
        let (a, b) = (self.list.len(), other.len());
        if a.max(b) < a.min(b).saturating_mul(GALLOP_RATIO) {
            return self.merge(other);
        }
        if a <= b {
            return gallop(self.list, b, |x, lo| {
                let r = lo + other[lo..].partition_point(|&y| y < x);
                (r, other.get(r) == Some(&x))
            });
        }
        // The anchor is the long side: `rank<(anchor, x)` and `x ∈ anchor`
        // are a rank lookup and a bit test.
        let last = self.list[a - 1];
        let Anchor { bits, ranks } = &mut *self.anchor;
        if !self.ranked {
            let words = (last >> 6) as usize + 1;
            ranks.clear();
            ranks.extend(bits[..words].iter().scan(0, |seen, &w| {
                let before = *seen;
                *seen += w.count_ones() as usize;
                Some(before)
            }));
            self.ranked = true;
        }
        gallop(other, a, |x, _| {
            if x > last {
                return (a, false);
            }
            let (word, bit) = (bits[(x >> 6) as usize], x & 63);
            let below = (word & ((1 << bit) - 1)).count_ones() as usize;
            (ranks[(x >> 6) as usize] + below, (word >> bit) & 1 == 1)
        })
    }

    /// The merge path. No id above `m = min(last anchor, last other)` can be
    /// common, so only `other`'s ids up to `m` are tested against the
    /// bitmap. A linear merge of strictly ascending lists consumes one
    /// element per step, or one from each list on a match, and stops right
    /// after consuming `m` — by then it has consumed every element `≤ m` of
    /// both lists. Its step count is therefore
    /// `rank≤(anchor, m) + rank≤(other, m) − count`.
    fn merge(&self, other: &[u64]) -> (u64, u64) {
        let (Some(&a_last), Some(&o_last)) = (self.list.last(), other.last()) else {
            return (0, 0);
        };
        let m = a_last.min(o_last);
        let other = &other[..other.partition_point(|&y| y <= m)];
        let bits = &self.anchor.bits;
        let count: u64 = other.iter().map(|&y| (bits[(y >> 6) as usize] >> (y & 63)) & 1).sum();
        let in_anchor = self.list.partition_point(|&x| x <= m);
        (count, (in_anchor + other.len()) as u64 - count)
    }
}

impl Drop for Anchored<'_> {
    fn drop(&mut self) {
        for &x in self.list {
            self.anchor.bits[(x >> 6) as usize] = 0;
        }
    }
}

/// The gallop path: `(count, comparisons)` of a counted gallop of `short`
/// through a strictly ascending list of `len` ids, given
/// `locate(x, lo) = (rank<(long, x), x ∈ long)` for an `x` whose rank is at
/// least `lo`.
///
/// The walk this prices keeps a lower bound `lo` (everything before it is
/// `< x`) and locates each `x` in three parts: exponential probes, a binary
/// search between the last two probes ([`gallop_steps`] counts both from
/// the rank `r` alone), then one comparison with the id at `r` — unless the
/// list ran out (`r = len`), which ends the walk.
fn gallop(
    short: &[u64],
    len: usize,
    mut locate: impl FnMut(u64, usize) -> (usize, bool),
) -> (u64, u64) {
    let (mut count, mut comparisons, mut lo) = (0u64, 0u64, 0usize);
    for &x in short {
        let (r, found) = locate(x, lo);
        comparisons += gallop_steps(lo, r, len);
        if r == len {
            break;
        }
        comparisons += 1;
        count += found as u64;
        lo = r + found as usize;
    }
    (count, comparisons)
}

/// Probes plus binary-search steps a gallop from `lo` takes to the lower
/// bound `r ≥ lo` of its target in a list of `len` ids.
///
/// The probes land at `p_k = lo + 2^k + k − 1`, and the first at or past
/// `r` is number `K = probe_exponent(r − lo)`. If `p_K < len` the walk made
/// `K + 1` probes, then searched `[p_{K−1} + 1, p_K)`, a window of exactly
/// `2^(K−1)` slots, in `search_steps(K − 1, r − p_{K−1} − 1)` steps (no
/// search for `K = 0`). Otherwise it made `K` probes and searched
/// `[p_{K−1} + 1, len)`, a window cut short by the end of the list; only
/// that search, which happens near the list's tail alone, is walked.
fn gallop_steps(lo: usize, r: usize, len: usize) -> u64 {
    let k = probe_exponent(r - lo);
    let probe = |k: usize| lo + (1 << k) + k - 1;
    if probe(k) < len {
        return match k {
            0 => 1,
            _ => (k + 1 + search_steps(k - 1, r - probe(k - 1) - 1)) as u64,
        };
    }
    let (mut start, mut end) = (if k == 0 { lo } else { probe(k - 1) + 1 }, len);
    let mut steps = k;
    while start < end {
        let mid = start + (end - start) / 2;
        steps += 1;
        if mid < r {
            start = mid + 1;
        } else {
            end = mid;
        }
    }
    steps as u64
}

/// The smallest `k` with `2^k + k − 1 ≥ d`: the number of the first
/// gallop probe that lands `d` or more slots past the lower bound. With `b`
/// the bit length of `d`, `k = b` always satisfies it and `k = b − 2` never
/// does (`2^(b−2) + b − 3 < 2^(b−1) ≤ d`), so it is `b − 1` when that
/// satisfies it, else `b`.
fn probe_exponent(d: usize) -> usize {
    let b = (usize::BITS - d.leading_zeros()) as usize;
    if b > 0 && (1 << (b - 1)) + b - 2 >= d {
        b - 1
    } else {
        b
    }
}

/// Steps of a lower-bound binary search over `2^m` slots whose target is at
/// offset `t ≤ 2^m`: `m + [t ≤ 1]`. The first step halves the window at
/// offset `2^(m−1)`. For `t ≤ 2^(m−1)` the lower `2^(m−1)` slots remain,
/// with the same `t`. Otherwise `2^(m−1) − 1` slots remain, and a window
/// of `2^j − 1` slots always takes exactly `j` steps. One slot takes one
/// step.
fn search_steps(m: usize, t: usize) -> usize {
    m + (t <= 1) as usize
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
    fn probe_exponent_matches_the_probe_loop() {
        // The walk's probes from `lo = 0`: `hi` is `p_k`, `k` counts them.
        let (mut k, mut hi, mut step) = (0usize, 0usize, 1usize);
        for d in 0..1usize << 16 {
            while hi < d {
                (k, hi, step) = (k + 1, hi + 1 + step, step * 2);
            }
            assert_eq!(probe_exponent(d), k, "d = {d}");
        }
    }

    #[test]
    fn search_steps_match_the_binary_search() {
        for m in 0..=12 {
            for t in 0..=1usize << m {
                let (mut lo, mut end, mut steps) = (0usize, 1usize << m, 0usize);
                while lo < end {
                    let mid = lo + (end - lo) / 2;
                    steps += 1;
                    if mid < t {
                        lo = mid + 1;
                    } else {
                        end = mid;
                    }
                }
                assert_eq!(search_steps(m, t), steps, "2^{m} slots, target offset {t}");
            }
        }
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
