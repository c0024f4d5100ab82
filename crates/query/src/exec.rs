//! Shared execution kernels: one semantic definition of every stage,
//! used by the single-node interpreter, the shard-side pushed-prefix
//! evaluator, and the frontend suffix executor.

use std::cmp::Ordering;
use std::fmt;

use crate::part::col_range;
use crate::plan::{Pred, Scorer, Stage};

/// Execution failed (missing attribute, out-of-range vertex, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExecError {}

fn missing(what: &str) -> ExecError {
    ExecError(format!("shard serves no {what}"))
}

/// Read access to per-vertex attributes. Implemented by truth arrays
/// (the interpreter) and by `ShardData` over its local range (the
/// pushed-prefix evaluator). `None` means the backing object is absent.
pub trait VertexView {
    fn rank(&self, v: u64) -> Option<f64>;
    fn community(&self, v: u64) -> Option<u64>;
    fn degree(&self, v: u64) -> Option<usize>;
    fn embed_row(&self, v: u64) -> Option<&[f32]>;
}

/// Evaluate one predicate against one vertex.
pub fn pred_keep<V: VertexView + ?Sized>(view: &V, v: u64, p: Pred) -> Result<bool, ExecError> {
    match p {
        Pred::RankAtLeast(t) => view.rank(v).map(|r| r >= t).ok_or_else(|| missing("ranks")),
        Pred::RankBelow(t) => view.rank(v).map(|r| r < t).ok_or_else(|| missing("ranks")),
        Pred::CommunityEq(c) => {
            view.community(v).map(|x| x == c).ok_or_else(|| missing("communities"))
        }
        Pred::CommunityNe(c) => {
            view.community(v).map(|x| x != c).ok_or_else(|| missing("communities"))
        }
        Pred::DegreeAtLeast(d) => {
            view.degree(v).map(|x| x as u64 >= d).ok_or_else(|| missing("adjacency"))
        }
        Pred::DegreeBelow(d) => {
            view.degree(v).map(|x| (x as u64) < d).ok_or_else(|| missing("adjacency"))
        }
    }
}

/// Evaluate a scalar scorer (`Rank`/`Degree`) against one vertex.
pub fn scalar_score<V: VertexView + ?Sized>(
    view: &V,
    v: u64,
    s: Scorer,
) -> Result<f64, ExecError> {
    match s {
        Scorer::Rank => view.rank(v).ok_or_else(|| missing("ranks")),
        Scorer::Degree => view.degree(v).map(|d| d as f64).ok_or_else(|| missing("adjacency")),
        Scorer::Dot(_) => Err(ExecError("Dot is not a scalar scorer".into())),
    }
}

/// Full-row dot product: one f64 chain in column order, starting at
/// `-0.0` (the additive identity: a row whose products are all `-0.0`
/// scores `-0.0`). This is the `DotAssoc::FullRow` association.
pub fn dot_full(q: &[f32], row: &[f32]) -> f64 {
    q.iter().zip(row).fold(-0.0, |s, (a, b)| s + *a as f64 * *b as f64)
}

/// [`dot_full`] of four rows at once, each `q.len()` long: the rows'
/// chains are interleaved column by column, so the adds are independent
/// across rows, but each row's chain is its own, in column order from
/// `-0.0`, and every score carries `dot_full`'s bits.
fn dot_full4(q: &[f32], rows: [&[f32]; 4]) -> [f64; 4] {
    let rows = rows.map(|r| &r[..q.len()]);
    let mut acc = [-0.0f64; 4];
    for (j, &a) in q.iter().enumerate() {
        let a = a as f64;
        for (s, row) in acc.iter_mut().zip(&rows) {
            *s += a * row[j] as f64;
        }
    }
    acc
}

/// One column shard's partial dot product: a chain in column order from
/// `+0.0` over the shard's segments of the two rows.
pub fn dot_partial(q: &[f32], row: &[f32]) -> f64 {
    q.iter().zip(row).fold(0.0, |s, (a, b)| s + *a as f64 * *b as f64)
}

/// Column-sharded dot product: per-column-shard partial sums
/// ([`dot_partial`]) added in shard order from `+0.0` — the
/// `DotAssoc::ColShards` association, matching the distributed scatter
/// to column shards bit for bit. (Started at `+0.0`, the total is never
/// `-0.0`, and `x + 0.0` preserves the bits of every `x` but `-0.0`, so
/// the `+0.0` partials of shards with zero columns may be included or
/// skipped freely.)
pub(crate) fn dot_cols(q: &[f32], row: &[f32], num_shards: usize) -> f64 {
    let mut total = 0.0f64;
    for s in 0..num_shards {
        let (lo, hi) = col_range(s, q.len(), num_shards);
        total += dot_partial(&q[lo..hi], &row[lo..hi]);
    }
    total
}

/// Canonical ranked order: score descending, vertex id ascending on ties.
/// Total: rows that compare equal carry the same id and the same score
/// bits (`total_cmp` orders `-0.0` below `+0.0` and NaNs by payload).
fn ranked(a: &(u64, f64), b: &(u64, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Sort into canonical ranked order — with a truncate, the definition
/// [`top_k`] is checked against.
pub(crate) fn sort_ranked(rows: &mut [(u64, f64)]) {
    rows.sort_by(ranked);
}

/// Keep the first `k` rows of the canonical ranked order, in that order:
/// select the `k` first rows, then sort only them. The order is total,
/// so this equals sorting every row and truncating to `k`.
pub fn top_k(rows: &mut Vec<(u64, f64)>, k: usize) {
    if k < rows.len() {
        rows.select_nth_unstable_by(k, ranked);
        rows.truncate(k);
    }
    rows.sort_unstable_by(ranked);
}

/// A set of vertex ids, one bit per id. The kernels are not told the
/// vertex count, so the words grow to the largest id marked.
#[derive(Default)]
struct Marks(Vec<u64>);

impl Marks {
    /// The word holding `v`'s bit, grown into.
    fn word(&mut self, v: u64) -> &mut u64 {
        let i = (v >> 6) as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        &mut self.0[i]
    }

    fn insert(&mut self, v: u64) {
        *self.word(v) |= 1 << (v & 63);
    }

    /// Mark `v` unless `seen` has it: a mask, not a branch, since whether
    /// a target was seen is a coin flip the predictor keeps missing.
    fn insert_unseen(&mut self, v: u64, seen: &Marks) {
        let old = seen.0.get((v >> 6) as usize).copied().unwrap_or(0);
        *self.word(v) |= !old & (1 << (v & 63));
    }

    fn remove(&mut self, v: u64) {
        if let Some(w) = self.0.get_mut((v >> 6) as usize) {
            *w &= !(1 << (v & 63));
        }
    }

    /// The first `cap` marked ids, ascending, read off the words; every
    /// mark is cleared, so the set can be reused.
    fn drain(&mut self, cap: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, w) in self.0.iter_mut().enumerate() {
            let mut bits = std::mem::take(w);
            while bits != 0 && out.len() < cap {
                out.push(((i as u64) << 6) | bits.trailing_zeros() as u64);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// `Expand` in `Frontier` mode: visited-set BFS from `start`. Each hop
/// fetches the neighbor lists of the current frontier (one call per
/// hop), keeps unvisited targets ascending and deduplicated, truncated
/// to `cap` (only the kept ones become visited), and the result is every
/// visited vertex minus the start set, ascending. Generic over the fetch
/// so the interpreter passes an adjacency lookup and the frontend passes
/// an RPC scatter. The sets are `Marks`: no hashing and no sort.
pub fn expand_frontier<E>(
    start: &[u64],
    hops: u32,
    cap: usize,
    fetch: &mut dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, E>,
) -> Result<Vec<u64>, E> {
    let mut visited = Marks::default();
    let mut next = Marks::default();
    for &v in start {
        visited.insert(v);
    }
    let mut frontier: Vec<u64> = start.to_vec();
    for _ in 0..hops {
        if frontier.is_empty() {
            break;
        }
        for list in fetch(&frontier)? {
            for t in list {
                next.insert_unseen(t, &visited);
            }
        }
        frontier = next.drain(cap);
        for &v in &frontier {
            visited.insert(v);
        }
    }
    for &v in start {
        visited.remove(v);
    }
    Ok(visited.drain(usize::MAX))
}

/// `Expand` in `Union` mode: accumulate every per-hop neighbor list
/// (revisits allowed), then drop the start set and keep the first `cap`
/// ids ascending. The next frontier is the ascending, deduplicated set of
/// the hop's targets, so the *set* reached per hop matches a raw
/// traversal exactly.
pub fn expand_union<E>(
    start: &[u64],
    hops: u32,
    cap: usize,
    fetch: &mut dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, E>,
) -> Result<Vec<u64>, E> {
    let mut reached = Marks::default();
    let mut next = Marks::default();
    for &v in start {
        next.insert(v);
    }
    let mut frontier = next.drain(usize::MAX);
    for _ in 0..hops {
        if frontier.is_empty() {
            break;
        }
        for list in fetch(&frontier)? {
            for t in list {
                reached.insert(t);
                next.insert(t);
            }
        }
        frontier = next.drain(usize::MAX);
    }
    for &v in start {
        reached.remove(v);
    }
    Ok(reached.drain(cap))
}

/// Result of evaluating a pushed plan prefix over one vertex range.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedPartial {
    /// Surviving `(vertex, score)` rows. Unscored rows carry `0.0` and
    /// stay in ascending id order; after a `TopK` they are in canonical
    /// ranked order instead.
    pub rows: Vec<(u64, f64)>,
    /// Whether a `Score` stage ran (and survived — `Collect` drops it).
    pub scored: bool,
    /// Rows pruned by each stage, index-aligned with `stages`.
    pub pruned: Vec<u64>,
}

/// Evaluate a pushable plan prefix over the vertex range `[lo, hi)`.
///
/// This single function defines the semantics of `All`-source plans:
/// the interpreter runs it over `[0, n)` with full truth arrays, and
/// each shard runs it over its own range — because every stage is
/// elementwise (`Filter`, `Score`), exact under the ranked total order
/// (`TopK`), or an ascending-order prefix (`Collect`), concatenating
/// per-shard results in shard order and re-applying the terminal at the
/// frontend reproduces the single-range result bit for bit.
///
/// `Expand` is not pushable (it leaves the shard's range) and `Seed`
/// sources resolve at the frontend, so `stages` here never contains
/// `Expand` — it is rejected if it does.
pub fn run_pushed<V: VertexView + ?Sized>(
    view: &V,
    lo: u64,
    hi: u64,
    stages: &[Stage],
    q_row: Option<&[f32]>,
) -> Result<PushedPartial, ExecError> {
    let mut rows: Vec<(u64, f64)> = (lo..hi).map(|v| (v, 0.0)).collect();
    let mut scored = false;
    let mut pruned = Vec::with_capacity(stages.len());
    for st in stages {
        let before = rows.len();
        match st {
            Stage::Filter(p) => {
                let mut err = None;
                rows.retain(|&(v, _)| match pred_keep(view, v, *p) {
                    Ok(keep) => keep,
                    Err(e) => {
                        err = Some(e);
                        false
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            Stage::Score(Scorer::Dot(qv)) => {
                let q = q_row.ok_or_else(|| ExecError("dot scoring needs a query row".into()))?;
                rows.retain(|&(v, _)| v != *qv);
                let mut quads = rows.chunks_exact_mut(4);
                for quad in &mut quads {
                    let e = [
                        embed_row(view, quad[0].0, q.len())?,
                        embed_row(view, quad[1].0, q.len())?,
                        embed_row(view, quad[2].0, q.len())?,
                        embed_row(view, quad[3].0, q.len())?,
                    ];
                    for (r, s) in quad.iter_mut().zip(dot_full4(q, e)) {
                        r.1 = s;
                    }
                }
                for r in quads.into_remainder() {
                    r.1 = dot_full(q, embed_row(view, r.0, q.len())?);
                }
                scored = true;
            }
            Stage::Score(s) => {
                for r in rows.iter_mut() {
                    r.1 = scalar_score(view, r.0, *s)?;
                }
                scored = true;
            }
            Stage::TopK(k) => top_k(&mut rows, *k),
            Stage::Collect { cap } => {
                rows.truncate(*cap);
                scored = false;
            }
            Stage::Expand { .. } => return Err(ExecError("Expand is not pushable".into())),
        }
        pruned.push((before - rows.len()) as u64);
    }
    Ok(PushedPartial { rows, scored, pruned })
}

/// Vertex `v`'s full embedding row, which must be `dim` wide.
fn embed_row<V: VertexView + ?Sized>(view: &V, v: u64, dim: usize) -> Result<&[f32], ExecError> {
    let row = view.embed_row(v).ok_or_else(|| missing("embedding rows"))?;
    if row.len() != dim {
        return Err(ExecError(format!("query row has {dim} dims, shard stores {}", row.len())));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExpandMode, Pred};
    use psgraph_harness::prop::{check_with, Config, Source};
    use psgraph_harness::prop_assert_eq;

    struct Arrays {
        ranks: Vec<f64>,
        comms: Vec<u64>,
        adj: Vec<Vec<u64>>,
        embed: Vec<Vec<f32>>,
    }

    impl VertexView for Arrays {
        fn rank(&self, v: u64) -> Option<f64> {
            self.ranks.get(v as usize).copied()
        }
        fn community(&self, v: u64) -> Option<u64> {
            self.comms.get(v as usize).copied()
        }
        fn degree(&self, v: u64) -> Option<usize> {
            self.adj.get(v as usize).map(|n| n.len())
        }
        fn embed_row(&self, v: u64) -> Option<&[f32]> {
            self.embed.get(v as usize).map(|r| r.as_slice())
        }
    }

    fn arrays() -> Arrays {
        Arrays {
            ranks: vec![0.5, 0.4, 0.3, 0.2, 0.1, 0.6],
            comms: vec![1, 1, 2, 2, 1, 2],
            adj: vec![vec![1, 2], vec![3], vec![], vec![4, 5], vec![0], vec![]],
            embed: (0..6).map(|v| vec![v as f32, 1.0]).collect(),
        }
    }

    #[test]
    fn dot_cols_matches_dot_full_bits() {
        // The +0.0 partial argument: splitting the fold across column
        // shards must not change bits for these grid values.
        let q: Vec<f32> = vec![0.25, -0.5, 0.75, -1.0, 0.0];
        let row: Vec<f32> = vec![1.25, 0.5, -0.25, 2.0, 3.5];
        let full = dot_full(&q, &row);
        for shards in 1..=8 {
            assert_eq!(dot_cols(&q, &row, shards).to_bits(), full.to_bits(), "shards={shards}");
        }
    }

    #[test]
    fn expand_frontier_is_bfs_minus_start() {
        let a = arrays();
        let mut fetch = |vs: &[u64]| -> Result<Vec<Vec<u64>>, ExecError> {
            Ok(vs.iter().map(|&v| a.adj[v as usize].clone()).collect())
        };
        assert_eq!(expand_frontier(&[0], 1, 100, &mut fetch).unwrap(), vec![1, 2]);
        assert_eq!(expand_frontier(&[0], 2, 100, &mut fetch).unwrap(), vec![1, 2, 3]);
        assert_eq!(expand_frontier(&[0], 3, 100, &mut fetch).unwrap(), vec![1, 2, 3, 4, 5]);
        // Frontier cap truncates per hop after sort+dedup.
        assert_eq!(expand_frontier(&[0], 1, 1, &mut fetch).unwrap(), vec![1]);
        // Empty start expands to nothing.
        assert_eq!(expand_frontier(&[], 3, 100, &mut fetch).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn expand_union_accumulates_revisits() {
        let a = arrays();
        let mut fetch = |vs: &[u64]| -> Result<Vec<Vec<u64>>, ExecError> {
            Ok(vs.iter().map(|&v| a.adj[v as usize].clone()).collect())
        };
        // hop1 from 3 = {4,5}; hop2 adds N(4)∪N(5) = {0}; start dropped.
        assert_eq!(expand_union(&[3], 2, 100, &mut fetch).unwrap(), vec![0, 4, 5]);
        // Cap applies after accumulation (global, not per hop).
        assert_eq!(expand_union(&[3], 2, 2, &mut fetch).unwrap(), vec![0, 4]);
    }

    #[test]
    fn run_pushed_splits_bit_exactly_across_ranges() {
        let a = arrays();
        let q = a.embed[5].clone();
        let plans: Vec<Vec<Stage>> = vec![
            vec![Stage::Filter(Pred::CommunityEq(1)), Stage::Collect { cap: 100 }],
            vec![Stage::Filter(Pred::RankAtLeast(0.3)), Stage::Score(Scorer::Rank), Stage::TopK(3)],
            vec![Stage::Filter(Pred::DegreeAtLeast(1)), Stage::Score(Scorer::Degree), Stage::TopK(2)],
            vec![Stage::Score(Scorer::Dot(5)), Stage::TopK(4)],
        ];
        for stages in &plans {
            let whole = run_pushed(&a, 0, 6, stages, Some(&q)).unwrap();
            // Split into two ranges, concatenate in range order, re-apply
            // the terminal: must match the single-range run bit for bit.
            let left = run_pushed(&a, 0, 3, stages, Some(&q)).unwrap();
            let right = run_pushed(&a, 3, 6, stages, Some(&q)).unwrap();
            let mut merged: Vec<(u64, f64)> = [left.rows, right.rows].concat();
            match stages.last().unwrap() {
                Stage::TopK(k) => {
                    sort_ranked(&mut merged);
                    merged.truncate(*k);
                }
                Stage::Collect { cap } => merged.truncate(*cap),
                _ => unreachable!(),
            }
            assert_eq!(merged.len(), whole.rows.len(), "stages={stages:?}");
            for (m, w) in merged.iter().zip(&whole.rows) {
                assert_eq!(m.0, w.0, "stages={stages:?}");
                assert_eq!(m.1.to_bits(), w.1.to_bits(), "stages={stages:?}");
            }
        }
    }

    #[test]
    fn run_pushed_reports_pruning_and_rejects_expand() {
        let a = arrays();
        let stages = vec![
            Stage::Filter(Pred::CommunityEq(2)),
            Stage::Score(Scorer::Rank),
            Stage::TopK(2),
        ];
        let pp = run_pushed(&a, 0, 6, &stages, None).unwrap();
        assert_eq!(pp.pruned, vec![3, 0, 1]);
        assert_eq!(pp.rows, vec![(5, 0.6), (2, 0.3)]);
        assert!(pp.scored);

        let bad = vec![
            Stage::Expand { hops: 1, cap: 8, mode: ExpandMode::Frontier },
            Stage::Collect { cap: 8 },
        ];
        assert!(run_pushed(&a, 0, 6, &bad, None).is_err());
        // Missing attribute surfaces as an error, not a silent skip.
        let no_ranks = Arrays { ranks: vec![], ..arrays() };
        let need_ranks = vec![Stage::Filter(Pred::RankAtLeast(0.0)), Stage::Collect { cap: 8 }];
        assert!(run_pushed(&no_ranks, 0, 6, &need_ranks, None).is_err());
    }

    /// The kernels the current ones replaced, kept as their references: a
    /// hashed visited set and a sort per hop, and top-k as sort then
    /// truncate.
    mod reference {
        use std::collections::HashSet;

        type Fetch<'a> = dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, usize> + 'a;

        pub fn expand_frontier(
            start: &[u64],
            hops: u32,
            cap: usize,
            fetch: &mut Fetch<'_>,
        ) -> Result<Vec<u64>, usize> {
            let mut visited: HashSet<u64> = start.iter().copied().collect();
            let mut frontier: Vec<u64> = start.to_vec();
            for _ in 0..hops {
                if frontier.is_empty() {
                    break;
                }
                let lists = fetch(&frontier)?;
                let mut next: Vec<u64> =
                    lists.into_iter().flatten().filter(|t| !visited.contains(t)).collect();
                next.sort_unstable();
                next.dedup();
                next.truncate(cap);
                visited.extend(next.iter().copied());
                frontier = next;
            }
            let mut result: Vec<u64> =
                visited.into_iter().filter(|v| !start.contains(v)).collect();
            result.sort_unstable();
            Ok(result)
        }

        pub fn expand_union(
            start: &[u64],
            hops: u32,
            cap: usize,
            fetch: &mut Fetch<'_>,
        ) -> Result<Vec<u64>, usize> {
            let mut acc: Vec<u64> = Vec::new();
            let mut frontier: Vec<u64> = start.to_vec();
            frontier.sort_unstable();
            frontier.dedup();
            for _ in 0..hops {
                if frontier.is_empty() {
                    break;
                }
                let lists = fetch(&frontier)?;
                let flat: Vec<u64> = lists.into_iter().flatten().collect();
                acc.extend(flat.iter().copied());
                let mut next = flat;
                next.sort_unstable();
                next.dedup();
                frontier = next;
            }
            acc.sort_unstable();
            acc.dedup();
            acc.retain(|v| !start.contains(v));
            acc.truncate(cap);
            Ok(acc)
        }

        pub fn top_k(rows: &mut Vec<(u64, f64)>, k: usize) {
            super::sort_ranked(rows);
            rows.truncate(k);
        }
    }

    #[derive(Debug)]
    struct ExpandCase {
        adj: Vec<Vec<u64>>,
        start: Vec<u64>,
        hops: u32,
        cap: usize,
        /// The fetch call that fails, if any.
        fail_at: Option<usize>,
    }

    /// Ids up to 200, so the marks span several words; lists with repeats
    /// and self-loops; an unsorted start set with duplicates.
    fn arb_expand(src: &mut Source) -> ExpandCase {
        let n = src.u64_range(1, 200);
        let adj = (0..n)
            .map(|v| {
                let mut list = src.vec_with(0, 6, |s| s.u64_range(0, n));
                if src.choice(4) == 0 {
                    list.push(v);
                }
                if let Some(&t) = list.first() {
                    if src.bool() {
                        list.push(t);
                    }
                }
                list
            })
            .collect();
        let mut start = src.vec_with(0, 6, |s| s.u64_range(0, n));
        if let Some(&v) = start.first() {
            if src.bool() {
                start.push(v);
            }
        }
        let hops = src.u64_range(1, 4) as u32;
        let cap = match src.choice(6) {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => usize::MAX,
            _ => src.usize_range(0, n as usize + 1),
        };
        let fail_at = (src.choice(5) == 0).then(|| src.usize_range(0, 3));
        ExpandCase { adj, start, hops, cap, fail_at }
    }

    type Kernel = fn(
        &[u64],
        u32,
        usize,
        &mut dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, usize>,
    ) -> Result<Vec<u64>, usize>;

    /// A kernel's result and every frontier it fetched (what the serving
    /// tier charges for).
    fn expand_with(kernel: Kernel, c: &ExpandCase) -> (Result<Vec<u64>, usize>, Vec<Vec<u64>>) {
        let mut calls: Vec<Vec<u64>> = Vec::new();
        let out = kernel(&c.start, c.hops, c.cap, &mut |vs: &[u64]| {
            calls.push(vs.to_vec());
            if c.fail_at == Some(calls.len() - 1) {
                return Err(calls.len());
            }
            Ok(vs.iter().map(|&v| c.adj[v as usize].clone()).collect())
        });
        (out, calls)
    }

    #[test]
    fn expansion_matches_the_reference_kernels() {
        check_with(
            "expansion_matches_the_reference_kernels",
            &Config::with_cases(300),
            arb_expand,
            |c| {
                prop_assert_eq!(
                    expand_with(expand_frontier, c),
                    expand_with(reference::expand_frontier, c),
                    "frontier"
                );
                prop_assert_eq!(
                    expand_with(expand_union, c),
                    expand_with(reference::expand_union, c),
                    "union"
                );
                Ok(())
            },
        );
    }

    /// Rows with repeated ids, tied scores, both zeros, infinities and
    /// NaNs of both signs; `k` at and around the edges.
    fn arb_ranked(src: &mut Source) -> (Vec<(u64, f64)>, usize) {
        const SCORES: [f64; 9] =
            [0.0, -0.0, 1.0, -1.0, 0.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        let rows = src.vec_with(0, 40, |s| {
            let score = match s.choice(12) {
                i @ 0..=8 => SCORES[i as usize],
                _ => s.f64_range(-1.0, 1.0),
            };
            (s.u64_range(0, 12), score)
        });
        let len = rows.len();
        let k = match src.choice(6) {
            0 => 0,
            1 => 1,
            2 => len.saturating_sub(1),
            3 => len,
            4 => len + 1,
            _ => src.usize_range(0, len + 2),
        };
        (rows, k)
    }

    fn bits(rows: &[(u64, f64)]) -> Vec<(u64, u64)> {
        rows.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    }

    #[test]
    fn top_k_equals_sort_then_truncate() {
        check_with(
            "top_k_equals_sort_then_truncate",
            &Config::with_cases(300),
            arb_ranked,
            |(rows, k)| {
                let (mut got, mut want) = (rows.clone(), rows.clone());
                top_k(&mut got, *k);
                reference::top_k(&mut want, *k);
                prop_assert_eq!(bits(&got), bits(&want), "k = {}", k);
                Ok(())
            },
        );
    }

    /// Both zeros, subnormals, the smallest normal and magnitudes up to
    /// `f32::MAX`, so a reassociated chain would show in the bits.
    fn arb_f32(src: &mut Source) -> f32 {
        let sign = if src.bool() { -1.0 } else { 1.0 };
        sign * match src.choice(8) {
            0 => 0.0,
            1 => f32::from_bits(src.u64_range(1, 1 << 23) as u32),
            2 => f32::MIN_POSITIVE,
            3 => src.f64_range(1e30, f32::MAX as f64) as f32,
            _ => src.f64_range(-4.0, 4.0) as f32,
        }
    }

    #[test]
    fn dot_full4_matches_dot_full_bit_for_bit() {
        check_with(
            "dot_full4_matches_dot_full_bit_for_bit",
            &Config::with_cases(200),
            |src| {
                let dim = src.usize_range(0, 24);
                let q: Vec<f32> = (0..dim).map(|_| arb_f32(src)).collect();
                let rows: Vec<Vec<f32>> =
                    src.vec_with(0, 10, |s| (0..dim).map(|_| arb_f32(s)).collect());
                (q, rows)
            },
            |(q, rows)| {
                let want: Vec<u64> = rows.iter().map(|r| dot_full(q, r).to_bits()).collect();
                for quad in rows.chunks_exact(4) {
                    let got = dot_full4(q, [&quad[0], &quad[1], &quad[2], &quad[3]]);
                    let want: Vec<u64> = quad.iter().map(|r| dot_full(q, r).to_bits()).collect();
                    prop_assert_eq!(got.map(f64::to_bits).to_vec(), want);
                }
                // The pushed Dot stage scores four rows at a time and the
                // remainder one by one: every row keeps `dot_full`'s bits.
                let qv = rows.len() as u64;
                let mut embed = rows.clone();
                embed.push(q.clone());
                let view = Arrays { ranks: vec![], comms: vec![], adj: vec![], embed };
                let pp = run_pushed(&view, 0, qv + 1, &[Stage::Score(Scorer::Dot(qv))], Some(q))
                    .unwrap();
                let got: Vec<u64> = pp.rows.iter().map(|r| r.1.to_bits()).collect();
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
    }

    #[test]
    fn full_rows_start_at_negative_zero_and_column_shards_at_positive_zero() {
        // Every product is -0.0: the start value decides the sign.
        let q = [1.0f32, -2.0, 0.0, -0.0];
        let row = [-0.0f32, 0.0, -3.0, 5.0];
        let (neg, pos) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
        assert_eq!(dot_full(&q, &row).to_bits(), neg);
        assert_eq!(dot_full4(&q, [&row; 4]).map(f64::to_bits), [neg; 4]);
        for shards in 1..=5 {
            assert_eq!(dot_cols(&q, &row, shards).to_bits(), pos, "shards={shards}");
        }
        // `total_cmp` ranks -0.0 below +0.0, so a flipped start value
        // would reorder tied rows.
        let mut rows = vec![(0, -0.0), (1, 0.0)];
        top_k(&mut rows, 1);
        assert_eq!(bits(&rows), vec![(1, pos)]);
    }
}
