//! Shared execution kernels: one semantic definition of every stage,
//! used by the single-node interpreter, the shard-side pushed-prefix
//! evaluator, and the frontend suffix executor.

use std::collections::HashSet;
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

/// Full-row dot product: one f64 fold in column order. This is the
/// `DotAssoc::FullRow` association.
pub fn dot_full(q: &[f32], row: &[f32]) -> f64 {
    q.iter().zip(row).map(|(a, b)| *a as f64 * *b as f64).sum()
}

/// Column-sharded dot product: per-column-shard partial sums added in
/// shard order — the `DotAssoc::ColShards` association, matching the
/// distributed scatter to column shards bit for bit. (A partial over an
/// empty column slice is `+0.0`, and `x + 0.0` preserves `x`'s bits for
/// every finite `x` the fold can produce, so shards with zero columns
/// may be included or skipped freely.)
pub fn dot_cols(q: &[f32], row: &[f32], num_shards: usize) -> f64 {
    let mut total = 0.0f64;
    for s in 0..num_shards {
        let (lo, hi) = col_range(s, q.len(), num_shards);
        let mut partial = 0.0f64;
        for j in lo..hi {
            partial += q[j] as f64 * row[j] as f64;
        }
        total += partial;
    }
    total
}

/// Canonical ranked order: score descending, vertex id ascending on ties.
pub fn sort_ranked(rows: &mut [(u64, f64)]) {
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// `Expand` in `Frontier` mode: visited-set BFS from `start`. Each hop
/// fetches the neighbor lists of the current frontier (one call per
/// hop), keeps unvisited targets sorted/deduplicated/truncated to
/// `cap`, and the result is every visited vertex minus the start set,
/// ascending. Generic over the fetch so the interpreter passes an
/// adjacency lookup and the frontend passes an RPC scatter.
pub fn expand_frontier<E>(
    start: &[u64],
    hops: u32,
    cap: usize,
    fetch: &mut dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, E>,
) -> Result<Vec<u64>, E> {
    let mut visited: HashSet<u64> = start.iter().copied().collect();
    let mut frontier: Vec<u64> = start.to_vec();
    for _ in 0..hops {
        if frontier.is_empty() {
            break;
        }
        let lists = fetch(&frontier)?;
        let mut next: Vec<u64> = lists
            .into_iter()
            .flatten()
            .filter(|t| !visited.contains(t))
            .collect();
        next.sort_unstable();
        next.dedup();
        next.truncate(cap);
        visited.extend(next.iter().copied());
        frontier = next;
    }
    let mut result: Vec<u64> = visited.into_iter().filter(|v| !start.contains(v)).collect();
    result.sort_unstable();
    Ok(result)
}

/// `Expand` in `Union` mode: accumulate every per-hop neighbor list
/// (revisits allowed), then sort, deduplicate, drop the start set, and
/// truncate to `cap`. The next frontier is the sorted/deduplicated flat
/// list, so the *set* reached per hop matches a raw traversal exactly.
pub fn expand_union<E>(
    start: &[u64],
    hops: u32,
    cap: usize,
    fetch: &mut dyn FnMut(&[u64]) -> Result<Vec<Vec<u64>>, E>,
) -> Result<Vec<u64>, E> {
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
                for r in rows.iter_mut() {
                    let row = view.embed_row(r.0).ok_or_else(|| missing("embedding rows"))?;
                    if row.len() != q.len() {
                        return Err(ExecError(format!(
                            "query row has {} dims, shard stores {}",
                            q.len(),
                            row.len()
                        )));
                    }
                    r.1 = dot_full(q, row);
                }
                scored = true;
            }
            Stage::Score(s) => {
                for r in rows.iter_mut() {
                    r.1 = scalar_score(view, r.0, *s)?;
                }
                scored = true;
            }
            Stage::TopK(k) => {
                sort_ranked(&mut rows);
                rows.truncate(*k);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExpandMode, Pred};

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
}
