//! The single-node reference interpreter: executes any plan against
//! full truth arrays. This is the bit-exact oracle — every distributed
//! execution (any shard count, any pushdown decision, any pool size)
//! must reproduce its output exactly.

use crate::exec::{
    self, dot_cols, pred_keep, scalar_score, sort_ranked, ExecError, VertexView,
};
use crate::plan::{DotAssoc, ExpandMode, Plan, Scorer, Source, Stage};

/// Full truth arrays for a snapshot. Any object may be absent, matching
/// a snapshot that did not include it.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphTruth {
    pub num_vertices: u64,
    pub ranks: Option<Vec<f64>>,
    pub communities: Option<Vec<u64>>,
    pub adjacency: Option<Vec<Vec<u64>>>,
    pub embeddings: Option<Vec<Vec<f32>>>,
}

impl GraphTruth {
    /// A truth with no objects.
    pub fn new(num_vertices: u64) -> Self {
        GraphTruth {
            num_vertices,
            ranks: None,
            communities: None,
            adjacency: None,
            embeddings: None,
        }
    }
}

impl VertexView for GraphTruth {
    fn rank(&self, v: u64) -> Option<f64> {
        self.ranks.as_ref().and_then(|r| r.get(v as usize)).copied()
    }
    fn community(&self, v: u64) -> Option<u64> {
        self.communities.as_ref().and_then(|c| c.get(v as usize)).copied()
    }
    fn degree(&self, v: u64) -> Option<usize> {
        self.adjacency.as_ref().and_then(|a| a.get(v as usize)).map(|n| n.len())
    }
    fn embed_row(&self, v: u64) -> Option<&[f32]> {
        self.embeddings.as_ref().and_then(|e| e.get(v as usize)).map(|r| r.as_slice())
    }
}

/// What a plan evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// Ascending vertex ids (`Collect` terminal).
    Vertices(Vec<u64>),
    /// `(vertex, score)` in canonical ranked order (`TopK` terminal).
    Ranked(Vec<(u64, f64)>),
}

/// Executes plans against a [`GraphTruth`]. `num_shards` fixes the
/// `DotAssoc::ColShards` association so seed-plan scores carry the same
/// bits as the cluster being verified.
pub struct Interpreter<'a> {
    truth: &'a GraphTruth,
    num_shards: usize,
}

impl<'a> Interpreter<'a> {
    pub fn new(truth: &'a GraphTruth, num_shards: usize) -> Self {
        Interpreter { truth, num_shards: num_shards.max(1) }
    }

    /// Run a plan to completion.
    pub fn run(&self, plan: &Plan) -> Result<PlanOutput, ExecError> {
        plan.validate().map_err(|e| ExecError(e.to_string()))?;
        let n = self.truth.num_vertices;
        if let Some(a) = plan.anchor() {
            if a >= n {
                return Err(ExecError(format!("vertex {a} out of range ({n} vertices)")));
            }
        }
        match plan.source {
            // `All` plans are *defined* by the pushed-prefix kernel over
            // the full range; distributed execution reproduces this by
            // splitting the range across shards.
            Source::All => {
                let q_row = match plan.dot_vertex() {
                    Some(qv) => Some(
                        self.truth
                            .embed_row(qv)
                            .ok_or_else(|| ExecError("shard serves no embedding rows".into()))?,
                    ),
                    None => None,
                };
                // A terminal top-k runs here by its definition, sort then
                // truncate, so every answer checked against this
                // interpreter checks `exec::top_k` too.
                let (body, top) = match plan.stages.split_last() {
                    Some((Stage::TopK(k), body)) => (body, Some(*k)),
                    _ => (&plan.stages[..], None),
                };
                let pp = exec::run_pushed(self.truth, 0, n, body, q_row)?;
                Ok(match top {
                    Some(k) => {
                        let mut ranked = pp.rows;
                        sort_ranked(&mut ranked);
                        ranked.truncate(k);
                        PlanOutput::Ranked(ranked)
                    }
                    None => PlanOutput::Vertices(pp.rows.into_iter().map(|(v, _)| v).collect()),
                })
            }
            Source::Seed(seed) => self.run_seeded(plan, seed),
        }
    }

    /// Operator loop for seed plans, mirroring the frontend suffix
    /// executor stage for stage.
    fn run_seeded(&self, plan: &Plan, seed: u64) -> Result<PlanOutput, ExecError> {
        let mut ids: Vec<u64> = vec![seed];
        let mut scores: Option<Vec<f64>> = None;
        for st in &plan.stages {
            match st {
                Stage::Filter(p) => {
                    let keep: Vec<bool> = ids
                        .iter()
                        .map(|&v| pred_keep(self.truth, v, *p))
                        .collect::<Result<_, _>>()?;
                    let mut it = keep.iter();
                    ids.retain(|_| *it.next().unwrap());
                    if let Some(sc) = &mut scores {
                        let mut it = keep.iter();
                        sc.retain(|_| *it.next().unwrap());
                    }
                }
                Stage::Expand { hops, cap, mode } => {
                    let adj = self
                        .truth
                        .adjacency
                        .as_ref()
                        .ok_or_else(|| ExecError("shard serves no adjacency".into()))?;
                    let mut fetch = |vs: &[u64]| -> Result<Vec<Vec<u64>>, ExecError> {
                        vs.iter()
                            .map(|&v| {
                                adj.get(v as usize).cloned().ok_or_else(|| {
                                    ExecError(format!("vertex {v} out of range"))
                                })
                            })
                            .collect()
                    };
                    ids = match mode {
                        ExpandMode::Frontier => exec::expand_frontier(&ids, *hops, *cap, &mut fetch)?,
                        ExpandMode::Union => exec::expand_union(&ids, *hops, *cap, &mut fetch)?,
                    };
                    scores = None;
                }
                Stage::Score(Scorer::Dot(qv)) => {
                    debug_assert_eq!(plan.dot_assoc(), DotAssoc::ColShards);
                    ids.retain(|&v| v != *qv);
                    // An empty candidate set issues no scoring RPCs in the
                    // distributed executor, so it raises no missing-object
                    // error here either.
                    if ids.is_empty() {
                        scores = Some(Vec::new());
                        continue;
                    }
                    let q = self
                        .truth
                        .embed_row(*qv)
                        .ok_or_else(|| ExecError("shard serves no embeddings".into()))?;
                    let mut sc = Vec::with_capacity(ids.len());
                    for &v in &ids {
                        let row = self
                            .truth
                            .embed_row(v)
                            .ok_or_else(|| ExecError("shard serves no embeddings".into()))?;
                        if row.len() != q.len() {
                            return Err(ExecError(format!(
                                "query row has {} dims, shard stores {}",
                                q.len(),
                                row.len()
                            )));
                        }
                        sc.push(dot_cols(q, row, self.num_shards));
                    }
                    scores = Some(sc);
                }
                Stage::Score(s) => {
                    let mut sc = Vec::with_capacity(ids.len());
                    for &v in &ids {
                        sc.push(scalar_score(self.truth, v, *s)?);
                    }
                    scores = Some(sc);
                }
                Stage::TopK(k) => {
                    let sc = scores.take().unwrap_or_default();
                    let mut ranked: Vec<(u64, f64)> = ids.iter().copied().zip(sc).collect();
                    sort_ranked(&mut ranked);
                    ranked.truncate(*k);
                    return Ok(PlanOutput::Ranked(ranked));
                }
                Stage::Collect { cap } => {
                    ids.truncate(*cap);
                    return Ok(PlanOutput::Vertices(ids));
                }
            }
        }
        Err(ExecError("plan missing terminal stage".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Pred;

    fn truth() -> GraphTruth {
        GraphTruth {
            num_vertices: 6,
            ranks: Some(vec![0.5, 0.4, 0.3, 0.2, 0.1, 0.6]),
            communities: Some(vec![1, 1, 2, 2, 1, 2]),
            adjacency: Some(vec![vec![1, 2], vec![3], vec![], vec![4, 5], vec![0], vec![]]),
            embeddings: Some((0..6).map(|v| vec![v as f32 * 0.25, 1.0]).collect()),
        }
    }

    #[test]
    fn khop_matches_hand_bfs() {
        let t = truth();
        let it = Interpreter::new(&t, 2);
        assert_eq!(it.run(&Plan::khop(0, 2)).unwrap(), PlanOutput::Vertices(vec![1, 2, 3]));
        assert_eq!(
            it.run(&Plan::khop(0, 4)).unwrap(),
            PlanOutput::Vertices(vec![1, 2, 3, 4, 5])
        );
        assert_eq!(it.run(&Plan::khop(2, 3)).unwrap(), PlanOutput::Vertices(vec![]));
    }

    #[test]
    fn topk_all_matches_hand_scores() {
        let t = truth();
        // q = row 5 = [1.25, 1.0]; score(v) = 1.25·(0.25v) + 1.0.
        let out = Interpreter::new(&t, 3).run(&Plan::topk_all(5, 2)).unwrap();
        match out {
            PlanOutput::Ranked(r) => {
                assert_eq!(r.len(), 2);
                assert_eq!(r[0].0, 4);
                assert_eq!(r[1].0, 3);
                assert_eq!(r[0].1, 1.25 * 1.0 + 1.0 * 1.0);
            }
            other => panic!("expected ranked, got {other:?}"),
        }
    }

    #[test]
    fn compound_filter_expand_score_topk() {
        let t = truth();
        let it = Interpreter::new(&t, 2);
        let plan = Plan {
            source: Source::Seed(0),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand { hops: 2, cap: 64, mode: ExpandMode::Frontier },
                Stage::Filter(Pred::CommunityEq(2)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        };
        // 2-hop from 0 = {1,2,3}; community 2 keeps {2,3}; ranked by rank.
        assert_eq!(
            it.run(&plan).unwrap(),
            PlanOutput::Ranked(vec![(2, 0.3), (3, 0.2)])
        );
        // A filter that drops the seed empties the whole plan.
        let dead = Plan {
            source: Source::Seed(2),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand { hops: 2, cap: 64, mode: ExpandMode::Frontier },
                Stage::Collect { cap: 64 },
            ],
        };
        assert_eq!(it.run(&dead).unwrap(), PlanOutput::Vertices(vec![]));
    }

    #[test]
    fn errors_on_missing_objects_and_bad_anchors() {
        let t = truth();
        let it = Interpreter::new(&t, 2);
        assert!(it.run(&Plan::khop(99, 2)).is_err(), "anchor out of range");

        let bare = GraphTruth::new(6);
        let it2 = Interpreter::new(&bare, 2);
        assert!(it2.run(&Plan::khop(0, 2)).is_err(), "no adjacency");
        assert!(it2.run(&Plan::topk_all(0, 2)).is_err(), "no embeddings");
        let need_ranks = Plan {
            source: Source::All,
            stages: vec![Stage::Filter(Pred::RankAtLeast(0.0)), Stage::Collect { cap: 8 }],
        };
        assert!(it2.run(&need_ranks).is_err(), "no ranks");
    }
}
