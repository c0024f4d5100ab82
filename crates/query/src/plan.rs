//! The plan IR: a source plus composable stages over vertex sets.
//!
//! A plan evaluates a *working set*. `Source` seeds it (one vertex, or
//! the whole vertex range); each stage transforms it:
//!
//! ```text
//! plan     := source stage* terminal
//! source   := Seed(v) | All
//! stage    := Filter(pred) | Expand(hops, cap, mode) | Score(scorer)
//! terminal := TopK(k) | Collect(cap)
//! pred     := rank ≥ t | rank < t | community = c | community ≠ c
//!           | degree ≥ d | degree < d
//! scorer   := Dot(v) | Rank | Degree
//! ```
//!
//! Well-formedness ([`Plan::validate`]): the last stage must be a
//! terminal and terminals appear only last; `Expand` requires a `Seed`
//! source (expanding "all vertices" is unbounded) and may not follow
//! `Score` (scores would be silently dropped); at most one `Score`;
//! `TopK` requires a preceding `Score`; a scored plan must end in
//! `TopK` (ending in `Collect` would drop the scores it paid for).
//!
//! Float determinism is part of the IR contract: the association of a
//! `Score(Dot)` accumulation is fixed *statically* by the source —
//! `All` plans score full rows shard-side in column order
//! ([`crate::exec::dot_full`]); `Seed` plans score candidate sets as
//! per-column-shard partial sums added in shard order
//! (`exec::dot_cols`). The pushdown decision can therefore
//! never change result bits, only where the same fold runs.

use std::fmt;

/// Per-hop frontier cap for `Expand` in frontier mode (compiled k-hop).
pub const KHOP_FRONTIER_CAP: usize = 4096;

/// Candidate-set cap for the compiled 2-hop top-k plan.
pub const TOPK_CANDIDATES: usize = 128;

/// What seeds the working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A single seed vertex.
    Seed(u64),
    /// Every vertex in the snapshot, in ascending id order.
    All,
}

/// A per-vertex predicate evaluated against shard-local attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pred {
    RankAtLeast(f64),
    RankBelow(f64),
    CommunityEq(u64),
    CommunityNe(u64),
    DegreeAtLeast(u64),
    DegreeBelow(u64),
}

/// How `Expand` accumulates the neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandMode {
    /// Visited-set BFS: the result is every vertex reached within `hops`
    /// hops, excluding the start set; the per-hop frontier is sorted,
    /// deduplicated, and truncated to `cap`. This is the legacy k-hop.
    Frontier,
    /// Union of all per-hop neighbor lists: the result is the sorted,
    /// deduplicated union truncated to `cap` *after* accumulation,
    /// excluding the start set. At `hops = 2` this is the legacy top-k
    /// candidate set (1-hop ∪ 2-hop, revisits allowed).
    Union,
}

/// How a vertex is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scorer {
    /// Embedding dot product with vertex `v`'s row. `v` itself is always
    /// excluded from the scored set.
    Dot(u64),
    /// The vertex's rank.
    Rank,
    /// The vertex's out-degree.
    Degree,
}

/// One plan stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Keep vertices satisfying the predicate.
    Filter(Pred),
    /// Replace the set with its `hops`-hop neighborhood.
    Expand { hops: u32, cap: usize, mode: ExpandMode },
    /// Attach a score to every vertex.
    Score(Scorer),
    /// Terminal: global top `k` by (score desc, id asc).
    TopK(usize),
    /// Terminal: the set itself (ascending ids), truncated to `cap`.
    Collect { cap: usize },
}

/// Which float association a `Score(Dot)` stage uses — fixed statically
/// by the plan source so pushdown can never change bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotAssoc {
    /// One f64 fold over the full row in column order (`All` plans; this
    /// is what shard-local scoring computes).
    FullRow,
    /// Per-column-shard partial sums added in shard order (`Seed` plans;
    /// this is what the scatter to column shards computes).
    ColShards,
}

/// A compound query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub source: Source,
    pub stages: Vec<Stage>,
}

/// Why a plan is not well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    Empty,
    MisplacedTerminal,
    MissingTerminal,
    ExpandNeedsSeed,
    ExpandAfterScore,
    ZeroHops,
    MultipleScore,
    TopKNeedsScore,
    ScoresDropped,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            PlanError::Empty => "plan has no stages",
            PlanError::MisplacedTerminal => "TopK/Collect must be the last stage",
            PlanError::MissingTerminal => "plan must end in TopK or Collect",
            PlanError::ExpandNeedsSeed => "Expand requires a Seed source",
            PlanError::ExpandAfterScore => "Expand may not follow Score",
            PlanError::ZeroHops => "Expand needs hops >= 1",
            PlanError::MultipleScore => "at most one Score stage",
            PlanError::TopKNeedsScore => "TopK requires a preceding Score",
            PlanError::ScoresDropped => "scored plan must end in TopK, not Collect",
        };
        f.write_str(msg)
    }
}

impl Plan {
    /// Check well-formedness (see the module docs for the rules).
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.stages.is_empty() {
            return Err(PlanError::Empty);
        }
        let last = self.stages.len() - 1;
        let mut seen_score = false;
        for (i, st) in self.stages.iter().enumerate() {
            match st {
                Stage::TopK(_) | Stage::Collect { .. } => {
                    if i != last {
                        return Err(PlanError::MisplacedTerminal);
                    }
                }
                Stage::Expand { hops, .. } => {
                    if !matches!(self.source, Source::Seed(_)) {
                        return Err(PlanError::ExpandNeedsSeed);
                    }
                    if seen_score {
                        return Err(PlanError::ExpandAfterScore);
                    }
                    if *hops == 0 {
                        return Err(PlanError::ZeroHops);
                    }
                }
                Stage::Score(_) => {
                    if seen_score {
                        return Err(PlanError::MultipleScore);
                    }
                    seen_score = true;
                }
                Stage::Filter(_) => {}
            }
        }
        match self.stages[last] {
            Stage::TopK(_) if !seen_score => Err(PlanError::TopKNeedsScore),
            Stage::TopK(_) => Ok(()),
            Stage::Collect { .. } if seen_score => Err(PlanError::ScoresDropped),
            Stage::Collect { .. } => Ok(()),
            _ => Err(PlanError::MissingTerminal),
        }
    }

    /// The vertex a `Score(Dot)` stage scores against, if any.
    pub fn dot_vertex(&self) -> Option<u64> {
        self.stages.iter().find_map(|s| match s {
            Stage::Score(Scorer::Dot(v)) => Some(*v),
            _ => None,
        })
    }

    /// The float association every `Score(Dot)` in this plan uses.
    pub fn dot_assoc(&self) -> DotAssoc {
        match self.source {
            Source::All => DotAssoc::FullRow,
            Source::Seed(_) => DotAssoc::ColShards,
        }
    }

    /// The vertex this plan is keyed on — the seed, else the dot-scored
    /// vertex, else none. Used for admission routing and bounds checks.
    pub fn anchor(&self) -> Option<u64> {
        match self.source {
            Source::Seed(v) => Some(v),
            Source::All => self.dot_vertex(),
        }
    }

    /// Re-key a template plan onto vertex `v`: rewrites the seed and any
    /// `Dot` scorer. Lets a load generator draw anchors from a Zipf
    /// distribution over a fixed plan palette.
    pub fn with_anchor(mut self, v: u64) -> Plan {
        if let Source::Seed(s) = &mut self.source {
            *s = v;
        }
        for st in &mut self.stages {
            if let Stage::Score(Scorer::Dot(d)) = st {
                *d = v;
            }
        }
        self
    }

    /// The legacy k-hop query as a plan: frontier BFS from `v`, every
    /// reached vertex collected in ascending order.
    pub fn khop(v: u64, hops: u32) -> Plan {
        Plan {
            source: Source::Seed(v),
            stages: vec![
                Stage::Expand { hops, cap: KHOP_FRONTIER_CAP, mode: ExpandMode::Frontier },
                Stage::Collect { cap: usize::MAX },
            ],
        }
    }

    /// The legacy neighborhood top-k as a plan: 2-hop candidate union,
    /// dot-scored against `v` via column-shard partials.
    pub fn topk(v: u64, k: usize) -> Plan {
        Plan {
            source: Source::Seed(v),
            stages: vec![
                Stage::Expand { hops: 2, cap: TOPK_CANDIDATES, mode: ExpandMode::Union },
                Stage::Score(Scorer::Dot(v)),
                Stage::TopK(k),
            ],
        }
    }

    /// The legacy all-vertex top-k as a plan: every shard dot-scores its
    /// own range against `v`'s full row.
    pub fn topk_all(v: u64, k: usize) -> Plan {
        Plan {
            source: Source::All,
            stages: vec![Stage::Score(Scorer::Dot(v)), Stage::TopK(k)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_legacy_shapes_are_valid() {
        assert_eq!(Plan::khop(3, 2).validate(), Ok(()));
        assert_eq!(Plan::topk(3, 8).validate(), Ok(()));
        assert_eq!(Plan::topk_all(3, 8).validate(), Ok(()));
        let compound = Plan {
            source: Source::Seed(1),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand { hops: 2, cap: 64, mode: ExpandMode::Frontier },
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Dot(1)),
                Stage::TopK(5),
            ],
        };
        assert_eq!(compound.validate(), Ok(()));
        let scored_all = Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::RankAtLeast(0.1)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(4),
            ],
        };
        assert_eq!(scored_all.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let p = |source, stages| Plan { source, stages };
        assert_eq!(p(Source::All, vec![]).validate(), Err(PlanError::Empty));
        assert_eq!(
            p(Source::All, vec![Stage::Collect { cap: 5 }, Stage::Collect { cap: 5 }]).validate(),
            Err(PlanError::MisplacedTerminal)
        );
        assert_eq!(
            p(Source::All, vec![Stage::Filter(Pred::CommunityEq(1))]).validate(),
            Err(PlanError::MissingTerminal)
        );
        assert_eq!(
            p(
                Source::All,
                vec![
                    Stage::Expand { hops: 1, cap: 8, mode: ExpandMode::Frontier },
                    Stage::Collect { cap: 8 },
                ],
            )
            .validate(),
            Err(PlanError::ExpandNeedsSeed)
        );
        assert_eq!(
            p(
                Source::Seed(0),
                vec![
                    Stage::Score(Scorer::Rank),
                    Stage::Expand { hops: 1, cap: 8, mode: ExpandMode::Frontier },
                    Stage::TopK(2),
                ],
            )
            .validate(),
            Err(PlanError::ExpandAfterScore)
        );
        assert_eq!(
            p(
                Source::Seed(0),
                vec![
                    Stage::Expand { hops: 0, cap: 8, mode: ExpandMode::Frontier },
                    Stage::Collect { cap: 8 },
                ],
            )
            .validate(),
            Err(PlanError::ZeroHops)
        );
        assert_eq!(
            p(
                Source::All,
                vec![Stage::Score(Scorer::Rank), Stage::Score(Scorer::Degree), Stage::TopK(2)],
            )
            .validate(),
            Err(PlanError::MultipleScore)
        );
        assert_eq!(p(Source::All, vec![Stage::TopK(2)]).validate(), Err(PlanError::TopKNeedsScore));
        assert_eq!(
            p(Source::All, vec![Stage::Score(Scorer::Rank), Stage::Collect { cap: 2 }]).validate(),
            Err(PlanError::ScoresDropped)
        );
    }

    #[test]
    fn anchors_and_rekeying() {
        assert_eq!(Plan::khop(7, 2).anchor(), Some(7));
        assert_eq!(Plan::topk_all(9, 4).anchor(), Some(9));
        let unanchored = Plan {
            source: Source::All,
            stages: vec![Stage::Score(Scorer::Rank), Stage::TopK(3)],
        };
        assert_eq!(unanchored.anchor(), None);

        let rekeyed = Plan::topk(1, 8).with_anchor(42);
        assert_eq!(rekeyed.source, Source::Seed(42));
        assert_eq!(rekeyed.dot_vertex(), Some(42));
        assert_eq!(Plan::topk(1, 8).dot_assoc(), DotAssoc::ColShards);
        assert_eq!(Plan::topk_all(1, 8).dot_assoc(), DotAssoc::FullRow);
    }
}
