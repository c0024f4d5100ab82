//! Common Neighbor (paper §IV-B): for each queried vertex pair, count the
//! overlap of their neighbor sets (link-prediction feature).
//!
//! The neighbor tables are pushed to the PS once; afterwards the
//! executors stream batches of pairs, pull both endpoints' adjacency from
//! the PS, and intersect locally — no shuffle per query, which is why
//! PSGraph beats GraphX 3× on DS1 and survives DS2 (Fig. 6). An executor
//! talks to the PS once per round for all its partitions' batches, so a
//! hub's list reaches it once per round, not once per partition.

use std::cmp::Reverse;
use std::sync::Arc;

use psgraph_dataflow::{DataflowError, Executor, Rdd};
use psgraph_graph::metrics::{intersection_ops, Anchor};
use psgraph_ps::{NeighborTableHandle, Partitioner, RecoveryMode};

use crate::context::{PsGraphContext, RunStats};
use crate::error::{CoreError, PsResultExt, Result};

/// Common-neighbor job configuration.
#[derive(Debug, Clone)]
pub struct CommonNeighbor {
    /// Pairs processed per pull batch per partition.
    pub batch_size: usize,
    /// Checkpoint the PS neighbor table after building it (enables the
    /// Table II recovery path).
    pub checkpoint: bool,
}

impl Default for CommonNeighbor {
    fn default() -> Self {
        CommonNeighbor { batch_size: 1024, checkpoint: false }
    }
}

/// Result: one count per input pair (in input order) plus statistics.
#[derive(Debug, Clone)]
pub struct CommonNeighborOutput {
    pub counts: Vec<(u64, u64, u64)>,
    pub stats: RunStats,
}

impl CommonNeighbor {
    /// Build the PS neighbor table from an edge RDD (undirected view) and
    /// count common neighbors for every edge in the graph — the paper's
    /// workload ("iteratively processes a batch of edges").
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<CommonNeighborOutput> {
        self.run_for_pairs(ctx, edges, edges, num_vertices)
    }

    /// Same, but with an explicit pair RDD to query.
    pub fn run_for_pairs(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        pairs: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<CommonNeighborOutput> {
        let start = ctx.now();
        let snap = ctx.net_snapshot();
        let mut supersteps = 0;

        // Undirected adjacency via a pipelined symmetrize + groupBy
        // (in-shuffle sort + dedup), pushed to the PS.
        let tables = crate::runner::to_undirected_neighbor_tables(edges)?;
        let _objects = super::PsObjects::new(ctx, &["cn.adj"]);
        let adj = NeighborTableHandle::create(
            ctx.ps(),
            "cn.adj",
            num_vertices,
            Partitioner::Hash,
            RecoveryMode::Inconsistent,
        )?;
        push_adjacency(ctx, &tables, &adj)?;
        supersteps += 1;

        if self.checkpoint {
            ctx.ps().checkpoint(ctx.dfs(), "cn.adj")?;
        }

        // Stream pair batches: pull adjacency, intersect locally.
        let batch = self.batch_size.max(1);
        let mut results: Vec<Vec<(u64, u64, u64)>> = Vec::new();
        for round in 0..num_rounds(ctx, pairs, batch)? {
            let (killed_execs, _) = ctx.superstep_maintenance(supersteps)?;
            if !killed_execs.is_empty() {
                tables.recover()?;
                pairs.recover()?;
            }
            supersteps += 1;

            let round_results: Vec<Vec<Vec<(u64, u64, u64)>>> = ctx
                .cluster()
                .run_executors(pairs.num_partitions(), |exec, parts| {
                    let local = pairs.partitions(parts)?;
                    let batches: Vec<&[(u64, u64)]> =
                        local.iter().map(|part| batch_of(part, round, batch)).collect();
                    let counts = count_common(ctx, exec, &adj, &batches)?;
                    Ok(batches
                        .iter()
                        .zip(counts)
                        .map(|(pairs, counts)| {
                            pairs.iter().zip(counts).map(|(&(a, b), c)| (a, b, c)).collect()
                        })
                        .collect())
                })
                .map_err(CoreError::from)?;
            results.extend(ctx.cluster().in_partition_order(round_results)?);
        }

        let counts: Vec<(u64, u64, u64)> = results.into_iter().flatten().collect();
        Ok(CommonNeighborOutput { counts, stats: ctx.stats_since(start, snap, supersteps) })
    }
}

/// Push the neighbor tables to the PS table `adj`: every executor ships
/// the lists of all its partitions as one request.
pub(crate) fn push_adjacency(
    ctx: &PsGraphContext,
    tables: &Rdd<(u64, Vec<u64>)>,
    adj: &NeighborTableHandle,
) -> Result<()> {
    let unsorted = ctx
        .cluster()
        .run_executors(tables.num_partitions(), |exec, parts| {
            let entries: Vec<(u64, Vec<u64>)> =
                tables.partitions(parts)?.iter().flat_map(|part| part.iter().cloned()).collect();
            // The kernel's bitmap count needs strictly ascending lists: a
            // repeat counts twice, an id out of order can fall past its `≤ last` cut.
            let bad = entries.iter().find(|(_, ns)| ns.windows(2).any(|w| w[0] >= w[1]));
            if let Some(&(v, _)) = bad {
                return Ok(Some(v));
            }
            if !entries.is_empty() {
                adj.push(exec.clock(), &entries).df()?;
            }
            Ok(None)
        })
        .map_err(CoreError::from)?;
    match unsorted.into_iter().flatten().next() {
        Some(v) => Err(CoreError::Invalid(format!(
            "neighbor list of vertex {v} is not strictly ascending"
        ))),
        None => Ok(()),
    }
}

/// Rounds needed to stream `pairs` in batches of `batch` per partition.
pub(crate) fn num_rounds(
    ctx: &PsGraphContext,
    pairs: &Rdd<(u64, u64)>,
    batch: usize,
) -> Result<usize> {
    let counts = ctx
        .cluster()
        .run_stage(pairs.num_partitions(), |p, _exec| Ok(pairs.partition(p)?.len().div_ceil(batch)))
        .map_err(CoreError::from)?;
    Ok(counts.into_iter().max().unwrap_or(0))
}

/// A partition's `round`-th batch of `batch` pairs (empty once it ran out).
pub(crate) fn batch_of(part: &[(u64, u64)], round: usize, batch: usize) -> &[(u64, u64)] {
    let lo = (round * batch).min(part.len());
    &part[lo..((round + 1) * batch).min(part.len())]
}

/// One round on one executor: pull both endpoints' adjacency for the
/// current batch of every partition it hosts — one request, so a list that
/// several batches name is shipped once — and count `|N(a) ∩ N(b)|` per
/// pair, batch by batch.
///
/// Each pair is keyed by the endpoint with the longer list (ties: the
/// smaller id), and the pairs of one key are counted against one
/// [`Anchor`] load of its list, so a hub's list is loaded once per round
/// however many of the round's pairs name it; the counts go back to their
/// pairs' slots. A pair is charged `3 ×` [`intersection_ops`] of its lengths.
pub(crate) fn count_common(
    ctx: &PsGraphContext,
    exec: &Executor,
    adj: &NeighborTableHandle,
    batches: &[&[(u64, u64)]],
) -> std::result::Result<Vec<Vec<u64>>, DataflowError> {
    let wanted: Vec<u64> =
        batches.iter().flat_map(|pairs| pairs.iter()).flat_map(|&(a, b)| [a, b]).collect();
    let neigh = adj.pull(exec.clock(), &wanted).df()?;
    // `(key, slot)`: the pair in slot `s` has its ids at `wanted[2s..2s + 2]`
    // and its lists at the same places in `neigh`.
    let mut keyed: Vec<(u64, usize)> = (0..wanted.len() / 2)
        .map(|slot| {
            let [a, b] = [2 * slot, 2 * slot + 1].map(|i| (neigh[i].len(), Reverse(wanted[i])));
            (if a >= b { wanted[2 * slot] } else { wanted[2 * slot + 1] }, slot)
        })
        .collect();
    keyed.sort_unstable();
    let mut counts = vec![0u64; keyed.len()];
    let mut anchor = Anchor::default();
    for run in keyed.chunk_by(|x, y| x.0 == y.0) {
        // The key's side of a slot, and the other side.
        let sides = |slot: usize| {
            let i = 2 * slot + (wanted[2 * slot] != run[0].0) as usize;
            (&neigh[i], &neigh[i ^ 1])
        };
        let anchored = anchor.load(sides(run[0].1).0);
        for &(_, slot) in run {
            counts[slot] = anchored.count(sides(slot).1);
        }
    }
    let work: u64 =
        neigh.chunks_exact(2).map(|ab| intersection_ops(ab[0].len(), ab[1].len())).sum();
    exec.charge_cpu(ctx.cluster().cost(), work * 3);
    let mut counts = counts.into_iter();
    Ok(batches.iter().map(|pairs| counts.by_ref().take(pairs.len()).collect()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};
    use psgraph_sim::FxHashMap;

    fn check_against_exact(g: &EdgeList) {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        let out = CommonNeighbor { batch_size: 16, ..Default::default() }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap();
        let queried: Vec<(u64, u64)> = out.counts.iter().map(|&(a, b, _)| (a, b)).collect();
        let exact = metrics::common_neighbors_exact(g, &queried);
        let got: FxHashMap<(u64, u64), u64> =
            out.counts.iter().map(|&(a, b, c)| ((a, b), c)).collect();
        for (&(a, b), want) in queried.iter().zip(&exact) {
            assert_eq!(got[&(a, b)], *want, "pair ({a},{b})");
        }
        // Every edge of the graph was queried.
        assert_eq!(out.counts.len(), g.num_edges());
    }

    #[test]
    fn square_with_diagonal() {
        let g = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        check_against_exact(&g);
    }

    #[test]
    fn random_graph_matches_exact() {
        check_against_exact(&gen::erdos_renyi(40, 200, 37).dedup());
    }

    #[test]
    fn powerlaw_graph_matches_exact() {
        check_against_exact(&gen::rmat(50, 300, Default::default(), 41).dedup());
    }

    #[test]
    fn explicit_pairs_query() {
        let ctx = PsGraphContext::local();
        let g = gen::complete(5);
        let edges = distribute_edges(&ctx, &g, 4).unwrap();
        let pairs = distribute_edges(
            &ctx,
            &EdgeList::new(5, vec![(0, 1), (2, 4)]),
            2,
        )
        .unwrap();
        let out = CommonNeighbor::default()
            .run_for_pairs(&ctx, &edges, &pairs, 5)
            .unwrap();
        // In K5 any two distinct vertices share the other 3.
        assert_eq!(out.counts.len(), 2);
        assert!(out.counts.iter().all(|&(_, _, c)| c == 3));
    }

    #[test]
    fn batching_does_not_change_results() {
        let g = gen::erdos_renyi(30, 150, 43).dedup();
        let ctx1 = PsGraphContext::local();
        let e1 = distribute_edges(&ctx1, &g, 4).unwrap();
        let big = CommonNeighbor { batch_size: 10_000, ..Default::default() }
            .run(&ctx1, &e1, 30)
            .unwrap();
        let ctx2 = PsGraphContext::local();
        let e2 = distribute_edges(&ctx2, &g, 4).unwrap();
        let small = CommonNeighbor { batch_size: 3, ..Default::default() }
            .run(&ctx2, &e2, 30)
            .unwrap();
        let mut a = big.counts.clone();
        let mut b = small.counts.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(small.stats.supersteps > big.stats.supersteps);
    }

    /// The per-pair form `count_common` groups: each pair's two lists
    /// through the one-pair kernel, in slot order.
    fn count_common_per_pair(
        ctx: &PsGraphContext,
        exec: &Executor,
        adj: &NeighborTableHandle,
        batches: &[&[(u64, u64)]],
    ) -> Vec<Vec<u64>> {
        let wanted: Vec<u64> =
            batches.iter().flat_map(|pairs| pairs.iter()).flat_map(|&(a, b)| [a, b]).collect();
        let neigh = adj.pull(exec.clock(), &wanted).unwrap();
        let mut lists = neigh.chunks_exact(2);
        let (mut work, mut anchor) = (0u64, Anchor::default());
        let counts = batches
            .iter()
            .map(|pairs| {
                let per_pair = lists.by_ref().take(pairs.len()).map(|ab| {
                    work += intersection_ops(ab[0].len(), ab[1].len());
                    metrics::sorted_intersection_count(&ab[0], &ab[1], &mut anchor)
                });
                per_pair.collect()
            })
            .collect();
        exec.charge_cpu(ctx.cluster().cost(), work * 3);
        counts
    }

    #[test]
    fn grouped_round_counts_and_charges_like_the_per_pair_kernel() {
        // Hub 0 is adjacent to 1..=40, a path and a chord join 1..=5, 6 has
        // three neighbours spread over the hub's range, 40 only the hub,
        // and 41..50 no list at all.
        let mut edges: Vec<(u64, u64)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (6, 20), (6, 39)]);
        let g = EdgeList::new(50, edges);
        let batches: [&[(u64, u64)]; 4] = [
            // The hub recurs on either side; (4, 5) is the only pair keyed
            // by 4, a run of one.
            &[(0, 1), (2, 0), (0, 3), (1, 2), (4, 0), (6, 0), (4, 5)],
            // A self pair, an endpoint with no list on either side, and the
            // hub against a one-element list.
            &[(3, 3), (45, 2), (0, 45), (0, 40), (2, 4)],
            &[],
            &[(5, 1), (40, 0), (45, 45), (6, 3)],
        ];
        type Round<'a> =
            dyn Fn(&PsGraphContext, &Executor, &NeighborTableHandle) -> Vec<Vec<u64>> + 'a;
        let run = |count: &Round<'_>| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 4).unwrap();
            let tables = crate::runner::to_undirected_neighbor_tables(&edges).unwrap();
            let adj = NeighborTableHandle::create(
                ctx.ps(), "adj", 50, Partitioner::Hash, RecoveryMode::Inconsistent,
            )
            .unwrap();
            push_adjacency(&ctx, &tables, &adj).unwrap();
            let exec = ctx.cluster().executor(0);
            let counts = count(&ctx, exec, &adj);
            (counts, exec.clock().now())
        };
        let grouped = run(&|ctx, exec, adj| count_common(ctx, exec, adj, &batches).unwrap());
        // Same counts in the same places, and the same charge to the clock.
        assert_eq!(grouped, run(&|ctx, exec, adj| count_common_per_pair(ctx, exec, adj, &batches)));
        let pairs: Vec<(u64, u64)> = batches.concat();
        let exact = metrics::common_neighbors_exact(&g, &pairs);
        assert_eq!(grouped.0.concat(), exact);
        assert_eq!(grouped.0.iter().map(Vec::len).collect::<Vec<_>>(), [7, 5, 0, 4]);
    }

    #[test]
    fn unsorted_neighbor_list_is_refused_before_it_is_pushed() {
        let ctx = PsGraphContext::local();
        let adj = NeighborTableHandle::create(
            ctx.ps(), "adj", 10, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        // Out of order, and a repeat: the bitmap count could miss the one
        // and would count the other twice.
        for bad in [vec![1u64, 3, 2], vec![4, 4]] {
            let entries = vec![(0u64, vec![1u64, 2]), (5, bad)];
            let tables = Rdd::from_vec(ctx.cluster(), entries, 2).unwrap();
            let err = push_adjacency(&ctx, &tables, &adj).unwrap_err();
            assert!(matches!(&err, CoreError::Invalid(m) if m.contains("vertex 5")), "{err}");
        }
        let pulled = adj.pull(&psgraph_sim::NodeClock::new(), &[5]).unwrap();
        assert!(pulled[0].is_empty(), "the refused list never reached the PS");
    }

    #[test]
    fn failed_run_releases_its_neighbor_table() {
        use psgraph_ps::VectorHandle;
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(60, 300, Default::default(), 233).dedup();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        // Another job's object, so the pre-run footprint is not just zero.
        let _other = VectorHandle::<u64>::create(
            ctx.ps(), "other", 60, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let in_use = || -> Vec<u64> {
            (1..ctx.ps().num_servers()).map(|s| ctx.ps().server(s).memory().in_use()).collect()
        };
        let before = in_use();
        // Server 0 dies with nothing checkpointed: the run must fail …
        let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 1, 0)]);
        ctx.attach_chaos(chaos.clone());
        CommonNeighbor { checkpoint: false, batch_size: 8 }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap_err();
        assert_eq!(chaos.stats().crashes, 1);
        // … and still hand the surviving servers' memory back.
        assert!(!ctx.ps().is_registered("cn.adj"));
        assert!(ctx.ps().is_registered("other"));
        assert_eq!(in_use(), before);
    }

    #[test]
    fn survives_ps_failure_with_checkpoint() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(40, 250, Default::default(), 47).dedup();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 3, 1)]);
        ctx.attach_chaos(chaos.clone());
        let out = CommonNeighbor { batch_size: 8, checkpoint: true }
            .run(&ctx, &edges, 40)
            .unwrap();
        assert_eq!(chaos.stats().crashes, 1);
        // Counts still match the exact reference.
        let queried: Vec<(u64, u64)> = out.counts.iter().map(|&(a, b, _)| (a, b)).collect();
        let exact = metrics::common_neighbors_exact(&g, &queried);
        for ((_, _, c), want) in out.counts.iter().zip(&exact) {
            assert_eq!(c, want);
        }
    }
}
