//! Common Neighbor (paper §IV-B): for each queried vertex pair, count the
//! overlap of their neighbor sets (link-prediction feature).
//!
//! The executors send their edges, both directions, straight to the PS,
//! whose servers group them into the neighbor table (no `groupBy`: the
//! table is read only on the PS); afterwards the executors stream batches
//! of pairs, pull both endpoints' adjacency from the PS, and intersect
//! locally — no shuffle at all, which is why PSGraph beats GraphX 3× on
//! DS1 and survives DS2 (Fig. 6). An executor
//! talks to the PS at most once per round for all its partitions' batches,
//! and the adjacency does not change during the job, so it pulls a list
//! once and keeps it until the last round that names it, as far as its
//! memory budget allows (`stream_pairs`, shared with Triangle Count).

use std::cmp::Reverse;
use std::sync::Arc;

use psgraph_dataflow::{DataflowError, Executor, Rdd};
use psgraph_graph::metrics::{intersection_ops, Anchor};
use psgraph_ps::NeighborTableHandle;
use psgraph_sim::FxHashMap;

use crate::agent::{Charged, ExecutorState};
use crate::context::{PsGraphContext, RunStats};
use crate::error::{CoreError, PsResultExt, Result};
use crate::runner::{table_on_ps, undirected};

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

        // Undirected adjacency, grouped on the servers.
        let _objects = super::PsObjects::new(ctx, &["cn.adj"]);
        let adj = table_on_ps(ctx, edges, "cn.adj", num_vertices, undirected)?;
        let mut supersteps = 1;

        if self.checkpoint {
            ctx.ps().checkpoint(ctx.dfs(), "cn.adj")?;
        }

        let rounds =
            stream_pairs(ctx, &adj, pairs, self.batch_size, &mut supersteps, with_counts)?;
        let mut counts = Vec::new();
        for round in rounds {
            counts.extend(ctx.cluster().in_partition_order(round)?.into_iter().flatten());
        }
        Ok(CommonNeighborOutput { counts, stats: ctx.stats_since(start, snap, supersteps) })
    }
}

/// Each batch's pairs, with their counts.
fn with_counts(batches: &[&[(u64, u64)]], counts: Vec<Vec<u64>>) -> Vec<Vec<(u64, u64, u64)>> {
    let per_partition = batches.iter().zip(counts);
    let triple = |(&(a, b), c)| (a, b, c);
    per_partition.map(|(pairs, counts)| pairs.iter().zip(counts).map(triple).collect()).collect()
}

/// The pair stream of Common Neighbor and Triangle Count: `pairs` in
/// rounds of `batch` pairs per partition, each round one superstep (the
/// first is `*supersteps`; a killed executor's partitions are recovered
/// before the round that finds it dead). In a round every executor counts
/// `|N(a) ∩ N(b)|` for the batches of all its partitions ([`count_common`])
/// and hands them to `emit` with the batches; the result is what `emit`
/// returned, per round and executor, in executor order.
///
/// An executor's stream is fixed by its partitions, so before its first
/// round it knows the last round that names each id ([`Held`]). A
/// round pulls, in one request, only the lists the executor does not
/// already hold; a list a later round names stays on the executor until
/// its last round, within the executor's memory budget.
pub(crate) fn stream_pairs<R: Send>(
    ctx: &PsGraphContext,
    adj: &NeighborTableHandle,
    pairs: &Rdd<(u64, u64)>,
    batch: usize,
    supersteps: &mut u64,
    emit: impl Fn(&[&[(u64, u64)]], Vec<Vec<u64>>) -> R + Sync,
) -> Result<Vec<Vec<R>>> {
    let batch = batch.max(1);
    let kept = ExecutorState::new(ctx.cluster());
    (0..num_rounds(ctx, pairs, batch)?)
        .map(|round| {
            let (killed_execs, _) = ctx.superstep_maintenance(*supersteps)?;
            if !killed_execs.is_empty() {
                pairs.recover()?;
            }
            *supersteps += 1;
            let per_executor = ctx.cluster().run_executors(pairs.num_partitions(), |exec, parts| {
                let local = pairs.partitions(parts)?;
                let batches: Vec<&[(u64, u64)]> =
                    local.iter().map(|part| batch_of(part, round, batch)).collect();
                kept.with(exec, || Held::index(exec, &local, batch), |held| {
                    let (wanted, numbers) = held.pull(exec, adj, round, &batches)?;
                    let counts = count_common(ctx, exec, &wanted, &held.lists(&numbers)?, &batches);
                    held.release(exec, round, &numbers);
                    Ok(emit(&batches, counts))
                })
            });
            per_executor.map_err(CoreError::from)
        })
        .collect()
}

/// Rounds needed to stream `pairs` in batches of `batch` per partition.
fn num_rounds(ctx: &PsGraphContext, pairs: &Rdd<(u64, u64)>, batch: usize) -> Result<usize> {
    let counts = ctx
        .cluster()
        .run_stage(pairs.num_partitions(), |p, _exec| Ok(pairs.partition(p)?.len().div_ceil(batch)))
        .map_err(CoreError::from)?;
    Ok(counts.into_iter().max().unwrap_or(0))
}

/// A partition's `round`-th batch of `batch` pairs (empty once it ran out).
fn batch_of(part: &[(u64, u64)], round: usize, batch: usize) -> &[(u64, u64)] {
    let lo = (round * batch).min(part.len());
    &part[lo..((round + 1) * batch).min(part.len())]
}

/// Bytes a pulled list occupies on its executor: its ids and a 16 B header,
/// what the response charges for a vertex that has a list.
fn list_bytes(list: &[u64]) -> u64 {
    list.len() as u64 * 8 + 16
}

/// Bytes the index of an executor's stream holds per id it names: the
/// last round, the latest round asked and a list pointer, 8 each.
const INDEX_BYTES_PER_ID: u64 = 24;

/// What one executor holds of its pair stream between rounds, as
/// `ExecutorState`: a restarted executor starts with nothing held and
/// indexes its recovered partitions again. The ids its stream names are
/// numbered in the order they first appear, and everything the rounds look
/// up is kept per number.
struct Held {
    batch: usize,
    /// Per partition: the numbers of its pairs' endpoints, two per pair.
    numbers: Vec<Vec<u32>>,
    /// Per number: the last round of the stream that names it.
    last_use: Vec<usize>,
    /// Per number: the latest round that asked for it (`usize::MAX`: none).
    asked: Vec<usize>,
    /// Per number: its list, while the executor holds it.
    lists: Vec<Option<Arc<Vec<u64>>>>,
    /// What the index and the lists hold on the executor's meter.
    charged: u64,
}

impl Charged for Held {
    fn charged(&self) -> u64 {
        self.charged
    }
}

impl Held {
    /// Index the stream of the partitions `local` in rounds of `batch`.
    fn index(
        exec: &Executor,
        local: &[Arc<Vec<(u64, u64)>>],
        batch: usize,
    ) -> std::result::Result<Held, DataflowError> {
        let mut number: FxHashMap<u64, u32> = FxHashMap::default();
        let mut last_use: Vec<usize> = Vec::new();
        let mut numbers = Vec::with_capacity(local.len());
        for part in local {
            let mut part_numbers = Vec::with_capacity(2 * part.len());
            // A partition's rounds ascend with the pair's position.
            for (i, &(a, b)) in part.iter().enumerate() {
                for id in [a, b] {
                    let n = match number.get(&id) {
                        Some(&n) => n as usize,
                        None => {
                            let n = last_use.len();
                            let too_many =
                                |_| DataflowError::Other(format!("{n} ids on an executor"));
                            number.insert(id, u32::try_from(n).map_err(too_many)?);
                            last_use.push(0);
                            n
                        }
                    };
                    last_use[n] = last_use[n].max(i / batch);
                    part_numbers.push(n as u32);
                }
            }
            numbers.push(part_numbers);
        }
        let endpoints: usize = numbers.iter().map(Vec::len).sum();
        let ids = last_use.len();
        // Each endpoint's number is a `u32`.
        let charged = ids as u64 * INDEX_BYTES_PER_ID + endpoints as u64 * 4;
        exec.memory().alloc(charged)?;
        let (asked, lists) = (vec![usize::MAX; ids], vec![None; ids]);
        Ok(Held { batch, numbers, last_use, asked, lists, charged })
    }

    /// The numbers of round `round`'s endpoints, two per pair in order.
    fn round_numbers(&self, round: usize) -> impl Iterator<Item = usize> + '_ {
        self.numbers.iter().flat_map(move |part| {
            let pairs = part.len() / 2;
            let lo = (round * self.batch).min(pairs);
            let hi = ((round + 1) * self.batch).min(pairs);
            part[2 * lo..2 * hi].iter().map(|&n| n as usize)
        })
    }

    /// Hold every list round `round` of the stream names; its pairs are
    /// `batches`. Returns the endpoints, two per pair in order, and their
    /// numbers at the same places. The lists not held are pulled in one
    /// request and charged to the meter; if they do not fit, the kept lists
    /// this round does not name are dropped, the one whose last use is
    /// furthest away first, until they do (a dropped list is pulled again
    /// by the next round that names it). A round whose own lists do not fit
    /// is an OOM.
    fn pull(
        &mut self,
        exec: &Executor,
        adj: &NeighborTableHandle,
        round: usize,
        batches: &[&[(u64, u64)]],
    ) -> std::result::Result<(Vec<u64>, Vec<usize>), DataflowError> {
        let wanted: Vec<u64> =
            batches.iter().flat_map(|pairs| pairs.iter()).flat_map(|&(a, b)| [a, b]).collect();
        let numbers: Vec<usize> = self.round_numbers(round).collect();
        if numbers.len() != wanted.len() {
            return Err(DataflowError::Other("a round outside the indexed stream".into()));
        }
        let mut missing: Vec<(u64, usize)> = Vec::new();
        for (&id, &n) in wanted.iter().zip(&numbers) {
            if self.asked[n] != round {
                self.asked[n] = round;
                if self.lists[n].is_none() {
                    missing.push((id, n));
                }
            }
        }
        if !missing.is_empty() {
            let ids: Vec<u64> = missing.iter().map(|&(id, _)| id).collect();
            let pulled = adj.pull(exec.clock(), &ids).df()?;
            let bytes: u64 = pulled.iter().map(|list| list_bytes(list)).sum();
            let meter = exec.memory();
            if meter.in_use().saturating_add(bytes) > meter.budget() {
                let mut spare: Vec<(usize, usize)> = (0..self.lists.len())
                    .filter(|&n| self.lists[n].is_some() && self.asked[n] != round)
                    .map(|n| (self.last_use[n], n))
                    .collect();
                spare.sort_unstable();
                while meter.in_use().saturating_add(bytes) > meter.budget() {
                    let Some((_, n)) = spare.pop() else { break };
                    self.drop_list(exec, n);
                }
            }
            meter.alloc(bytes)?;
            self.charged += bytes;
            for ((_, n), list) in missing.into_iter().zip(pulled) {
                self.lists[n] = Some(list);
            }
        }
        Ok((wanted, numbers))
    }

    /// The held lists of the ids numbered `numbers`, at the same places.
    fn lists(&self, numbers: &[usize]) -> std::result::Result<Vec<&[u64]>, DataflowError> {
        (numbers.iter().map(|&n| self.lists[n].as_deref().map(Vec::as_slice)))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| DataflowError::Other("a named list is not held".into()))
    }

    /// Drop the lists of the ids numbered `numbers` whose last round was `round`.
    fn release(&mut self, exec: &Executor, round: usize, numbers: &[usize]) {
        for &n in numbers {
            if self.last_use[n] == round {
                self.drop_list(exec, n);
            }
        }
    }

    fn drop_list(&mut self, exec: &Executor, n: usize) {
        if let Some(list) = self.lists[n].take() {
            exec.memory().free(list_bytes(&list));
            self.charged -= list_bytes(&list);
        }
    }
}

/// One round on one executor: count `|N(a) ∩ N(b)|` for the pairs of
/// every batch, given the pairs' endpoints `wanted` (two per pair, in
/// order) and their lists `neigh` at the same places.
///
/// Each pair is keyed by the endpoint with the longer list (ties: the
/// smaller id), and the pairs of one key are counted against one
/// [`Anchor`] load of its list, so a hub's list is loaded once per round
/// however many of the round's pairs name it; the counts go back to their
/// pairs' slots. A pair is charged `3 ×` [`intersection_ops`] of its lengths.
pub(crate) fn count_common(
    ctx: &PsGraphContext,
    exec: &Executor,
    wanted: &[u64],
    neigh: &[&[u64]],
    batches: &[&[(u64, u64)]],
) -> Vec<Vec<u64>> {
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
            (neigh[i], neigh[i ^ 1])
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
    batches.iter().map(|pairs| counts.by_ref().take(pairs.len()).collect()).collect()
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
    /// (`neigh`, two per pair in order) through the one-pair kernel, in
    /// slot order.
    fn count_common_per_pair(
        ctx: &PsGraphContext,
        exec: &Executor,
        neigh: &[&[u64]],
        batches: &[&[(u64, u64)]],
    ) -> Vec<Vec<u64>> {
        let mut lists = neigh.chunks_exact(2);
        let (mut work, mut anchor) = (0u64, Anchor::default());
        let counts = batches
            .iter()
            .map(|pairs| {
                let per_pair = lists.by_ref().take(pairs.len()).map(|ab| {
                    work += intersection_ops(ab[0].len(), ab[1].len());
                    metrics::sorted_intersection_count(ab[0], ab[1], &mut anchor)
                });
                per_pair.collect()
            })
            .collect();
        exec.charge_cpu(ctx.cluster().cost(), work * 3);
        counts
    }

    /// The endpoints of `batches`' pairs, two per pair in order.
    fn endpoints(batches: &[&[(u64, u64)]]) -> Vec<u64> {
        batches.iter().flat_map(|pairs| pairs.iter()).flat_map(|&(a, b)| [a, b]).collect()
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
            let adj = table_on_ps(&ctx, &edges, "adj", 50, undirected).unwrap();
            let exec = ctx.cluster().executor(0);
            let counts = count(&ctx, exec, &adj);
            (counts, exec.clock().now())
        };
        let wanted = endpoints(&batches);
        let grouped = run(&|ctx, exec, adj| {
            let pulled = adj.pull(exec.clock(), &wanted).unwrap();
            let neigh: Vec<&[u64]> = pulled.iter().map(|list| list.as_slice()).collect();
            count_common(ctx, exec, &wanted, &neigh, &batches)
        });
        let per_pair = run(&|ctx, exec, adj| {
            let pulled = adj.pull(exec.clock(), &wanted).unwrap();
            let neigh: Vec<&[u64]> = pulled.iter().map(|list| list.as_slice()).collect();
            count_common_per_pair(ctx, exec, &neigh, &batches)
        });
        // Same counts in the same places, and the same charge to the clock.
        assert_eq!(grouped, per_pair);
        let pairs: Vec<(u64, u64)> = batches.concat();
        let exact = metrics::common_neighbors_exact(&g, &pairs);
        assert_eq!(grouped.0.concat(), exact);
        assert_eq!(grouped.0.iter().map(Vec::len).collect::<Vec<_>>(), [7, 5, 0, 4]);
    }

    /// What one executor's pair stream gave and cost through one form: the
    /// counts per round and partition, the clock the kernel alone took, the
    /// PS bytes, and the most the executor held for it at once.
    #[derive(Debug, PartialEq)]
    struct Streamed {
        counts: Vec<Vec<Vec<u64>>>,
        kernel_ns: u64,
        ps_bytes: u64,
        peak_held: u64,
    }

    /// `local`'s stream on `exec` as [`stream_pairs`] runs it: the lists of
    /// [`Held`], the grouped kernel, the release at each list's last round.
    fn stream_kept(
        ctx: &PsGraphContext,
        exec: &Executor,
        adj: &NeighborTableHandle,
        local: &[Arc<Vec<(u64, u64)>>],
        batch: usize,
    ) -> std::result::Result<Streamed, DataflowError> {
        let bytes = ctx.ps().network().stats().total_bytes();
        let rounds = local.iter().map(|part| part.len().div_ceil(batch)).max().unwrap_or(0);
        let mut held = Held::index(exec, local, batch)?;
        let index = held.charged;
        let mut out = Streamed { counts: vec![], kernel_ns: 0, ps_bytes: 0, peak_held: index };
        let mut run = || -> std::result::Result<(), DataflowError> {
            for round in 0..rounds {
                let batches: Vec<_> =
                    local.iter().map(|part| batch_of(part, round, batch)).collect();
                let (wanted, numbers) = held.pull(exec, adj, round, &batches)?;
                out.peak_held = out.peak_held.max(held.charged);
                let t = exec.clock().now();
                out.counts.push(count_common(ctx, exec, &wanted, &held.lists(&numbers)?, &batches));
                out.kernel_ns += (exec.clock().now() - t).as_nanos();
                held.release(exec, round, &numbers);
            }
            Ok(())
        };
        let done = run();
        exec.memory().free(held.charged);
        done?;
        assert!(held.lists.iter().all(Option::is_none), "every list went at its last round");
        assert_eq!(held.charged, index);
        out.ps_bytes = ctx.ps().network().stats().total_bytes() - bytes;
        Ok(out)
    }

    /// The same stream in the per-round form: every round pulls all the
    /// lists it names and counts pair by pair. Also returns each round's
    /// working set — the bytes of the distinct lists it names.
    fn stream_per_round(
        ctx: &PsGraphContext,
        exec: &Executor,
        adj: &NeighborTableHandle,
        local: &[Arc<Vec<(u64, u64)>>],
        batch: usize,
    ) -> (Streamed, Vec<u64>) {
        let bytes = ctx.ps().network().stats().total_bytes();
        let rounds = local.iter().map(|part| part.len().div_ceil(batch)).max().unwrap_or(0);
        let mut out = Streamed { counts: vec![], kernel_ns: 0, ps_bytes: 0, peak_held: 0 };
        let mut working_sets = vec![];
        for round in 0..rounds {
            let batches: Vec<_> = local.iter().map(|part| batch_of(part, round, batch)).collect();
            let wanted = endpoints(&batches);
            let neigh = adj.pull(exec.clock(), &wanted).unwrap();
            let lists: FxHashMap<u64, u64> =
                wanted.iter().zip(&neigh).map(|(&id, list)| (id, list_bytes(list))).collect();
            working_sets.push(lists.values().sum());
            let t = exec.clock().now();
            let neigh: Vec<&[u64]> = neigh.iter().map(|list| list.as_slice()).collect();
            out.counts.push(count_common_per_pair(ctx, exec, &neigh, &batches));
            out.kernel_ns += (exec.clock().now() - t).as_nanos();
        }
        out.ps_bytes = ctx.ps().network().stats().total_bytes() - bytes;
        (out, working_sets)
    }

    /// Run `f` with exactly `free` bytes left on `exec`'s meter.
    fn with_free<T>(exec: &Executor, free: u64, f: impl FnOnce() -> T) -> T {
        let filler = exec.memory().budget() - exec.memory().in_use() - free;
        exec.memory().alloc(filler).unwrap();
        let out = f();
        exec.memory().free(filler);
        out
    }

    #[test]
    fn common_neighbor_kept_lists_count_charge_and_ship_like_the_per_round_form() {
        use psgraph_harness::prop::{check_with, Config, Source};
        use psgraph_harness::{prop_assert, prop_assert_eq};
        let gen = |src: &mut Source| {
            let n = src.u64_range(8, 60);
            let m = src.usize_range(1, 5 * n as usize);
            let g = if src.bool() {
                gen::rmat(n, m, Default::default(), src.any_u64())
            } else {
                gen::erdos_renyi(n, m, src.any_u64())
            };
            let batch = [1, 2, 3, 5, 8, 16, 64][src.usize_range(0, 7)];
            (g.dedup(), src.usize_range(1, 13), batch)
        };
        check_with("kept_lists", &Config::with_cases(32), gen, |(g, partitions, batch)| {
            let ctx = PsGraphContext::local();
            let pairs = distribute_edges(&ctx, g, *partitions).unwrap();
            let adj = table_on_ps(&ctx, &pairs, "adj", g.num_vertices(), undirected).unwrap();
            let cluster = ctx.cluster();
            for e in 0..cluster.num_executors() {
                let exec = cluster.executor(e);
                let parts: Vec<usize> = (e..*partitions).step_by(cluster.num_executors()).collect();
                let local = pairs.partitions(&parts).unwrap();
                let idle = exec.memory().in_use();
                let (per_round, working_sets) = stream_per_round(&ctx, exec, &adj, &local, *batch);
                let exact: Vec<Vec<Vec<u64>>> = (0..working_sets.len())
                    .map(|round| {
                        let batches = local.iter().map(|part| batch_of(part, round, *batch));
                        batches.map(|pairs| metrics::common_neighbors_exact(g, pairs)).collect()
                    })
                    .collect();
                prop_assert_eq!(&per_round.counts, &exact);
                // Nothing can be kept when no id is named by two rounds.
                let mut named: Vec<(u64, usize)> = (0..working_sets.len())
                    .flat_map(|round| {
                        let batches: Vec<_> =
                            local.iter().map(|part| batch_of(part, round, *batch)).collect();
                        endpoints(&batches).into_iter().map(move |id| (id, round))
                    })
                    .collect();
                named.sort_unstable();
                named.dedup();
                let ids = named.len();
                named.dedup_by_key(|&mut (id, _)| id);
                let repeats = ids > named.len();
                let endpoints: usize = local.iter().map(|part| 2 * part.len()).sum();
                let index = named.len() as u64 * INDEX_BYTES_PER_ID + endpoints as u64 * 4;

                // Three budgets: ample; between a round's working set and
                // what keeping everything takes; exactly a round's.
                let ample = stream_kept(&ctx, exec, &adj, &local, *batch).unwrap();
                let round = index + working_sets.iter().max().copied().unwrap_or(0);
                let between = (round + ample.peak_held) / 2;
                let tight = |free| {
                    with_free(exec, free, || stream_kept(&ctx, exec, &adj, &local, *batch))
                        .map_err(|e| format!("{free} B free: {e}"))
                };
                let (between_run, round_run) = (tight(between)?, tight(round)?);
                let runs = [(u64::MAX, &ample), (between, &between_run), (round, &round_run)];
                for (free, kept) in runs {
                    prop_assert_eq!(&kept.counts, &per_round.counts);
                    prop_assert_eq!(kept.kernel_ns, per_round.kernel_ns);
                    prop_assert!(
                        kept.ps_bytes <= per_round.ps_bytes,
                        "{:?} vs {:?}",
                        kept,
                        per_round
                    );
                    if !repeats {
                        prop_assert_eq!(kept.ps_bytes, per_round.ps_bytes);
                    }
                    prop_assert!(kept.peak_held <= free, "{} B free: {:?}", free, kept);
                }
                prop_assert_eq!(exec.memory().in_use(), idle);
                // A round's working set is the bound: one byte less is an OOM.
                if round > index {
                    let short = with_free(exec, round - 1, || {
                        stream_kept(&ctx, exec, &adj, &local, *batch)
                    });
                    prop_assert!(matches!(short, Err(DataflowError::Oom(_))), "{:?}", short);
                    prop_assert_eq!(exec.memory().in_use(), idle);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn failed_run_releases_its_neighbor_table() {
        use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};
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
