//! Delta-based PageRank on the parameter server (paper §IV-A, Fig. 4).
//!
//! The PS stores the graph's out-table `pr.adj` and two vectors, `ranks`
//! and `Δranks`. Edge partitioning becomes vertex partitioning once per
//! job, on the servers: every executor sends its edges as given,
//! self-loops kept, into `pr.adj` (`runner::table_on_ps` with
//! `runner::directed`), and reads its partitions of the sealed table back
//! as its neighbor tables (`runner::pull_neighbor_tables`) — where Fig. 4
//! `groupBy`s the edge RDD through a disk shuffle. Each superstep:
//!
//! 1. each executor pulls `Δranks` of its local source vertices — one
//!    planned request over all its partitions, through its [`PsAgent`],
//! 2. computes the damped contribution `d·Δ_src/L(src)` of every source
//!    that moved; each destination's sum is gathered over its in-edges
//!    through a `FoldPlan` built once per job,
//! 3. the PS adds `Δranks` into `ranks` and zeroes `Δranks` (server-side
//!    `accumulate_and_reset`),
//! 4. each executor pushes the sums of the destinations its partitions
//!    own into `Δranks`, again as one request.
//!
//! The run converges when `Σ|Δ|` falls below the tolerance. Only rank
//! *increments* cross the network — the sparsity optimization the paper
//! credits for the 8× win over GraphX.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, PullResponse, RecoveryMode, VectorHandle};

use super::superstep::supersteps;
use crate::agent::PsAgent;
use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::{CoreError, Result};
use crate::runner::{directed, pull_neighbor_tables, table_on_ps};

/// PageRank job configuration.
#[derive(Debug, Clone)]
pub struct PageRank {
    pub damping: f64,
    pub max_iterations: u64,
    /// Stop when `Σ|Δ| / n` drops below this.
    pub tolerance: f64,
    /// Drop contributions below this magnitude instead of pushing them
    /// (§IV-A: "the ranks of many vertices barely change after several
    /// iterations; we leverage this sparsity to reduce the communication
    /// cost"). 0.0 = exact.
    pub delta_threshold: f64,
    /// Checkpoint the rank vectors every `k` supersteps (0 = never), and
    /// the static out-table once, after its seal. PageRank is
    /// consistency-critical, so recovery rolls every server back.
    pub checkpoint_every: u64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            max_iterations: 50,
            tolerance: 1e-9,
            delta_threshold: 0.0,
            checkpoint_every: 0,
        }
    }
}

/// Result: final (unnormalized) ranks plus run statistics. Divide by the
/// vertex count for the probability-normalized form.
#[derive(Debug, Clone)]
pub struct PageRankOutput {
    pub ranks: Vec<f64>,
    pub stats: RunStats,
}

/// The canonical fold, laid out once per job: the graph's in-edges as a
/// CSR over destinations, every destination's in-neighbors ascending.
///
/// Determinism contract (same seed ⇒ bit-identical ranks for any edge
/// partitioning and any pool size): a destination's sum must add its
/// contributions in one fixed order, and ascending source id is a property
/// of the graph — so a superstep gathers along these lists instead of
/// sorting `(dst, src, value)` triples. The plan is a function of the
/// neighbor tables, not of executor state: `tables.recover()` reproduces
/// the same lists, so it outlives executor restarts.
struct FoldPlan {
    /// In-neighbors of `dst` are `in_neighbors[offsets[dst]..offsets[dst + 1]]`.
    offsets: Vec<usize>,
    in_neighbors: Vec<u64>,
}

impl FoldPlan {
    /// Transpose the (deduplicated) neighbor tables, whose ids
    /// `runner::table_on_ps` has bounds-checked, by counting sort, visiting
    /// sources ascending. Host bookkeeping like the fold itself: nothing
    /// here is charged to the sim clock.
    fn build(tables: &Rdd<(u64, Vec<u64>)>, num_vertices: u64) -> Result<FoldPlan> {
        let all: Vec<usize> = (0..tables.num_partitions()).collect();
        let parts = tables.partitions(&all)?;
        let n = num_vertices as usize;
        let mut by_source: Vec<&[u64]> = vec![&[]; n];
        for (src, neighbors) in parts.iter().flat_map(|part| part.iter()) {
            by_source[*src as usize] = neighbors;
        }
        let mut offsets = vec![0usize; n + 1];
        for &dst in by_source.iter().copied().flatten() {
            offsets[dst as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut in_neighbors = vec![0u64; offsets[n]];
        let mut next = offsets.clone();
        for (src, neighbors) in by_source.iter().enumerate() {
            for &dst in *neighbors {
                in_neighbors[next[dst as usize]] = src as u64;
                next[dst as usize] += 1;
            }
        }
        Ok(FoldPlan { offsets, in_neighbors })
    }

    /// `(dst, 0.0 + Σ contrib[src])` over the active in-neighbors of every
    /// destination owned by `bucket` (`dst % num_parts`), destinations
    /// ascending. A destination with no active in-neighbor is left out:
    /// pushing it would be PS bytes for a zero.
    fn fold(&self, bucket: usize, num_parts: usize, contrib: &[Option<f64>]) -> Vec<(u64, f64)> {
        let mut sums = Vec::new();
        for dst in (bucket..contrib.len()).step_by(num_parts) {
            let mut active = self.in_neighbors[self.offsets[dst]..self.offsets[dst + 1]]
                .iter()
                .filter_map(|&src| contrib[src as usize])
                .peekable();
            if active.peek().is_some() {
                sums.push((dst as u64, active.fold(0.0, |sum, c| sum + c)));
            }
        }
        sums
    }
}

impl PageRank {
    /// Run on an edge RDD over vertex ids `[0, num_vertices)`.
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<PageRankOutput> {
        let start = ctx.now();
        let snap = ctx.net_snapshot();

        // Edge partitioning → vertex partitioning (Fig. 4 step 1), on the
        // servers; the static table is checkpointed once.
        let _objects = super::PsObjects::new(ctx, &["pr.adj", "pr.ranks", "pr.dranks"]);
        let adj = table_on_ps(ctx, edges, "pr.adj", num_vertices, directed)?;
        if self.checkpoint_every > 0 {
            ctx.ps().checkpoint(ctx.dfs(), "pr.adj")?;
        }
        let tables = pull_neighbor_tables(ctx, &adj)?;
        let plan = FoldPlan::build(&tables, num_vertices)?;

        let ranks = VectorHandle::<f64>::create(
            ctx.ps(), "pr.ranks", num_vertices, Partitioner::Range, RecoveryMode::Consistent,
        )?;
        let dranks = VectorHandle::<f64>::create(
            ctx.ps(), "pr.dranks", num_vertices, Partitioner::Range, RecoveryMode::Consistent,
        )?;
        // Seed: every vertex starts with Δ = (1-d) (unnormalized form).
        let seed: Vec<u64> = (0..num_vertices).collect();
        let seed_vals = vec![1.0 - self.damping; num_vertices as usize];
        dranks.push_set(ctx.cluster().driver(), &seed, &seed_vals)?;
        let checkpoint = || -> Result<()> {
            for name in ["pr.ranks", "pr.dranks"] {
                ctx.ps().checkpoint(ctx.dfs(), name)?;
            }
            Ok(())
        };
        if self.checkpoint_every > 0 {
            checkpoint()?;
        }

        let agent = PsAgent::new(ctx.cluster(), PullResponse::Sparse);
        let num_parts = tables.num_partitions();
        let mut contrib: Vec<Option<f64>> = vec![None; num_vertices as usize];
        let mut steps_done = 0;
        let step = || -> Result<u64> {
            // Steps 1–2, once per executor over all its partitions: pull Δ
            // of the local sources through the agent's plan (one RPC per
            // server) and compute the contribution every source that moved
            // sends along each of its out-edges.
            let damping = self.damping;
            let threshold = self.delta_threshold;
            let staged: Vec<Vec<(u64, f64)>> = ctx
                .cluster()
                .run_executors(num_parts, |exec, parts| {
                    let local = tables.partitions(parts)?;
                    let sources = || local.iter().flat_map(|part| part.iter());
                    let deltas =
                        agent.pull(exec, &dranks, || sources().map(|(src, _)| *src).collect())?;
                    let mut updates = Vec::new();
                    let mut work = 0u64;
                    for ((src, neighbors), delta) in sources().zip(deltas) {
                        if delta.abs() <= threshold || neighbors.is_empty() {
                            continue;
                        }
                        updates.push((*src, damping * delta / neighbors.len() as f64));
                        work += neighbors.len() as u64;
                    }
                    exec.charge_cpu(ctx.cluster().cost(), work * 4);
                    Ok(updates)
                })
                .map_err(CoreError::from)?;

            // Canonical fold: scatter the contributions by source, then —
            // in parallel across owner buckets — gather every
            // destination's sum along the plan. Each destination gets
            // exactly one add per superstep, from its owner partition.
            contrib.fill(None);
            for (src, c) in staged.into_iter().flatten() {
                contrib[src as usize] = Some(c);
            }
            let sums: Vec<Vec<(u64, f64)>> = ctx
                .cluster()
                .pool()
                .map((0..num_parts).collect(), |bucket| plan.fold(bucket, num_parts, &contrib));

            // Step 3: PS folds Δranks into ranks and resets Δranks.
            ranks.accumulate_and_reset(ctx.cluster().driver(), &dranks)?;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);

            // Step 4: every executor pushes the sums its partitions own
            // into Δranks, as one request.
            ctx.cluster()
                .run_executors(num_parts, |exec, parts| {
                    let (idx, vals): (Vec<u64>, Vec<f64>) =
                        parts.iter().flat_map(|&p| &sums[p]).copied().unzip();
                    if !idx.is_empty() {
                        dranks.push_add(exec.clock(), &idx, &vals).df()?;
                    }
                    Ok(())
                })
                .map_err(CoreError::from)?;

            steps_done += 1;
            if self.checkpoint_every > 0 && steps_done % self.checkpoint_every == 0 {
                checkpoint()?;
            }

            // Convergence check on the driver.
            let residual = dranks.aggregate(ctx.cluster().driver(), f64::abs)?;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);
            let converged = residual / num_vertices as f64 <= self.tolerance;
            Ok(if converged { 0 } else { 1 })
        };
        let steps = supersteps(ctx, 0, self.max_iterations, || Ok(tables.recover()?), step)?;

        // Converged or out of iterations: fold the last deltas in for the
        // readout.
        ranks.accumulate_and_reset(ctx.cluster().driver(), &dranks)?;
        let out = ranks.pull_all(ctx.cluster().driver())?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);

        Ok(PageRankOutput {
            ranks: out,
            stats: ctx.stats_since(start, snap, steps),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};
    use psgraph_harness::prop::{check_with, Config, Source};
    use psgraph_harness::prop_assert_eq;

    /// The fold the plan replaced, kept as its reference: one
    /// `(dst, src, value)` triple per out-edge of an active source,
    /// bucketed by owner, sorted by `(dst, src)`, summed sequentially.
    fn sorted_fold(
        g: &EdgeList,
        num_parts: usize,
        contrib: &[Option<f64>],
    ) -> Vec<Vec<(u64, f64)>> {
        let mut buckets: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); num_parts];
        // The tables hold each edge once and keep self-loops.
        let unique: std::collections::BTreeSet<(u64, u64)> = g.edges().iter().copied().collect();
        for (src, dst) in unique {
            if let Some(c) = contrib[src as usize] {
                buckets[(dst % num_parts as u64) as usize].push((dst, src, c));
            }
        }
        buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort_unstable_by_key(|&(dst, src, _)| (dst, src));
                let mut sums: Vec<(u64, f64)> = Vec::new();
                for (dst, _src, c) in bucket {
                    match sums.last_mut() {
                        Some((last, sum)) if *last == dst => *sum += c,
                        _ => sums.push((dst, 0.0 + c)),
                    }
                }
                sums
            })
            .collect()
    }

    /// A graph with self-loops, dangling vertices, a hub (vertex 0) and a
    /// vertex nothing points at (the last one), plus one superstep's
    /// contributions: magnitudes spread over 24 decades so the order of
    /// the additions shows in the bits, zeros of both signs, and one
    /// destination whose in-neighbors are all inactive.
    fn arb_superstep(src: &mut Source) -> (EdgeList, Vec<Option<f64>>) {
        let n = src.u64_range(4, 40);
        let mut edges = src.vec_with(0, 160, |s| (s.u64_range(0, n), s.u64_range(0, n - 1)));
        edges.extend((1..n).filter(|_| src.bool()).map(|v| (v, 0)));
        let mut contrib: Vec<Option<f64>> = (0..n)
            .map(|_| match src.choice(8) {
                0 | 1 => None,
                2 => Some(0.0),
                3 => Some(-0.0),
                _ => Some(src.f64_range(-1.0, 1.0) * 10f64.powi(src.i64_range(-12, 12) as i32)),
            })
            .collect();
        let quiet = src.u64_range(0, n);
        for &(s, d) in &edges {
            if d == quiet {
                contrib[s as usize] = None;
            }
        }
        (EdgeList::new(n, edges), contrib)
    }

    #[test]
    fn fold_plan_matches_the_sorted_fold_bit_for_bit() {
        check_with(
            "fold_plan_matches_the_sorted_fold_bit_for_bit",
            &Config::with_cases(40),
            arb_superstep,
            |(g, contrib)| {
                // Key for key and bit for bit: `-0.0 == 0.0` must not pass
                // for equal.
                let bits = |sums: &[(u64, f64)]| -> Vec<(u64, u64)> {
                    sums.iter().map(|&(dst, sum)| (dst, sum.to_bits())).collect()
                };
                for num_parts in [1usize, 3, 8] {
                    let ctx = PsGraphContext::local();
                    let edges = distribute_edges(&ctx, g, num_parts).unwrap();
                    let adj = table_on_ps(&ctx, &edges, "adj", g.num_vertices(), directed).unwrap();
                    let tables = pull_neighbor_tables(&ctx, &adj).unwrap();
                    let plan = FoldPlan::build(&tables, g.num_vertices()).unwrap();
                    let want = sorted_fold(g, num_parts, contrib);
                    for (bucket, want) in want.iter().enumerate() {
                        prop_assert_eq!(
                            bits(&plan.fold(bucket, num_parts, contrib)),
                            bits(want),
                            "bucket {} of {}",
                            bucket,
                            num_parts
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn out_of_range_ids_are_an_error_not_a_panic() {
        for bad in [(0, 5), (5, 0), (7, u64::MAX)] {
            let g = EdgeList::new(8, vec![(0, 1), (1, 2), bad]);
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 4).unwrap();
            let err = PageRank::default().run(&ctx, &edges, 5).unwrap_err();
            assert!(matches!(err, CoreError::Invalid(_)), "{bad:?}: {err:?}");
        }
    }

    fn run_pr(g: &EdgeList, iters: u64) -> PageRankOutput {
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        PageRank { max_iterations: iters, ..Default::default() }
            .run(&ctx, &edges, g.num_vertices())
            .unwrap()
    }

    /// Add a ring closure so every vertex has out-degree ≥ 1 (the delta
    /// formulation drops dangling mass instead of redistributing it, so
    /// exact comparison needs dangling-free inputs).
    fn close_ring(g: &EdgeList) -> EdgeList {
        let n = g.num_vertices();
        let mut edges = g.edges().to_vec();
        for v in 0..n {
            edges.push((v, (v + 1) % n));
        }
        EdgeList::new(n, edges).dedup()
    }

    fn assert_matches_exact(g: &EdgeList, iters: u64) {
        let g = close_ring(g);
        let out = run_pr(&g, iters);
        let exact = metrics::pagerank_exact(&g, 0.85, iters as usize + 20);
        let n = g.num_vertices() as f64;
        // Without dangling vertices the unnormalized delta formulation is
        // exactly n × the normalized reference.
        for (v, (a, b)) in out.ranks.iter().zip(&exact).enumerate() {
            let ga = a / n;
            assert!(
                (ga - b).abs() < 1e-3,
                "vertex {v}: psgraph {ga} vs exact {b}"
            );
        }
    }

    #[test]
    fn uniform_on_ring() {
        let g = gen::ring(16);
        let out = run_pr(&g, 40);
        let first = out.ranks[0];
        assert!(first > 0.9, "ring rank should approach 1.0, got {first}");
        for &r in &out.ranks {
            assert!((r - first).abs() < 1e-6, "ring must be uniform");
        }
        assert!(out.stats.elapsed > psgraph_sim::SimTime::ZERO);
        assert!(out.stats.ps_net_bytes > 0, "PS traffic expected");
    }

    #[test]
    fn hub_gets_highest_rank() {
        let edges = (1..20u64).map(|v| (v, 0)).chain([(0u64, 1u64)]).collect();
        let g = EdgeList::new(20, edges);
        let out = run_pr(&g, 40);
        let hub = out.ranks[0];
        assert!(out.ranks[2..].iter().all(|&r| r < hub), "hub must dominate");
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = gen::erdos_renyi(60, 400, 11).dedup();
        assert_matches_exact(&g, 40);
    }

    #[test]
    fn matches_reference_on_powerlaw_graph() {
        let g = gen::rmat(80, 600, Default::default(), 13).dedup();
        assert_matches_exact(&g, 40);
    }

    #[test]
    fn early_convergence_stops_iterating() {
        let g = gen::ring(8);
        let run = |job: PageRank| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 4).unwrap();
            job.run(&ctx, &edges, 8).unwrap()
        };
        let converged =
            run(PageRank { max_iterations: 500, tolerance: 1e-6, ..Default::default() });
        let k = converged.stats.supersteps;
        assert!(k < 200, "should converge well before 500 iters, took {k}");
        // The converged exit folds the last deltas once, like the exit
        // that ran out of iterations: the run costs what a fresh run
        // capped at the same superstep count costs, PS round for PS round.
        let capped = run(PageRank { max_iterations: k, tolerance: 0.0, ..Default::default() });
        assert_eq!(converged.stats, capped.stats);
        assert_eq!(converged.ranks, capped.ranks);
    }

    #[test]
    fn survives_executor_failure_mid_run() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(64, 400, Default::default(), 17).dedup();
        let ranks = |kill_at: Option<u64>| -> Vec<u64> {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 8).unwrap();
            let chaos =
                FaultSchedule::scripted(kill_at.map(|step| (FaultSite::ExecutorCrash, step, 1)));
            ctx.attach_chaos(chaos.clone());
            let out = PageRank { max_iterations: 20, ..Default::default() }
                .run(&ctx, &edges, 64)
                .unwrap();
            assert_eq!(chaos.stats().crashes, u64::from(kill_at.is_some()));
            out.ranks.iter().map(|r| r.to_bits()).collect()
        };
        // Bit for bit the failure-free ranks (a tolerance would let a
        // fold-order change through) — for a kill mid-run and for one at
        // step 0, before the first superstep's pull: the fold plan was
        // built from the tables the kill then loses.
        let clean = ranks(None);
        assert_eq!(ranks(Some(3)), clean, "kill at step 3 changed the ranks");
        assert_eq!(ranks(Some(0)), clean, "kill at step 0 changed the ranks");
    }

    /// With a checkpoint every superstep, a server killed mid-run rolls
    /// back to the last one, which is where the run was: the ranks are the
    /// fault-free ones bit for bit. The static out-table is checkpointed
    /// once, after its seal, and every other checkpoint — the seed's and
    /// each superstep's — writes the two rank vectors and nothing else.
    #[test]
    fn survives_server_failure_with_checkpointing() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let g = gen::rmat(64, 400, Default::default(), 19).dedup();
        let run = |job: PageRank, kill: bool| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, &g, 8).unwrap();
            let chaos = FaultSchedule::scripted(kill.then_some((FaultSite::PsCrash, 4, 0)));
            ctx.attach_chaos(chaos.clone());
            let out = job.run(&ctx, &edges, 64).unwrap();
            assert_eq!(chaos.stats().crashes, u64::from(kill));
            let bits: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
            let stored = |name: &str| -> u64 {
                let files = ctx.dfs().list(&format!("/ckpt/{name}/"));
                files.iter().map(|path| ctx.dfs().status(path).unwrap().len).sum()
            };
            let vectors = stored("pr.ranks") + stored("pr.dranks");
            (bits, out.stats.supersteps, ctx.dfs().bytes_written(), stored("pr.adj"), vectors)
        };
        let job = PageRank { max_iterations: 30, checkpoint_every: 1, ..Default::default() };
        let (clean, ..) = run(PageRank { checkpoint_every: 0, ..job.clone() }, false);
        let (ranks, steps, written, table, vectors) = run(job.clone(), true);
        assert_eq!(ranks, clean, "the kill changed the ranks");
        assert!(table > 0 && vectors > 0 && steps > 4);
        assert_eq!(written, table + (1 + steps) * vectors, "what the checkpoints wrote");
        let (unkilled, _, written_unkilled, ..) = run(job, false);
        assert_eq!((unkilled, written_unkilled), (clean, written));
    }
}
