//! Delta-based PageRank on the parameter server (paper §IV-A, Fig. 4).
//!
//! The PS stores two vectors, `ranks` and `Δranks`. Each superstep:
//!
//! 1. executors hold vertex-partitioned neighbor tables (built once with
//!    `groupBy`),
//! 2. each executor pulls `Δranks` of its local source vertices — one
//!    planned request over all its partitions, through its [`PsAgent`],
//! 3. computes the damped contributions `d·Δ_src/L(src)` to destinations,
//! 4. the PS adds `Δranks` into `ranks` and zeroes `Δranks` (server-side
//!    `accumulate_and_reset`),
//! 5. each executor pushes the new contributions into `Δranks`, again as
//!    one request.
//!
//! The run converges when `Σ|Δ|` falls below the tolerance. Only rank
//! *increments* cross the network — the sparsity optimization the paper
//! credits for the 8× win over GraphX.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};
use psgraph_sim::FxHashMap;

use crate::agent::PsAgent;
use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::Result;
use crate::runner::to_neighbor_tables;

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
    /// Checkpoint the PS state every `k` supersteps (0 = never). PageRank
    /// is consistency-critical, so recovery rolls every server back.
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

        // groupBy: edge partitioning → vertex partitioning (Fig. 4 step 1).
        let tables = to_neighbor_tables(edges)?;

        let _objects = super::PsObjects::new(ctx, &["pr.ranks", "pr.dranks"]);
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
        if self.checkpoint_every > 0 {
            ctx.ps().checkpoint_all(ctx.dfs())?;
        }

        let agent = PsAgent::new(ctx.cluster());
        let num_parts = tables.num_partitions();
        let mut supersteps = 0;
        for step in 0..self.max_iterations {
            let (killed_execs, _killed_servers) = ctx.superstep_maintenance(step)?;
            if !killed_execs.is_empty() {
                tables.recover()?;
            }
            supersteps += 1;

            // Steps 2–3, once per executor over all its partitions: pull Δ
            // of the local sources through the agent's plan (one RPC per
            // server), compute contributions as (dst, src, value) triples.
            // Keeping the source id lets the driver fold every
            // destination's sum in a canonical order, so the floating-point
            // result is identical no matter how the edge list was
            // partitioned (determinism contract: same seed ⇒ bit-identical
            // ranks).
            let damping = self.damping;
            let threshold = self.delta_threshold;
            let staged: Vec<Vec<(u64, u64, f64)>> = ctx
                .cluster()
                .run_executors(num_parts, |exec, parts| {
                    let local = tables.partitions(parts)?;
                    let sources = || local.iter().flat_map(|part| part.iter());
                    let deltas = agent
                        .pull_sparse(exec, &dranks, || sources().map(|(src, _)| *src).collect())?;
                    let mut updates: Vec<(u64, u64, f64)> =
                        Vec::with_capacity(sources().map(|(_, ns)| ns.len()).sum());
                    let mut work = 0u64;
                    for ((src, neighbors), delta) in sources().zip(deltas) {
                        if delta.abs() <= threshold || neighbors.is_empty() {
                            continue;
                        }
                        let contrib = damping * delta / neighbors.len() as f64;
                        for &dst in neighbors {
                            updates.push((dst, *src, contrib));
                        }
                        work += neighbors.len() as u64;
                    }
                    exec.charge_cpu(ctx.cluster().cost(), work * 4);
                    Ok(updates)
                })
                .map_err(crate::error::CoreError::from)?;

            // Canonical fold: bucket contributions by owner partition,
            // then — in parallel across owners — sort each bucket by
            // (dst, src) and sum every destination sequentially. Each
            // destination still accumulates its contributions in the
            // same globally-sorted (src) order as a single sorted pass,
            // so the floating-point result is bit-identical for any
            // partitioning AND any pool size; the expensive sort+fold is
            // what the pool parallelizes. Each destination then gets
            // exactly one add per superstep, from its owner partition.
            let mut buckets: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); num_parts];
            for (dst, src, c) in staged.into_iter().flatten() {
                buckets[(dst % num_parts as u64) as usize].push((dst, src, c));
            }
            let sums: Vec<FxHashMap<u64, f64>> =
                ctx.cluster().pool().map(buckets, |mut bucket| {
                    bucket.sort_unstable_by_key(|&(dst, src, _)| (dst, src));
                    let mut sums: FxHashMap<u64, f64> = FxHashMap::default();
                    for (dst, _src, c) in bucket {
                        *sums.entry(dst).or_default() += c;
                    }
                    sums
                });

            // Step 4: PS folds Δranks into ranks and resets Δranks.
            ranks.accumulate_and_reset(ctx.cluster().driver(), &dranks)?;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);

            // Step 5: every executor pushes the sums its partitions own
            // into Δranks, as one request.
            ctx.cluster()
                .run_executors(num_parts, |exec, parts| {
                    let (idx, vals): (Vec<u64>, Vec<f64>) =
                        parts.iter().flat_map(|&p| &sums[p]).map(|(&dst, &sum)| (dst, sum)).unzip();
                    if !idx.is_empty() {
                        dranks.push_add(exec.clock(), &idx, &vals).df()?;
                    }
                    Ok(())
                })
                .map_err(crate::error::CoreError::from)?;

            if self.checkpoint_every > 0 && (step + 1) % self.checkpoint_every == 0 {
                ctx.ps().checkpoint_all(ctx.dfs())?;
            }

            // Convergence check on the driver.
            let residual = dranks.aggregate(ctx.cluster().driver(), f64::abs)?;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);
            if residual / num_vertices as f64 <= self.tolerance {
                // Fold the final deltas in before reading out.
                ranks.accumulate_and_reset(ctx.cluster().driver(), &dranks)?;
                break;
            }
        }

        // If we exhausted iterations, fold remaining deltas for readout.
        ranks.accumulate_and_reset(ctx.cluster().driver(), &dranks)?;
        let out = ranks.pull_all(ctx.cluster().driver())?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);

        Ok(PageRankOutput {
            ranks: out,
            stats: ctx.stats_since(start, snap, supersteps),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList};

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
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 4).unwrap();
        let out = PageRank { max_iterations: 500, tolerance: 1e-6, ..Default::default() }
            .run(&ctx, &edges, 8)
            .unwrap();
        assert!(
            out.stats.supersteps < 200,
            "should converge well before 500 iters, took {}",
            out.stats.supersteps
        );
    }

    #[test]
    fn survives_executor_failure_mid_run() {
        use psgraph_sim::FailPlan;
        let g = gen::rmat(64, 400, Default::default(), 17).dedup();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        ctx.cluster().injector().schedule(FailPlan::kill_executor(1, 3));
        let out = PageRank { max_iterations: 20, ..Default::default() }
            .run(&ctx, &edges, 64)
            .unwrap();
        // Same ranking as a failure-free run.
        let ctx2 = PsGraphContext::local();
        let edges2 = distribute_edges(&ctx2, &g, 8).unwrap();
        let clean = PageRank { max_iterations: 20, ..Default::default() }
            .run(&ctx2, &edges2, 64)
            .unwrap();
        for (a, b) in out.ranks.iter().zip(&clean.ranks) {
            assert!((a - b).abs() < 1e-9, "failure must not change results");
        }
    }

    #[test]
    fn survives_server_failure_with_checkpointing() {
        use psgraph_sim::FailPlan;
        let g = gen::rmat(64, 400, Default::default(), 19).dedup();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 8).unwrap();
        ctx.ps().injector().schedule(FailPlan::kill_server(0, 4));
        let out = PageRank { max_iterations: 30, checkpoint_every: 1, ..Default::default() }
            .run(&ctx, &edges, 64)
            .unwrap();
        let ctx2 = PsGraphContext::local();
        let edges2 = distribute_edges(&ctx2, &g, 8).unwrap();
        let clean = PageRank { max_iterations: 30, ..Default::default() }
            .run(&ctx2, &edges2, 64)
            .unwrap();
        // Consistent recovery rolls back to the checkpoint, so results
        // still converge to the same fixed point.
        for (v, (a, b)) in out.ranks.iter().zip(&clean.ranks).enumerate() {
            assert!((a - b).abs() < 1e-3, "vertex {v}: {a} vs {b}");
        }
    }
}
