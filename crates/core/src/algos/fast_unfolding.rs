//! Fast Unfolding / Louvain community detection (paper §IV-C).
//!
//! Two PS vectors hold the frequently-accessed models: `vertex2com` (the
//! community of each vertex) and `com2weight` (Σtot — the sum of weighted
//! degrees per community). Each pass runs (1) modularity-optimization
//! sweeps where every vertex greedily moves to the neighbor community with
//! the best ΔQ, then (2) community aggregation, which contracts each
//! community to a single vertex with a dataflow `reduce_by_key` and
//! repeats on the condensed graph. Passes stop when modularity stops
//! improving.
//!
//! The graph is kept in symmetric-directed form (every undirected edge
//! stored in both directions; a self-loop's weight is the full matrix
//! entry `A[cc] = 2 × intra-weight`), so `k_i` is a row sum and
//! `2m = ΣA`. Sweeps alternate vertex parity to avoid the classic
//! two-vertex community oscillation of parallel Louvain.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};
use psgraph_sim::FxHashMap;

use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::{CoreError, Result};

/// Fast-unfolding job configuration.
#[derive(Debug, Clone)]
pub struct FastUnfolding {
    /// Maximum aggregation passes.
    pub max_passes: u64,
    /// Maximum optimization sweeps per pass.
    pub max_sweeps: u64,
    /// Minimum modularity gain to start another pass.
    pub min_gain: f64,
}

impl Default for FastUnfolding {
    fn default() -> Self {
        FastUnfolding { max_passes: 5, max_sweeps: 10, min_gain: 1e-4 }
    }
}

/// Result: community per original vertex, final modularity, statistics.
#[derive(Debug, Clone)]
pub struct FastUnfoldingOutput {
    pub communities: Vec<u64>,
    pub modularity: f64,
    pub stats: RunStats,
}

impl FastUnfolding {
    /// Run on an unweighted edge RDD (unit weights).
    pub fn run_unweighted(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<FastUnfoldingOutput> {
        // Build the symmetric weighted representation in one hop (no
        // intermediate weighted copy pinned by lineage).
        let graph = edges.flat_map(|&(s, d)| {
            if s == d {
                vec![(s, (s, 2.0f64))]
            } else {
                vec![(s, (d, 1.0f64)), (d, (s, 1.0f64))]
            }
        })?;
        self.run_symmetric(ctx, graph, num_vertices)
    }

    /// Run on a weighted edge RDD `(src, dst, weight)` (each undirected
    /// edge listed once; self-loops allowed).
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64, f64)>,
        num_vertices: u64,
    ) -> Result<FastUnfoldingOutput> {
        // Symmetric-directed representation.
        let graph = edges.flat_map(|&(s, d, w)| {
            if s == d {
                vec![(s, (s, 2.0 * w))]
            } else {
                vec![(s, (d, w)), (d, (s, w))]
            }
        })?;
        self.run_symmetric(ctx, graph, num_vertices)
    }

    /// Run on an already-symmetrized `(src, (dst, w))` representation.
    fn run_symmetric(
        &self,
        ctx: &Arc<PsGraphContext>,
        mut graph: Rdd<(u64, (u64, f64))>,
        num_vertices: u64,
    ) -> Result<FastUnfoldingOutput> {
        let start = ctx.now();
        let snap = ctx.net_snapshot();
        let mut supersteps = 0u64;

        // 2m is invariant across passes.
        let two_m = graph.fold(0.0f64, |acc, &(_, (_, w))| acc + w)?;
        if two_m <= 0.0 {
            return Ok(FastUnfoldingOutput {
                communities: (0..num_vertices).collect(),
                modularity: 0.0,
                stats: ctx.stats_since(start, snap, 0),
            });
        }

        // Original-vertex → current community chain.
        let mut assign: Vec<u64> = (0..num_vertices).collect();
        let mut best_q = f64::NEG_INFINITY;

        for pass in 0..self.max_passes {
            let tables = graph.group_by_key(graph.num_partitions())?;

            let objects = super::PsObjects::new(ctx, &["fu.vertex2com", "fu.com2weight"]);
            let vertex2com = VectorHandle::<u64>::create(
                ctx.ps(),
                "fu.vertex2com",
                num_vertices,
                Partitioner::Range,
                RecoveryMode::Consistent,
            )?;
            let com2weight = VectorHandle::<f64>::create(
                ctx.ps(),
                "fu.com2weight",
                num_vertices,
                Partitioner::Range,
                RecoveryMode::Consistent,
            )?;

            // Init: community = self; Σtot(c) = k_c.
            let v2c = &vertex2com;
            let c2w = &com2weight;
            ctx.cluster()
                .run_stage(tables.num_partitions(), |p, exec| {
                    let part = tables.partition(p)?;
                    let mut idx = Vec::with_capacity(part.len());
                    let mut ks = Vec::with_capacity(part.len());
                    for (v, ns) in part.iter() {
                        idx.push(*v);
                        ks.push(ns.iter().map(|&(_, w)| w).sum::<f64>());
                    }
                    if !idx.is_empty() {
                        v2c.push_set(exec.clock(), &idx, &idx).df()?;
                        c2w.push_add(exec.clock(), &idx, &ks).df()?;
                    }
                    Ok(())
                })
                .map_err(CoreError::from)?;
            supersteps += 1;

            // Modularity-optimization sweeps (parity-alternated) on the
            // shared loop, numbered on from the passes before. Each parity
            // half stays a per-partition stage: its Σtot pull is keyed by
            // what its first pull returned, so no request plan fits.
            let sweep = || -> Result<u64> {
                let mut moves = 0u64;
                for parity in 0..2u64 {
                    let v2c = &vertex2com;
                    let c2w = &com2weight;
                    let moved: Vec<u64> = ctx
                        .cluster()
                        .run_stage(tables.num_partitions(), |p, exec| {
                            let part = tables.partition(p)?;
                            let mut wanted = Vec::new();
                            for (v, ns) in part.iter() {
                                if v % 2 != parity {
                                    continue;
                                }
                                wanted.push(*v);
                                for &(u, _) in ns {
                                    wanted.push(u);
                                }
                            }
                            if wanted.is_empty() {
                                return Ok(0);
                            }
                            let coms = v2c.pull(exec.clock(), &wanted).df()?;
                            // Σtot for every referenced community.
                            let tot = c2w.pull(exec.clock(), &coms).df()?;
                            let com_of: FxHashMap<u64, u64> =
                                wanted.iter().copied().zip(coms.iter().copied()).collect();
                            let tot_of: FxHashMap<u64, f64> =
                                coms.iter().copied().zip(tot.iter().copied()).collect();

                            let mut mv = 0u64;
                            let mut upd_v = Vec::new();
                            let mut upd_c = Vec::new();
                            let mut w_idx = Vec::new();
                            let mut w_val = Vec::new();
                            let mut work = 0u64;
                            for (v, ns) in part.iter() {
                                if v % 2 != parity {
                                    continue;
                                }
                                let own = com_of[v];
                                let k_i: f64 = ns.iter().map(|&(_, w)| w).sum();
                                // k_{i,in}(C) over neighbor communities.
                                let mut kin: FxHashMap<u64, f64> = FxHashMap::default();
                                for &(u, w) in ns {
                                    if u == *v {
                                        continue;
                                    }
                                    *kin.entry(com_of[&u]).or_default() += w;
                                }
                                kin.entry(own).or_default();
                                work += ns.len() as u64;
                                let gain = |c: u64, kin_c: f64| {
                                    let mut tot_c = tot_of.get(&c).copied().unwrap_or(0.0);
                                    if c == own {
                                        tot_c -= k_i;
                                    }
                                    kin_c - tot_c * k_i / two_m
                                };
                                let own_gain = gain(own, kin[&own]);
                                let mut best = (own, own_gain);
                                for (&c, &kin_c) in &kin {
                                    let g = gain(c, kin_c);
                                    if g > best.1 + 1e-12 || (g == best.1 && c < best.0) {
                                        best = (c, g);
                                    }
                                }
                                if best.0 != own {
                                    mv += 1;
                                    upd_v.push(*v);
                                    upd_c.push(best.0);
                                    w_idx.push(own);
                                    w_val.push(-k_i);
                                    w_idx.push(best.0);
                                    w_val.push(k_i);
                                }
                            }
                            exec.charge_cpu(ctx.cluster().cost(), work * 8);
                            if !upd_v.is_empty() {
                                v2c.push_set(exec.clock(), &upd_v, &upd_c).df()?;
                                c2w.push_add(exec.clock(), &w_idx, &w_val).df()?;
                            }
                            Ok(mv)
                        })
                        .map_err(CoreError::from)?;
                    moves += moved.into_iter().sum::<u64>();
                }
                Ok(moves)
            };
            let recover = || Ok(tables.recover().and_then(|()| graph.recover())?);
            supersteps +=
                super::superstep::supersteps(ctx, supersteps, self.max_sweeps, recover, sweep)?;

            // Modularity of the current assignment:
            // Q = Σ_intra/2m − Σ_c (Σtot_c / 2m)².
            let v2c = &vertex2com;
            let intra: Vec<f64> = ctx
                .cluster()
                .run_stage(graph.num_partitions(), |p, exec| {
                    let part = graph.partition(p)?;
                    let mut wanted = Vec::with_capacity(part.len() * 2);
                    for &(s, (d, _)) in part.iter() {
                        wanted.push(s);
                        wanted.push(d);
                    }
                    if wanted.is_empty() {
                        return Ok(0.0);
                    }
                    let coms = v2c.pull(exec.clock(), &wanted).df()?;
                    let mut sum = 0.0;
                    for (k, &(_, (_, w))) in part.iter().enumerate() {
                        if coms[2 * k] == coms[2 * k + 1] {
                            sum += w;
                        }
                    }
                    exec.charge_cpu(ctx.cluster().cost(), part.len() as u64 * 3);
                    Ok(sum)
                })
                .map_err(CoreError::from)?;
            let intra: f64 = intra.into_iter().sum();
            let sq_tot =
                com2weight.aggregate(ctx.cluster().driver(), |x| (x / two_m) * (x / two_m))?;
            let q = intra / two_m - sq_tot;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);

            let v2c_all = vertex2com.pull_all(ctx.cluster().driver())?;
            ctx.cluster().clock().barrier([ctx.cluster().driver()]);
            drop(objects);

            // Accept the pass only if modularity did not degrade (first
            // pass always accepted), so the reported modularity is the
            // modularity *of the returned assignment*.
            let first_pass = best_q == f64::NEG_INFINITY;
            if first_pass || q > best_q {
                for a in assign.iter_mut() {
                    *a = v2c_all[*a as usize];
                }
            }
            let improved = first_pass || q > best_q + self.min_gain;
            best_q = best_q.max(q);
            if !improved || pass + 1 == self.max_passes {
                break;
            }

            // Community aggregation: contract communities to vertices.
            // The contraction map is pipelined into the shuffle write (no
            // materialized intermediate). The superseded graph is dropped
            // and the shuffle output unpersisted; the next graph keeps its
            // lineage through the retained shuffle files.
            let v2c_map = Arc::new(v2c_all);
            let parts = graph.num_partitions();
            let merged = graph.flat_map_reduce_by_key(
                parts,
                move |&(s, (d, w)), out| {
                    out.push(((v2c_map[s as usize], v2c_map[d as usize]), w));
                },
                |a, b| a + b,
            )?;
            drop(graph);
            graph = merged.map(|&((s, d), w)| (s, (d, w)))?;
            merged.unpersist();
            supersteps += 1;
        }

        Ok(FastUnfoldingOutput {
            communities: assign,
            modularity: best_q,
            stats: ctx.stats_since(start, snap, supersteps),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::{gen, metrics, EdgeList, WeightedEdgeList};

    fn run_fu(g: &EdgeList) -> FastUnfoldingOutput {
        // A pool of 1: the job is order-sensitive and these tests are
        // about the algorithm, not the claim schedule (DESIGN.md §6,
        // ROADMAP item 2).
        let pool = Arc::new(psgraph_harness::Pool::new(1));
        let ctx = PsGraphContext::new(crate::PsGraphConfig::default().with_pool(pool));
        let edges = distribute_edges(&ctx, g, 8).unwrap();
        FastUnfolding::default().run_unweighted(&ctx, &edges, g.num_vertices()).unwrap()
    }

    #[test]
    fn two_cliques_with_bridge() {
        let mut edges = vec![];
        for s in 0..5u64 {
            for d in s + 1..5 {
                edges.push((s, d));
            }
        }
        for s in 5..10u64 {
            for d in s + 1..10 {
                edges.push((s, d));
            }
        }
        edges.push((0, 5));
        let g = EdgeList::new(10, edges);
        let out = run_fu(&g);
        // Each clique is one community.
        for v in 1..5 {
            assert_eq!(out.communities[v], out.communities[0], "first clique");
        }
        for v in 6..10 {
            assert_eq!(out.communities[v], out.communities[5], "second clique");
        }
        assert_ne!(out.communities[0], out.communities[5]);
        assert!(out.modularity > 0.3, "Q = {}", out.modularity);
    }

    #[test]
    fn reported_modularity_matches_reference_formula() {
        let s = gen::sbm2(60, 8.0, 0.5, 2, 0.1, 67);
        // Deduplicate to one direction per undirected edge for the
        // reference (it expects each edge listed once).
        let mut canon: Vec<(u64, u64)> = s
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let g = EdgeList::new(60, canon.clone());
        let out = run_fu(&g);
        let w = WeightedEdgeList::new(
            60,
            canon.iter().map(|&(a, b)| (a, b, 1.0)).collect(),
        );
        let q_ref = metrics::modularity(&w, &out.communities);
        assert!(
            (out.modularity - q_ref).abs() < 1e-9,
            "reported {} vs reference {}",
            out.modularity,
            q_ref
        );
    }

    #[test]
    fn sbm_recovers_planted_partition() {
        let s = gen::sbm2(80, 10.0, 0.3, 2, 0.1, 71);
        let mut canon: Vec<(u64, u64)> = s
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let out = run_fu(&EdgeList::new(80, canon));
        // Communities should align with the planted halves.
        let mut agree = 0;
        for v in 0..40 {
            for u in 0..40 {
                if out.communities[v] == out.communities[u] {
                    agree += 1;
                }
            }
        }
        assert!(agree > 40 * 40 / 2, "first half coherence {agree}/1600");
        assert!(out.modularity > 0.25, "Q = {}", out.modularity);
    }

    #[test]
    fn weighted_edges_respected() {
        // Heavy edges bind 0-1-2; light edges connect to 3-4-5.
        let ctx = PsGraphContext::local();
        let edges = vec![
            (0u64, 1u64, 10.0f64),
            (1, 2, 10.0),
            (0, 2, 10.0),
            (3, 4, 10.0),
            (4, 5, 10.0),
            (3, 5, 10.0),
            (2, 3, 0.1),
        ];
        let rdd = psgraph_dataflow::Rdd::from_vec(ctx.cluster(), edges, 4).unwrap();
        let out = FastUnfolding::default().run(&ctx, &rdd, 6).unwrap();
        assert_eq!(out.communities[0], out.communities[1]);
        assert_eq!(out.communities[1], out.communities[2]);
        assert_eq!(out.communities[3], out.communities[4]);
        assert_eq!(out.communities[4], out.communities[5]);
        assert_ne!(out.communities[0], out.communities[3]);
    }

    #[test]
    fn empty_graph_returns_trivial() {
        let ctx = PsGraphContext::local();
        let rdd: psgraph_dataflow::Rdd<(u64, u64, f64)> =
            psgraph_dataflow::Rdd::from_vec(ctx.cluster(), vec![], 2).unwrap();
        let out = FastUnfolding::default().run(&ctx, &rdd, 4).unwrap();
        assert_eq!(out.communities, vec![0, 1, 2, 3]);
        assert_eq!(out.modularity, 0.0);
    }

    #[test]
    fn ring_groups_neighbors() {
        let out = run_fu(&gen::ring(12));
        // Louvain on a ring forms arcs; modularity must be decent and
        // at least one nontrivial community must exist.
        let distinct: std::collections::HashSet<u64> =
            out.communities.iter().copied().collect();
        assert!(distinct.len() < 12, "some grouping must happen");
        assert!(out.modularity > 0.3, "Q = {}", out.modularity);
    }
}
