//! Property-based tests over the whole stack: for randomly generated
//! graphs and access patterns, the distributed implementations must agree
//! with the exact single-machine references, and core invariants must
//! hold.
//!
//! Built on the in-tree `psgraph_harness::prop` framework (hermetic — no
//! external crates). Each property is reproducible: failures print a
//! `PSGRAPH_PROP_SEED=...` replay line.

use std::sync::Arc;

use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_harness::{prop_assert, prop_assert_eq, Pool};

use psgraph::core::algos::{KCore, PageRank, TriangleCount};
use psgraph::core::runner::distribute_edges;
use psgraph::core::{PsGraphConfig, PsGraphContext};
use psgraph::graph::{metrics, EdgeList};
use psgraph::ps::{PartitionLayout, Partitioner, PullResponse, RecoveryMode, VectorHandle};
use psgraph::sim::{FaultSchedule, FaultSite, NodeClock};

/// Generator: a random small graph as a deduplicated edge list.
fn arb_graph(src: &mut Source) -> EdgeList {
    let n = src.u64_range(8, 60);
    let edges = src.vec_with(1, 200, |s| (s.u64_range(0, n), s.u64_range(0, n)));
    EdgeList::new(n, edges).dedup()
}

// ---------------------------------------------------------------------------
// Cross-stack parity block (12 cases each, matching the original suite).
// ---------------------------------------------------------------------------

const PARITY_CASES: u32 = 12;

#[test]
fn kcore_matches_exact_reference() {
    check_with(
        "kcore_matches_exact_reference",
        &Config::with_cases(PARITY_CASES),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out = KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            prop_assert_eq!(out.coreness, metrics::kcore_exact(g));
            Ok(())
        },
    );
}

#[test]
fn triangles_match_exact_reference() {
    check_with(
        "triangles_match_exact_reference",
        &Config::with_cases(PARITY_CASES),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out = TriangleCount::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            prop_assert_eq!(out.triangles, metrics::triangles_exact(g));
            Ok(())
        },
    );
}

#[test]
fn pagerank_mass_and_positivity() {
    check_with(
        "pagerank_mass_and_positivity",
        &Config::with_cases(PARITY_CASES),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out = PageRank { max_iterations: 25, ..Default::default() }
                .run(&ctx, &edges, g.num_vertices())
                .unwrap();
            // Every rank ≥ the teleport mass (1-d); none NaN/∞.
            for (v, &r) in out.ranks.iter().enumerate() {
                prop_assert!(r.is_finite(), "vertex {} rank {}", v, r);
                prop_assert!(r >= 0.15 - 1e-9, "vertex {} rank {}", v, r);
            }
            Ok(())
        },
    );
}

#[test]
fn ps_vector_pull_matches_reference_model() {
    check_with(
        "ps_vector_pull_matches_reference_model",
        &Config::with_cases(PARITY_CASES),
        |src| {
            let size = src.u64_range(1, 200);
            let ops = src.vec_with(0, 60, |s| {
                (s.u64_range(0, 200), s.i64_range(-100, 100), s.bool())
            });
            (size, ops, src.bool())
        },
        |(size, ops, hash_partitioned)| {
            let (size, hash_partitioned) = (*size, *hash_partitioned);
            // Random interleaving of adds/sets mirrored against a Vec model.
            let ctx = PsGraphContext::local();
            let clock = NodeClock::new();
            let partitioner =
                if hash_partitioned { Partitioner::Hash } else { Partitioner::Range };
            let v = VectorHandle::<i64>::create(
                ctx.ps(),
                "prop.v",
                size,
                partitioner,
                RecoveryMode::Inconsistent,
            )
            .unwrap();
            let mut model = vec![0i64; size as usize];
            for &(idx, val, is_add) in ops {
                let idx = idx % size;
                if is_add {
                    v.push_add(&clock, &[idx], &[val]).unwrap();
                    model[idx as usize] = model[idx as usize].saturating_add(val);
                } else {
                    v.push_set(&clock, &[idx], &[val]).unwrap();
                    model[idx as usize] = val;
                }
            }
            let all = v.pull_all(&clock).unwrap();
            prop_assert_eq!(all, model.clone());
            // The planned read with the sparse response agrees with plain pull.
            let idx: Vec<u64> = (0..size).collect();
            let plan = v.plan(&idx, PullResponse::Sparse).unwrap();
            prop_assert_eq!(v.pull_planned(&clock, &plan).unwrap(), model);
            ctx.ps().unregister("prop.v");
            Ok(())
        },
    );
}

#[test]
fn partition_layout_covers_all_keys() {
    check_with(
        "partition_layout_covers_all_keys",
        &Config::with_cases(PARITY_CASES),
        |src| {
            (
                src.u64_range(1, 5_000),
                src.usize_range(1, 12),
                src.usize_range(1, 6),
                src.bool(),
            )
        },
        |&(size, parts, servers, hash)| {
            let partitioner = if hash { Partitioner::Hash } else { Partitioner::Range };
            let layout = PartitionLayout::new(partitioner, size, parts, servers);
            for k in (0..size).step_by(1 + size as usize / 257) {
                let p = layout.partition_of(k);
                prop_assert!(p < parts);
                prop_assert!(layout.server_of_partition(p) < servers);
            }
            Ok(())
        },
    );
}

#[test]
fn rdd_wordcount_matches_reference() {
    check_with(
        "rdd_wordcount_matches_reference",
        &Config::with_cases(PARITY_CASES),
        |src| {
            (
                src.vec_with(0, 300, |s| s.u64_range(0, 20)),
                src.usize_range(1, 10),
                src.usize_range(1, 10),
            )
        },
        |(words, parts, out_parts)| {
            let ctx = PsGraphContext::local();
            let rdd =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), words.clone(), *parts).unwrap();
            let keyed = rdd.map(|&w| (w, 1u64)).unwrap();
            let mut counted =
                keyed.reduce_by_key(*out_parts, |a, b| a + b).unwrap().collect().unwrap();
            counted.sort_unstable();
            let mut reference: std::collections::BTreeMap<u64, u64> = Default::default();
            for &w in words {
                *reference.entry(w).or_default() += 1;
            }
            let reference: Vec<(u64, u64)> = reference.into_iter().collect();
            prop_assert_eq!(counted, reference);
            Ok(())
        },
    );
}

#[test]
fn graphsage_sampling_is_valid() {
    check_with(
        "graphsage_sampling_is_valid",
        &Config::with_cases(PARITY_CASES),
        |src| (arb_graph(src), src.usize_range(1, 8), src.any_u64()),
        |(g, k, seed)| {
            use psgraph::ps::NeighborTableHandle;
            let (k, seed) = (*k, *seed);
            let ctx = PsGraphContext::local();
            let clock = NodeClock::new();
            let adj = NeighborTableHandle::create(
                ctx.ps(),
                "prop.adj",
                g.num_vertices(),
                Partitioner::Hash,
                RecoveryMode::Inconsistent,
            )
            .unwrap();
            let tables: Vec<(u64, Vec<u64>)> = g.neighbor_tables().into_iter().collect();
            adj.push(&clock, &tables).unwrap();
            let ids: Vec<u64> = (0..g.num_vertices()).collect();
            let samples = adj.sample_neighbors(&clock, &ids, k, seed).unwrap();
            let full = adj.pull(&clock, &ids).unwrap();
            for (v, (sample, ns)) in samples.iter().zip(&full).enumerate() {
                prop_assert!(sample.len() <= k);
                prop_assert!(sample.len() <= ns.len());
                if ns.len() <= k {
                    prop_assert_eq!(sample.len(), ns.len(), "small lists whole");
                }
                let set: std::collections::HashSet<u64> = sample.iter().copied().collect();
                prop_assert_eq!(set.len(), sample.len(), "no duplicates for {}", v);
                for s in sample {
                    prop_assert!(ns.contains(s));
                }
            }
            ctx.ps().unregister("prop.adj");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Failure-injection block (6 cases each — these run the slow recovery
// paths, matching the original suite's reduced budget).
// ---------------------------------------------------------------------------

const FAILURE_CASES: u32 = 6;

/// K-Core's coreness and superstep count on a pool of 1: on a larger pool
/// the count depends on the claim schedule, and the property below must
/// know it in advance.
fn kcore_on_one_thread(g: &EdgeList, chaos: FaultSchedule) -> (Vec<u64>, u64) {
    let ctx = PsGraphContext::new(PsGraphConfig::default().with_pool(Arc::new(Pool::new(1))));
    let edges = distribute_edges(&ctx, g, 8).unwrap();
    ctx.attach_chaos(chaos);
    let out = KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap();
    (out.coreness, out.stats.supersteps)
}

#[test]
fn executor_failure_never_changes_kcore() {
    check_with(
        "executor_failure_never_changes_kcore",
        &Config::with_cases(FAILURE_CASES),
        |src| {
            let g = arb_graph(src);
            let victim = src.u64_range(0, 4);
            // A superstep the fault-free run reaches, so the kill lands.
            let (_, steps) = kcore_on_one_thread(&g, FaultSchedule::off());
            let step = src.u64_range(0, steps);
            (g, victim, step)
        },
        |(g, victim, step)| {
            let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, *step, *victim)]);
            let (coreness, _) = kcore_on_one_thread(g, chaos.clone());
            prop_assert_eq!(coreness, metrics::kcore_exact(g));
            prop_assert_eq!(chaos.stats().crashes, 1);
            Ok(())
        },
    );
}

#[test]
fn checkpoint_roundtrip_preserves_everything() {
    check_with(
        "checkpoint_roundtrip_preserves_everything",
        &Config::with_cases(FAILURE_CASES),
        |src| {
            (src.u64_range(1, 300), src.vec_with(1, 50, |s| s.f64_range(-1e6, 1e6)))
        },
        |(size, values)| {
            let size = *size;
            let ctx = PsGraphContext::local();
            let clock = NodeClock::new();
            let v = VectorHandle::<f64>::create(
                ctx.ps(),
                "prop.ck",
                size,
                Partitioner::Range,
                RecoveryMode::Inconsistent,
            )
            .unwrap();
            let idx: Vec<u64> =
                values.iter().enumerate().map(|(i, _)| i as u64 % size).collect();
            v.push_add(&clock, &idx, values).unwrap();
            let before = v.pull_all(&clock).unwrap();
            ctx.ps().checkpoint(ctx.dfs(), "prop.ck").unwrap();
            for s in 0..ctx.ps().num_servers() {
                ctx.ps().kill_server(s);
                ctx.ps().restart_server(s, clock.now());
                ctx.ps().recover_server(s, ctx.dfs(), &clock).unwrap();
            }
            prop_assert_eq!(v.pull_all(&clock).unwrap(), before);
            ctx.ps().unregister("prop.ck");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Dataflow semantics block (10 cases each, matching the original suite).
// ---------------------------------------------------------------------------

const DATAFLOW_CASES: u32 = 10;

fn arb_pairs(src: &mut Source, max_len: usize) -> Vec<(u64, u64)> {
    src.vec_with(0, max_len, |s| (s.u64_range(0, 15), s.u64_range(0, 100)))
}

#[test]
fn join_matches_reference_semantics() {
    check_with(
        "join_matches_reference_semantics",
        &Config::with_cases(DATAFLOW_CASES),
        |src| (arb_pairs(src, 80), arb_pairs(src, 80), src.usize_range(1, 8)),
        |(left, right, parts)| {
            let ctx = PsGraphContext::local();
            let l =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), left.clone(), *parts).unwrap();
            let r =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), right.clone(), *parts).unwrap();
            let mut joined = l.join(&r, *parts).unwrap().collect().unwrap();
            joined.sort_unstable();
            let mut reference = Vec::new();
            for &(lk, lv) in left {
                for &(rk, rv) in right {
                    if lk == rk {
                        reference.push((lk, (lv, rv)));
                    }
                }
            }
            reference.sort_unstable();
            prop_assert_eq!(joined, reference);
            Ok(())
        },
    );
}

#[test]
fn group_by_key_with_matches_group_then_post() {
    check_with(
        "group_by_key_with_matches_group_then_post",
        &Config::with_cases(DATAFLOW_CASES),
        |src| {
            (
                src.vec_with(0, 100, |s| (s.u64_range(0, 12), s.u64_range(0, 50))),
                src.usize_range(1, 8),
            )
        },
        |(pairs, parts)| {
            let ctx = PsGraphContext::local();
            let rdd =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), pairs.clone(), *parts).unwrap();
            let mut fused = rdd
                .group_by_key_with(*parts, |_k, vs| {
                    vs.sort_unstable();
                    vs.dedup();
                })
                .unwrap()
                .collect()
                .unwrap();
            fused.sort_by_key(|(k, _)| *k);
            let mut reference: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            for &(k, v) in pairs {
                reference.entry(k).or_default().push(v);
            }
            let reference: Vec<(u64, Vec<u64>)> = reference
                .into_iter()
                .map(|(k, mut vs)| {
                    vs.sort_unstable();
                    vs.dedup();
                    (k, vs)
                })
                .collect();
            prop_assert_eq!(fused, reference);
            Ok(())
        },
    );
}

#[test]
fn fused_flat_map_reduce_matches_unfused() {
    check_with(
        "fused_flat_map_reduce_matches_unfused",
        &Config::with_cases(DATAFLOW_CASES),
        |src| {
            (src.vec_with(0, 120, |s| s.u64_range(0, 40)), src.usize_range(1, 8))
        },
        |(items, parts)| {
            let ctx = PsGraphContext::local();
            let rdd =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), items.clone(), *parts).unwrap();
            // Fused: each item emits (x % 7, x) and (x % 5, 1).
            let mut fused = rdd
                .flat_map_reduce_by_key(
                    *parts,
                    |&x, out| {
                        out.push((x % 7, x));
                        out.push((x % 5, 1));
                    },
                    |a, b| a + b,
                )
                .unwrap()
                .collect()
                .unwrap();
            fused.sort_unstable();
            // Unfused equivalent through materialized ops.
            let mut unfused = rdd
                .flat_map(|&x| vec![(x % 7, x), (x % 5, 1)])
                .unwrap()
                .reduce_by_key(*parts, |a, b| a + b)
                .unwrap()
                .collect()
                .unwrap();
            unfused.sort_unstable();
            prop_assert_eq!(fused, unfused);
            Ok(())
        },
    );
}

#[test]
fn copartitioned_join_matches_plain_join() {
    check_with(
        "copartitioned_join_matches_plain_join",
        &Config::with_cases(DATAFLOW_CASES),
        |src| (arb_pairs(src, 60), arb_pairs(src, 60), src.usize_range(1, 8)),
        |(left, right, parts)| {
            let ctx = PsGraphContext::local();
            let l =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), left.clone(), *parts).unwrap();
            let r =
                psgraph::dataflow::Rdd::from_vec(ctx.cluster(), right.clone(), *parts).unwrap();
            let mut plain = l.join(&r, *parts).unwrap().collect().unwrap();
            plain.sort_unstable();
            let lp = l.partition_by_key(*parts).unwrap();
            let rp = r.partition_by_key(*parts).unwrap();
            let mut copart = lp.join_copartitioned(&rp).unwrap().collect().unwrap();
            copart.sort_unstable();
            prop_assert_eq!(plain, copart);
            Ok(())
        },
    );
}

#[test]
fn connected_components_match_reference() {
    check_with(
        "connected_components_match_reference",
        &Config::with_cases(DATAFLOW_CASES),
        arb_graph,
        |g| {
            use psgraph::core::algos::ConnectedComponents;
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out =
                ConnectedComponents::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            let reference = metrics::connected_components(&g);
            for a in 0..g.num_vertices() as usize {
                for b in 0..g.num_vertices() as usize {
                    prop_assert_eq!(
                        out.labels[a] == out.labels[b],
                        reference[a] == reference[b]
                    );
                }
            }
            Ok(())
        },
    );
}
