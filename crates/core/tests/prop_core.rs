//! Property tests for algorithm invariants that hold on any graph, using
//! the in-tree harness.

use psgraph_core::algos::{CommonNeighbor, ConnectedComponents, KCore, PageRank, TriangleCount};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{PsGraphConfig, PsGraphContext};
use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_graph::{gen, metrics, EdgeList};

fn arb_graph(src: &mut Source) -> EdgeList {
    let n = src.u64_range(4, 40);
    let edges = src.vec_with(1, 120, |s| (s.u64_range(0, n), s.u64_range(0, n)));
    EdgeList::new(n, edges).dedup()
}

#[test]
fn coreness_never_exceeds_degree() {
    check_with(
        "coreness_never_exceeds_degree",
        &Config::with_cases(10),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out = KCore::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            let deg = g.undirected().out_degrees();
            for (v, (&c, &d)) in out.coreness.iter().zip(&deg).enumerate() {
                prop_assert!(c <= d, "vertex {}: coreness {} > degree {}", v, c, d);
            }
            Ok(())
        },
    );
}

#[test]
fn triangle_count_bounded_by_edge_triples() {
    check_with(
        "triangle_count_bounded_by_edge_triples",
        &Config::with_cases(10),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out = TriangleCount::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            // m undirected edges allow at most m·(m-1)/3 triangles — a
            // loose sanity bound that catches double counting.
            let m = g.undirected().edges().len() as u64 / 2;
            prop_assert!(
                out.triangles <= m.saturating_mul(m.saturating_sub(1)) / 3 + 1,
                "{} triangles from {} edges",
                out.triangles,
                m
            );
            Ok(())
        },
    );
}

#[test]
fn component_labels_are_constant_within_an_edge() {
    check_with(
        "component_labels_are_constant_within_an_edge",
        &Config::with_cases(10),
        arb_graph,
        |g| {
            let ctx = PsGraphContext::local();
            let edges = distribute_edges(&ctx, g, 4).unwrap();
            let out =
                ConnectedComponents::default().run(&ctx, &edges, g.num_vertices()).unwrap();
            for &(s, d) in g.edges() {
                prop_assert_eq!(
                    out.labels[s as usize],
                    out.labels[d as usize],
                    "edge ({}, {}) spans components",
                    s,
                    d
                );
            }
            Ok(())
        },
    );
}

/// With a delta threshold only sources that still move contribute, so
/// which destinations a superstep pushes depends on the fold. The ranks
/// (bit for bit) may not depend on how the edge list was partitioned or on
/// how many executors hold it, and neither may the PS bytes wherever the
/// requests are comparable: on one executor every partitioning makes the
/// same requests, so equal bytes mean equal key sets (on several, which
/// executor holds which sources moves the per-request header bytes).
#[test]
fn thresholded_pagerank_is_independent_of_the_partition_count() {
    check_with(
        "thresholded_pagerank_is_independent_of_the_partition_count",
        &Config::with_cases(10),
        arb_graph,
        |g| {
            let run = |parts: usize, executors: usize| {
                let mut config = PsGraphConfig::default();
                config.cluster = config.cluster.with_executors(executors);
                let ctx = PsGraphContext::new(config);
                let edges = distribute_edges(&ctx, g, parts).unwrap();
                let job =
                    PageRank { max_iterations: 40, delta_threshold: 1e-3, ..Default::default() };
                let out = job.run(&ctx, &edges, g.num_vertices()).unwrap();
                let bits: Vec<u64> = out.ranks.iter().map(|r| r.to_bits()).collect();
                (bits, out.stats.ps_net_bytes)
            };
            let want = run(2, 1);
            for parts in [5, 8] {
                prop_assert_eq!(run(parts, 1), want.clone(), "{} partitions vs 2", parts);
            }
            for parts in [2, 5, 8] {
                prop_assert_eq!(&run(parts, 4).0, &want.0, "{} partitions on 4 executors", parts);
            }
            Ok(())
        },
    );
}

/// Common Neighbor and Triangle Count keep pulled lists on their executors
/// within the executors' memory budgets, so a budget may change what is
/// pulled when, never the answer. Each job runs with `free` bytes left on
/// every executor: ample, the least it finishes in (found by bisection —
/// one byte less must be an OOM, so the budget is the only bound), and
/// half way between. Every run's counts are the exact ones, and after
/// every run each executor's meter reads what it read before.
#[test]
fn common_neighbor_and_triangle_count_are_exact_within_any_budget_they_finish_in() {
    let arb = |src: &mut Source| {
        let n = src.u64_range(8, 50);
        let m = src.usize_range(1, 6 * n as usize);
        let g = if src.bool() {
            gen::rmat(n, m, Default::default(), src.any_u64())
        } else {
            gen::erdos_renyi(n, m, src.any_u64())
        };
        (g.dedup(), [2, 5, 16][src.usize_range(0, 3)])
    };
    check_with("cn_tc_within_budgets", &Config::with_cases(8), arb, |(g, batch)| {
        // Common Neighbor's counts come in partition order: compare them sorted.
        let exact = metrics::common_neighbors_exact(g, g.edges());
        let mut exact_counts: Vec<(u64, u64, u64)> =
            g.edges().iter().zip(exact).map(|(&(a, b), c)| (a, b, c)).collect();
        exact_counts.sort_unstable();
        let exact_triangles = metrics::triangles_exact(g);
        for triangles in [false, true] {
            // The job's counts with `free` bytes left on every executor.
            let run = |free: u64| {
                let ctx = PsGraphContext::local();
                let edges = distribute_edges(&ctx, g, 6).unwrap();
                let cluster = ctx.cluster();
                let meters: Vec<_> =
                    (0..cluster.num_executors()).map(|e| cluster.executor(e).memory()).collect();
                let before: Vec<u64> = meters.iter().map(|m| m.in_use()).collect();
                for m in &meters {
                    m.alloc(m.budget() - m.in_use() - free).unwrap();
                }
                let fillers: Vec<u64> = meters.iter().map(|m| m.in_use()).collect();
                let out = if triangles {
                    TriangleCount { batch_size: *batch }
                        .run(&ctx, &edges, g.num_vertices())
                        .map(|out| vec![(0, 0, out.triangles)])
                } else {
                    CommonNeighbor { batch_size: *batch, ..Default::default() }
                        .run(&ctx, &edges, g.num_vertices())
                        .map(|mut out| {
                            out.counts.sort_unstable();
                            out.counts
                        })
                };
                let after: Vec<u64> = meters.iter().map(|m| m.in_use()).collect();
                assert_eq!(after, fillers, "free {free}: the job handed its memory back");
                for (m, (&filled, &idle)) in meters.iter().zip(fillers.iter().zip(&before)) {
                    m.free(filled - idle);
                }
                out
            };
            let want = if triangles { vec![(0, 0, exact_triangles)] } else { exact_counts.clone() };
            let ample = 1 << 24;
            prop_assert_eq!(run(ample).unwrap(), want.clone());
            let (mut fails, mut fits) = (0u64, ample);
            while fits - fails > 1 {
                let mid = (fails + fits) / 2;
                match run(mid) {
                    Ok(_) => fits = mid,
                    Err(e) if e.is_oom() => fails = mid,
                    Err(e) => return Err(format!("free {mid}: {e}")),
                }
            }
            for free in [fits, (fits + ample) / 2] {
                let got = run(free).unwrap();
                prop_assert_eq!(got, want.clone(), "triangles {}, free {}", triangles, free);
            }
            prop_assert!(run(fits - 1).unwrap_err().is_oom());
        }
        Ok(())
    });
}
