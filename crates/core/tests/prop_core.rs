//! Property tests for algorithm invariants that hold on any graph, using
//! the in-tree harness.

use psgraph_core::algos::{ConnectedComponents, KCore, PageRank, TriangleCount};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{PsGraphConfig, PsGraphContext};
use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_graph::EdgeList;

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
