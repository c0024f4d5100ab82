//! Property tests for algorithm invariants that hold on any graph, using
//! the in-tree harness.

use psgraph_core::algos::{CommonNeighbor, ConnectedComponents, KCore, PageRank, TriangleCount};
use psgraph_core::runner::{self, distribute_edges};
use psgraph_core::{PsGraphConfig, PsGraphContext};
use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_graph::{gen, metrics, EdgeList};
use psgraph_ps::{NeighborTableHandle, Partitioner, PsError, RecoveryMode};
use psgraph_sim::NodeClock;

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

/// Every job that walks or reads an undirected adjacency — Common
/// Neighbor, Triangle Count, K-Core, CC, LPA — builds it on the PS: each
/// writer sends both directions of its edges in one request, the servers
/// hold the runs, and one seal merges each list. The table has the edge
/// RDD's partition count and places a vertex by its hash layout, so
/// partition `p` — read by the servers and read back as the executors' RDD
/// partition `p` — must be, row for row and in ascending order, the rows
/// of the table `groupBy` builds whose vertex the layout puts in `p`, and
/// the partitions together must be that whole table; on 1–8 writers,
/// whichever order the writers' requests land in and when one is sent
/// twice. An id past the table is a typed error, and the request that
/// names it writes nothing.
#[test]
fn the_ps_built_neighbor_table_is_the_grouped_one() {
    let arb = |src: &mut Source| {
        let n = src.u64_range(2, 40);
        let m = src.usize_range(1, 5 * n as usize);
        let mut edges = if src.bool() {
            gen::rmat(n, m, Default::default(), src.any_u64()).edges().to_vec()
        } else {
            src.vec_with(m, m + 1, |s| (s.u64_range(0, n), s.u64_range(0, n)))
        };
        // A self-loop, a repeat, a reciprocal edge and both end ids.
        let (a, b) = edges[src.usize_range(0, edges.len())];
        edges.extend([(a, a), (a, b), (b, a), (0, n - 1)]);
        let writers = src.usize_range(1, 9);
        // The writers' requests land in the order of these keys.
        let lands = src.vec_with(writers, writers + 1, |s| s.any_u64());
        (EdgeList::new(n, edges), writers, lands, src.usize_range(0, writers))
    };
    check_with("ps_built_table", &Config::with_cases(24), arb, |(g, writers, lands, twice)| {
        let n = g.num_vertices();
        let mut config = PsGraphConfig::default();
        config.cluster = config.cluster.with_executors(*writers);
        let ctx = PsGraphContext::new(config);
        let edges = distribute_edges(&ctx, g, *writers).unwrap();
        let grouped = runner::to_undirected_neighbor_tables(&edges).unwrap();
        let mut table: Vec<(u64, Vec<u64>)> =
            (0..*writers).flat_map(|p| grouped.partition(p).unwrap().to_vec()).collect();
        table.sort_unstable();
        let clock = NodeClock::new();
        let parts: Vec<usize> = (0..*writers).collect();

        // The jobs' build: one request per executor, then the seal; read
        // back by the servers and as the executors' RDD.
        let adj = runner::undirected_table_on_ps(&ctx, &edges, "job", n).unwrap();
        let layout = adj.layout().clone();
        prop_assert_eq!(layout.num_partitions, *writers);
        let want: Vec<Vec<(u64, Vec<u64>)>> = parts
            .iter()
            .map(|&p| table.iter().filter(|(v, _)| layout.partition_of(*v) == p).cloned().collect())
            .collect();
        let mut union = want.concat();
        union.sort_unstable();
        prop_assert_eq!(union, table.clone(), "the partitions together are the grouped table");
        prop_assert_eq!(adj.pull_partitions(&clock, &parts).unwrap(), want.concat());
        let tables = runner::pull_neighbor_tables(&ctx, &adj).unwrap();
        prop_assert_eq!(tables.num_partitions(), *writers);
        for (p, rows) in want.iter().enumerate() {
            prop_assert_eq!(adj.pull_partitions(&clock, &[p]).unwrap(), rows.clone(), "partition {}", p);
            prop_assert_eq!(tables.partition(p).unwrap().to_vec(), rows.clone(), "partition {}", p);
        }

        // The writers' requests by hand, one per partition, in the drawn
        // order and one of them again at the end.
        let requests: Vec<Vec<(u64, u64)>> = (0..*writers)
            .map(|w| {
                let mut records = vec![];
                edges.partition(w).unwrap().iter().for_each(|e| runner::undirected(e, &mut records));
                records
            })
            .collect();
        let (hash, inconsistent) = (Partitioner::Hash, RecoveryMode::Inconsistent);
        let adj =
            NeighborTableHandle::create_partitioned(ctx.ps(), "by_hand", n, hash, *writers, inconsistent)
                .unwrap();
        for bad in [(n, 0), (0, n)] {
            let mut records = requests.concat();
            records.insert(records.len() / 2, bad);
            let err = adj.merge_edges(&clock, records).unwrap_err();
            let names_it = matches!(err, PsError::IndexOutOfBounds { index, .. } if index == n);
            prop_assert!(names_it, "{:?}", err);
            adj.seal(&clock).unwrap();
            prop_assert!(adj.is_empty().unwrap(), "a refused request wrote something");
        }
        let mut order: Vec<usize> = (0..*writers).collect();
        order.sort_by_key(|&w| lands[w]);
        order.push(*twice);
        for w in order {
            adj.merge_edges(&clock, requests[w].clone()).unwrap();
        }
        adj.seal(&clock).unwrap();
        prop_assert_eq!(adj.pull_partitions(&clock, &parts).unwrap(), want.concat());
        prop_assert_eq!(adj.len().unwrap(), want.iter().map(Vec::len).sum::<usize>());
        Ok(())
    });
}
