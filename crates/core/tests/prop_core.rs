//! Property tests for algorithm invariants that hold on any graph, using
//! the in-tree harness.

use std::collections::BTreeSet;

use psgraph_core::algos::{CommonNeighbor, ConnectedComponents, KCore, PageRank, TriangleCount};
use psgraph_core::runner::{self, distribute_edges};
use psgraph_core::{CoreError, PsGraphConfig, PsGraphContext};
use psgraph_dataflow::Rdd;
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
/// same requests but one, so the bytes differ by that one's alone and equal
/// otherwise means equal key sets (on several, which executor holds which
/// sources moves the per-request header bytes). The one is the read-back
/// of the out-table: one `pull_partition` per partition, 8 request bytes
/// each, so a P-partition run moves `8·(P − 2)` bytes more than the
/// 2-partition run.
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
                let (bits, bytes) = run(parts, 1);
                prop_assert_eq!(&bits, &want.0, "{} partitions vs 2", parts);
                let read_back = 8 * (parts as u64 - 2);
                prop_assert_eq!(bytes, want.1 + read_back, "{} partitions vs 2", parts);
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

/// Every job that walks or reads an adjacency builds it on the PS with
/// one function, `runner::table_on_ps`: Common Neighbor, Triangle Count, K-Core, CC and LPA an
/// undirected one (both directions of each edge, no self-loop), PageRank a
/// directed one (each edge as given, self-loops kept). Each writer sends
/// its records in one request, the servers hold the runs, and one seal
/// merges each list. The table has the edge RDD's partition count and
/// places a vertex by its hash layout, so partition `p` — read by the
/// servers and read back as the executors' RDD partition `p` — must be,
/// row for row and in ascending order, the rows of the table `groupBy`
/// builds from the same records whose vertex the layout puts in `p`, and
/// the partitions together must be that whole table; a vertex no record
/// starts at (one with no out-edge, in the directed form) has a row on
/// neither side. This holds on 1–8 writers, whichever order the writers'
/// requests land in and when one is sent twice. An id past the table is a
/// typed error, and the request that names it writes nothing.
#[test]
fn the_ps_built_neighbor_table_is_the_grouped_one() {
    type Records = fn(&(u64, u64), &mut Vec<(u64, u64)>);
    type Grouped = fn(&Rdd<(u64, u64)>) -> Result<Rdd<(u64, Vec<u64>)>, CoreError>;
    let forms: [(&str, Records, Grouped); 2] = [
        ("undirected", runner::undirected, runner::to_undirected_neighbor_tables),
        ("directed", runner::directed, runner::to_neighbor_tables),
    ];
    let arb = |src: &mut Source| {
        let n = src.u64_range(2, 40);
        let m = src.usize_range(1, 5 * n as usize);
        let mut edges = if src.bool() {
            gen::rmat(n, m, Default::default(), src.any_u64()).edges().to_vec()
        } else {
            src.vec_with(m, m + 1, |s| (s.u64_range(0, n), s.u64_range(0, n)))
        };
        // A self-loop, a repeat, a reciprocal edge and both end ids; then
        // one vertex loses its out-edges, unless it is one of those.
        let (a, b) = edges[src.usize_range(0, edges.len())];
        edges.extend([(a, a), (a, b), (b, a), (0, n - 1)]);
        let quiet = src.u64_range(0, n);
        if ![0, a, b].contains(&quiet) {
            edges.retain(|&(s, _)| s != quiet);
        }
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
        let clock = NodeClock::new();
        let parts: Vec<usize> = (0..*writers).collect();
        // Every partition of a table, one read each, in partition order.
        let served = |adj: &NeighborTableHandle| -> Vec<Vec<(u64, Vec<u64>)>> {
            parts.iter().map(|&p| adj.pull_partition(&clock, p).unwrap()).collect()
        };
        for (form, records, grouped) in forms {
            let grouped = grouped(&edges).unwrap();
            let mut table: Vec<(u64, Vec<u64>)> =
                parts.iter().flat_map(|&p| grouped.partition(p).unwrap().to_vec()).collect();
            table.sort_unstable();
            // The writers' records, one request per partition.
            let requests: Vec<Vec<(u64, u64)>> = parts
                .iter()
                .map(|&w| {
                    let mut out = vec![];
                    edges.partition(w).unwrap().iter().for_each(|e| records(e, &mut out));
                    out
                })
                .collect();
            let heads: BTreeSet<u64> = requests.iter().flatten().map(|&(v, _)| v).collect();
            let rows: BTreeSet<u64> = table.iter().map(|&(v, _)| v).collect();
            prop_assert_eq!(rows, heads, "{}: the grouped table's vertices", form);

            // The jobs' build: one request per executor, then the seal;
            // read back by the servers and as the executors' RDD.
            let adj = runner::table_on_ps(&ctx, &edges, form, n, records).unwrap();
            let layout = adj.layout().clone();
            prop_assert_eq!(layout.num_partitions, *writers);
            let want: Vec<Vec<(u64, Vec<u64>)>> = parts
                .iter()
                .map(|&p| {
                    let mine = table.iter().filter(|(v, _)| layout.partition_of(*v) == p);
                    mine.cloned().collect()
                })
                .collect();
            let mut union = want.concat();
            union.sort_unstable();
            prop_assert_eq!(union, table.clone(), "{}: the partitions together", form);
            let reads = served(&adj);
            prop_assert_eq!(reads.concat(), want.concat(), "{}: the reads together", form);
            let tables = runner::pull_neighbor_tables(&ctx, &adj).unwrap();
            prop_assert_eq!(tables.num_partitions(), *writers);
            for (p, rows) in want.iter().enumerate() {
                prop_assert_eq!(reads[p].clone(), rows.clone(), "{}: partition {}", form, p);
                let read_back = tables.partition(p).unwrap().to_vec();
                prop_assert_eq!(read_back, rows.clone(), "{}: partition {}", form, p);
            }

            // The writers' requests by hand, in the drawn order and one of
            // them again at the end.
            let (hash, inconsistent) = (Partitioner::Hash, RecoveryMode::Inconsistent);
            let name = format!("{form} by hand");
            let adj =
                NeighborTableHandle::create_partitioned(ctx.ps(), &name, n, hash, *writers, inconsistent)
                    .unwrap();
            for bad in [(n, 0), (0, n)] {
                let mut records = requests.concat();
                records.insert(records.len() / 2, bad);
                let err = adj.merge_edges(&clock, records).unwrap_err();
                let names_it = matches!(err, PsError::IndexOutOfBounds { index, .. } if index == n);
                prop_assert!(names_it, "{}: {:?}", form, err);
                adj.seal(&clock).unwrap();
                prop_assert!(adj.is_empty().unwrap(), "{}: a refused request wrote something", form);
            }
            let mut order: Vec<usize> = parts.clone();
            order.sort_by_key(|&w| lands[w]);
            order.push(*twice);
            for w in order {
                adj.merge_edges(&clock, requests[w].clone()).unwrap();
            }
            adj.seal(&clock).unwrap();
            prop_assert_eq!(served(&adj), want.clone(), "{}: by hand", form);
            prop_assert_eq!(adj.len().unwrap(), want.iter().map(Vec::len).sum::<usize>());
        }
        Ok(())
    });
}
