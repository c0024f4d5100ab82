//! GraphX Fast Unfolding (Louvain).
//!
//! Every sweep shuffles per-(vertex, community) weight messages — which
//! are **map-side combinable**, the combinability K-Core's h-index lacks —
//! and resolves community/degree/Σtot lookups through **broadcast joins**:
//! all three tables are vertex-sized (and shrink every aggregation pass),
//! so Spark's small-table broadcast strategy applies; a shuffle join keyed
//! by community would funnel hot communities into single reduce tasks.
//! Broadcast copies are charged to every executor's clock and memory.
//!
//! Still plenty expensive: each sweep pays two shuffles (kin combine +
//! best-move reduce) plus broadcasts over the full edge table, twice per
//! sweep (parity-alternated to avoid parallel-Louvain oscillation) — the
//! structure behind the paper's 10.3 h (GraphX) vs 3.5 h (PSGraph) on DS1.

use psgraph_dataflow::{Cluster, DataflowError, Rdd};
use psgraph_sim::memory::Reservation;
use psgraph_sim::FxHashMap;
use std::sync::Arc;

use crate::graph::GxGraph;

/// Result of the join-based Louvain.
#[derive(Debug, Clone)]
pub struct GxLouvainOutput {
    pub communities: Vec<u64>,
    pub modularity: f64,
}

/// Broadcast a vertex-sized table to every executor: charges the wire
/// bytes and reserves the deserialized copy on each executor while the
/// returned guards live.
/// A broadcast handle: the deserialized map plus per-executor memory
/// reservations that release when dropped.
type Broadcast<'c, V> = (Arc<FxHashMap<u64, V>>, Vec<Reservation<'c>>);

fn broadcast<'c, V: Copy + Send + Sync + 'static>(
    cluster: &'c Arc<Cluster>,
    table: &Rdd<(u64, V)>,
    entry_bytes: u64,
) -> Result<Broadcast<'c, V>, DataflowError>
where
    (u64, V): psgraph_dataflow::Record,
{
    let vec = table.collect()?;
    let bytes = vec.len() as u64 * entry_bytes + 64;
    let mut guards = Vec::with_capacity(cluster.num_executors());
    for e in 0..cluster.num_executors() {
        let exec = cluster.executor(e);
        cluster.network().bulk_fetch(exec.clock(), bytes);
        guards.push(Reservation::new(exec.memory(), bytes).map_err(DataflowError::Oom)?);
    }
    Ok((Arc::new(vec.into_iter().collect()), guards))
}

/// Run on the (unweighted) graph with unit edge weights.
pub fn gx_fast_unfolding(
    gx: &GxGraph,
    max_passes: u64,
    max_sweeps: u64,
) -> Result<GxLouvainOutput, DataflowError> {
    let canon = gx.canonical_edges()?;
    let weighted = canon.map(|&(a, b)| (a, b, 1.0f64))?;
    gx_fast_unfolding_weighted(gx.cluster(), &weighted, gx.num_vertices, max_passes, max_sweeps)
}

/// Run on a weighted edge table (each undirected edge listed once).
pub fn gx_fast_unfolding_weighted(
    cluster: &Arc<Cluster>,
    edges: &Rdd<(u64, u64, f64)>,
    num_vertices: u64,
    max_passes: u64,
    max_sweeps: u64,
) -> Result<GxLouvainOutput, DataflowError> {
    let parts = edges.num_partitions();

    // Symmetric-directed representation: (src, (dst, w)).
    let mut graph = edges.flat_map(|&(s, d, w)| {
        if s == d {
            vec![(s, (s, 2.0 * w))]
        } else {
            vec![(s, (d, w)), (d, (s, w))]
        }
    })?;

    let two_m = graph.fold(0.0f64, |acc, &(_, (_, w))| acc + w)?;
    if two_m <= 0.0 {
        return Ok(GxLouvainOutput {
            communities: (0..num_vertices).collect(),
            modularity: 0.0,
        });
    }

    let mut assign: Vec<u64> = (0..num_vertices).collect();
    let mut best_q = f64::NEG_INFINITY;

    for pass in 0..max_passes {
        // Weighted degree table (vertex-sized, broadcast below).
        let ktab = graph
            .map(|&(s, (_, w))| (s, w))?
            .reduce_by_key(parts, |a, b| a + b)?;
        // Community assignment (identity at pass start).
        let mut v2c = ktab.map(|&(v, _)| (v, v))?;
        // Σtot per community.
        let mut com2weight = ktab.clone();

        for _sweep in 0..max_sweeps {
            let mut sweep_moves = 0usize;
            // Parity-alternated half-sweeps (oscillation guard).
            for parity in 0..2u64 {
                let (v2c_bc, _g1) = broadcast(cluster, &v2c, 16)?;
                let (ktab_bc, _g2) = broadcast(cluster, &ktab, 16)?;
                let (c2w_bc, _g3) = broadcast(cluster, &com2weight, 16)?;

                // k_in per (vertex, candidate community): map-side
                // combinable shuffle over the edge table.
                let kin = {
                    let v2c_map = Arc::clone(&v2c_bc);
                    let pairs = graph.flat_map(move |&(s, (d, w))| {
                        if s == d || s % 2 != parity {
                            vec![]
                        } else {
                            vec![((s, v2c_map[&d]), w)]
                        }
                    })?;
                    let own = v2c
                        .filter(move |&(v, _)| v % 2 == parity)?
                        .map(|&(v, c)| ((v, c), 0.0f64))?;
                    pairs.union(&own)?.reduce_by_key(parts, |a, b| a + b)?
                };

                // Score each candidate via the broadcast tables; keep the
                // best move per vertex.
                let best = {
                    let v2c_map = Arc::clone(&v2c_bc);
                    let ktab_map = Arc::clone(&ktab_bc);
                    let c2w_map = Arc::clone(&c2w_bc);
                    let scored = kin.map(move |&((v, c), kin_c)| {
                        let own = v2c_map[&v];
                        let k = ktab_map.get(&v).copied().unwrap_or(0.0);
                        let mut tot = c2w_map.get(&c).copied().unwrap_or(0.0);
                        if c == own {
                            tot -= k;
                        }
                        (v, (kin_c - tot * k / two_m, c))
                    })?;
                    scored.reduce_by_key(parts, |a, b| {
                        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                            *b
                        } else {
                            *a
                        }
                    })?
                };
                drop(kin);

                let v2c_map = Arc::clone(&v2c_bc);
                let moves = best
                    .filter(move |&(v, (_gain, c))| c != v2c_map[&v])?
                    .map(|&(v, (_gain, c))| (v, c))?;
                let n_moves = moves.count()?;
                sweep_moves += n_moves;
                drop(best);
                if n_moves == 0 {
                    continue;
                }
                // Apply moves: tagged union, keep the tagged (moved) value.
                // The shuffle's output is read only through the new
                // assignment: release it, keeping its lineage.
                let tagged_old = v2c.map(|&(v, c)| (v, (c, 0u64)))?;
                let tagged_new = moves.map(|&(v, c)| (v, (c, 1u64)))?;
                let applied = tagged_old
                    .union(&tagged_new)?
                    .reduce_by_key(parts, |a, b| if b.1 > a.1 { *b } else { *a })?;
                v2c = applied.map(|&(v, (c, _))| (v, c))?;
                applied.unpersist();
                // Recompute Σtot (vertex-sized shuffle via fresh broadcast).
                let (v2c_new, _g4) = broadcast(cluster, &v2c, 16)?;
                com2weight = ktab
                    .map(move |&(v, k)| (v2c_new[&v], k))?
                    .reduce_by_key(parts, |a, b| a + b)?;
            }
            if sweep_moves == 0 {
                break;
            }
        }

        // Pass modularity (broadcast v2c, stream the edge table).
        let (v2c_bc, _g) = broadcast(cluster, &v2c, 16)?;
        let v2c_map = Arc::clone(&v2c_bc);
        let intra = graph.fold(0.0f64, move |acc, &(s, (d, w))| {
            if v2c_map[&s] == v2c_map[&d] {
                acc + w
            } else {
                acc
            }
        })?;
        let sq_tot = com2weight
            .fold(0.0f64, |acc, &(_c, t)| acc + (t / two_m) * (t / two_m))?;
        let q = intra / two_m - sq_tot;

        let first_pass = best_q == f64::NEG_INFINITY;
        if first_pass || q > best_q {
            for a in assign.iter_mut() {
                if let Some(&c) = v2c_bc.get(a) {
                    *a = c;
                }
            }
        }
        let improved = first_pass || q > best_q + 1e-4;
        best_q = best_q.max(q);
        if !improved || pass + 1 == max_passes {
            break;
        }

        // Aggregation: contract communities (broadcast v2c over the edge
        // table, then one shuffle).
        let v2c_map = Arc::clone(&v2c_bc);
        let contracted = graph.map(move |&(s, (d, w))| ((v2c_map[&s], v2c_map[&d]), w))?;
        let merged = contracted.reduce_by_key(parts, |a, b| a + b)?;
        graph = merged.map(|&((s, d), w)| (s, (d, w)))?;
        merged.unpersist();
    }

    Ok(GxLouvainOutput { communities: assign, modularity: best_q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_graph::{gen, metrics, EdgeList, WeightedEdgeList};

    fn run(g: &EdgeList) -> GxLouvainOutput {
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, g, 8).unwrap();
        gx_fast_unfolding(&gx, 5, 10).unwrap()
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
        let out = run(&EdgeList::new(10, edges));
        for v in 1..5 {
            assert_eq!(out.communities[v], out.communities[0]);
        }
        for v in 6..10 {
            assert_eq!(out.communities[v], out.communities[5]);
        }
        assert_ne!(out.communities[0], out.communities[5]);
        assert!(out.modularity > 0.3, "Q = {}", out.modularity);
    }

    #[test]
    fn reported_modularity_matches_reference() {
        let s = gen::sbm2(60, 8.0, 0.5, 2, 0.1, 109);
        let mut canon: Vec<(u64, u64)> = s
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let g = EdgeList::new(60, canon.clone());
        let out = run(&g);
        let w = WeightedEdgeList::new(60, canon.iter().map(|&(a, b)| (a, b, 1.0)).collect());
        let q_ref = metrics::modularity(&w, &out.communities);
        assert!(
            (out.modularity - q_ref).abs() < 1e-9,
            "reported {} vs reference {}",
            out.modularity,
            q_ref
        );
        assert!(out.modularity > 0.2);
    }

    #[test]
    fn sbm_partition_recovered() {
        let s = gen::sbm2(80, 10.0, 0.3, 2, 0.1, 113);
        let mut canon: Vec<(u64, u64)> = s
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let out = run(&EdgeList::new(80, canon));
        let mut agree = 0;
        for v in 0..40 {
            for u in 0..40 {
                if out.communities[v] == out.communities[u] {
                    agree += 1;
                }
            }
        }
        assert!(agree > 800, "coherence {agree}/1600");
    }

    #[test]
    fn empty_graph_is_trivial() {
        let c = Cluster::local();
        let rdd: Rdd<(u64, u64, f64)> = Rdd::from_vec(&c, vec![], 2).unwrap();
        let out = gx_fast_unfolding_weighted(&c, &rdd, 4, 3, 3).unwrap();
        assert_eq!(out.communities, vec![0, 1, 2, 3]);
        assert_eq!(out.modularity, 0.0);
    }

    #[test]
    fn broadcast_charges_time_and_memory_guard() {
        let c = Cluster::local();
        let table = Rdd::from_vec(&c, (0..1000u64).map(|v| (v, v)).collect(), 4).unwrap();
        let t_before = c.executor(0).clock().now();
        let m_before = c.executor(0).memory().in_use();
        let (map, guards) = broadcast(&c, &table, 16).unwrap();
        assert_eq!(map.len(), 1000);
        assert_eq!(guards.len(), c.num_executors());
        assert!(c.executor(0).clock().now() > t_before);
        assert!(c.executor(0).memory().in_use() >= m_before + 16_000);
        drop(guards);
        assert_eq!(c.executor(0).memory().in_use(), m_before);
    }
}
