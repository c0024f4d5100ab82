//! A generic Pregel driver on the join-based engine — GraphX's
//! `Pregel`/`aggregateMessages` programming model (paper §II-C
//! "vertex-centric").
//!
//! Each superstep: (1) join the edge table against the vertex-state table
//! to form triplets, (2) emit messages along edges, (3) combine messages
//! per destination (map-side combinable), (4) join the combined messages
//! back into the vertex table and apply the vertex program. State carries
//! per-superstep through shuffles exactly as GraphX does, and keeps its
//! lineage: the state table is a narrow map of the merge shuffle, so it
//! pins only that shuffle's output, and a lost partition replays the
//! shuffle's retained files.

use psgraph_dataflow::{DataflowError, Rdd, Record};
use std::sync::Arc;

use crate::graph::GxGraph;

/// Run a Pregel computation over `u64`-keyed vertex states of type `S`
/// with messages of type `M`.
///
/// * `initial` — the starting vertex-state table.
/// * `send` — per-triplet message: `(src, src_state, dst) → Option<M>`.
/// * `combine` — commutative/associative message combiner.
/// * `apply` — vertex program: `(vertex, old_state, combined_msg) → new
///   state`; vertices with no incoming message keep their state.
///
/// Runs until no vertex state changes (`S: PartialEq`) or `max_supersteps`.
#[allow(clippy::too_many_arguments)]
pub fn pregel<S, M>(
    gx: &GxGraph,
    initial: Rdd<(u64, S)>,
    send: impl Fn(u64, &S, u64) -> Option<M> + Send + Sync + 'static,
    combine: impl Fn(&M, &M) -> M + Send + Sync + 'static,
    apply: impl Fn(u64, &S, &M) -> S + Send + Sync + 'static,
    max_supersteps: u64,
) -> Result<Rdd<(u64, S)>, DataflowError>
where
    S: Record + PartialEq,
    M: Record,
{
    let parts = gx.edges.num_partitions();
    let send = Arc::new(send);
    let combine = Arc::new(combine);
    let apply = Arc::new(apply);
    let mut states = initial;

    for _ in 0..max_supersteps {
        // Triplets + messages, pipelined into the combine shuffle.
        let send2 = Arc::clone(&send);
        let combine2 = Arc::clone(&combine);
        let msgs = {
            let triplets = gx.edges.join(&states, parts)?; // (src, (dst, state))
            triplets.flat_map_reduce_by_key(
                parts,
                move |&(src, (dst, ref state)), out| {
                    if let Some(m) = send2(src, state, dst) {
                        out.push((dst, m));
                    }
                },
                move |a, b| combine2(a, b),
            )?
        };

        // Apply: join messages into the state table; count changes.
        let apply2 = Arc::clone(&apply);
        let updated = states
            .join(&msgs, parts)?
            .map(move |&(v, (ref old, ref msg))| {
                let new = apply2(v, old, msg);
                let changed = new != *old;
                (v, (new, changed))
            })?;
        let changes = updated.filter(|&(_, (_, changed))| changed)?.count()?;

        // Vertices without messages keep their state (outer-join union).
        let kept = states.map(|&(v, ref s)| (v, (s.clone(), false)))?;
        let merged = kept
            .union(&updated.map(|&(v, (ref s, _))| (v, (s.clone(), true)))?)?
            .reduce_by_key(parts, |a, b| if b.1 { b.clone() } else { a.clone() })?;
        states = merged.map(|&(v, (ref s, _))| (v, s.clone()))?;

        if changes == 0 {
            break;
        }
    }
    Ok(states)
}

/// Connected components via Pregel: propagate the minimum reachable id.
pub fn gx_connected_components(
    gx: &GxGraph,
    max_supersteps: u64,
) -> Result<Vec<u64>, DataflowError> {
    let parts = gx.edges.num_partitions();
    let und = gx.undirected_edges()?;
    let sym = GxGraph::from_rdd(gx.cluster(), und, gx.num_vertices);
    let initial = Rdd::from_vec(
        gx.cluster(),
        (0..gx.num_vertices).map(|v| (v, v)).collect(),
        parts,
    )?;
    let out = pregel(
        &sym,
        initial,
        |_src, &label, _dst| Some(label),
        |a, b| *a.min(b),
        |_v, &old, &msg| old.min(msg),
        max_supersteps,
    )?;
    let mut dense = vec![0u64; gx.num_vertices as usize];
    for (v, label) in out.collect()? {
        dense[v as usize] = label;
    }
    Ok(dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::Cluster;
    use psgraph_graph::{gen, metrics, EdgeList};

    #[test]
    fn connected_components_two_islands() {
        let c = Cluster::local();
        let g = EdgeList::new(7, vec![(0, 1), (1, 2), (4, 5)]);
        let gx = GxGraph::from_edgelist(&c, &g, 4).unwrap();
        let cc = gx_connected_components(&gx, 20).unwrap();
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[1], cc[2]);
        assert_eq!(cc[4], cc[5]);
        assert_ne!(cc[0], cc[4]);
        assert_eq!(cc[3], 3, "isolated vertex keeps its id");
        assert_eq!(cc[6], 6);
    }

    #[test]
    fn connected_components_match_reference() {
        let c = Cluster::local();
        let g = gen::rmat(60, 150, Default::default(), 301).dedup();
        let gx = GxGraph::from_edgelist(&c, &g, 8).unwrap();
        let ours = gx_connected_components(&gx, 64).unwrap();
        let reference = metrics::connected_components(&g);
        // Same partition (component labels may differ; compare structure).
        for a in 0..60usize {
            for b in 0..60usize {
                assert_eq!(
                    ours[a] == ours[b],
                    reference[a] == reference[b],
                    "pair ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn pregel_pagerank_one_superstep_matches_manual() {
        // Sanity: a single superstep of "sum neighbor contributions".
        let c = Cluster::local();
        let g = EdgeList::new(3, vec![(0, 1), (0, 2), (1, 2)]);
        let gx = GxGraph::from_edgelist(&c, &g, 2).unwrap();
        let initial = Rdd::from_vec(
            &c,
            vec![(0u64, 1.0f64), (1, 1.0), (2, 1.0)],
            2,
        )
        .unwrap();
        let out = pregel(
            &gx,
            initial,
            |_src, &r, _dst| Some(r),
            |a, b| a + b,
            |_v, _old, &sum| sum,
            1,
        )
        .unwrap();
        let mut states = out.collect().unwrap();
        states.sort_by_key(|&(v, _)| v);
        assert_eq!(states[0], (0, 1.0), "no in-edges: unchanged");
        assert_eq!(states[1], (1, 1.0), "one in-edge from 0");
        assert_eq!(states[2], (2, 2.0), "in-edges from 0 and 1");
    }

    #[test]
    fn pregel_state_recovers_after_an_executor_restart() {
        // CC on a 64-ring needs 32 supersteps: 20 stop it mid-run.
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, &gen::ring(64), 4).unwrap();
        let sym = GxGraph::from_rdd(&c, gx.undirected_edges().unwrap(), gx.num_vertices);
        let initial = Rdd::from_vec(&c, (0..64u64).map(|v| (v, v)).collect(), 4).unwrap();
        let out = pregel(
            &sym,
            initial,
            |_src, &label, _dst| Some(label),
            |a, b| *a.min(b),
            |_v, &old, &msg| old.min(msg),
            20,
        )
        .unwrap();
        let before = out.collect().unwrap();
        assert!(before.iter().any(|&(_, label)| label != 0), "converged early");
        c.kill_executor(1);
        c.restart_executor(1);
        out.recover().unwrap();
        assert_eq!(out.collect().unwrap(), before);
    }

    #[test]
    fn pregel_stops_when_converged() {
        let c = Cluster::local();
        let g = gen::ring(8);
        let gx = GxGraph::from_edgelist(&c, &g, 4).unwrap();
        // CC on a ring converges in ≤ n supersteps; far fewer stages than
        // the cap implies if early-stop works.
        let before = c.stages_run();
        gx_connected_components(&gx, 1000).unwrap();
        let stages = c.stages_run() - before;
        assert!(stages < 300, "early stop expected, ran {stages} stages");
    }
}
