//! GraphX K-core: h-index iteration expressed as joins.
//!
//! Every superstep ships one message per (undirected) edge through the
//! shuffle and then **groups all neighbor estimates per vertex** — an
//! edge-sized `Vec`-of-values intermediate that must fit in executor
//! memory. On skewed graphs the hub vertices' groups are enormous; this is
//! the structural reason GraphX OOMs on K-Core in Fig. 6 while PSGraph
//! (which pulls neighbor values from the PS in streamed batches) does not.
//! The coreness table keeps its lineage: a narrow map of the grouped join,
//! it pins that join's output (edge-sized, boxed values) until the next
//! superstep's table replaces it, and nothing older.

use psgraph_dataflow::DataflowError;
use psgraph_graph::metrics::h_index;

use crate::graph::GxGraph;

/// Compute coreness for every vertex (vertices absent from the edge table
/// get coreness 0). Returns dense `(vertex, coreness)` pairs.
pub fn gx_kcore(gx: &GxGraph, max_iterations: u64) -> Result<Vec<(u64, u64)>, DataflowError> {
    let parts = gx.edges.num_partitions();
    let und = gx.undirected_edges()?;

    // cores init = undirected degree.
    let ones = und.map(|&(s, _)| (s, 1u64))?;
    let mut cores = ones.reduce_by_key(parts, |a, b| a + b)?;

    for _ in 0..max_iterations {
        // Message per edge: (dst, core[src]) — join + shuffle.
        let msgs = und
            .join(&cores, parts)?
            .map(|&(_src, (dst, core))| (dst, core))?;
        // THE expensive step: group all neighbor estimates per vertex.
        let grouped = msgs.group_by_key(parts)?;
        let new_cores = grouped
            .join(&cores, parts)?
            .map(|(v, (nvals, own))| (*v, h_index(nvals, &mut Vec::new()).min(*own)))?;
        // Converged?
        let changed = new_cores
            .join(&cores, parts)?
            .filter(|&(_, (new, old))| new != old)?
            .count()?;
        cores = new_cores;
        if changed == 0 {
            break;
        }
    }

    let sparse = cores.collect()?;
    let mut dense: Vec<(u64, u64)> = (0..gx.num_vertices).map(|v| (v, 0)).collect();
    for (v, c) in sparse {
        dense[v as usize].1 = c;
    }
    Ok(dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dataflow::{Cluster, ClusterConfig};
    use psgraph_graph::{gen, metrics, EdgeList};

    fn run(g: &EdgeList) -> Vec<u64> {
        let c = Cluster::local();
        let gx = GxGraph::from_edgelist(&c, g, 8).unwrap();
        gx_kcore(&gx, 100).unwrap().into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn clique_with_tail() {
        let mut edges = gen::complete(5).into_edges();
        edges.push((4, 5));
        let g = EdgeList::new(6, edges);
        assert_eq!(run(&g), metrics::kcore_exact(&g));
    }

    #[test]
    fn matches_exact_on_random_graph() {
        let g = gen::erdos_renyi(40, 220, 71).dedup();
        assert_eq!(run(&g), metrics::kcore_exact(&g));
    }

    #[test]
    fn matches_exact_on_powerlaw_graph() {
        let g = gen::rmat(50, 350, Default::default(), 73).dedup();
        assert_eq!(run(&g), metrics::kcore_exact(&g));
    }

    #[test]
    fn ooms_on_tight_memory_budget() {
        // A hub-heavy graph with GraphX-style grouping must exceed a small
        // executor budget — the Fig. 6 K-Core OOM in miniature.
        let g = gen::rmat(2000, 40_000, Default::default(), 79);
        let cfg = ClusterConfig::default().with_memory(256 << 10);
        let c = Cluster::new(cfg);
        let gx = GxGraph::from_edgelist(&c, &g, 8);
        let err = match gx {
            Err(e) => e,
            Ok(gx) => match gx_kcore(&gx, 10) {
                Err(e) => e,
                Ok(_) => panic!("expected OOM"),
            },
        };
        assert!(matches!(err, DataflowError::Oom(_)), "got {err}");
    }
}
