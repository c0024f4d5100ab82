//! Hooks from trained algorithm outputs into the query interpreter.
//!
//! Training leaves plain arrays behind (ranks, labels, embeddings, edge
//! lists); the single-node oracle in `psgraph_query` wants a
//! [`GraphTruth`], whose fields take the arrays as they are.
//! [`out_adjacency`] bridges the one that differs, normalizing an edge
//! list into the sorted, deduplicated out-adjacency the CSR snapshot
//! stores — so interpreter answers are the serving-tier truth bit for
//! bit.

pub use psgraph_query::{GraphTruth, Interpreter, PlanOutput};

/// Sorted, deduplicated out-adjacency — exactly what the CSR snapshot
/// stores, so plan execution over it matches the serving tier.
pub fn out_adjacency(edges: &[(u64, u64)], n: u64) -> Vec<Vec<u64>> {
    let mut adj = vec![Vec::new(); n as usize];
    for &(s, d) in edges {
        adj[s as usize].push(d);
    }
    for ns in &mut adj {
        ns.sort_unstable();
        ns.dedup();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_query::Plan;

    #[test]
    fn normalized_edges_feed_the_interpreter() {
        let edges = [(0u64, 2u64), (0, 1), (0, 2), (1, 3), (3, 0)];
        let truth = GraphTruth { adjacency: Some(out_adjacency(&edges, 4)), ..GraphTruth::new(4) };
        assert_eq!(truth.adjacency.as_ref().unwrap()[0], vec![1, 2], "sorted + deduped");
        let out = Interpreter::new(&truth, 1).run(&Plan::khop(0, 2)).unwrap();
        assert_eq!(out, PlanOutput::Vertices(vec![1, 2, 3]));
    }
}
