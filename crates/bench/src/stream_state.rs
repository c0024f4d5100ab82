//! What the two streaming drivers (`repro -- stream`, `repro -- chaos`)
//! both need of the PS-resident stream state: the swap-time truth served
//! answers are verified against, and the bit-exact capture of the final
//! state that runs are compared by.

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank, PrState};
use psgraph_core::CoreError;
use psgraph_ps::{NeighborTableHandle, VectorHandle};
use psgraph_serve::{GraphTruth, Query, Value};
use psgraph_sim::{NodeClock, SimTime};

/// The PS state at the instant of the last publish — what the serving
/// tier must answer with until the next swap.
pub(crate) struct Mirror {
    ranks: Vec<f64>,
    pub(crate) labels: Vec<u64>,
    adj: Vec<Vec<u64>>,
}

impl Mirror {
    pub(crate) fn capture(
        client: &NodeClock,
        adjacency: &NeighborTableHandle,
        pr: &IncrementalPageRank,
        st: &PrState,
        cc: &IncrementalCc,
        n: u64,
    ) -> Result<Mirror, CoreError> {
        let ranks = pr.ranks(st, client)?;
        let ids: Vec<u64> = (0..n).collect();
        let adj = adjacency.pull(client, &ids)?.into_iter().map(|l| l.to_vec()).collect();
        Ok(Mirror { ranks, labels: cc.labels().to_vec(), adj })
    }

    /// The interpreter-ready view of the swap-time state (the stream
    /// publishes no embeddings, so compound plans score by rank).
    pub(crate) fn truth(&self, n: u64) -> GraphTruth {
        let mut t = GraphTruth::new(n);
        t.ranks = Some(self.ranks.clone());
        t.communities = Some(self.labels.clone());
        t.adjacency = Some(self.adj.clone());
        t
    }

    /// Does `value` answer the point lookup `query` bit-exactly?
    pub(crate) fn answers(&self, query: &Query, value: &Value) -> bool {
        match (query, value) {
            (Query::Rank(v), Value::Rank(r)) => r.to_bits() == self.ranks[*v as usize].to_bits(),
            (Query::Community(v), Value::Community(c)) => *c == self.labels[*v as usize],
            (Query::Neighbors(v), Value::Neighbors(ns)) => ns == &self.adj[*v as usize],
            _ => false,
        }
    }
}

/// Bit-exact capture of the PS-resident stream state. Two runs produced
/// identical state iff their fingerprints are equal.
#[derive(PartialEq, Eq)]
pub(crate) struct Fingerprint {
    rank_bits: Vec<u64>,
    labels: Vec<u64>,
    degree_bits: Vec<u64>,
    adjacency: Vec<Vec<u64>>,
    watermark: SimTime,
}

impl Fingerprint {
    pub(crate) fn capture(
        client: &NodeClock,
        adjacency: &NeighborTableHandle,
        degrees: &VectorHandle<f64>,
        ranks: &[f64],
        labels: &[u64],
        watermark: SimTime,
        n: u64,
    ) -> Result<Fingerprint, CoreError> {
        let ids: Vec<u64> = (0..n).collect();
        Ok(Fingerprint {
            rank_bits: ranks.iter().map(|r| r.to_bits()).collect(),
            labels: labels.to_vec(),
            degree_bits: degrees.pull(client, &ids)?.iter().map(|d| d.to_bits()).collect(),
            adjacency: adjacency.pull(client, &ids)?.into_iter().map(|l| l.to_vec()).collect(),
            watermark,
        })
    }

    /// FNV-1a fold of the table content, for printing: adjacency lists
    /// (length + neighbors per source, in source order), degree bits,
    /// rank bits, component labels. The watermark is reported on its own
    /// row and is not folded in.
    pub(crate) fn digest(&self) -> u64 {
        let lists = self.adjacency.iter().flat_map(|l| {
            std::iter::once(l.len() as u64).chain(l.iter().copied())
        });
        crate::report::fnv(
            lists
                .chain(self.degree_bits.iter().copied())
                .chain(self.rank_bits.iter().copied())
                .chain(self.labels.iter().copied()),
        )
    }
}
