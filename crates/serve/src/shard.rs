//! Read shards: immutable slices of a PS snapshot, and the replicas that
//! serve them.
//!
//! Vertex-keyed objects (ranks, communities, adjacency) are
//! range-partitioned by vertex across shards. Embedding matrices are
//! partitioned by *column* — every shard holds all rows of its column
//! slice, mirroring the psFunc layout that lets a shard compute partial
//! dot products server-side so only scalars cross the network (paper
//! §IV-D). A replica is one serving copy of a shard: an RPC port, an
//! aliveness flag, and a bounded queue of in-flight completions that the
//! router and the admission controller read as its load.

use psgraph_net::{Mailbox, NodeId, ServicePort};
use psgraph_query::exec::dot_partial;
use psgraph_sim::sync::RwLock;
use psgraph_sim::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{Result, ServeError};

// Partition arithmetic lives in the query crate (the planner and the
// interpreter need the same tiling); re-exported here so existing
// `crate::shard::owner_of` call sites keep working.
pub use psgraph_query::part::{col_range, owner_of, vertex_range};

/// Placement of one shard within the serving tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    pub num_shards: usize,
    pub shard: usize,
    pub vertex_lo: u64,
    pub vertex_hi: u64,
    pub col_lo: usize,
    pub col_hi: usize,
}

impl ShardSpec {
    pub(crate) fn owns_vertex(&self, v: u64) -> bool {
        (self.vertex_lo..self.vertex_hi).contains(&v)
    }

    pub(crate) fn col_width(&self) -> usize {
        self.col_hi - self.col_lo
    }
}

/// CSR adjacency for this shard's local vertex range.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    /// `vertex_hi - vertex_lo + 1` offsets into `targets`.
    pub offsets: Vec<u64>,
    pub targets: Vec<u64>,
}

/// All rows × this shard's column slice of an embedding matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedSlice {
    pub rows: u64,
    pub width: usize,
    /// Row-major `rows × width`.
    pub data: Vec<f32>,
}

impl EmbedSlice {
    pub fn row(&self, r: u64) -> &[f32] {
        &self.data[r as usize * self.width..(r as usize + 1) * self.width]
    }
}

/// The immutable data one shard serves. Any field may be absent when the
/// snapshot did not include that object.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardData {
    pub spec: ShardSpec,
    /// Ranks for `[vertex_lo, vertex_hi)`.
    pub ranks: Option<Vec<f64>>,
    /// Community / label ids for `[vertex_lo, vertex_hi)`.
    pub communities: Option<Vec<u64>>,
    /// Out-adjacency for `[vertex_lo, vertex_hi)`.
    pub adjacency: Option<Adjacency>,
    /// Column slice `[col_lo, col_hi)` of every embedding row.
    pub embed: Option<EmbedSlice>,
    /// *Full* embedding rows for `[vertex_lo, vertex_hi)` — the row-major
    /// dual of `embed`, sized `(vertex_hi - vertex_lo) × total_cols`. Lets
    /// the shard score its whole vertex range against a query row locally
    /// (cross-shard scatter-gather top-k) without touching other shards.
    pub embed_rows: Option<EmbedSlice>,
}

impl ShardData {
    /// A shard with no objects — useful for routing/load tests.
    pub fn empty(spec: ShardSpec) -> Self {
        ShardData {
            spec,
            ranks: None,
            communities: None,
            adjacency: None,
            embed: None,
            embed_rows: None,
        }
    }

    fn local(&self, v: u64) -> Result<usize> {
        if self.spec.owns_vertex(v) {
            Ok((v - self.spec.vertex_lo) as usize)
        } else {
            Err(ServeError::BadQuery(format!(
                "vertex {v} not owned by shard {}",
                self.spec.shard
            )))
        }
    }

    pub fn rank(&self, v: u64) -> Result<f64> {
        let i = self.local(v)?;
        let ranks = self
            .ranks
            .as_ref()
            .ok_or_else(|| ServeError::BadQuery("shard serves no ranks".into()))?;
        Ok(ranks[i])
    }

    pub fn community(&self, v: u64) -> Result<u64> {
        let i = self.local(v)?;
        let coms = self
            .communities
            .as_ref()
            .ok_or_else(|| ServeError::BadQuery("shard serves no communities".into()))?;
        Ok(coms[i])
    }

    pub fn neighbors(&self, v: u64) -> Result<&[u64]> {
        let i = self.local(v)?;
        let adj = self
            .adjacency
            .as_ref()
            .ok_or_else(|| ServeError::BadQuery("shard serves no adjacency".into()))?;
        Ok(&adj.targets[adj.offsets[i] as usize..adj.offsets[i + 1] as usize])
    }

    /// This shard's column slice of row `v` (any vertex, not just local —
    /// embeddings are column-partitioned).
    pub(crate) fn embed_cols(&self, v: u64) -> Result<&[f32]> {
        let embed = self
            .embed
            .as_ref()
            .ok_or_else(|| ServeError::BadQuery("shard serves no embeddings".into()))?;
        if v >= embed.rows {
            return Err(ServeError::BadQuery(format!("embedding row {v} out of range")));
        }
        Ok(embed.row(v))
    }

    /// Partial dot products `⟨v, c⟩` over this shard's columns for each
    /// candidate ([`psgraph_query::exec::dot_partial`]) — the serving
    /// analogue of the psFunc `dot_pairs`.
    pub(crate) fn partial_dots(&self, v: u64, candidates: &[u64]) -> Result<Vec<f64>> {
        let row_v = self.embed_cols(v)?;
        candidates.iter().map(|&c| Ok(dot_partial(row_v, self.embed_cols(c)?))).collect()
    }

    /// Statistics the cost-based planner reads to choose pushdown cuts.
    pub fn stats(&self) -> psgraph_query::ShardStats {
        let rows = self.spec.vertex_hi - self.spec.vertex_lo;
        let (rank_lo, rank_hi) = match &self.ranks {
            Some(r) if !r.is_empty() => {
                r.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                })
            }
            _ => (0.0, 0.0),
        };
        let distinct_communities = match &self.communities {
            Some(c) => {
                let mut labels = c.clone();
                labels.sort_unstable();
                labels.dedup();
                labels.len() as u64
            }
            None => 0,
        };
        psgraph_query::ShardStats {
            rows,
            edges: self.adjacency.as_ref().map_or(0, |a| a.targets.len() as u64),
            has_ranks: self.ranks.is_some(),
            rank_lo,
            rank_hi,
            has_communities: self.communities.is_some(),
            distinct_communities,
            has_embed: self.embed_rows.is_some(),
            dim: self.embed_rows.as_ref().map_or(0, |e| e.width),
        }
    }
}

/// The pushed-stage kernel reads shards through this view: `None` for
/// absent objects or vertices outside the shard's range, exactly as the
/// interpreter's truth arrays answer out-of-range ids — so shard-side
/// evaluation errors match the single-node oracle error for error.
impl psgraph_query::VertexView for ShardData {
    fn rank(&self, v: u64) -> Option<f64> {
        let r = self.ranks.as_ref()?;
        self.spec.owns_vertex(v).then(|| r[(v - self.spec.vertex_lo) as usize])
    }

    fn community(&self, v: u64) -> Option<u64> {
        let c = self.communities.as_ref()?;
        self.spec.owns_vertex(v).then(|| c[(v - self.spec.vertex_lo) as usize])
    }

    fn degree(&self, v: u64) -> Option<usize> {
        let adj = self.adjacency.as_ref()?;
        if !self.spec.owns_vertex(v) {
            return None;
        }
        let i = (v - self.spec.vertex_lo) as usize;
        Some((adj.offsets[i + 1] - adj.offsets[i]) as usize)
    }

    fn embed_row(&self, v: u64) -> Option<&[f32]> {
        let rows = self.embed_rows.as_ref()?;
        self.spec.owns_vertex(v).then(|| rows.row(v - self.spec.vertex_lo))
    }
}

/// A query against the served snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// PageRank score of a vertex.
    Rank(u64),
    /// Community / label id of a vertex.
    Community(u64),
    /// Full embedding row of a vertex (gathered across column shards).
    Embedding(u64),
    /// Out-neighbors of a vertex.
    Neighbors(u64),
    /// All vertices within `hops` hops (excluding the start).
    KHop { v: u64, hops: u32 },
    /// Top-`k` vertices by embedding dot product with `v`, drawn from
    /// `v`'s 2-hop neighborhood.
    TopK { v: u64, k: usize },
    /// Top-`k` vertices by embedding dot product with `v` over *all*
    /// vertices: each shard scores its own vertex range (scatter) and the
    /// frontend merges the per-shard partial top-k lists (gather).
    TopKAll { v: u64, k: usize },
}

impl Query {
    /// The vertex the query is keyed on.
    pub fn vertex(&self) -> u64 {
        match *self {
            Query::Rank(v)
            | Query::Community(v)
            | Query::Embedding(v)
            | Query::Neighbors(v)
            | Query::KHop { v, .. }
            | Query::TopK { v, .. }
            | Query::TopKAll { v, .. } => v,
        }
    }
}

/// A query answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Rank(f64),
    Community(u64),
    Embedding(Vec<f32>),
    Neighbors(Vec<u64>),
    /// Sorted vertex set (k-hop result).
    Vertices(Vec<u64>),
    /// `(vertex, score)` descending by score (top-k result).
    Ranked(Vec<(u64, f64)>),
}

impl Value {
    /// Approximate footprint for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        let payload = match self {
            Value::Rank(_) | Value::Community(_) => 8,
            Value::Embedding(v) => v.len() * 4,
            Value::Neighbors(v) | Value::Vertices(v) => v.len() * 8,
            Value::Ranked(v) => v.len() * 16,
        };
        payload as u64 + 24
    }
}

/// One serving copy of a shard.
#[derive(Debug)]
pub struct Replica {
    shard: usize,
    index: usize,
    global_id: usize,
    /// The snapshot slice being served. Swapped atomically by
    /// [`Replica::install`] during a delta hot-swap; queries clone the
    /// `Arc` so an in-flight read keeps its version to completion.
    data: RwLock<Arc<ShardData>>,
    port: ServicePort,
    alive: AtomicBool,
    /// Completion times of in-flight queries; bounded, so its occupancy is
    /// the replica's queue depth.
    pending: Mailbox<SimTime>,
}

impl Replica {
    pub fn new(
        shard: usize,
        index: usize,
        global_id: usize,
        data: Arc<ShardData>,
        queue_depth: usize,
    ) -> Arc<Self> {
        Arc::new(Replica {
            shard,
            index,
            global_id,
            data: RwLock::new(data),
            port: ServicePort::new(NodeId::Replica(global_id)),
            alive: AtomicBool::new(true),
            pending: Mailbox::bounded(queue_depth.max(1)),
        })
    }

    pub fn shard(&self) -> usize {
        self.shard
    }

    pub fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn global_id(&self) -> usize {
        self.global_id
    }

    pub fn data(&self) -> Arc<ShardData> {
        self.data.read().clone()
    }

    /// Atomically replace the served slice (delta hot-swap). Dead replicas
    /// accept installs too — they must rejoin with current data.
    pub fn install(&self, data: Arc<ShardData>) {
        *self.data.write() = data;
    }

    pub fn port(&self) -> &ServicePort {
        &self.port
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Take the replica out of service. Returns whether it was alive.
    pub fn kill(&self) -> bool {
        self.alive.swap(false, Ordering::AcqRel)
    }

    /// Bring the replica back into service with an empty queue (a restarted
    /// process holds no in-flight work). Returns whether it was dead.
    pub(crate) fn revive(&self) -> bool {
        let _ = self.pending.drain();
        !self.alive.swap(true, Ordering::AcqRel)
    }

    /// In-flight queries still unfinished at `now`: drops completions that
    /// are in the past and reports how many remain.
    pub(crate) fn load_at(&self, now: SimTime) -> usize {
        let mut remaining = 0;
        for m in self.pending.drain() {
            if m.payload > now && self.pending.try_post(m.from, m.sent_at, m.payload) {
                remaining += 1;
            }
        }
        remaining
    }

    /// Record a query that will complete at `done`. Returns `false` when
    /// the queue is saturated (the entry is dropped — load is then
    /// undercounted, which only makes admission control conservative
    /// later, never wrong).
    pub fn record_completion(&self, arrival: SimTime, done: SimTime) -> bool {
        self.pending.try_post(NodeId::Replica(self.global_id), arrival, done)
    }

    /// Admission counters of the completion queue. `dropped` counts
    /// saturated [`Replica::record_completion`] calls — silent
    /// load-undercounting made observable ([`crate::LoadReport`] carries
    /// the per-run deltas).
    pub fn queue_counters(&self) -> psgraph_net::MailboxCounters {
        self.pending.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn spec2(shard: usize) -> ShardSpec {
        ShardSpec {
            num_shards: 2,
            shard,
            vertex_lo: if shard == 0 { 0 } else { 5 },
            vertex_hi: if shard == 0 { 5 } else { 10 },
            col_lo: shard * 2,
            col_hi: shard * 2 + 2,
        }
    }

    fn data0() -> ShardData {
        ShardData {
            spec: spec2(0),
            ranks: Some(vec![0.5, 0.4, 0.3, 0.2, 0.1]),
            communities: Some(vec![7, 7, 8, 8, 9]),
            adjacency: Some(Adjacency {
                offsets: vec![0, 2, 2, 3, 3, 3],
                targets: vec![1, 9, 4],
            }),
            embed: Some(EmbedSlice {
                rows: 10,
                width: 2,
                data: (0..20).map(|i| i as f32).collect(),
            }),
            // Full 4-dim rows for the 5 local vertices: row v = [v, v, v, v].
            embed_rows: Some(EmbedSlice {
                rows: 5,
                width: 4,
                data: (0..5).flat_map(|v| [v as f32; 4]).collect(),
            }),
        }
    }

    #[test]
    fn shard_math_partitions_exactly() {
        let n = 10u64;
        for v in 0..n {
            let s = owner_of(v, n, 3);
            let (lo, hi) = vertex_range(s, n, 3);
            assert!((lo..hi).contains(&v), "v={v} s={s} range=({lo},{hi})");
        }
        // Ranges tile [0, n).
        let mut covered = 0;
        for s in 0..3 {
            let (lo, hi) = vertex_range(s, n, 3);
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, n);
        // Columns tile too, even when shards > cols.
        let mut c = 0;
        for s in 0..5 {
            let (lo, hi) = col_range(s, 3, 5);
            assert_eq!(lo, c);
            c = hi;
        }
        assert_eq!(c, 3);
    }

    #[test]
    fn point_lookups_hit_local_data() {
        let d = data0();
        assert_eq!(d.rank(2).unwrap(), 0.3);
        assert_eq!(d.community(4).unwrap(), 9);
        assert_eq!(d.neighbors(0).unwrap(), &[1, 9]);
        assert_eq!(d.neighbors(1).unwrap(), &[] as &[u64]);
        assert!(d.rank(7).is_err(), "not owned");
        // Embeddings answer for any row (column partitioned).
        assert_eq!(d.embed_cols(9).unwrap(), &[18.0, 19.0]);
        let dots = d.partial_dots(0, &[1, 9]).unwrap();
        assert_eq!(dots, vec![0.0 * 2.0 + 1.0 * 3.0, 0.0 * 18.0 + 1.0 * 19.0]);
    }

    #[test]
    fn replica_load_tracks_unfinished_completions() {
        let r = Replica::new(0, 0, 0, Arc::new(ShardData::empty(spec2(0))), 4);
        assert!(r.is_alive());
        assert!(r.record_completion(SimTime::ZERO, SimTime::from_secs(2)));
        assert!(r.record_completion(SimTime::ZERO, SimTime::from_secs(4)));
        assert_eq!(r.load_at(SimTime::from_secs(1)), 2);
        assert_eq!(r.load_at(SimTime::from_secs(3)), 1);
        assert_eq!(r.load_at(SimTime::from_secs(5)), 0);
        assert!(r.kill());
        assert!(!r.kill(), "second kill reports already dead");
        assert!(!r.is_alive());
    }

    #[test]
    fn install_swaps_data_and_revive_clears_queue() {
        let r = Replica::new(0, 0, 0, Arc::new(data0()), 4);
        // An in-flight query holds the old version across a swap.
        let held = r.data();
        let mut swapped = data0();
        swapped.ranks = Some(vec![9.0, 9.0, 9.0, 9.0, 9.0]);
        r.install(Arc::new(swapped));
        assert_eq!(held.rank(0).unwrap(), 0.5);
        assert_eq!(r.data().rank(0).unwrap(), 9.0);

        assert!(r.record_completion(SimTime::ZERO, SimTime::from_secs(100)));
        assert!(r.kill());
        assert!(r.revive(), "revive reports it was dead");
        assert!(!r.revive(), "second revive is a no-op");
        assert!(r.is_alive());
        assert_eq!(r.load_at(SimTime::ZERO), 0, "restart clears in-flight work");
    }
}
