//! Server-resident neighbor tables (paper §III-A, §IV-B): the one PS
//! adjacency object — Common Neighbor, Triangle Count, GraphSage's
//! neighbor sampling and the streaming loop read it, and
//! [`DeltaWriter::neighbor_table`](crate::snapshot::DeltaWriter::neighbor_table)
//! exports it as the immutable CSR the serving tier loads. CSR exists only
//! where the adjacency no longer changes: the snapshot file and the serve
//! shard.
//!
//! Executors build `(src, Array[dst])` entries with `groupBy` and push
//! them to the PS; afterwards any executor can pull the adjacency of any
//! vertex without a shuffle.
//!
//! Entries are **mutable**: `update_edges` applies ordered add/remove
//! operations so a streaming ingestor (`psgraph-stream`) can evolve the
//! graph online. Removal is tombstone-based — the slot is overwritten
//! with a sentinel rather than shifting the list, and an entry compacts
//! once half its slots are dead. Because adds always append and
//! compaction preserves slot order, the *live* neighbor list is always
//! exactly "insertion order minus removed elements", independent of when
//! compaction runs.
//!
//! Requests are routed by `PsObject`; each keyed operation below is its
//! cost formula plus what it does to one partition.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{FxHashMap, NodeClock, Reader, SplitMix64};
use std::sync::Arc;

use crate::error::Result;
use crate::object::{each_partition, Partition, PsObject};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};

/// Sentinel marking a removed slot. Never a valid vertex id: every id is
/// bounds-checked against the table size before reaching a server.
pub const TOMBSTONE: u64 = u64::MAX;

/// One vertex's neighbor slots. `slots` holds neighbors in insertion
/// order with removed ones overwritten by [`TOMBSTONE`]; `dead` counts
/// them so live length and compaction are O(1) decisions.
#[derive(Debug, Clone, Default)]
pub struct NeighborEntry {
    slots: Arc<Vec<u64>>,
    dead: usize,
}

impl NeighborEntry {
    /// An entry holding `neighbors` as its live list.
    pub fn new(neighbors: Vec<u64>) -> Self {
        NeighborEntry { slots: Arc::new(neighbors), dead: 0 }
    }

    /// Live (non-tombstoned) neighbor count.
    pub fn live_len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// Total slots including tombstones (the memory footprint).
    pub fn slot_len(&self) -> usize {
        self.slots.len()
    }

    /// The live neighbor list, in insertion order. Cheap (an `Arc` clone)
    /// when the entry has no tombstones.
    pub fn live(&self) -> Arc<Vec<u64>> {
        if self.dead == 0 {
            Arc::clone(&self.slots)
        } else {
            Arc::new(self.slots.iter().copied().filter(|&s| s != TOMBSTONE).collect())
        }
    }

    /// Every slot in insertion order, [`TOMBSTONE`]s included — for
    /// server-side operators that walk the entry in place instead of
    /// materializing [`NeighborEntry::live`].
    pub(crate) fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Append `x` unless it is already a live neighbor. Returns whether
    /// the edge was added.
    pub fn add(&mut self, x: u64) -> bool {
        if self.slots.iter().any(|&s| s == x) {
            return false;
        }
        Arc::make_mut(&mut self.slots).push(x);
        true
    }

    /// Tombstone the slot holding `x` (if live), compacting once dead
    /// slots reach half the entry. Returns whether the edge was removed.
    pub fn remove(&mut self, x: u64) -> bool {
        let slots = Arc::make_mut(&mut self.slots);
        match slots.iter().position(|&s| s == x) {
            Some(i) => {
                slots[i] = TOMBSTONE;
                self.dead += 1;
                if self.dead * 2 >= slots.len() {
                    slots.retain(|&s| s != TOMBSTONE);
                    self.dead = 0;
                }
                true
            }
            None => false,
        }
    }
}

pub(crate) type TablePart = FxHashMap<u64, NeighborEntry>;

fn part_bytes(map: &TablePart) -> u64 {
    map.values().map(|e| 8 + 24 + e.slot_len() as u64 * 8)
        .sum::<u64>()
        + 48
}

fn encode_part(map: &TablePart) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u64_le(map.len() as u64);
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        // Checkpoints hold the live list only — tombstones are a
        // transient in-memory artifact, so restore implies compaction.
        let v = map[&k].live();
        buf.put_u64_le(k);
        buf.put_u64_le(v.len() as u64);
        for &n in v.iter() {
            buf.put_u64_le(n);
        }
    }
    buf
}

/// Inverse of [`encode_part`], under the [`Partition::decode`] contract.
fn decode_part(bytes: &[u8]) -> Result<TablePart> {
    Reader::decode(bytes, "neighbor-table checkpoint", |r| {
        // Every entry carries at least its 16-byte (vertex, length) header.
        let n = r.count::<u64>(16)?;
        let mut map = TablePart::default();
        map.reserve(n);
        for _ in 0..n {
            let k = r.get()?;
            let len = r.count::<u64>(8)?;
            if map.insert(k, NeighborEntry::new(r.vec(len)?)).is_some() {
                return Err(r.corrupt("vertex listed twice").into());
            }
        }
        Ok(map)
    })
}

impl Partition for TablePart {
    fn encode(&self) -> Vec<u8> {
        encode_part(self)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        decode_part(bytes)
    }

    fn approx_bytes(&self) -> u64 {
        part_bytes(self)
    }
}

/// Apply the ordered edge operations `ops[pos]`, `pos` in `positions`, to
/// one partition; returns how many adds and removes took effect.
fn apply_edge_ops(
    part: &mut TablePart,
    ops: &[(u64, u64, bool)],
    positions: &[usize],
) -> (usize, usize) {
    let (mut added, mut removed) = (0, 0);
    for &pos in positions {
        let (src, dst, add) = ops[pos];
        if add {
            added += part.entry(src).or_default().add(dst) as usize;
        } else if let Some(e) = part.get_mut(&src) {
            removed += e.remove(dst) as usize;
        }
    }
    (added, removed)
}

/// Client handle to a PS neighbor table.
#[derive(Debug, Clone)]
pub struct NeighborTableHandle {
    obj: PsObject,
}

impl NeighborTableHandle {
    /// Create an empty table over vertex ids `[0, num_vertices)`.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        num_vertices: u64,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let layout =
            PartitionLayout::new(partitioner, num_vertices, ps.num_servers(), ps.num_servers());
        let obj = PsObject::new(ps, name, layout);
        obj.install(recovery, |_| TablePart::default())?;
        Ok(NeighborTableHandle { obj })
    }

    pub fn name(&self) -> &str {
        &self.obj.name
    }

    pub fn num_vertices(&self) -> u64 {
        self.obj.layout.size
    }

    pub fn layout(&self) -> &PartitionLayout {
        &self.obj.layout
    }

    /// Push neighbor lists (replacing any existing entry for the vertex).
    /// Keys and neighbor ids are both bounds-checked.
    pub fn push(&self, client: &NodeClock, entries: &[(u64, Vec<u64>)]) -> Result<()> {
        let ids = || entries.iter().map(|(v, _)| *v);
        self.obj.check(ids())?;
        self.obj.check(entries.iter().flat_map(|(_, ns)| ns.iter().copied()))?;
        self.obj.scatter(client, ids().enumerate(), |server, _, parts| {
            let lens = || parts.iter().flat_map(|(_, at)| at).map(|&pos| entries[pos].1.len() as u64);
            let req_bytes = lens().map(|len| 16 + len * 8).sum();
            let items = lens().map(|len| len + 1).sum();
            for (p, positions) in &parts {
                self.obj.write(server, *p, |part: &mut TablePart| {
                    for &pos in positions {
                        let (v, ns) = &entries[pos];
                        part.insert(*v, NeighborEntry::new(ns.clone()));
                    }
                })?;
            }
            Ok((req_bytes, self.obj.item_ops(items), 8))
        })
    }

    /// Apply ordered edge mutations: `(src, dst, add)` adds `dst` to
    /// `src`'s list when `add` is true (skipping live duplicates) and
    /// tombstones it otherwise (skipping absent edges). Operation order
    /// is preserved *per source vertex* — all ops on a source land in its
    /// partition in input order — so add→remove→add sequences resolve the
    /// way a stream emitted them. Returns `(added, removed)` counts of
    /// the operations that took effect.
    pub fn update_edges(
        &self,
        client: &NodeClock,
        ops: &[(u64, u64, bool)],
    ) -> Result<(usize, usize)> {
        self.obj.check(ops.iter().flat_map(|&(src, dst, _)| [src, dst]))?;
        let (mut added, mut removed) = (0, 0);
        self.obj.scatter(client, ops.iter().map(|op| op.0).enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                let (a, r) = self.obj.write(server, p, |part: &mut TablePart| {
                    apply_edge_ops(part, ops, &positions)
                })?;
                added += a;
                removed += r;
            }
            Ok((n * 17, self.obj.item_ops(n), 16))
        })?;
        Ok((added, removed))
    }

    /// Apply several writers' mutation lanes at once — the sharded
    /// streaming ingest path, where each lane is one shard's micro-batch.
    ///
    /// Wire costs are charged in canonical (lane, server) order, each lane
    /// as one fan-out on its *own* clock, so the simulated-time accounting —
    /// including the port occupancy the writes leave behind for later
    /// readers — is identical for every pool size. The per-partition data
    /// application then runs concurrently on the PS worker pool: distinct
    /// lanes usually dirty distinct partitions (both sides tile the same
    /// vertex range), and at a range-boundary partition shared by two
    /// lanes the entries are still source-disjoint, so the final content
    /// is independent of task interleaving. Callers must guarantee that
    /// lane source sets are disjoint; the sharded ingestor keys lanes by
    /// source range, which does. Returns `(added, removed)` per lane.
    pub fn update_edges_sharded(
        &self,
        lanes: &[(&NodeClock, &[(u64, u64, bool)])],
    ) -> Result<Vec<(usize, usize)>> {
        for &(_, ops) in lanes {
            self.obj.check(ops.iter().flat_map(|&(src, dst, _)| [src, dst]))?;
        }
        // (lane, partition, op positions): the grouping of every lane, in
        // canonical (lane, server, partition) order.
        let mut tasks: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for (lane, &(clock, ops)) in lanes.iter().enumerate() {
            self.obj.fan_out(clock, |fan| {
                for (s, parts) in self.obj.group(ops.iter().map(|op| op.0).enumerate()) {
                    let server = self.obj.ps.server(s);
                    server.ensure_alive()?;
                    let n: u64 = parts.iter().map(|(_, positions)| positions.len() as u64).sum();
                    fan.leg(server, (n * 17, self.obj.item_ops(n), 16));
                    tasks.extend(parts.into_iter().map(|(p, positions)| (lane, p, positions)));
                }
                Ok(())
            })?;
        }
        let results: Vec<Result<(usize, usize)>> =
            self.obj.ps.pool().map((0..tasks.len()).collect(), |t| {
                let (lane, p, ref positions) = tasks[t];
                self.obj.write(self.obj.server(p), p, |part: &mut TablePart| {
                    apply_edge_ops(part, lanes[lane].1, positions)
                })
            });
        let mut out = vec![(0usize, 0usize); lanes.len()];
        for (t, res) in results.into_iter().enumerate() {
            let (a, r) = res?;
            out[tasks[t].0].0 += a;
            out[tasks[t].0].1 += r;
        }
        Ok(out)
    }

    /// Add directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were added (live duplicates are skipped).
    pub fn add_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, true)).collect();
        Ok(self.update_edges(client, &ops)?.0)
    }

    /// Remove directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were removed (absent edges are skipped).
    pub fn remove_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, false)).collect();
        Ok(self.update_edges(client, &ops)?.1)
    }

    /// Pull the adjacency of `ids` (any order, duplicates allowed). Vertices
    /// with no entry return an empty list. Result aligns with the input.
    /// Tombstoned slots are never visible to readers.
    ///
    /// Each distinct id crosses the wire once: the request is a one-shot
    /// [`PullPlan`](crate::PullPlan), so the request, the server ops and
    /// the response are charged over the distinct ids of every (server,
    /// partition) group, and a repeated id gets an `Arc` clone of its first
    /// occurrence's list — a batch of edges around a hub ships the hub's
    /// list once, not once per incident edge. The response size is only
    /// known once the lists were read, so each leg declares it after the
    /// visit.
    pub fn pull(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<Arc<Vec<u64>>>> {
        let plan = self.obj.plan(ids)?;
        static EMPTY: std::sync::OnceLock<Arc<Vec<u64>>> = std::sync::OnceLock::new();
        let empty = EMPTY.get_or_init(|| Arc::new(Vec::new()));
        let mut distinct: Vec<Arc<Vec<u64>>> = vec![Arc::clone(empty); plan.distinct()];
        self.obj.replay(client, &plan, |server, n, runs| {
            let mut resp_bytes = 0u64;
            let mut items = 0u64;
            for (p, run) in runs {
                server.get(&self.obj.name, *p, |part: &TablePart| {
                    for (slot, id) in distinct[run.clone()].iter_mut().zip(&plan.ids()[run.clone()]) {
                        if let Some(e) = part.get(id) {
                            let ns = e.live();
                            resp_bytes += ns.len() as u64 * 8 + 16;
                            items += ns.len() as u64 + 1;
                            *slot = ns;
                        }
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(items), resp_bytes))
        })?;
        Ok(plan.fan_out(&distinct))
    }

    /// Out-degrees of `ids` (server-side; only counts cross the wire).
    pub fn degrees(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<u64>> {
        self.obj.check(ids.iter().copied())?;
        let mut out = vec![0u64; ids.len()];
        self.obj.scatter(client, ids.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &TablePart| {
                    for &pos in &positions {
                        out[pos] = part.get(&ids[pos]).map_or(0, |e| e.live_len() as u64);
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n), n * 8))
        })?;
        Ok(out)
    }

    /// Server-side fixed-size neighbor sampling (GraphSage §IV-E): for each
    /// requested vertex return at most `k` neighbors, sampled without
    /// replacement, so only the sample crosses the wire.
    pub fn sample_neighbors(
        &self,
        client: &NodeClock,
        ids: &[u64],
        k: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u64>>> {
        self.obj.check(ids.iter().copied())?;
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
        self.obj.scatter(client, ids.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &TablePart| {
                    for &pos in &positions {
                        let v = ids[pos];
                        if let Some(e) = part.get(&v) {
                            let ns = e.live();
                            let mut rng = SplitMix64::new(seed ^ v.wrapping_mul(0x9E37_79B9));
                            if ns.len() <= k {
                                out[pos] = ns.as_ref().clone();
                            } else {
                                // Partial Fisher–Yates over indices.
                                let mut idx: Vec<usize> = (0..ns.len()).collect();
                                for i in 0..k {
                                    let j = i + rng.next_below((idx.len() - i) as u64) as usize;
                                    idx.swap(i, j);
                                }
                                out[pos] = idx[..k].iter().map(|&i| ns[i]).collect();
                            }
                        }
                    }
                })?;
            }
            let sampled = n * k as u64;
            Ok((n * 8, self.obj.item_ops(sampled), sampled * 8))
        })?;
        Ok(out)
    }

    /// `Σ f(partition)` over every partition (diagnostics; not charged).
    fn sum_parts(&self, f: impl Fn(&TablePart) -> usize) -> Result<usize> {
        let mut total = 0;
        each_partition(&self.obj.ps, &self.obj.layout, |p, server| {
            total += server.get(&self.obj.name, p, &f)?;
            Ok(())
        })?;
        Ok(total)
    }

    /// Number of vertices with entries (diagnostics).
    pub fn len(&self) -> Result<usize> {
        self.sum_parts(TablePart::len)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Total tombstoned slots across all entries (diagnostics: memory
    /// awaiting compaction).
    pub fn tombstones(&self) -> Result<usize> {
        self.sum_parts(|part| part.values().map(|e| e.dead).sum())
    }

    /// Per-partition write versions (delta export diffs against these).
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    /// Bytes resident on servers.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<TablePart>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PsError;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    fn table(ps: &Arc<Ps>) -> NeighborTableHandle {
        NeighborTableHandle::create(ps, "adj", 100, Partitioner::Hash, RecoveryMode::Inconsistent)
            .unwrap()
    }

    #[test]
    fn push_pull_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3, 4]), (2, vec![1]), (99, vec![0])]).unwrap();
        let got = t.pull(&c, &[2, 99, 1, 50]).unwrap();
        assert_eq!(*got[0], vec![1]);
        assert_eq!(*got[1], vec![0]);
        assert_eq!(*got[2], vec![2, 3, 4]);
        assert!(got[3].is_empty(), "missing vertex reads as empty");
        assert_eq!(t.len().unwrap(), 3);
        assert!(!t.is_empty().unwrap());
    }

    #[test]
    fn push_replaces_existing_entry() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(5, vec![1, 2])]).unwrap();
        t.push(&c, &[(5, vec![9])]).unwrap();
        assert_eq!(*t.pull(&c, &[5]).unwrap()[0], vec![9]);
    }

    #[test]
    fn degrees_match_entries() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(0, vec![1, 2, 3]), (1, vec![])]).unwrap();
        assert_eq!(t.degrees(&c, &[0, 1, 2]).unwrap(), vec![3, 0, 0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        assert!(t.pull(&c, &[100]).is_err());
        assert!(t.push(&c, &[(100, vec![])]).is_err());
        assert!(t.push(&c, &[(1, vec![2, 100])]).is_err(), "neighbor ids are bounds-checked too");
        assert!(t.is_empty().unwrap(), "a refused push writes nothing");
        assert!(t.add_edges(&c, &[(1, 100)]).is_err(), "dst is bounds-checked too");
        assert!(t.remove_edges(&c, &[(100, 1)]).is_err());
    }

    #[test]
    fn add_edges_appends_and_skips_duplicates() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3])]).unwrap();
        let added = t.add_edges(&c, &[(1, 4), (1, 2), (7, 8), (1, 4)]).unwrap();
        assert_eq!(added, 2, "duplicate (1,2) and repeated (1,4) are skipped");
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 3, 4], "adds append in order");
        assert_eq!(*t.pull(&c, &[7]).unwrap()[0], vec![8], "absent source gets a fresh entry");
        assert_eq!(t.degrees(&c, &[1, 7]).unwrap(), vec![3, 1]);
    }

    #[test]
    fn remove_edges_tombstones_and_preserves_order() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3, 4, 5, 6])]).unwrap();
        let removed = t.remove_edges(&c, &[(1, 3), (1, 99), (2, 5)]).unwrap();
        assert_eq!(removed, 1, "absent edges are skipped");
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 4, 5, 6]);
        assert_eq!(t.degrees(&c, &[1]).unwrap(), vec![4]);
        assert_eq!(t.tombstones().unwrap(), 1);
        // Samples never expose a tombstone.
        let s = t.sample_neighbors(&c, &[1], 10, 42).unwrap();
        assert_eq!(s[0], vec![2, 4, 5, 6]);
    }

    #[test]
    fn add_remove_add_roundtrip_in_one_batch() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        // Interleaved ops on one source must resolve in stream order:
        // add, remove, re-add → present once, now at the end of the list.
        t.push(&c, &[(1, vec![2, 3])]).unwrap();
        let (a, r) = t
            .update_edges(&c, &[(1, 2, false), (1, 4, true), (1, 2, true)])
            .unwrap();
        assert_eq!((a, r), (2, 1));
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![3, 4, 2]);
    }

    #[test]
    fn compaction_reclaims_tombstones_and_memory() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let big: Vec<u64> = (0..64).collect();
        t.push(&c, &[(1, big.clone())]).unwrap();
        let full = t.resident_bytes().unwrap();
        // Remove just under half: tombstones accumulate, footprint holds.
        let victims: Vec<(u64, u64)> = (0..31).map(|d| (1u64, d)).collect();
        assert_eq!(t.remove_edges(&c, &victims).unwrap(), 31);
        assert_eq!(t.tombstones().unwrap(), 31);
        assert_eq!(t.resident_bytes().unwrap(), full);
        // One more removal crosses the half-dead threshold → compaction.
        assert_eq!(t.remove_edges(&c, &[(1, 31)]).unwrap(), 1);
        assert_eq!(t.tombstones().unwrap(), 0);
        assert!(t.resident_bytes().unwrap() < full);
        let live: Vec<u64> = (32..64).collect();
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], live);
        // The list still behaves normally after compaction.
        assert_eq!(t.add_edges(&c, &[(1, 7)]).unwrap(), 1);
        assert_eq!(t.degrees(&c, &[1]).unwrap(), vec![33]);
    }

    #[test]
    fn sharded_update_matches_sequential_lanes() {
        let lane0: Vec<(u64, u64, bool)> = vec![(1, 2, false), (1, 9, true), (1, 2, true)];
        let lane1: Vec<(u64, u64, bool)> = vec![(60, 61, false), (60, 62, true), (61, 1, true)];
        let base = [(1u64, vec![2u64, 3]), (60, vec![61])];

        let ps1 = ps();
        let t1 = table(&ps1);
        let (c0, c1) = (NodeClock::new(), NodeClock::new());
        t1.push(&c0, &base).unwrap();
        let got = t1.update_edges_sharded(&[(&c0, &lane0), (&c1, &lane1)]).unwrap();
        assert_eq!(got, vec![(2, 1), (2, 1)]);

        let ps2 = ps();
        let t2 = table(&ps2);
        let c = NodeClock::new();
        t2.push(&c, &base).unwrap();
        t2.update_edges(&c, &lane0).unwrap();
        t2.update_edges(&c, &lane1).unwrap();
        for v in [1u64, 60, 61, 9, 62] {
            assert_eq!(t1.pull(&c0, &[v]).unwrap(), t2.pull(&c, &[v]).unwrap());
        }
    }

    #[test]
    fn update_edges_bumps_partition_versions() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let before = t.partition_versions().unwrap();
        t.add_edges(&c, &[(1, 2)]).unwrap();
        let after = t.partition_versions().unwrap();
        let p = t.layout().partition_of(1);
        assert_eq!(after[p], before[p] + 1);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i != p {
                assert_eq!(b, a, "untouched partitions keep their version");
            }
        }
    }

    #[test]
    fn sampling_bounds_and_determinism() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let big: Vec<u64> = (1..=50).collect();
        t.push(&c, &[(7, big.clone()), (8, vec![1, 2])]).unwrap();
        let s1 = t.sample_neighbors(&c, &[7, 8, 9], 10, 42).unwrap();
        assert_eq!(s1[0].len(), 10);
        assert_eq!(s1[1], vec![1, 2], "small lists returned whole");
        assert!(s1[2].is_empty());
        // Sampled values come from the true neighbor set, no duplicates.
        let set: std::collections::HashSet<u64> = s1[0].iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(set.iter().all(|v| big.contains(v)));
        // Deterministic per (seed, vertex).
        let s2 = t.sample_neighbors(&c, &[7], 10, 42).unwrap();
        assert_eq!(s1[0], s2[0]);
        let s3 = t.sample_neighbors(&c, &[7], 10, 43).unwrap();
        assert_ne!(s1[0], s3[0], "different seed should change the sample");
    }

    #[test]
    fn memory_grows_with_pushes() {
        let ps = ps();
        let c = NodeClock::new();
        let t = NeighborTableHandle::create(
            &ps, "adj", 1000, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let before = t.resident_bytes().unwrap();
        t.push(&c, &[(1, (0..1000).collect())]).unwrap();
        assert!(t.resident_bytes().unwrap() >= before + 8000);
    }

    #[test]
    fn oom_on_tiny_server_budget() {
        let ps = Ps::new(PsConfig { servers: 1, memory_per_server: 512, ..Default::default() });
        let c = NodeClock::new();
        let t = NeighborTableHandle::create(
            &ps, "adj", 10_000, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let err = t.push(&c, &[(1, (0..10_000).collect())]).unwrap_err();
        assert!(matches!(err, PsError::Oom(_)));
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3]), (50, vec![60, 70, 80])]).unwrap();
        // Leave a tombstone in place so the checkpoint exercises the
        // live-list compaction path.
        t.remove_edges(&c, &[(50, 70)]).unwrap();
        ps.checkpoint(&dfs, "adj").unwrap();
        for s in 0..ps.num_servers() {
            ps.kill_server(s);
            ps.restart_server(s, c.now());
            ps.recover_server(s, &dfs, &c).unwrap();
        }
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 3]);
        assert_eq!(*t.pull(&c, &[50]).unwrap()[0], vec![60, 80]);
        assert_eq!(t.len().unwrap(), 2);
        assert_eq!(t.tombstones().unwrap(), 0, "restore compacts");
    }

    // Truncation and bit flips are fuzzed for every partition type at
    // once in `object::tests`; these two are the table's own rules.
    #[test]
    fn decode_part_rejects_a_repeated_vertex_and_trailing_bytes() {
        let mut part = TablePart::default();
        part.insert(3, NeighborEntry::new(vec![1, 2]));
        let good = encode_part(&part);
        assert!(decode_part(&good).is_ok());

        // Two entries, both for vertex 3.
        let mut twice = 2u64.to_le_bytes().to_vec();
        twice.extend_from_slice(&good[8..]);
        twice.extend_from_slice(&good[8..]);
        assert!(matches!(decode_part(&twice), Err(PsError::Dfs(m)) if m.contains("twice")));

        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0; 8]);
        assert!(matches!(decode_part(&trailing), Err(PsError::Dfs(m)) if m.contains("trailing")));
    }

    #[test]
    fn encode_decode_part_roundtrip() {
        let mut part = TablePart::default();
        part.insert(3, NeighborEntry::new(vec![1, 2]));
        part.insert(9, NeighborEntry::new(vec![]));
        let decoded = decode_part(&encode_part(&part)).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(*decoded[&3].live(), vec![1, 2]);
        assert_eq!(decoded[&9].live_len(), 0);
        assert!(decode_part(&[1, 2]).is_err());
    }
}
