//! Server-resident neighbor tables (paper §III-A, §IV-B): the one PS
//! adjacency object — Common Neighbor, Triangle Count, K-Core, Connected
//! Components, Label Propagation, PageRank (its out-table), GraphSage's
//! neighbor sampling and the streaming loop read it, and
//! [`DeltaWriter::neighbor_table`](crate::snapshot::DeltaWriter::neighbor_table)
//! exports it as the immutable CSR the serving tier loads. CSR exists only
//! where the adjacency no longer changes: the snapshot file and the serve
//! shard.
//!
//! Executors send their edge partitions straight to the servers
//! ([`NeighborTableHandle::merge_edges`]), which hold each source's runs
//! of targets aside until the build's one
//! [`seal`](NeighborTableHandle::seal) merges every list once: afterwards
//! each list is strictly ascending and duplicate-free whatever order the
//! writers' requests landed in — no `groupBy` shuffle. A list is never read
//! half built: reading one that holds unsealed runs is an error. A job
//! whose executors walk the lists reads its partitions back whole
//! ([`NeighborTableHandle::pull_partitions`]). GraphSage builds
//! `(src, Array[dst])` entries with `groupBy` and pushes them
//! ([`NeighborTableHandle::push`]). Afterwards any executor can pull the
//! adjacency of any vertex without a shuffle.
//!
//! Entries are **mutable**: `update_edges` applies ordered add/remove
//! operations so a streaming ingestor (`psgraph-stream`) can evolve the
//! graph online, and reports what they did — which ops took effect, and
//! each touched source's live list before and after — so the writer
//! learns a batch's effects from the write itself. Removal is
//! tombstone-based — the slot is overwritten with a sentinel rather than
//! shifting the list, and an entry compacts once half its slots are
//! dead. Because adds always append and compaction preserves slot
//! order, the *live* neighbor list is always exactly "insertion order
//! minus removed elements", independent of when compaction runs.
//!
//! Requests are routed by `PsObject`; each keyed operation below is its
//! cost formula plus what it does to one partition.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{FxHashMap, NodeClock, Reader, SplitMix64};
use std::ops::Range;
use std::sync::Arc;

use crate::error::{PsError, Result};
use crate::object::{each_partition, LegCost, Partition, PsObject, ServerGroup};
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

/// The runs one [`merge_edges`](NeighborTableHandle::merge_edges)
/// request sent to one partition: their sources strictly ascending, each
/// with the range of its targets in the request's buffer, which every
/// partition the request reached shares.
#[derive(Debug)]
struct Runs {
    targets: Arc<Vec<u64>>,
    runs: Vec<(u64, Range<usize>)>,
}

/// One partition of a table: its lists, and the runs merged into them
/// since the last seal.
#[derive(Debug, Default)]
pub(crate) struct TablePart {
    lists: FxHashMap<u64, NeighborEntry>,
    /// Every request's runs since the last seal, in arrival order. A
    /// source that received one has no readable list until
    /// [`TablePart::seal`] merges its runs into it.
    pending: Vec<Runs>,
}

impl TablePart {
    /// Vertex `v`'s entry, for server-side operators on a table no build
    /// writes to (residual push walks the streaming table).
    pub(crate) fn get(&self, v: &u64) -> Option<&NeighborEntry> {
        self.lists.get(v)
    }

    /// Vertex `v`'s entry for a reader of `table`, or an error if `v`
    /// holds runs not yet sealed: a reader never sees half a list.
    fn read(&self, table: &str, v: u64) -> Result<Option<&NeighborEntry>> {
        let holds = |runs: &Runs| runs.runs.binary_search_by_key(&v, |&(src, _)| src).is_ok();
        if self.pending.iter().any(holds) {
            return Err(PsError::Unsealed { name: table.to_string(), vertex: v });
        }
        Ok(self.lists.get(&v))
    }

    /// Every `(vertex, live list)` in ascending vertex order, or an error
    /// naming the smallest vertex that holds unsealed runs.
    fn rows(&self, table: &str) -> Result<Vec<(u64, Vec<u64>)>> {
        let firsts = self.pending.iter().filter_map(|runs| runs.runs.first());
        if let Some(vertex) = firsts.map(|&(src, _)| src).min() {
            return Err(PsError::Unsealed { name: table.to_string(), vertex });
        }
        let mut rows: Vec<(u64, Vec<u64>)> =
            self.lists.iter().map(|(&v, e)| (v, e.live().to_vec())).collect();
        rows.sort_unstable_by_key(|&(v, _)| v);
        Ok(rows)
    }

    /// Each source with pending runs, ascending, and the list a seal
    /// leaves it: the strictly ascending, duplicate-free union of its live
    /// neighbours and its runs, built once.
    fn merged(&self) -> Vec<(u64, Vec<u64>)> {
        let mut order: Vec<(u64, usize, usize)> = Vec::new();
        for (r, runs) in self.pending.iter().enumerate() {
            order.extend(runs.runs.iter().enumerate().map(|(i, (src, _))| (*src, r, i)));
        }
        order.sort_unstable();
        let targets = |&(_, r, i): &(u64, usize, usize)| {
            let runs = &self.pending[r];
            &runs.targets[runs.runs[i].1.clone()]
        };
        order
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let v = group[0].0;
                let held = self.lists.get(&v).map(NeighborEntry::live);
                let held = held.as_deref().map_or(&[][..], Vec::as_slice);
                let len = held.len() + group.iter().map(|at| targets(at).len()).sum::<usize>();
                let mut list = Vec::with_capacity(len);
                list.extend_from_slice(held);
                for at in group {
                    list.extend_from_slice(targets(at));
                }
                list.sort_unstable();
                list.dedup();
                (v, list)
            })
            .collect()
    }

    /// Merge every source's pending runs into its list, each list once
    /// ([`TablePart::merged`]). Returns `Σ (final_len + 1)` over the lists
    /// it sealed, which the table's content alone fixes.
    fn seal(&mut self) -> u64 {
        let merged = self.merged();
        self.pending.clear();
        self.lists.reserve(merged.len());
        let mut items = 0;
        for (v, list) in merged {
            items += list.len() as u64 + 1;
            self.lists.insert(v, NeighborEntry::new(list));
        }
        items
    }
}

fn part_bytes(part: &TablePart) -> u64 {
    let lists = part.lists.values().map(|e| 8 + 24 + e.slot_len() as u64 * 8);
    let runs = part.pending.iter().flat_map(|runs| &runs.runs);
    lists.sum::<u64>() + runs.map(|(_, at)| 16 + at.len() as u64 * 8).sum::<u64>() + 48
}

/// A partition's checkpoint: its live lists, each as a seal would leave
/// it — tombstones and unsealed runs are transient in-memory state, so a
/// restore implies a compaction and a seal.
fn encode_part(part: &TablePart) -> Vec<u8> {
    let merged = part.merged();
    let mut rows: Vec<(u64, Arc<Vec<u64>>)> = part
        .lists
        .iter()
        .filter(|(v, _)| merged.binary_search_by_key(*v, |(k, _)| *k).is_err())
        .map(|(&v, e)| (v, e.live()))
        .collect();
    rows.extend(merged.into_iter().map(|(v, list)| (v, Arc::new(list))));
    rows.sort_unstable_by_key(|(v, _)| *v);
    let mut buf = Vec::new();
    buf.put_u64_le(rows.len() as u64);
    for (v, list) in rows {
        buf.put_u64_le(v);
        buf.put_u64_le(list.len() as u64);
        for &n in list.iter() {
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
        let mut part = TablePart::default();
        part.lists.reserve(n);
        for _ in 0..n {
            let k = r.get()?;
            let len = r.count::<u64>(8)?;
            if part.lists.insert(k, NeighborEntry::new(r.vec(len)?)).is_some() {
                return Err(r.corrupt("vertex listed twice").into());
            }
        }
        Ok(part)
    })
}

impl Partition for TablePart {
    /// A table partition holds its vertices by key alone.
    type Shape = ();

    fn shape(&self) {}

    /// Its vertices belong to the slot, and their neighbours are vertices.
    fn keys_fit(&self, layout: &PartitionLayout, partition: usize) -> bool {
        self.lists.iter().all(|(&v, e)| {
            layout.holds(partition, v) && e.slots().iter().all(|&n| n < layout.size)
        })
    }

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

/// What one lane's update did to one of its partitions.
struct Applied {
    /// Whether each op took effect, aligned with the op positions.
    took_effect: Vec<bool>,
    /// Each source the ops name, ascending: its live list before and after.
    lists: Vec<(u64, Vec<u64>, Vec<u64>)>,
    /// `Σ (len + 1)` items and `Σ (16 + 8·len)` bytes over the sources
    /// that held a list before the ops: what reading them costs.
    read: (u64, u64),
}

/// Apply the ordered edge operations `ops[pos]`, `pos` in `positions`, to
/// one partition of `table`, reading each source's live list before and
/// after. A source holding unsealed runs is refused before anything is
/// written, as a read of it is.
fn apply_edge_ops(
    part: &mut TablePart,
    table: &str,
    ops: &[(u64, u64, bool)],
    positions: &[usize],
) -> Result<Applied> {
    let mut srcs: Vec<u64> = positions.iter().map(|&pos| ops[pos].0).collect();
    srcs.sort_unstable();
    srcs.dedup();
    let mut read = (0, 0);
    let mut before = Vec::with_capacity(srcs.len());
    for &src in &srcs {
        let live = part.read(table, src)?.map_or_else(Vec::new, |e| {
            let live = e.live().to_vec();
            read.0 += live.len() as u64 + 1;
            read.1 += 16 + 8 * live.len() as u64;
            live
        });
        before.push(live);
    }
    let took_effect = positions
        .iter()
        .map(|&pos| match ops[pos] {
            (src, dst, true) => part.lists.entry(src).or_default().add(dst),
            (src, dst, false) => part.lists.get_mut(&src).is_some_and(|e| e.remove(dst)),
        })
        .collect();
    let lists = srcs
        .into_iter()
        .zip(before)
        .map(|(src, before)| {
            let after = part.lists.get(&src).map_or_else(Vec::new, |e| e.live().to_vec());
            (src, before, after)
        })
        .collect();
    Ok(Applied { took_effect, lists, read })
}

/// What one lane of [`NeighborTableHandle::update_edges_sharded`] did to
/// the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReport {
    /// Whether each op took effect, in op order: an add of a live edge and
    /// a remove of an absent one did not.
    pub took_effect: Vec<bool>,
    /// Each source the ops name, ascending, with its live list before and
    /// after the lane's ops.
    pub lists: Vec<(u64, Vec<u64>, Vec<u64>)>,
}

/// Client handle to a PS neighbor table.
#[derive(Debug, Clone)]
pub struct NeighborTableHandle {
    obj: PsObject,
}

impl NeighborTableHandle {
    /// Create an empty table over vertex ids `[0, num_vertices)`, one
    /// partition per server.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        num_vertices: u64,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        Self::create_partitioned(ps, name, num_vertices, partitioner, ps.num_servers(), recovery)
    }

    /// Create an empty table over vertex ids `[0, num_vertices)` in
    /// `partitions` partitions, placed round-robin on the servers. A
    /// [`Partitioner::Hash`] table places vertex `v` in partition
    /// `mix64(v) % partitions` ([`PartitionLayout::partition_of`]).
    pub fn create_partitioned(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        num_vertices: u64,
        partitioner: Partitioner,
        partitions: usize,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let layout = PartitionLayout::new(partitioner, num_vertices, partitions, ps.num_servers());
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
            for (p, positions) in &parts {
                self.obj.write(server, *p, |part: &mut TablePart| {
                    for &pos in positions {
                        let (v, ns) = &entries[pos];
                        part.lists.insert(*v, NeighborEntry::new(ns.clone()));
                    }
                })?;
            }
            Ok(self.lists_cost(&parts, |pos| entries[pos].1.len()))
        })
    }

    /// Merge directed `(src, dst)` edges into the table: after the next
    /// [`seal`](Self::seal) each source's list is the strictly ascending
    /// union of the list it held and the targets given for it. The edges
    /// may come in any order and repeat. The client sorts them by
    /// (source, target), drops repeats and sends one run of targets per
    /// source, one request in all; a server only keeps the runs that land
    /// in each of its partitions, walking no list, so however several
    /// writers' requests interleave on the servers, and however often one
    /// is sent again, every list ends the same. Sources and targets are bounds-checked
    /// before anything is written. Until the seal, reading a source that
    /// received a run is an error, and so is updating it
    /// ([`update_edges`](Self::update_edges) reads the lists it writes).
    ///
    /// A run of `len` targets is charged as [`push`](Self::push) charges
    /// a list: `16 + 8·len` request bytes and `len + 1` server items. The
    /// merge itself is the seal's, charged by each list's final length.
    pub fn merge_edges(
        &self,
        client: &NodeClock,
        mut edges: Vec<(u64, u64)>,
    ) -> Result<()> {
        self.obj.check(edges.iter().flat_map(|&(src, dst)| [src, dst]))?;
        edges.sort_unstable();
        edges.dedup();
        // Per run: its source and the range of its targets in `targets`.
        let targets: Arc<Vec<u64>> = Arc::new(edges.iter().map(|&(_, dst)| dst).collect());
        let (mut runs, mut start): (Vec<(u64, Range<usize>)>, usize) = (Vec::new(), 0);
        for run in edges.chunk_by(|a, b| a.0 == b.0) {
            runs.push((run[0].0, start..start + run.len()));
            start += run.len();
        }
        self.obj.scatter(client, runs.iter().map(|(src, _)| *src).enumerate(), |server, _, parts| {
            for (p, positions) in &parts {
                let mine = Runs {
                    targets: Arc::clone(&targets),
                    runs: positions.iter().map(|&pos| runs[pos].clone()).collect(),
                };
                self.obj.write(server, *p, |part: &mut TablePart| part.pending.push(mine))?;
            }
            Ok(self.lists_cost(&parts, |pos| runs[pos].1.len()))
        })
    }

    /// Merge every list's pending runs into it, each list once (see
    /// [`merge_edges`](Self::merge_edges)): one request from `client` to
    /// every server, each server sealing its partitions on the PS pool.
    /// Server `s`'s leg is charged an 8-byte request and acknowledgement
    /// and `Σ (final_len + 1)` items over the lists it sealed — a charge
    /// the table's content fixes, whichever writer's run landed first.
    /// Sealing again, with no run merged since, changes nothing. Every
    /// server is checked alive before any partition is sealed.
    pub fn seal(&self, client: &NodeClock) -> Result<()> {
        let layout = &self.obj.layout;
        self.obj.fan_out(client, |fan| {
            for s in 0..layout.num_servers {
                self.obj.ps.server(s).ensure_alive()?;
            }
            let sealed: Vec<Result<u64>> =
                self.obj.ps.pool().map((0..layout.num_partitions).collect(), |p| {
                    self.obj.write(self.obj.server(p), p, TablePart::seal)
                });
            let mut items = vec![0u64; layout.num_servers];
            for (p, sealed) in sealed.into_iter().enumerate() {
                items[layout.server_of_partition(p)] += sealed?;
            }
            for (s, items) in items.into_iter().enumerate() {
                fan.leg(self.obj.ps.server(s), (8, self.obj.item_ops(items), 8));
            }
            Ok(())
        })
    }

    /// What one server's leg of a request writing whole lists costs: per
    /// list of `len` ids (`len(position)`), `16 + 8·len` request bytes and
    /// `len + 1` items; an 8-byte acknowledgement.
    fn lists_cost(&self, parts: &ServerGroup, len: impl Fn(usize) -> usize) -> LegCost {
        let lens = || parts.iter().flat_map(|(_, at)| at).map(|&pos| len(pos) as u64);
        let req_bytes = lens().map(|len| 16 + len * 8).sum();
        (req_bytes, self.obj.item_ops(lens().map(|len| len + 1).sum()), 8)
    }

    /// Apply ordered edge mutations: `(src, dst, add)` adds `dst` to
    /// `src`'s list when `add` is true (skipping live duplicates) and
    /// tombstones it otherwise (skipping absent edges). Operation order
    /// is preserved *per source vertex* — all ops on a source land in its
    /// partition in input order — so add→remove→add sequences resolve the
    /// way a stream emitted them. The one-lane form of
    /// [`update_edges_sharded`](Self::update_edges_sharded), charged and
    /// reported as it is.
    pub fn update_edges(&self, client: &NodeClock, ops: &[(u64, u64, bool)]) -> Result<EdgeReport> {
        Ok(self.update_edges_sharded(&[(client, ops)])?.swap_remove(0))
    }

    /// Apply several writers' mutation lanes at once — the sharded
    /// streaming ingest path, where each lane is one shard's micro-batch —
    /// and report, per lane, what its ops did ([`EdgeReport`]). Lane
    /// source sets must be disjoint; the sharded ingestor keys lanes by
    /// source range, which makes them so.
    ///
    /// Each lane is one request on its *own* clock, one leg per server its
    /// sources live on. A leg of `n` ops is charged `17·n` request bytes;
    /// `n + Σ (len + 1)` items, where the sum runs over the leg's sources
    /// that held a list before the ops — the read a pull of those lists
    /// is charged; and a response of `16 + ⌈n / 8⌉` bytes (a header and
    /// one outcome bit per op) plus `Σ (16 + 8·len)` over the same lists.
    /// The after lists are not charged: they are the before lists with the
    /// outcomes applied. Every server the lanes reach is checked alive
    /// before any partition is written; a dead one fails the call with
    /// nothing written or charged.
    ///
    /// The per-partition writes run concurrently on the PS worker pool:
    /// distinct lanes usually write distinct partitions (both sides tile
    /// the same vertex range), and at a range-boundary partition shared by
    /// two lanes the entries are still source-disjoint, so the content is
    /// independent of task interleaving. The legs are charged afterwards
    /// in canonical (lane, server) order, so the simulated-time accounting
    /// — including the port occupancy the writes leave behind for later
    /// readers — is identical for every pool size. A partition's version
    /// moves only if one of its ops took effect.
    pub fn update_edges_sharded(
        &self,
        lanes: &[(&NodeClock, &[(u64, u64, bool)])],
    ) -> Result<Vec<EdgeReport>> {
        for &(_, ops) in lanes {
            self.obj.check(ops.iter().flat_map(|&(src, dst, _)| [src, dst]))?;
        }
        // One leg per (lane, server), in canonical order.
        let mut legs: Vec<(usize, usize, ServerGroup)> = Vec::new();
        for (lane, &(_, ops)) in lanes.iter().enumerate() {
            for (s, parts) in self.obj.group(ops.iter().map(|op| op.0).enumerate()) {
                self.obj.ps.server(s).ensure_alive()?;
                legs.push((lane, s, parts));
            }
        }
        let tasks: Vec<(usize, &(usize, Vec<usize>))> = legs
            .iter()
            .flat_map(|(lane, _, parts)| parts.iter().map(move |part| (*lane, part)))
            .collect();
        let applied = self.obj.ps.pool().map(tasks, |(lane, (p, positions))| {
            self.obj.write_if(self.obj.server(*p), *p, |part: &mut TablePart| {
                let applied = apply_edge_ops(part, &self.obj.name, lanes[lane].1, positions);
                let wrote = applied.as_ref().is_ok_and(|a| a.took_effect.contains(&true));
                (applied, wrote)
            })?
        });
        let mut applied = applied.into_iter();
        let mut reports: Vec<EdgeReport> = lanes
            .iter()
            .map(|(_, ops)| EdgeReport { took_effect: vec![false; ops.len()], lists: Vec::new() })
            .collect();
        let mut costs: Vec<Vec<(usize, LegCost)>> = vec![Vec::new(); lanes.len()];
        for (lane, s, parts) in &legs {
            let report = &mut reports[*lane];
            let (mut n, mut read) = (0, (0, 0));
            for ((_, positions), part) in parts.iter().zip(&mut applied) {
                let part = part?;
                for (&pos, took) in positions.iter().zip(part.took_effect) {
                    report.took_effect[pos] = took;
                }
                report.lists.extend(part.lists);
                n += positions.len() as u64;
                read = (read.0 + part.read.0, read.1 + part.read.1);
            }
            let cost = (17 * n, self.obj.item_ops(n + read.0), 16 + n.div_ceil(8) + read.1);
            costs[*lane].push((*s, cost));
        }
        for ((clock, _), (costs, report)) in lanes.iter().zip(costs.into_iter().zip(&mut reports)) {
            self.obj.fan_out(clock, |fan| {
                for (s, cost) in costs {
                    fan.leg(self.obj.ps.server(s), cost);
                }
                Ok(())
            })?;
            report.lists.sort_unstable_by_key(|&(src, _, _)| src);
        }
        Ok(reports)
    }

    /// Add directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were added (live duplicates are skipped).
    pub fn add_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, true)).collect();
        Ok(self.update_edges(client, &ops)?.took_effect.iter().filter(|&&t| t).count())
    }

    /// Remove directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were removed (absent edges are skipped).
    pub fn remove_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, false)).collect();
        Ok(self.update_edges(client, &ops)?.took_effect.iter().filter(|&&t| t).count())
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
                server.get(&self.obj.name, *p, |part: &TablePart| -> Result<()> {
                    let ids = &plan.ids()[run.clone()];
                    for (slot, &id) in distinct[run.clone()].iter_mut().zip(ids) {
                        if let Some(e) = part.read(&self.obj.name, id)? {
                            let ns = e.live();
                            resp_bytes += ns.len() as u64 * 8 + 16;
                            items += ns.len() as u64 + 1;
                            *slot = ns;
                        }
                    }
                    Ok(())
                })??;
            }
            Ok((n * 8, self.obj.item_ops(items), resp_bytes))
        })?;
        Ok(plan.fan_out(&distinct))
    }

    /// Every `(vertex, list)` row of partitions `parts`, partition by
    /// partition in the order given, each partition's rows in ascending
    /// vertex order. One request; a server's leg is charged `8` request
    /// bytes per partition it reads, `Σ (len + 1)` items and
    /// `Σ (16 + 8·len)` response bytes over the lists it sends. A
    /// partition holding unsealed runs is an error, not a partial read.
    pub fn pull_partitions(
        &self,
        client: &NodeClock,
        parts: &[usize],
    ) -> Result<Vec<(u64, Vec<u64>)>> {
        let layout = &self.obj.layout;
        self.obj.check_below(layout.num_partitions as u64, parts.iter().map(|&p| p as u64))?;
        let mut by_server: Vec<ServerGroup> = vec![Vec::new(); layout.num_servers];
        for (pos, &p) in parts.iter().enumerate() {
            by_server[layout.server_of_partition(p)].push((p, vec![pos]));
        }
        let groups = by_server.into_iter().enumerate().filter(|(_, group)| !group.is_empty());
        let mut out = vec![Vec::new(); parts.len()];
        self.obj.scatter_groups(client, groups.collect(), |server, n, group| {
            let (mut items, mut resp_bytes) = (0, 0);
            for (p, positions) in group {
                let rows =
                    server.get(&self.obj.name, p, |part: &TablePart| part.rows(&self.obj.name))??;
                let lens = || rows.iter().map(|(_, ns)| ns.len() as u64);
                items += lens().map(|len| len + 1).sum::<u64>();
                resp_bytes += lens().map(|len| 16 + 8 * len).sum::<u64>();
                out[positions[0]] = rows;
            }
            Ok((8 * n, self.obj.item_ops(items), resp_bytes))
        })?;
        Ok(out.concat())
    }

    /// Out-degrees of `ids` (server-side; only counts cross the wire).
    pub fn degrees(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<u64>> {
        self.obj.check(ids.iter().copied())?;
        let mut out = vec![0u64; ids.len()];
        self.obj.scatter(client, ids.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &TablePart| -> Result<()> {
                    for &pos in &positions {
                        let entry = part.read(&self.obj.name, ids[pos])?;
                        out[pos] = entry.map_or(0, |e| e.live_len() as u64);
                    }
                    Ok(())
                })??;
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
                server.get(&self.obj.name, p, |part: &TablePart| -> Result<()> {
                    for &pos in &positions {
                        let v = ids[pos];
                        if let Some(e) = part.read(&self.obj.name, v)? {
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
                    Ok(())
                })??;
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

    /// Number of vertices with lists (diagnostics; a vertex whose only
    /// runs are unsealed has none yet).
    pub fn len(&self) -> Result<usize> {
        self.sum_parts(|part| part.lists.len())
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Total tombstoned slots across all entries (diagnostics: memory
    /// awaiting compaction).
    pub fn tombstones(&self) -> Result<usize> {
        self.sum_parts(|part| part.lists.values().map(|e| e.dead).sum())
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
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;
    use psgraph_harness::prop_assert_eq;
    use psgraph_sim::SimTime;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    /// A partition holding `lists` and no pending runs (the checkpoint
    /// and recovery tests here and in `object::tests` build them).
    impl FromIterator<(u64, NeighborEntry)> for TablePart {
        fn from_iter<I: IntoIterator<Item = (u64, NeighborEntry)>>(lists: I) -> Self {
            TablePart { lists: lists.into_iter().collect(), pending: Vec::new() }
        }
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
        for bad in [(100, 1), (1, 100)] {
            let err = t.merge_edges(&c, vec![(2, 3), bad]).unwrap_err();
            assert!(matches!(err, PsError::IndexOutOfBounds { index: 100, .. }), "{err}");
        }
        assert!(t.is_empty().unwrap(), "a refused merge writes nothing");
    }

    #[test]
    fn merged_lists_are_ascending_whatever_order_the_requests_land_in() {
        // Three writers' edges, out of order, repeated within and across
        // writers; vertex 7 already holds a pushed list.
        let writers: [Vec<(u64, u64)>; 3] = [
            vec![(1, 9), (1, 2), (4, 0), (1, 9), (7, 5)],
            vec![(1, 5), (4, 99), (1, 2)],
            vec![(99, 4), (1, 0), (7, 1), (7, 8)],
        ];
        let want: [(u64, Vec<u64>); 5] = [
            (0, vec![]),
            (1, vec![0, 2, 5, 9]),
            (4, vec![0, 99]),
            (7, vec![1, 3, 5, 8]),
            (99, vec![4]),
        ];
        let orders: [&[usize]; 4] = [&[0, 1, 2], &[2, 1, 0], &[1, 2, 0, 1], &[0, 0, 2, 1, 2]];
        for order in orders {
            let ps = ps();
            let c = NodeClock::new();
            let t = table(&ps);
            t.push(&c, &[(7, vec![3, 5])]).unwrap();
            for &w in order {
                t.merge_edges(&c, writers[w].clone()).unwrap();
            }
            t.seal(&c).unwrap();
            let ids: Vec<u64> = want.iter().map(|(v, _)| *v).collect();
            let got: Vec<Vec<u64>> = t.pull(&c, &ids).unwrap().iter().map(|l| l.to_vec()).collect();
            let lists: Vec<Vec<u64>> = want.iter().map(|(_, l)| l.clone()).collect();
            assert_eq!(got, lists, "requests in order {order:?}");
            assert_eq!(t.len().unwrap(), 4);
        }
    }

    #[test]
    fn a_sealed_list_is_the_ascending_union_of_its_live_list_and_its_runs() {
        use psgraph_harness::prop::{check, Source};
        use std::collections::BTreeSet;
        let gen = |src: &mut Source| {
            // A held list in any order, some of it removed, and up to
            // four strictly ascending runs.
            let held: BTreeSet<u64> = src.vec_with(0, 24, |s| s.u64_range(0, 40)).into_iter().collect();
            let mut held: Vec<u64> = held.into_iter().collect();
            if src.bool() {
                held.reverse();
            }
            let removed = src.vec_with(0, 8, |s| s.u64_range(0, 40));
            let runs = src.vec_with(0, 4, |s| {
                let run: BTreeSet<u64> = s.vec_with(0, 12, |s| s.u64_range(0, 40)).into_iter().collect();
                run.into_iter().collect::<Vec<u64>>()
            });
            (held, removed, runs)
        };
        check("seal_is_the_union", gen, |(held, removed, runs)| {
            let mut entry = NeighborEntry::new(held.clone());
            for &x in removed {
                entry.remove(x);
            }
            let mut want: BTreeSet<u64> = entry.live().iter().copied().collect();
            let mut part: TablePart = [(3, entry)].into_iter().collect();
            for run in runs {
                want.extend(run);
                let targets = Arc::new(run.clone());
                part.pending.push(Runs { targets, runs: vec![(3, 0..run.len())] });
            }
            let want: Vec<u64> = want.into_iter().collect();
            let items = if runs.is_empty() { 0 } else { want.len() as u64 + 1 };
            prop_assert_eq!(part.seal(), items, "Σ (final_len + 1) over the sealed lists");
            let sealed = part.read("t", 3).unwrap().unwrap().clone();
            if !runs.is_empty() {
                prop_assert_eq!(sealed.live().to_vec(), want);
                prop_assert_eq!(sealed.slot_len(), sealed.live_len());
            }
            prop_assert_eq!(part.seal(), 0, "a second seal seals nothing");
            prop_assert_eq!(part.read("t", 3).unwrap().unwrap().live(), sealed.live());
            Ok(())
        });
    }

    #[test]
    fn reading_a_list_before_the_seal_is_an_error() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2])]).unwrap();
        t.merge_edges(&c, vec![(5, 6), (5, 7)]).unwrap();
        let unsealed = |e: PsError| matches!(e, PsError::Unsealed { vertex: 5, .. });
        assert!(unsealed(t.pull(&c, &[1, 5]).unwrap_err()));
        assert!(unsealed(t.degrees(&c, &[5]).unwrap_err()));
        assert!(unsealed(t.sample_neighbors(&c, &[5], 1, 0).unwrap_err()));
        let p = t.layout().partition_of(5);
        assert!(unsealed(t.pull_partitions(&c, &[p]).unwrap_err()));
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2], "a list with no runs reads");
        assert_eq!(t.len().unwrap(), 1, "an unsealed source has no list yet");
        t.seal(&c).unwrap();
        assert_eq!(*t.pull(&c, &[5]).unwrap()[0], vec![6, 7]);
        let rows = t.pull_partitions(&c, &[p]).unwrap();
        assert_eq!(rows.iter().find(|(v, _)| *v == 5).unwrap().1, vec![6, 7]);
    }

    #[test]
    fn a_second_seal_changes_nothing() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.merge_edges(&c, vec![(5, 6), (1, 7), (5, 2), (99, 0)]).unwrap();
        t.seal(&c).unwrap();
        let parts: Vec<usize> = (0..t.layout().num_partitions).collect();
        let (lists, bytes) = (t.pull_partitions(&c, &parts).unwrap(), t.resident_bytes().unwrap());
        t.seal(&c).unwrap();
        assert_eq!(t.pull_partitions(&c, &parts).unwrap(), lists);
        assert_eq!(t.resident_bytes().unwrap(), bytes);
    }

    #[test]
    fn a_second_build_merges_into_lists_already_held() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.merge_edges(&c, vec![(1, 9), (1, 3), (4, 5)]).unwrap();
        t.seal(&c).unwrap();
        // A held list loses an entry before the second build.
        t.remove_edges(&c, &[(1, 9)]).unwrap();
        t.merge_edges(&c, vec![(1, 4), (1, 3), (2, 8)]).unwrap();
        t.merge_edges(&c, vec![(1, 0)]).unwrap();
        t.seal(&c).unwrap();
        let got = t.pull(&c, &[1, 2, 4]).unwrap();
        assert_eq!(got.iter().map(|l| l.to_vec()).collect::<Vec<_>>(), [vec![0, 3, 4], vec![8], vec![5]]);
        assert_eq!(t.tombstones().unwrap(), 0, "a seal compacts the lists it merges");
    }

    #[test]
    fn pull_partitions_reads_whole_partitions_in_vertex_order_and_charges_their_lists() {
        let ps = ps();
        let c = NodeClock::new();
        let t = NeighborTableHandle::create_partitioned(
            &ps, "adj", 100, Partitioner::Hash, 7, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let lists: Vec<(u64, Vec<u64>)> = (0..40u64).map(|v| (v, (0..v % 5).collect())).collect();
        t.push(&c, &lists).unwrap();
        let parts = [5, 0, 3];
        let before = (ps.network().stats().rpcs(), ps.network().stats().bytes_sent());
        let received = ps.network().stats().bytes_received();
        let got = t.pull_partitions(&c, &parts).unwrap();
        let layout = t.layout();
        let of = |p| lists.iter().filter(move |(v, _)| layout.partition_of(*v) == p).cloned();
        let want: Vec<(u64, Vec<u64>)> = parts.iter().flat_map(|&p| of(p)).collect();
        assert_eq!(got, want, "partitions in the order given, each ascending");
        // Partitions 0 and 3 share server 0 of 3; 5 is on server 2.
        let stats = ps.network().stats();
        assert_eq!(stats.rpcs() - before.0, 2);
        assert_eq!(stats.bytes_sent() - before.1, 8 * 3);
        let resp: u64 = got.iter().map(|(_, ns)| 16 + 8 * ns.len() as u64).sum();
        assert_eq!(stats.bytes_received() - received, resp);
        assert!(t.pull_partitions(&c, &[7]).is_err(), "a partition past the layout");
    }

    #[test]
    fn one_merge_into_an_empty_table_costs_what_pushing_its_lists_costs() {
        let edges: Vec<(u64, u64)> =
            (0..300u64).map(|i| ((i * 37) % 61, (i * 11) % 97)).chain([(5, 6), (5, 6)]).collect();
        let mut lists: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for run in sorted.chunk_by(|a, b| a.0 == b.0) {
            lists.push((run[0].0, run.iter().map(|&(_, d)| d).collect()));
        }
        // Each side writes, then seals. Sealing pushed lists seals
        // nothing, so the merge pays the seal's charge on top of what the
        // push pays: server `s` is busy `cpu(item_ops(Σ (len + 1)))`
        // longer over the lists it holds, and the client waits for the
        // slowest server.
        let cost = |write: &dyn Fn(&NeighborTableHandle, &NodeClock)| {
            let ps = ps();
            let c = NodeClock::new();
            let t = table(&ps);
            write(&t, &c);
            t.seal(&c).unwrap();
            let stats = ps.network().stats();
            let ports: Vec<SimTime> =
                (0..ps.num_servers()).map(|s| ps.server(s).port().clock().now()).collect();
            let pulled = t.pull(&c, &(0..100).collect::<Vec<_>>()).unwrap();
            (stats.rpcs(), stats.bytes_sent(), stats.bytes_received(), c.now(), ports, pulled)
        };
        let merged = cost(&|t, c| t.merge_edges(c, edges.clone()).unwrap());
        let pushed = cost(&|t, c| t.push(c, &lists).unwrap());
        let ps = ps();
        let layout = table(&ps).layout().clone();
        let seal: Vec<SimTime> = (0..ps.num_servers())
            .map(|s| {
                let on_s = lists.iter().filter(|(v, _)| layout.server_of(*v) == s);
                let items: u64 = on_s.map(|(_, l)| l.len() as u64 + 1).sum();
                ps.cost().cpu_cost(items * ps.config().ops_per_item)
            })
            .collect();
        assert!(seal.iter().all(|&t| t > SimTime::ZERO));
        let (seal_wait, mut ports) = (seal.iter().copied().max().unwrap(), pushed.4.clone());
        for (port, seal) in ports.iter_mut().zip(&seal) {
            *port += *seal;
        }
        assert_eq!((merged.0, merged.1, merged.2), (pushed.0, pushed.1, pushed.2));
        assert_eq!(merged.4, ports);
        assert_eq!(merged.5, pushed.5);
        // The pull that follows departs `seal_wait` later on the merge's
        // side and queues nowhere, so its end moves by the same amount.
        assert_eq!(merged.3, pushed.3 + seal_wait);
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
        let report = t.update_edges(&c, &[(1, 2, false), (1, 4, true), (1, 2, true)]).unwrap();
        assert_eq!(report.took_effect, [true, true, true]);
        assert_eq!(report.lists, [(1, vec![2, 3], vec![3, 4, 2])]);
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
        assert_eq!(got[0].took_effect, [true, true, true]);
        assert_eq!(got[0].lists, [(1, vec![2, 3], vec![3, 9, 2])]);
        assert_eq!(got[1].took_effect, [true, true, true]);
        assert_eq!(
            got[1].lists,
            [(60, vec![61], vec![62]), (61, vec![], vec![1])],
            "sources ascending, an absent source's list empty"
        );

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
    fn only_a_partition_an_op_changed_moves_its_version() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let p1 = t.layout().partition_of(1);
        let v = (2..100).find(|&v| t.layout().partition_of(v) != p1).unwrap();
        let p2 = t.layout().partition_of(v);
        t.push(&c, &[(1, vec![2]), (v, vec![3])]).unwrap();
        let before = t.partition_versions().unwrap();
        // Vertex `v`'s partition sees a duplicate add and a missing remove.
        let report = t.update_edges(&c, &[(v, 3, true), (1, 5, true), (v, 9, false)]).unwrap();
        assert_eq!(report.took_effect, [false, true, false]);
        let after = t.partition_versions().unwrap();
        assert_eq!(after[p1], before[p1] + 1);
        assert_eq!(after[p2], before[p2], "a partition no op changed keeps its version");
    }

    #[test]
    fn an_update_is_charged_its_ops_and_the_lists_it_reads() {
        let ps = Ps::new(PsConfig { servers: 1, ..Default::default() });
        let c = NodeClock::new();
        c.sync_to(SimTime::from_millis(1));
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3, 4]), (2, vec![])]).unwrap();
        let stats = ps.network().stats();
        let (rpcs, sent, received) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
        let port = ps.server(0).port().clock().now();
        // Nine ops on three sources; 7 holds no list, 1 three ids, 2 none.
        let ops: Vec<(u64, u64, bool)> =
            [1, 1, 7, 2, 1, 7, 2, 1, 1].iter().map(|&src| (src, 5, src != 2)).collect();
        // A client a millisecond behind the port: the leg queues, so the
        // port moves by exactly its service time.
        t.update_edges(&NodeClock::new(), &ops).unwrap();
        let stats = ps.network().stats();
        assert_eq!(stats.rpcs() - rpcs, 1, "one request");
        assert_eq!(stats.bytes_sent() - sent, 17 * 9);
        // Σ (len + 1) over the held lists: vertex 1's three ids, 2's none.
        let read = (3 + 1) + 1;
        assert_eq!(stats.bytes_received() - received, 16 + 2 + (16 + 8 * 3) + 16);
        let items = (9 + read) * ps.config().ops_per_item;
        assert_eq!(ps.server(0).port().clock().now(), port + ps.cost().cpu_cost(items));
    }

    #[test]
    fn an_update_refuses_unsealed_sources_and_dead_servers_before_writing() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.merge_edges(&c, vec![(5, 6)]).unwrap();
        let err = t.update_edges(&c, &[(5, 7, true)]).unwrap_err();
        assert!(matches!(err, PsError::Unsealed { vertex: 5, .. }), "{err}");
        t.seal(&c).unwrap();
        assert_eq!(*t.pull(&c, &[5]).unwrap()[0], vec![6], "the refused update wrote nothing");

        // Lane 0 writes a live server, lane 1 a dead one.
        let dead = t.layout().server_of(5);
        let other = (0..100).find(|&v| t.layout().server_of(v) != dead).unwrap();
        let p = t.layout().partition_of(other);
        let version = t.partition_versions().unwrap()[p];
        ps.kill_server(dead);
        let (rpcs, clock) = (ps.network().stats().rpcs(), c.now());
        let lane = NodeClock::new();
        let lanes: [(&NodeClock, &[(u64, u64, bool)]); 2] =
            [(&c, &[(other, 1, true)]), (&lane, &[(5, 8, true)])];
        let err = t.update_edges_sharded(&lanes).unwrap_err();
        assert!(matches!(err, PsError::ServerDown { id } if id == dead), "{err}");
        assert_eq!((ps.network().stats().rpcs(), c.now(), lane.now()), (rpcs, clock, SimTime::ZERO));
        assert_eq!(ps.server(t.layout().server_of(other)).version("adj", p).unwrap(), version);
        assert!(t.pull(&c, &[other]).unwrap()[0].is_empty(), "nothing written");
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
        let part: TablePart = [(3, NeighborEntry::new(vec![1, 2]))].into_iter().collect();
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
        let lists = [(3, NeighborEntry::new(vec![1, 2])), (9, NeighborEntry::new(vec![]))];
        let mut part: TablePart = lists.into_iter().collect();
        // Unsealed runs are checkpointed as the seal would leave them.
        let targets = Arc::new(vec![0, 2, 5, 7]);
        part.pending.push(Runs { targets, runs: vec![(3, 0..3), (4, 3..4)] });
        let decoded = decode_part(&encode_part(&part)).unwrap();
        assert_eq!(decoded.lists.len(), 3);
        assert!(decoded.pending.is_empty());
        assert_eq!(*decoded.lists[&3].live(), vec![0, 1, 2, 5]);
        assert_eq!(*decoded.lists[&4].live(), vec![7]);
        assert_eq!(decoded.lists[&9].live_len(), 0);
        assert!(decode_part(&[1, 2]).is_err());
    }
}
