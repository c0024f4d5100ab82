//! Read-optimized snapshots of trained PS state.
//!
//! Training leaves ranks/communities/embeddings/adjacency live on the
//! parameter servers; the serving tier (`psgraph-serve`) wants an
//! immutable, flat copy it can shard for read traffic. One writer,
//! [`DeltaWriter`], pulls each object's partitions whose write version
//! moved since a base [`SnapshotManifest`] through the normal client RPC
//! path (charging the exporting client's clock) and writes them, as
//! [`PatchRegion`]s, into one [`SnapshotDelta`] file on the DFS. A full
//! export ([`SnapshotWriter`]) is that writer with no base: every
//! partition of every object is dirty.
//!
//! ```text
//! <dir>/SNAPSHOT   full export: magic, entry count, per entry
//!                  (name, kind, rows, cols, versions, regions)
//! <dir>/DELTA      the latest delta, in the same encoding
//! ```
//!
//! The two files never share a path, so a refresh never overwrites the
//! file a load reads. Values are encoded bit-exactly (`to_bits`/`from_bits`
//! for floats), so export → load round-trips f32/f64 with no
//! re-quantization — the serve tier answers with exactly the numbers
//! training produced.

use std::ops::{Deref, DerefMut};

use psgraph_dfs::Dfs;
use psgraph_sim::bytes::BufMut;
use psgraph_sim::{NodeClock, Reader};

use crate::colmatrix::ColMatrixHandle;
use crate::element::Element;
use crate::error::{PsError, Result};
use crate::neighbor::NeighborTableHandle;
use crate::partition::PartitionLayout;
use crate::vector::VectorHandle;

/// File magic ("PSGDLTA1" as big-endian bytes).
const DELTA_MAGIC: u64 = 0x5053_4744_4C54_4131;

/// The fewest bytes an entry header takes: name length, kind, rows, cols
/// and version count.
const HEADER_MIN: usize = 21;

/// What one snapshot object holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    VecF64,
    VecU64,
    /// Row-major `rows × cols` f32 of a column-partitioned matrix, one
    /// column stripe per partition.
    MatF32,
    /// CSR adjacency: per partition, offsets plus packed targets.
    Adjacency,
}

impl SnapshotKind {
    fn tag(self) -> u8 {
        match self {
            SnapshotKind::VecF64 => 0,
            SnapshotKind::VecU64 => 1,
            SnapshotKind::MatF32 => 2,
            SnapshotKind::Adjacency => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => SnapshotKind::VecF64,
            1 => SnapshotKind::VecU64,
            2 => SnapshotKind::MatF32,
            3 => SnapshotKind::Adjacency,
            t => return Err(PsError::Dfs(format!("unknown snapshot kind tag {t}"))),
        })
    }
}

/// One object in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    pub name: String,
    pub kind: SnapshotKind,
    pub rows: u64,
    /// 1 for vectors; the row width for matrices; unused for adjacency.
    pub cols: u32,
    /// The PS object's per-partition write versions at export time —
    /// [`DeltaWriter`] re-exports only the partitions whose version moved
    /// since this manifest.
    pub part_versions: Vec<u64>,
}

/// What a reader of the snapshot files holds: each object's shape and
/// per-partition versions, the base the next delta is diffed against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotManifest {
    pub entries: Vec<SnapshotEntry>,
}

impl SnapshotManifest {
    pub fn entry(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// The file a full export of `dir` writes and a serving tier loads.
pub fn snapshot_path(dir: &str) -> String {
    format!("{}/SNAPSHOT", dir.trim_end_matches('/'))
}

/// The file a delta export of `dir` writes.
pub fn delta_path(dir: &str) -> String {
    format!("{}/DELTA", dir.trim_end_matches('/'))
}

/// One contiguous region of changed data within a [`DeltaEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum PatchRegion {
    /// Replacement rows `[row_lo, row_lo + values.len())` of a f64 vector.
    RowsF64 { row_lo: u64, values: Vec<f64> },
    /// Replacement rows of a u64 vector.
    RowsU64 { row_lo: u64, values: Vec<u64> },
    /// Replacement column stripe `[col_lo, col_hi)` of *every* row
    /// (column partitioning means one dirty row dirties the whole
    /// stripe), row-major `rows × (col_hi - col_lo)`.
    Cols { col_lo: u32, col_hi: u32, data: Vec<f32> },
    /// Replacement CSR adjacency for rows
    /// `[row_lo, row_lo + offsets.len() - 1)`, offsets rebased to 0.
    Adj { row_lo: u64, offsets: Vec<u64>, targets: Vec<u64> },
}

impl PatchRegion {
    fn tag(&self) -> u8 {
        match self {
            PatchRegion::RowsF64 { .. } => 0,
            PatchRegion::RowsU64 { .. } => 1,
            PatchRegion::Cols { .. } => 2,
            PatchRegion::Adj { .. } => 3,
        }
    }

    fn decode(r: &mut Reader) -> Result<Self> {
        Ok(match r.get::<u8>()? {
            0 => {
                let row_lo = r.get()?;
                let len = r.count::<u64>(8)?;
                PatchRegion::RowsF64 { row_lo, values: r.vec(len)? }
            }
            1 => {
                let row_lo = r.get()?;
                let len = r.count::<u64>(8)?;
                PatchRegion::RowsU64 { row_lo, values: r.vec(len)? }
            }
            2 => {
                let (col_lo, col_hi) = (r.get()?, r.get()?);
                let len = r.count::<u64>(4)?;
                PatchRegion::Cols { col_lo, col_hi, data: r.vec(len)? }
            }
            3 => {
                let row_lo = r.get()?;
                let n_off = r.count::<u64>(8)?;
                let offsets = r.vec(n_off)?;
                let n_tgt = r.count::<u64>(8)?;
                PatchRegion::Adj { row_lo, offsets, targets: r.vec(n_tgt)? }
            }
            t => return Err(r.corrupt(format!("unknown patch region tag {t}")).into()),
        })
    }
}

/// One object's changed partitions within a [`SnapshotDelta`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry {
    pub name: String,
    pub kind: SnapshotKind,
    pub rows: u64,
    pub cols: u32,
    /// The object's per-partition versions *after* this delta — what the
    /// base manifest entry advances to once the delta is applied.
    pub part_versions: Vec<u64>,
    pub regions: Vec<PatchRegion>,
}

/// The contents of one snapshot file: the partitions that changed since
/// a base [`SnapshotManifest`], or every partition when there was none.
/// Objects with no changed partitions are omitted from a delta entirely —
/// that is the point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    pub entries: Vec<DeltaEntry>,
}

impl SnapshotDelta {
    pub fn entry(&self, name: &str) -> Option<&DeltaEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The base manifest advanced past this delta: changed entries carry
    /// the delta's versions, and objects the base lacks are appended (so
    /// rebasing a full export onto the empty manifest gives its own
    /// manifest). Feed the result to the next [`DeltaWriter`] so deltas
    /// chain.
    pub fn rebase(&self, base: &SnapshotManifest) -> SnapshotManifest {
        let mut next = base.clone();
        for d in &self.entries {
            let e = SnapshotEntry {
                name: d.name.clone(),
                kind: d.kind,
                rows: d.rows,
                cols: d.cols,
                part_versions: d.part_versions.clone(),
            };
            match next.entries.iter_mut().find(|b| b.name == d.name) {
                Some(b) => *b = e,
                None => next.entries.push(e),
            }
        }
        next
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(DELTA_MAGIC);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32_le(e.name.len() as u32);
            buf.put_slice(e.name.as_bytes());
            buf.put_u8(e.kind.tag());
            buf.put_u64_le(e.rows);
            buf.put_u32_le(e.cols);
            buf.put_u32_le(e.part_versions.len() as u32);
            for &v in &e.part_versions {
                buf.put_u64_le(v);
            }
            buf.put_u32_le(e.regions.len() as u32);
            for r in &e.regions {
                buf.put_u8(r.tag());
                match r {
                    PatchRegion::RowsF64 { row_lo, values } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(values.len() as u64);
                        for &x in values {
                            buf.put_f64_le(x);
                        }
                    }
                    PatchRegion::RowsU64 { row_lo, values } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(values.len() as u64);
                        for &x in values {
                            buf.put_u64_le(x);
                        }
                    }
                    PatchRegion::Cols { col_lo, col_hi, data } => {
                        buf.put_u32_le(*col_lo);
                        buf.put_u32_le(*col_hi);
                        buf.put_u64_le(data.len() as u64);
                        for &x in data {
                            buf.put_f32_le(x);
                        }
                    }
                    PatchRegion::Adj { row_lo, offsets, targets } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(offsets.len() as u64);
                        for &o in offsets {
                            buf.put_u64_le(o);
                        }
                        buf.put_u64_le(targets.len() as u64);
                        for &t in targets {
                            buf.put_u64_le(t);
                        }
                    }
                }
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Reader::decode(bytes, "snapshot delta", |r| {
            r.magic(&DELTA_MAGIC.to_le_bytes())?;
            // Each entry is a header and a region count.
            let count = r.count::<u32>(HEADER_MIN + 4)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let len = r.count::<u32>(1)?;
                let name = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| r.corrupt("non-UTF-8 object name"))?;
                let kind = SnapshotKind::from_tag(r.get()?)?;
                let (rows, cols) = (r.get()?, r.get()?);
                let n_parts = r.count::<u32>(8)?;
                let part_versions = r.vec(n_parts)?;
                // Each region is at least a tag and two 8-byte fields.
                let n_regions = r.count::<u32>(17)?;
                let regions = (0..n_regions).map(|_| PatchRegion::decode(r));
                let regions = regions.collect::<Result<_>>()?;
                entries.push(DeltaEntry { name, kind, rows, cols, part_versions, regions });
            }
            Ok(SnapshotDelta { entries })
        })
    }

    /// Read one snapshot file — [`snapshot_path`] or [`delta_path`] of
    /// a directory — charging the read to `client`.
    pub fn load(dfs: &Dfs, path: &str, client: &NodeClock) -> Result<Self> {
        let bytes = dfs.read(path, client)?;
        Self::decode(&bytes)
    }
}

/// The key interval of each partition of `layout`: a region patches
/// contiguous rows, so only a range-partitioned object can be exported.
fn ranges(layout: &PartitionLayout, name: &str) -> Result<Vec<(u64, u64)>> {
    (0..layout.num_partitions)
        .map(|p| layout.range_of(p))
        .collect::<Option<_>>()
        .ok_or_else(|| PsError::Dfs(format!("delta: {name} is not range-partitioned")))
}

/// Exports the partitions whose write version moved since a base
/// manifest — every partition when there is none ([`SnapshotWriter`]).
/// Each export method pulls the dirty partitions through the normal
/// client RPC path and records them as [`PatchRegion`]s; unchanged
/// objects cost nothing but a version check.
pub struct DeltaWriter<'a> {
    dfs: &'a Dfs,
    path: String,
    client: &'a NodeClock,
    base: Option<&'a SnapshotManifest>,
    delta: SnapshotDelta,
}

impl<'a> DeltaWriter<'a> {
    /// A delta of `dir` against `base`, written to [`delta_path`].
    pub fn new(
        dfs: &'a Dfs,
        dir: &str,
        base: &'a SnapshotManifest,
        client: &'a NodeClock,
    ) -> Self {
        let (path, delta) = (delta_path(dir), SnapshotDelta::default());
        DeltaWriter { dfs, path, client, base: Some(base), delta }
    }

    /// The partitions of `name` to re-export: those whose version moved
    /// since the base entry, validated against the live object's shape —
    /// or all of them with no base.
    fn dirty_partitions(
        &self,
        name: &str,
        kind: SnapshotKind,
        rows: u64,
        current: &[u64],
    ) -> Result<Vec<usize>> {
        if self.delta.entry(name).is_some() {
            return Err(PsError::Dfs(format!("snapshot already contains an object named {name}")));
        }
        let Some(base) = self.base else {
            return Ok((0..current.len()).collect());
        };
        let base = base
            .entry(name)
            .ok_or_else(|| PsError::Dfs(format!("delta: {name} not in the base manifest")))?;
        if base.kind != kind || base.rows != rows {
            return Err(PsError::Dfs(format!(
                "delta: {name} changed shape or kind since the base snapshot"
            )));
        }
        if base.part_versions.len() != current.len() {
            return Err(PsError::Dfs(format!(
                "delta: {name} changed partition count since the base snapshot"
            )));
        }
        Ok((0..current.len())
            .filter(|&p| current[p] != base.part_versions[p])
            .collect())
    }

    /// Diff one object against the base: `region(p)` exports partition `p`
    /// for each dirty partition, and the entry is recorded unless nothing
    /// moved. Returns the re-exported count.
    fn diff(
        &mut self,
        name: &str,
        kind: SnapshotKind,
        rows: u64,
        cols: u32,
        part_versions: Vec<u64>,
        region: impl FnMut(usize) -> Result<PatchRegion>,
    ) -> Result<usize> {
        let dirty = self.dirty_partitions(name, kind, rows, &part_versions)?;
        let regions = dirty.iter().copied().map(region).collect::<Result<Vec<_>>>()?;
        if !regions.is_empty() {
            let name = name.to_string();
            self.delta.entries.push(DeltaEntry { name, kind, rows, cols, part_versions, regions });
        }
        Ok(dirty.len())
    }

    /// Diff a f64 vector; returns how many partitions were re-exported.
    pub fn vector_f64(&mut self, h: &VectorHandle<f64>) -> Result<usize> {
        self.vector(h, SnapshotKind::VecF64, |row_lo, values| PatchRegion::RowsF64 { row_lo, values })
    }

    /// Diff a u64 vector; returns how many partitions were re-exported.
    pub fn vector_u64(&mut self, h: &VectorHandle<u64>) -> Result<usize> {
        self.vector(h, SnapshotKind::VecU64, |row_lo, values| PatchRegion::RowsU64 { row_lo, values })
    }

    fn vector<E: Element>(
        &mut self,
        h: &VectorHandle<E>,
        kind: SnapshotKind,
        region: impl Fn(u64, Vec<E>) -> PatchRegion,
    ) -> Result<usize> {
        let (client, ranges) = (self.client, ranges(h.layout(), h.name())?);
        self.diff(h.name(), kind, h.size(), 1, h.partition_versions()?, |p| {
            let (start, end) = ranges[p];
            let ids: Vec<u64> = (start..end).collect();
            Ok(region(start, h.pull(client, &ids)?))
        })
    }

    /// Diff a column-partitioned matrix: each dirty partition is one
    /// column stripe of every row. Returns the re-exported count.
    pub fn colmatrix(&mut self, h: &ColMatrixHandle) -> Result<usize> {
        let (client, cols) = (self.client, h.cols() as u32);
        self.diff(h.name(), SnapshotKind::MatF32, h.rows(), cols, h.partition_versions()?, |p| {
            let part = h.pull_col_slice(client, p)?;
            Ok(PatchRegion::Cols {
                col_lo: part.col_start as u32,
                col_hi: part.col_end as u32,
                data: part.data,
            })
        })
    }

    /// Diff a mutable neighbor table: each dirty partition is re-exported,
    /// in one request, as a CSR patch of its vertex range (live lists only —
    /// tombstones never reach the file). Returns the re-exported count.
    pub fn neighbor_table(&mut self, h: &NeighborTableHandle) -> Result<usize> {
        let (client, name, layout) = (self.client, h.name(), h.layout());
        let ranges = ranges(layout, name)?;
        self.diff(name, SnapshotKind::Adjacency, layout.size, 0, h.partition_versions()?, |p| {
            let (start, end) = ranges[p];
            let ids: Vec<u64> = (start..end).collect();
            let (mut offsets, mut targets) = (vec![0u64], Vec::new());
            for ns in h.pull(client, &ids)? {
                targets.extend_from_slice(&ns);
                offsets.push(targets.len() as u64);
            }
            Ok(PatchRegion::Adj { row_lo: start, offsets, targets })
        })
    }

    /// Write the file and return what it holds. [`SnapshotDelta::rebase`]
    /// the base manifest with it to chain further deltas.
    pub fn finish(self) -> Result<SnapshotDelta> {
        self.dfs.write(&self.path, &self.delta.encode(), self.client)?;
        Ok(self.delta)
    }
}

/// A full export of live PS objects: the [`DeltaWriter`] with no base, so
/// every partition of every object is dirty, written to [`snapshot_path`].
/// Objects are exported through the delta writer's methods.
pub struct SnapshotWriter<'a>(DeltaWriter<'a>);

impl<'a> SnapshotWriter<'a> {
    pub fn new(dfs: &'a Dfs, dir: &str, client: &'a NodeClock) -> Self {
        let (path, delta) = (snapshot_path(dir), SnapshotDelta::default());
        SnapshotWriter(DeltaWriter { dfs, path, client, base: None, delta })
    }

    /// Write the snapshot file and return its manifest — the base of the
    /// next [`DeltaWriter`]. The exported regions are dropped before the
    /// file goes to the DFS, so the export never holds every object three
    /// times over (regions, encoded file, DFS blocks): that raised the
    /// serving benchmark's peak RSS.
    pub fn finish(self) -> Result<SnapshotManifest> {
        let DeltaWriter { dfs, path, client, delta, .. } = self.0;
        let (bytes, manifest) = (delta.encode(), delta.rebase(&SnapshotManifest::default()));
        drop(delta);
        dfs.write(&path, &bytes, client)?;
        Ok(manifest)
    }
}

impl<'a> Deref for SnapshotWriter<'a> {
    type Target = DeltaWriter<'a>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for SnapshotWriter<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::ps::{Ps, PsConfig, RecoveryMode};
    use std::sync::Arc;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    /// Each row of `e` as its regions spell it — a vector value's bits, a
    /// neighbour list, a matrix row's column bits in stripe order — or
    /// `None` where no region reaches.
    fn stitch(e: &DeltaEntry) -> Vec<Option<Vec<u64>>> {
        let mut rows = vec![None::<Vec<u64>>; e.rows as usize];
        for r in &e.regions {
            match r {
                PatchRegion::RowsF64 { row_lo, values } => {
                    for (i, x) in values.iter().enumerate() {
                        rows[*row_lo as usize + i] = Some(vec![x.to_bits()]);
                    }
                }
                PatchRegion::RowsU64 { row_lo, values } => {
                    for (i, &x) in values.iter().enumerate() {
                        rows[*row_lo as usize + i] = Some(vec![x]);
                    }
                }
                PatchRegion::Cols { col_lo, col_hi, data } => {
                    let width = (col_hi - col_lo) as usize;
                    for (v, row) in rows.iter_mut().enumerate() {
                        let stripe = &data[v * width..(v + 1) * width];
                        row.get_or_insert_with(Vec::new)
                            .extend(stripe.iter().map(|x| x.to_bits() as u64));
                    }
                }
                PatchRegion::Adj { row_lo, offsets, targets } => {
                    for i in 0..offsets.len() - 1 {
                        let ns = &targets[offsets[i] as usize..offsets[i + 1] as usize];
                        rows[*row_lo as usize + i] = Some(ns.to_vec());
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn full_export_writes_every_partition_bit_exactly() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let (range, mode) = (Partitioner::Range, RecoveryMode::Consistent);

        let ranks = VectorHandle::<f64>::create(&ps, "rank", 7, range, mode).unwrap();
        let ids: Vec<u64> = (0..7).collect();
        let rank_vals: Vec<f64> = (0..7).map(|i| 0.1 * i as f64 + 0.013).collect();
        ranks.push_set(&c, &ids, &rank_vals).unwrap();

        let labels = VectorHandle::<u64>::create(&ps, "label", 7, range, mode).unwrap();
        let label_vals: Vec<u64> = (0..7).map(|i| i * 3 % 5).collect();
        labels.push_set(&c, &ids, &label_vals).unwrap();

        let embed = ColMatrixHandle::create(&ps, "embed", 7, 6, RecoveryMode::Inconsistent)
            .unwrap();
        embed.init_uniform(&c, 9, 1.0).unwrap();
        let embed_rows = embed.pull_rows(&c, &ids).unwrap();

        let adj = NeighborTableHandle::create(&ps, "adj", 7, range, mode).unwrap();
        adj.push(&c, &[(0, vec![1, 2]), (3, vec![0]), (6, vec![5, 4, 3])]).unwrap();

        // A matrix with no rows still has a width.
        let empty =
            ColMatrixHandle::create(&ps, "empty", 0, 4, RecoveryMode::Inconsistent).unwrap();

        let t0 = c.now();
        let mut w = SnapshotWriter::new(&dfs, "/snapshot/test", &c);
        assert_eq!(w.vector_f64(&ranks).unwrap(), 3, "every partition is dirty");
        assert_eq!(w.vector_u64(&labels).unwrap(), 3);
        assert_eq!(w.colmatrix(&embed).unwrap(), 3);
        assert_eq!(w.neighbor_table(&adj).unwrap(), 3);
        assert_eq!(w.colmatrix(&empty).unwrap(), 3);
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.entries.len(), 5);
        assert!(c.now() > t0, "export must charge simulated time");

        let file = SnapshotDelta::load(&dfs, &snapshot_path("/snapshot/test"), &c).unwrap();
        assert_eq!(file.rebase(&SnapshotManifest::default()), manifest);
        let whole = |rows: Vec<Vec<u64>>| rows.into_iter().map(Some).collect::<Vec<_>>();
        let stitched = |name: &str| stitch(file.entry(name).unwrap());
        assert_eq!(stitched("rank"), whole(rank_vals.iter().map(|x| vec![x.to_bits()]).collect()));
        assert_eq!(stitched("label"), whole(label_vals.iter().map(|&x| vec![x]).collect()));
        let embed_bits = embed_rows.iter().map(|r| r.iter().map(|x| x.to_bits() as u64).collect());
        assert_eq!(stitched("embed"), whole(embed_bits.collect()));
        let lists = [vec![1, 2], vec![], vec![], vec![0], vec![], vec![], vec![5, 4, 3]];
        assert_eq!(stitched("adj"), whole(lists.to_vec()));
        let empty_entry = file.entry("empty").unwrap();
        assert_eq!((empty_entry.rows, empty_entry.cols), (0, 4));
    }

    /// A region patches contiguous rows: a hash-partitioned vector or
    /// neighbor table cannot be exported, and says so.
    #[test]
    fn full_export_of_hash_partitioned_objects_is_an_error() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let (hash, mode) = (Partitioner::Hash, RecoveryMode::Consistent);
        let ranks = VectorHandle::<f64>::create(&ps, "rank", 7, hash, mode).unwrap();
        let labels = VectorHandle::<u64>::create(&ps, "label", 7, hash, mode).unwrap();
        let adj = NeighborTableHandle::create(&ps, "adj", 7, hash, mode).unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s", &c);
        assert!(matches!(w.vector_f64(&ranks), Err(PsError::Dfs(_))));
        assert!(matches!(w.vector_u64(&labels), Err(PsError::Dfs(_))));
        assert!(matches!(w.neighbor_table(&adj), Err(PsError::Dfs(_))));
        assert!(w.finish().unwrap().entries.is_empty(), "nothing was recorded");
    }

    #[test]
    fn duplicate_object_name_rejected() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "dup", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/snapshot/dup", &c);
        w.vector_f64(&v).unwrap();
        assert!(matches!(w.vector_f64(&v), Err(PsError::Dfs(_))));
    }

    #[test]
    fn delta_exports_only_dirty_partitions() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 vertices over 3 servers → range partitions of 4 vertices.
        let ranks = VectorHandle::<f64>::create(
            &ps, "rank", 12, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let ids: Vec<u64> = (0..12).collect();
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        ranks.push_set(&c, &ids, &vals).unwrap();

        let embed =
            ColMatrixHandle::create(&ps, "embed", 12, 6, RecoveryMode::Inconsistent).unwrap();
        embed.init_uniform(&c, 5, 1.0).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/s", &c);
        w.vector_f64(&ranks).unwrap();
        w.colmatrix(&embed).unwrap();
        let base = w.finish().unwrap();

        // Touch only the first rank partition; leave embed untouched.
        ranks.push_set(&c, &[1], &[41.5]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/s", &base, &c);
        assert_eq!(dw.vector_f64(&ranks).unwrap(), 1);
        assert_eq!(dw.colmatrix(&embed).unwrap(), 0);
        let delta = dw.finish().unwrap();

        // Untouched object omitted entirely; dirty one carries exactly
        // the dirty partition's rows.
        assert!(delta.entry("embed").is_none());
        let e = delta.entry("rank").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::RowsF64 { row_lo, values } => {
                assert_eq!(*row_lo, 0);
                assert_eq!(values.len(), 4);
                assert_eq!(values[1].to_bits(), 41.5f64.to_bits());
                assert_eq!(values[0].to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong region: {other:?}"),
        }

        // Round-trips through the DFS bit-exactly, beside the snapshot
        // file it leaves as it was.
        let loaded = SnapshotDelta::load(&dfs, &delta_path("/s"), &c).unwrap();
        assert_eq!(loaded, delta);
        let full = SnapshotDelta::load(&dfs, &snapshot_path("/s"), &c).unwrap();
        assert_eq!(full.rebase(&SnapshotManifest::default()), base);

        // Rebase advances versions: the next delta against the rebased
        // manifest is empty.
        let next = delta.rebase(&base);
        assert_ne!(next, base);
        assert_eq!(next.entries.len(), base.entries.len());
        let mut dw2 = DeltaWriter::new(&dfs, "/s", &next, &c);
        assert_eq!(dw2.vector_f64(&ranks).unwrap(), 0);
        assert!(dw2.finish().unwrap().entries.is_empty());
    }

    #[test]
    fn delta_covers_matrix_and_adjacency_regions() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        let embed =
            ColMatrixHandle::create(&ps, "embed", 5, 6, RecoveryMode::Inconsistent).unwrap();
        embed.init_uniform(&c, 5, 1.0).unwrap();
        // 5 vertices over 3 servers → range partitions {0}, {1}, {2, 3, 4}.
        let (range, mode) = (Partitioner::Range, RecoveryMode::Inconsistent);
        let adj = NeighborTableHandle::create(&ps, "adj", 5, range, mode).unwrap();
        adj.push(&c, &[(0, vec![1, 2]), (3, vec![0])]).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/s2", &c);
        w.colmatrix(&embed).unwrap();
        w.neighbor_table(&adj).unwrap();
        let base = w.finish().unwrap();

        // A row update dirties every column partition it spans.
        embed.push_add_rows(&c, &[2], &[vec![1.0f32; 6]]).unwrap();
        let want = embed.pull_rows(&c, &[2]).unwrap().remove(0);
        // Vertex 0's list becomes [4] and vertex 3 gains 2: two of the
        // three partitions move.
        adj.update_edges(&c, &[(0, 1, false), (0, 2, false), (0, 4, true), (3, 2, true)])
            .unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/s2", &base, &c);
        assert!(dw.colmatrix(&embed).unwrap() >= 1);
        assert_eq!(dw.neighbor_table(&adj).unwrap(), 2);
        let delta = dw.finish().unwrap();

        // Row 2, stitched from the column stripes, is the live row bit
        // for bit.
        let row2 = want.iter().map(|x| x.to_bits() as u64).collect();
        assert_eq!(stitch(delta.entry("embed").unwrap())[2], Some(row2));

        // Adjacency regions carry the live neighbour lists of the dirty
        // partitions only.
        let neigh = stitch(delta.entry("adj").unwrap());
        assert_eq!(neigh[0], Some(vec![4]));
        assert_eq!(neigh[3], Some(vec![0, 2]));
        assert_eq!(neigh[4], Some(vec![]));
        assert_eq!(neigh[1], None, "the untouched partition is not re-exported");

        assert_eq!(SnapshotDelta::load(&dfs, &delta_path("/s2"), &c).unwrap(), delta);
    }

    #[test]
    fn neighbor_table_snapshot_and_delta() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 vertices over 3 servers → range partitions of 4 vertices.
        let t = NeighborTableHandle::create(
            &ps, "adj", 12, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        t.push(&c, &[(0, vec![1, 2]), (5, vec![0, 7]), (9, vec![3])]).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/sn", &c);
        w.neighbor_table(&t).unwrap();
        let base = w.finish().unwrap();
        let full = SnapshotDelta::load(&dfs, &snapshot_path("/sn"), &c).unwrap();
        let lists = stitch(full.entry("adj").unwrap());
        assert_eq!(lists.len(), 12);
        assert_eq!(lists[5], Some(vec![0, 7]));

        // Mutate only the middle partition (vertices 4..8): the delta
        // re-exports exactly that vertex range, tombstones excluded.
        t.update_edges(&c, &[(5, 7, false), (6, 11, true)]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/sn", &base, &c);
        assert_eq!(dw.neighbor_table(&t).unwrap(), 1);
        let delta = dw.finish().unwrap();
        let e = delta.entry("adj").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::Adj { row_lo, offsets, targets } => {
                assert_eq!(*row_lo, 4);
                assert_eq!(offsets.len(), 5);
                let ns = |i: usize| {
                    &targets[offsets[i] as usize..offsets[i + 1] as usize]
                };
                assert_eq!(ns(1), &[0], "removed neighbor is gone");
                assert_eq!(ns(2), &[11], "added neighbor is present");
            }
            other => panic!("wrong region: {other:?}"),
        }
        assert_eq!(SnapshotDelta::load(&dfs, &delta_path("/sn"), &c).unwrap(), delta);

        let next = delta.rebase(&base);
        let mut dw2 = DeltaWriter::new(&dfs, "/sn", &next, &c);
        assert_eq!(dw2.neighbor_table(&t).unwrap(), 0);
    }

    #[test]
    fn delta_rejects_unknown_and_reshaped_objects() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s3", &c);
        w.vector_f64(&v).unwrap();
        let base = w.finish().unwrap();

        // Object absent from the base manifest.
        let other = VectorHandle::<f64>::create(
            &ps, "other", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut dw = DeltaWriter::new(&dfs, "/s3", &base, &c);
        assert!(matches!(dw.vector_f64(&other), Err(PsError::Dfs(_))));

        // Same name, different shape.
        let mut reshaped = base.clone();
        reshaped.entries[0].rows = 99;
        let mut dw2 = DeltaWriter::new(&dfs, "/s3", &reshaped, &c);
        assert!(matches!(dw2.vector_f64(&v), Err(PsError::Dfs(_))));
    }
}
