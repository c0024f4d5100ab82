//! Read-optimized snapshots of trained PS state.
//!
//! Training leaves ranks/communities/embeddings/adjacency live on the
//! parameter servers; the serving tier (`psgraph-serve`) wants an
//! immutable, flat copy it can shard for read traffic. A
//! [`SnapshotWriter`] pulls each object through the normal client RPC
//! path (charging the exporting client's clock) and writes one flat file
//! per object plus a `MANIFEST` to the DFS:
//!
//! ```text
//! <dir>/MANIFEST            magic, entry count, per-entry (name, kind, rows, cols)
//! <dir>/<name>.snap         kind tag + shape + little-endian payload
//! ```
//!
//! Values are encoded bit-exactly (`to_bits`/`from_bits` for floats), so
//! export → load round-trips f32/f64 with no re-quantization — the serve
//! tier answers with exactly the numbers training produced.

use psgraph_dfs::Dfs;
use psgraph_sim::bytes::BufMut;
use psgraph_sim::{NodeClock, Reader};

use crate::colmatrix::ColMatrixHandle;
use crate::element::Element;
use crate::error::{PsError, Result};
use crate::matrix::MatrixHandle;
use crate::neighbor::NeighborTableHandle;
use crate::partition::PartitionLayout;
use crate::vector::VectorHandle;

/// Manifest magic ("PSGSNAP2" as big-endian bytes — v2 added the
/// per-partition write versions that delta export diffs against).
const MAGIC: u64 = 0x5053_4753_4E41_5032;

/// Delta file magic ("PSGDLTA1" as big-endian bytes).
const DELTA_MAGIC: u64 = 0x5053_4744_4C54_4131;

/// The fewest bytes an entry header takes: name length, kind, rows, cols
/// and version count.
const HEADER_MIN: usize = 21;

/// Rows pulled per RPC when exporting matrices/adjacency (bounds the
/// transient client-side buffer, and matches how a real exporter would
/// stream).
const EXPORT_CHUNK: usize = 4096;

/// What one snapshot object holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    VecF64,
    VecU64,
    /// Row-major `rows × cols` f32 (from either a row- or
    /// column-partitioned matrix — the flat form is the same).
    MatF32,
    /// CSR adjacency: `rows + 1` offsets plus packed targets.
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

/// Append the entry header the manifest and the delta share.
fn put_header(
    buf: &mut Vec<u8>,
    name: &str,
    kind: SnapshotKind,
    rows: u64,
    cols: u32,
    versions: &[u64],
) {
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name.as_bytes());
    buf.put_u8(kind.tag());
    buf.put_u64_le(rows);
    buf.put_u32_le(cols);
    buf.put_u32_le(versions.len() as u32);
    for &v in versions {
        buf.put_u64_le(v);
    }
}

/// Inverse of [`put_header`].
fn get_header(r: &mut Reader) -> Result<SnapshotEntry> {
    let len = r.count::<u32>(1)?;
    let name = String::from_utf8(r.bytes(len)?.to_vec())
        .map_err(|_| r.corrupt("non-UTF-8 object name"))?;
    let kind = SnapshotKind::from_tag(r.get()?)?;
    let (rows, cols) = (r.get()?, r.get()?);
    let n_parts = r.count::<u32>(8)?;
    let part_versions = r.vec(n_parts)?;
    Ok(SnapshotEntry { name, kind, rows, cols, part_versions })
}

/// The snapshot directory listing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotManifest {
    pub entries: Vec<SnapshotEntry>,
}

impl SnapshotManifest {
    pub fn entry(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            put_header(&mut buf, &e.name, e.kind, e.rows, e.cols, &e.part_versions);
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Reader::decode(bytes, "snapshot manifest", |r| {
            r.magic(&MAGIC.to_le_bytes())?;
            let count = r.count::<u32>(HEADER_MIN)?;
            let entries = (0..count).map(|_| get_header(r)).collect::<Result<_>>()?;
            Ok(SnapshotManifest { entries })
        })
    }

    /// Read the manifest of a snapshot directory.
    pub fn load(dfs: &Dfs, dir: &str, client: &NodeClock) -> Result<Self> {
        let bytes = dfs.read(&manifest_path(dir), client)?;
        Self::decode(&bytes)
    }
}

fn manifest_path(dir: &str) -> String {
    format!("{}/MANIFEST", dir.trim_end_matches('/'))
}

fn object_path(dir: &str, name: &str) -> String {
    format!("{}/{name}.snap", dir.trim_end_matches('/'))
}

/// Load one object of a snapshot, charging the read to `client`, as the
/// [`PatchRegion`] that rewrites all of it (`row_lo` 0; a matrix as its
/// full rows, `cols` wide as `entry` says).
pub fn load_object(
    dfs: &Dfs,
    dir: &str,
    entry: &SnapshotEntry,
    client: &NodeClock,
) -> Result<PatchRegion> {
    let bytes = dfs.read(&object_path(dir, &entry.name), client)?;
    Reader::decode(&bytes, "snapshot object", |r| {
        let kind = SnapshotKind::from_tag(r.get()?)?;
        let (rows, cols) = (r.usize()?, r.get::<u32>()?);
        if kind != entry.kind || rows as u64 != entry.rows || cols != entry.cols {
            return Err(PsError::Dfs(format!(
                "snapshot object {} does not match its manifest entry",
                entry.name
            )));
        }
        let cols = cols as usize;
        Ok(match kind {
            SnapshotKind::VecF64 => PatchRegion::RowsF64 { row_lo: 0, values: r.vec(rows)? },
            SnapshotKind::VecU64 => PatchRegion::RowsU64 { row_lo: 0, values: r.vec(rows)? },
            SnapshotKind::MatF32 => {
                let n = rows.checked_mul(cols).ok_or_else(|| r.corrupt("length overflows"))?;
                PatchRegion::RowsF32 { row_lo: 0, data: r.vec(n)? }
            }
            SnapshotKind::Adjacency => {
                let n_off = rows.checked_add(1).ok_or_else(|| r.corrupt("length overflows"))?;
                let offsets = r.vec(n_off)?;
                let n_tgt = r.count::<u64>(8)?;
                let targets = r.vec(n_tgt)?;
                // Consecutive offsets slice the targets.
                if !offsets_tile(&offsets, n_tgt) {
                    return Err(r.corrupt("offsets do not tile the targets").into());
                }
                PatchRegion::Adj { row_lo: 0, offsets, targets }
            }
        })
    })
}

/// Whether CSR `offsets` tile `targets` packed targets: they start at 0,
/// never decrease and end at `targets`, so every consecutive pair slices
/// the targets.
fn offsets_tile(offsets: &[u64], targets: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.last() == Some(&(targets as u64))
        && offsets.windows(2).all(|w| w[0] <= w[1])
}

/// The ids `[start, end)` in requests of at most [`EXPORT_CHUNK`].
fn chunks(start: u64, end: u64) -> impl Iterator<Item = Vec<u64>> {
    (start..end)
        .step_by(EXPORT_CHUNK)
        .map(move |lo| (lo..(lo + EXPORT_CHUNK as u64).min(end)).collect())
}

/// The CSR (`offsets` from 0, packed `targets`) of the live lists `h`
/// holds for each request's ids, pulled by `client` one request at a
/// time and concatenated in request order.
fn pull_csr(
    h: &NeighborTableHandle,
    client: &NodeClock,
    requests: impl Iterator<Item = Vec<u64>>,
) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut offsets = vec![0u64];
    let mut targets: Vec<u64> = Vec::new();
    for ids in requests {
        offsets.reserve(ids.len());
        for ns in h.pull(client, &ids)? {
            targets.extend_from_slice(&ns);
            offsets.push(targets.len() as u64);
        }
    }
    Ok((offsets, targets))
}

/// Exports live PS objects into a snapshot directory on the DFS.
pub struct SnapshotWriter<'a> {
    dfs: &'a Dfs,
    dir: String,
    client: &'a NodeClock,
    manifest: SnapshotManifest,
}

impl<'a> SnapshotWriter<'a> {
    pub fn new(dfs: &'a Dfs, dir: impl Into<String>, client: &'a NodeClock) -> Self {
        SnapshotWriter {
            dfs,
            dir: dir.into(),
            client,
            manifest: SnapshotManifest::default(),
        }
    }

    fn write_object(&mut self, entry: SnapshotEntry, payload: Vec<u8>) -> Result<()> {
        if self.manifest.entry(&entry.name).is_some() {
            return Err(PsError::Dfs(format!(
                "snapshot already contains an object named {}",
                entry.name
            )));
        }
        let mut bytes = Vec::with_capacity(13 + payload.len());
        bytes.put_u8(entry.kind.tag());
        bytes.put_u64_le(entry.rows);
        bytes.put_u32_le(entry.cols);
        bytes.extend_from_slice(&payload);
        self.dfs.write(&object_path(&self.dir, &entry.name), &bytes, self.client)?;
        self.manifest.entries.push(entry);
        Ok(())
    }

    /// Export a dense f64 vector (ranks, scores).
    pub fn vector_f64(&mut self, h: &VectorHandle<f64>) -> Result<()> {
        self.vector(h, SnapshotKind::VecF64)
    }

    /// Export a dense u64 vector (community / label assignments).
    pub fn vector_u64(&mut self, h: &VectorHandle<u64>) -> Result<()> {
        self.vector(h, SnapshotKind::VecU64)
    }

    fn vector<E: Element>(&mut self, h: &VectorHandle<E>, kind: SnapshotKind) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let values = h.pull_all(self.client)?;
        let mut payload = Vec::with_capacity(values.len() * E::WIDTH);
        for &v in &values {
            v.put_le(&mut payload);
        }
        let entry = SnapshotEntry {
            name: h.name().to_string(),
            kind,
            rows: values.len() as u64,
            cols: 1,
            part_versions,
        };
        self.write_object(entry, payload)
    }

    /// Export a row-partitioned f32 matrix.
    pub fn matrix_f32(&mut self, h: &MatrixHandle<f32>) -> Result<()> {
        let versions = h.partition_versions()?;
        self.matrix(h.name(), h.rows(), h.cols(), versions, [h.pull_all(self.client)])
    }

    /// Export a column-partitioned f32 matrix (LINE/GraphSage embeddings),
    /// gathering full rows in chunks through the normal pull path.
    pub fn colmatrix(&mut self, h: &ColMatrixHandle) -> Result<()> {
        let (client, versions) = (self.client, h.partition_versions()?);
        let rows = chunks(0, h.rows()).map(|ids| h.pull_rows(client, &ids));
        self.matrix(h.name(), h.rows(), h.cols(), versions, rows)
    }

    /// Write a `rows × cols` matrix whose rows arrive in pulled chunks.
    fn matrix(
        &mut self,
        name: &str,
        rows: u64,
        cols: usize,
        part_versions: Vec<u64>,
        pulled: impl IntoIterator<Item = Result<Vec<Vec<f32>>>>,
    ) -> Result<()> {
        let mut payload = Vec::with_capacity(rows as usize * cols * 4);
        for chunk in pulled {
            for v in chunk?.iter().flatten() {
                payload.put_f32_le(*v);
            }
        }
        let entry = SnapshotEntry {
            name: name.to_string(),
            kind: SnapshotKind::MatF32,
            rows,
            cols: cols as u32,
            part_versions,
        };
        self.write_object(entry, payload)
    }

    /// Export a neighbor table as a CSR adjacency snapshot (live lists
    /// only — tombstones never reach the file).
    pub fn neighbor_table(&mut self, h: &NeighborTableHandle) -> Result<()> {
        let (n, part_versions) = (h.num_vertices(), h.partition_versions()?);
        let (offsets, targets) = pull_csr(h, self.client, chunks(0, n))?;
        let mut payload = Vec::with_capacity((offsets.len() + 1 + targets.len()) * 8);
        for &o in &offsets {
            payload.put_u64_le(o);
        }
        payload.put_u64_le(targets.len() as u64);
        for &t in &targets {
            payload.put_u64_le(t);
        }
        let entry = SnapshotEntry {
            name: h.name().to_string(),
            kind: SnapshotKind::Adjacency,
            rows: n,
            cols: 0,
            part_versions,
        };
        self.write_object(entry, payload)
    }

    /// Write the manifest and return it. Must be called last — objects
    /// written after `finish` would not be listed.
    pub fn finish(self) -> Result<SnapshotManifest> {
        self.dfs.write(&manifest_path(&self.dir), &self.manifest.encode(), self.client)?;
        Ok(self.manifest)
    }
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
    /// Replacement rows of a *row-partitioned* f32 matrix: full rows
    /// `[row_lo, row_lo + data.len() / cols)`, row-major (`cols` comes
    /// from the enclosing [`DeltaEntry`]).
    RowsF32 { row_lo: u64, data: Vec<f32> },
}

impl PatchRegion {
    fn tag(&self) -> u8 {
        match self {
            PatchRegion::RowsF64 { .. } => 0,
            PatchRegion::RowsU64 { .. } => 1,
            PatchRegion::Cols { .. } => 2,
            PatchRegion::Adj { .. } => 3,
            PatchRegion::RowsF32 { .. } => 4,
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
            4 => {
                let row_lo = r.get()?;
                let len = r.count::<u64>(4)?;
                PatchRegion::RowsF32 { row_lo, data: r.vec(len)? }
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

/// The partitions that changed since a base [`SnapshotManifest`]. Objects
/// with no changed partitions are omitted entirely — that is the point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    pub entries: Vec<DeltaEntry>,
}

impl SnapshotDelta {
    pub fn entry(&self, name: &str) -> Option<&DeltaEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The base manifest advanced past this delta: same objects, changed
    /// entries carrying the delta's versions. Feed the result to the next
    /// [`DeltaWriter`] so deltas chain.
    pub fn rebase(&self, base: &SnapshotManifest) -> SnapshotManifest {
        let mut next = base.clone();
        for e in &mut next.entries {
            if let Some(d) = self.entry(&e.name) {
                e.part_versions = d.part_versions.clone();
            }
        }
        next
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(DELTA_MAGIC);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            put_header(&mut buf, &e.name, e.kind, e.rows, e.cols, &e.part_versions);
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
                    PatchRegion::RowsF32 { row_lo, data } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(data.len() as u64);
                        for &x in data {
                            buf.put_f32_le(x);
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
                let SnapshotEntry { name, kind, rows, cols, part_versions } = get_header(r)?;
                // Each region is at least a tag and two 8-byte fields.
                let n_regions = r.count::<u32>(17)?;
                let regions = (0..n_regions).map(|_| PatchRegion::decode(r));
                let regions = regions.collect::<Result<_>>()?;
                entries.push(DeltaEntry { name, kind, rows, cols, part_versions, regions });
            }
            Ok(SnapshotDelta { entries })
        })
    }

    /// Read the delta file of a snapshot directory.
    pub fn load(dfs: &Dfs, dir: &str, client: &NodeClock) -> Result<Self> {
        let bytes = dfs.read(&delta_path(dir), client)?;
        Self::decode(&bytes)
    }
}

fn delta_path(dir: &str) -> String {
    format!("{}/DELTA", dir.trim_end_matches('/'))
}

/// The key interval of range partition `p`; a delta can only patch
/// contiguous rows.
fn range_of(layout: &PartitionLayout, name: &str, p: usize) -> Result<(u64, u64)> {
    layout
        .range_of(p)
        .ok_or_else(|| PsError::Dfs(format!("delta: {name} is not range-partitioned")))
}

/// Exports only the partitions whose write version moved since a base
/// manifest — the incremental counterpart of [`SnapshotWriter`]. Each
/// export method pulls the dirty partitions through the normal client RPC
/// path and records them as [`PatchRegion`]s; unchanged objects cost
/// nothing but a version check.
pub struct DeltaWriter<'a> {
    dfs: &'a Dfs,
    dir: String,
    client: &'a NodeClock,
    base: &'a SnapshotManifest,
    delta: SnapshotDelta,
}

impl<'a> DeltaWriter<'a> {
    pub fn new(
        dfs: &'a Dfs,
        dir: impl Into<String>,
        base: &'a SnapshotManifest,
        client: &'a NodeClock,
    ) -> Self {
        DeltaWriter { dfs, dir: dir.into(), client, base, delta: SnapshotDelta::default() }
    }

    /// The base entry for `name`, validated against the live object's
    /// shape; returns the indices of partitions whose version moved.
    fn dirty_partitions(
        &self,
        name: &str,
        kind: SnapshotKind,
        rows: u64,
        current: &[u64],
    ) -> Result<Vec<usize>> {
        let base = self
            .base
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

    /// Diff one object against the base manifest: `region(p)` exports
    /// partition `p` for each partition whose version moved, and the entry
    /// is recorded unless nothing did. Returns the re-exported count.
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
        let client = self.client;
        self.diff(h.name(), kind, h.size(), 1, h.partition_versions()?, |p| {
            let (start, end) = range_of(h.layout(), h.name(), p)?;
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

    /// Diff a row-partitioned f32 matrix: each dirty partition is one
    /// contiguous block of full rows. Returns the re-exported count.
    pub fn matrix_f32(&mut self, h: &MatrixHandle<f32>) -> Result<usize> {
        let (client, cols) = (self.client, h.cols() as u32);
        self.diff(h.name(), SnapshotKind::MatF32, h.rows(), cols, h.partition_versions()?, |p| {
            let (start, end) = range_of(h.layout(), h.name(), p)?;
            let ids: Vec<u64> = (start..end).collect();
            let mut data = Vec::with_capacity(ids.len() * h.cols());
            for row in h.pull_rows(client, &ids)? {
                data.extend_from_slice(&row);
            }
            Ok(PatchRegion::RowsF32 { row_lo: start, data })
        })
    }

    /// Diff a mutable neighbor table: each dirty partition is re-exported
    /// as a CSR patch of its vertex range (live lists only). Returns the
    /// re-exported count.
    pub fn neighbor_table(&mut self, h: &NeighborTableHandle) -> Result<usize> {
        let (client, name, layout) = (self.client, h.name(), h.layout());
        self.diff(name, SnapshotKind::Adjacency, layout.size, 0, h.partition_versions()?, |p| {
            let (start, end) = range_of(layout, name, p)?;
            // One request per dirty partition.
            let (offsets, targets) = pull_csr(h, client, std::iter::once((start..end).collect()))?;
            Ok(PatchRegion::Adj { row_lo: start, offsets, targets })
        })
    }

    /// Write the delta file and return the delta. [`SnapshotDelta::rebase`]
    /// the base manifest with it to chain further deltas.
    pub fn finish(self) -> Result<SnapshotDelta> {
        self.dfs.write(&delta_path(&self.dir), &self.delta.encode(), self.client)?;
        Ok(self.delta)
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

    #[test]
    fn manifest_roundtrip() {
        let m = SnapshotManifest {
            entries: vec![
                SnapshotEntry {
                    name: "rank".into(),
                    kind: SnapshotKind::VecF64,
                    rows: 10,
                    cols: 1,
                    part_versions: vec![1, 1, 2],
                },
                SnapshotEntry {
                    name: "embed".into(),
                    kind: SnapshotKind::MatF32,
                    rows: 10,
                    cols: 16,
                    part_versions: vec![3],
                },
            ],
        };
        assert_eq!(SnapshotManifest::decode(&m.encode()).unwrap(), m);
        assert!(SnapshotManifest::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn export_load_all_kinds() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        let ranks =
            VectorHandle::<f64>::create(&ps, "rank", 7, Partitioner::Range, RecoveryMode::Consistent)
                .unwrap();
        let ids: Vec<u64> = (0..7).collect();
        let rank_vals: Vec<f64> = (0..7).map(|i| 0.1 * i as f64 + 0.013).collect();
        ranks.push_set(&c, &ids, &rank_vals).unwrap();

        let labels =
            VectorHandle::<u64>::create(&ps, "label", 7, Partitioner::Hash, RecoveryMode::Consistent)
                .unwrap();
        let label_vals: Vec<u64> = (0..7).map(|i| i * 3 % 5).collect();
        labels.push_set(&c, &ids, &label_vals).unwrap();

        let embed = ColMatrixHandle::create(&ps, "embed", 7, 6, RecoveryMode::Inconsistent)
            .unwrap();
        embed.init_uniform(&c, 9, 1.0).unwrap();
        let embed_rows = embed.pull_rows(&c, &ids).unwrap();

        let (range, mode) = (Partitioner::Range, RecoveryMode::Inconsistent);
        let adj = NeighborTableHandle::create(&ps, "adj", 7, range, mode).unwrap();
        adj.push(&c, &[(0, vec![1, 2]), (3, vec![0]), (6, vec![5, 4, 3])]).unwrap();

        // A matrix with no rows still has a width.
        let empty = MatrixHandle::<f32>::create(
            &ps, "empty", 0, 4, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();

        let t0 = c.now();
        let mut w = SnapshotWriter::new(&dfs, "/snapshot/test", &c);
        w.vector_f64(&ranks).unwrap();
        w.vector_u64(&labels).unwrap();
        w.colmatrix(&embed).unwrap();
        w.neighbor_table(&adj).unwrap();
        w.matrix_f32(&empty).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.entries.len(), 5);
        assert!(c.now() > t0, "export must charge simulated time");

        let loaded = SnapshotManifest::load(&dfs, "/snapshot/test", &c).unwrap();
        assert_eq!(loaded, manifest);

        match load_object(&dfs, "/snapshot/test", loaded.entry("rank").unwrap(), &c).unwrap() {
            PatchRegion::RowsF64 { row_lo: 0, values: v } => {
                let got: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = rank_vals.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match load_object(&dfs, "/snapshot/test", loaded.entry("label").unwrap(), &c).unwrap() {
            PatchRegion::RowsU64 { row_lo: 0, values } => assert_eq!(values, label_vals),
            other => panic!("wrong kind: {other:?}"),
        }
        match load_object(&dfs, "/snapshot/test", loaded.entry("embed").unwrap(), &c).unwrap() {
            PatchRegion::RowsF32 { row_lo: 0, data } => {
                let want: Vec<u32> =
                    embed_rows.iter().flatten().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let empty_entry = loaded.entry("empty").unwrap();
        assert_eq!((empty_entry.rows, empty_entry.cols), (0, 4));
        assert_eq!(
            load_object(&dfs, "/snapshot/test", empty_entry, &c).unwrap(),
            PatchRegion::RowsF32 { row_lo: 0, data: vec![] }
        );
        match load_object(&dfs, "/snapshot/test", loaded.entry("adj").unwrap(), &c).unwrap() {
            PatchRegion::Adj { row_lo: 0, offsets, targets } => {
                assert_eq!(offsets.len(), 8);
                assert_eq!(targets.len(), 6);
                assert_eq!(&targets[offsets[6] as usize..offsets[7] as usize], &[5, 4, 3]);
                assert_eq!(&targets[offsets[1] as usize..offsets[2] as usize], &[] as &[u64]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
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
    fn mismatched_entry_rejected_on_load() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s", &c);
        w.vector_f64(&v).unwrap();
        let m = w.finish().unwrap();
        let mut entry = m.entry("v").unwrap().clone();
        entry.rows = 99;
        assert!(load_object(&dfs, "/s", &entry, &c).is_err());
    }

    #[test]
    fn offsets_tile_only_when_every_pair_slices_the_targets() {
        assert!(offsets_tile(&[0, 2, 3], 3));
        for offsets in [&[0, 3, 2, 3][..], &[1, 2, 3], &[0, 2, 4], &[]] {
            assert!(!offsets_tile(offsets, 3), "{offsets:?}");
        }
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

        // Round-trips through the DFS bit-exactly.
        let loaded = SnapshotDelta::load(&dfs, "/s", &c).unwrap();
        assert_eq!(loaded, delta);

        // Rebase advances versions: the next delta against the rebased
        // manifest is empty.
        let next = delta.rebase(&base);
        assert_ne!(next, base);
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

        // Stitch the Cols regions back together for row 2 and compare
        // bit-exactly against the live matrix.
        let mut row = vec![None::<f32>; 6];
        for r in &delta.entry("embed").unwrap().regions {
            match r {
                PatchRegion::Cols { col_lo, col_hi, data } => {
                    let width = (col_hi - col_lo) as usize;
                    for j in 0..width {
                        row[*col_lo as usize + j] = Some(data[2 * width + j]);
                    }
                }
                other => panic!("wrong region: {other:?}"),
            }
        }
        for (j, x) in row.iter().enumerate() {
            assert_eq!(x.unwrap().to_bits(), want[j].to_bits(), "col {j}");
        }

        // Adjacency regions carry the live neighbour lists of the dirty
        // partitions only.
        let mut neigh = vec![None::<Vec<u64>>; 5];
        for r in &delta.entry("adj").unwrap().regions {
            match r {
                PatchRegion::Adj { row_lo, offsets, targets } => {
                    for i in 0..offsets.len() - 1 {
                        neigh[*row_lo as usize + i] = Some(
                            targets[offsets[i] as usize..offsets[i + 1] as usize].to_vec(),
                        );
                    }
                }
                other => panic!("wrong region: {other:?}"),
            }
        }
        assert_eq!(neigh[0].clone().unwrap(), vec![4]);
        assert_eq!(neigh[3].clone().unwrap(), vec![0, 2]);
        assert_eq!(neigh[4].clone().unwrap(), Vec::<u64>::new());
        assert_eq!(neigh[1], None, "the untouched partition is not re-exported");

        assert_eq!(SnapshotDelta::load(&dfs, "/s2", &c).unwrap(), delta);
    }

    #[test]
    fn delta_matrix_f32_roundtrip_bit_identical() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 rows over 3 servers → range partitions of 4 rows.
        let m = MatrixHandle::<f32>::create(
            &ps, "feat", 12, 5, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.init_uniform(&c, 11, 1.0).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/sm", &c);
        w.matrix_f32(&m).unwrap();
        let base = w.finish().unwrap();
        let base_data = match load_object(&dfs, "/sm", base.entry("feat").unwrap(), &c).unwrap()
        {
            PatchRegion::RowsF32 { row_lo: 0, data } => data,
            other => panic!("wrong kind: {other:?}"),
        };

        // Dirty one row in the middle partition.
        m.push_set_rows(&c, &[6], &[vec![0.25f32, -1.5, 3.0, 0.0, 9.75]]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/sm", &base, &c);
        assert_eq!(dw.matrix_f32(&m).unwrap(), 1);
        let delta = dw.finish().unwrap();
        assert_eq!(SnapshotDelta::load(&dfs, "/sm", &c).unwrap(), delta);

        // Apply the patch to the base payload: the result must be
        // bit-identical to a fresh full export of the live matrix.
        let mut patched = base_data;
        let e = delta.entry("feat").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::RowsF32 { row_lo, data } => {
                assert_eq!(*row_lo, 4, "the middle partition starts at row 4");
                assert_eq!(data.len(), 4 * 5, "full partition, full rows");
                let at = *row_lo as usize * 5;
                patched[at..at + data.len()].copy_from_slice(data);
            }
            other => panic!("wrong region: {other:?}"),
        }
        let mut w2 = SnapshotWriter::new(&dfs, "/sm-full", &c);
        w2.matrix_f32(&m).unwrap();
        let full = w2.finish().unwrap();
        let full_data =
            match load_object(&dfs, "/sm-full", full.entry("feat").unwrap(), &c).unwrap() {
                PatchRegion::RowsF32 { row_lo: 0, data } => data,
                other => panic!("wrong kind: {other:?}"),
            };
        let got: Vec<u32> = patched.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = full_data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);

        // Rebase → nothing further to export.
        let next = delta.rebase(&base);
        let mut dw2 = DeltaWriter::new(&dfs, "/sm", &next, &c);
        assert_eq!(dw2.matrix_f32(&m).unwrap(), 0);
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
        match load_object(&dfs, "/sn", base.entry("adj").unwrap(), &c).unwrap() {
            PatchRegion::Adj { row_lo: 0, offsets, targets } => {
                assert_eq!(offsets.len(), 13);
                assert_eq!(&targets[offsets[5] as usize..offsets[6] as usize], &[0, 7]);
            }
            other => panic!("wrong kind: {other:?}"),
        }

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
        assert_eq!(SnapshotDelta::load(&dfs, "/sn", &c).unwrap(), delta);

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
