//! PS matrices: GNN weight matrices `W^k` and vertex feature matrices `X`
//! (paper §IV-E), and LINE's embedding and context matrices (§IV-D).
//!
//! A matrix is one object with one partition type, a row set × a column
//! range (`MatPart`), split one of two ways:
//!
//! * **by rows** ([`MatrixHandle::create_row_split`]): a [`PartitionLayout`]
//!   over the row indices, each partition holding every column of its rows
//!   — contiguously (range) or as sparse rows that materialize on first
//!   write (hash). GraphSage's features and weights.
//! * **by columns** ([`MatrixHandle::create`], named [`ColMatrixHandle`]):
//!   a range layout over the columns, each server holding a column slice
//!   `[c0, c1)` of *every* row. "To enable the dot product operation on PS,
//!   we partition the embedding vectors and context vectors by column …
//!   the same dimensions of u and c are co-located on the same server, so
//!   that we can calculate partial dot products on PS and merge them on the
//!   executor." The psFuncs [`MatrixHandle::dot_pairs`] and
//!   [`MatrixHandle::update_pairs`] run there entirely server-side, reading
//!   the co-located slices of both matrices in place under one store lock:
//!   only vertex-id pairs, scalar coefficients and partial sums cross the
//!   network — the communication optimization `repro -- line` measures
//!   against pull-whole-row training. They visit every column slice, one
//!   leg each, all in flight together.
//!
//! Every row-keyed operation is written once: it routes each row to the
//! partitions holding it (its one partition under the row split, every
//! column slice under the column split), and each leg charges over its own
//! partitions' widths. Adam, the paper's server-side optimizer psFunc,
//! keeps its moments in shadow matrices of the same split next to the
//! weights, so they never cross the network. Routing, liveness and the RPC
//! charge are `PsObject`'s.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{FxHashMap, NodeClock, Reader, SplitMix64};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use crate::element::Element;
use crate::error::{PsError, Result};
use crate::object::{Partition, PsObject, ServerGroup};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};

/// A column-split `f32` matrix (LINE, the serving embeddings); the
/// five-argument [`MatrixHandle::create`] builds one.
pub type ColMatrixHandle = MatrixHandle<f32>;

/// The rows one partition holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RowSet<E> {
    /// Rows `[start, start + n)`, row-major, `n × width` values.
    Dense { start: u64, data: Vec<E> },
    /// Rows keyed by index, `width` values each.
    Sparse(FxHashMap<u64, Vec<E>>),
}

/// One stored matrix partition: a row set × the column range `cols`
/// (`0..cols` under the row split).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MatPart<E> {
    pub(crate) cols: Range<usize>,
    pub(crate) rows: RowSet<E>,
}

/// Where row `r` of a row-major block `w` values wide lies in it.
#[inline]
fn span(r: u64, w: usize) -> Range<usize> {
    r as usize * w..(r as usize + 1) * w
}

/// A sparse row to write, materialized as zeros. Kept out of line: with the
/// hash-map insert inlined, the dense path of [`MatPart::row_mut`] got
/// measurably slower in every row write.
#[cold]
#[inline(never)]
fn sparse_row_mut<E: Element>(map: &mut FxHashMap<u64, Vec<E>>, key: u64, w: usize) -> &mut [E] {
    map.entry(key).or_insert_with(|| vec![E::default(); w])
}

impl<E: Element> MatPart<E> {
    #[inline]
    fn width(&self) -> usize {
        self.cols.end - self.cols.start
    }

    /// Row `key`'s values in this partition's columns; empty for a sparse
    /// row that was never written (it reads as zeros).
    fn row(&self, key: u64) -> &[E] {
        match &self.rows {
            RowSet::Dense { start, data } => &data[span(key - start, self.width())],
            RowSet::Sparse(map) => map.get(&key).map_or(&[], Vec::as_slice),
        }
    }

    /// Row `key` to write; a sparse row materializes as zeros.
    fn row_mut(&mut self, key: u64) -> &mut [E] {
        let w = self.width();
        match &mut self.rows {
            RowSet::Dense { start, data } => &mut data[span(key - *start, w)],
            RowSet::Sparse(map) => sparse_row_mut(map, key, w),
        }
    }

    /// Copy row `key` into `into` (this partition's width): zeros for a
    /// row it does not hold.
    fn read_row(&self, key: u64, into: &mut [E]) {
        match self.row(key) {
            [] => into.fill(E::default()),
            row => into.copy_from_slice(row),
        }
    }

    /// [`MatPart::read_row`] into a new vector.
    fn row_vec(&self, key: u64) -> Vec<E> {
        let mut row = vec![E::default(); self.width()];
        self.read_row(key, &mut row);
        row
    }

    /// The dense rows as one row-major block and its width (a column
    /// slice's block starts at row 0); sparse rows have none. The
    /// whole-partition operations and the psFunc kernels take it once
    /// and index rows with [`span`], outside the row-set match.
    fn block(&self) -> (&[E], usize) {
        match &self.rows {
            RowSet::Dense { data, .. } => (data, self.width()),
            RowSet::Sparse(_) => (&[], self.width()),
        }
    }

    /// [`MatPart::block`], mutable.
    fn block_mut(&mut self) -> (&mut [E], usize) {
        let w = self.width();
        match &mut self.rows {
            RowSet::Dense { data, .. } => (data, w),
            RowSet::Sparse(_) => (&mut [], w),
        }
    }
}

impl<E: Element> Partition for MatPart<E> {
    /// The column range, and the dense rows' start and value count (`None`
    /// for sparse rows).
    type Shape = (Range<usize>, Option<(u64, usize)>);

    fn shape(&self) -> Self::Shape {
        let dense = match &self.rows {
            RowSet::Dense { start, data } => Some((*start, data.len())),
            RowSet::Sparse(_) => None,
        };
        (self.cols.clone(), dense)
    }

    /// Only the row split stores rows by key, and its layout is over rows.
    fn keys_fit(&self, layout: &PartitionLayout, partition: usize) -> bool {
        match &self.rows {
            RowSet::Dense { .. } => true,
            RowSet::Sparse(map) => map.keys().all(|&k| layout.holds(partition, k)),
        }
    }

    fn approx_bytes(&self) -> u64 {
        match &self.rows {
            RowSet::Dense { data, .. } => (data.len() * E::WIDTH) as u64 + 48,
            RowSet::Sparse(map) => (map.len() * (8 + 24 + self.width() * E::WIDTH)) as u64 + 48,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.cols.start as u64);
        buf.put_u64_le(self.cols.end as u64);
        match &self.rows {
            RowSet::Dense { start, data } => {
                buf.put_u8(0);
                buf.put_u64_le(*start);
                buf.put_u64_le(data.len() as u64);
                for &v in data {
                    v.put_le(&mut buf);
                }
            }
            RowSet::Sparse(map) => {
                buf.put_u8(1);
                buf.put_u64_le(map.len() as u64);
                let mut keys: Vec<_> = map.keys().copied().collect();
                keys.sort_unstable();
                for k in keys {
                    buf.put_u64_le(k);
                    for &v in &map[&k] {
                        v.put_le(&mut buf);
                    }
                }
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Reader::decode(bytes, "matrix checkpoint", |r| {
            let (c0, c1) = (r.usize()?, r.usize()?);
            // Every row accessor relies on a non-empty column range that
            // each row fills exactly.
            if c0 >= c1 {
                return Err(r.corrupt("empty or reversed column range").into());
            }
            let width = c1 - c0;
            let rows = match r.get::<u8>()? {
                0 => {
                    let start = r.get()?;
                    let len = r.count::<u64>(E::WIDTH)?;
                    if !len.is_multiple_of(width) {
                        return Err(r.corrupt("data does not tile the column range").into());
                    }
                    RowSet::Dense { start, data: r.vec(len)? }
                }
                1 => {
                    let row_bytes = width.checked_mul(E::WIDTH).and_then(|b| b.checked_add(8));
                    let n =
                        r.count::<u64>(row_bytes.ok_or_else(|| r.corrupt("row width overflows"))?)?;
                    let mut map = FxHashMap::default();
                    for _ in 0..n {
                        let k = r.get()?;
                        map.insert(k, r.vec(width)?);
                    }
                    RowSet::Sparse(map)
                }
                t => return Err(r.corrupt(format!("bad partition tag {t}")).into()),
            };
            Ok(MatPart { cols: c0..c1, rows })
        })
    }
}

/// How a matrix is split over its partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    /// By rows, under this partitioner; every partition holds every column.
    Rows(Partitioner),
    /// By column ranges; every partition holds every row.
    Cols,
}

/// `to += coef × from`, element-wise in f32.
fn axpy(to: &mut [f32], coef: f64, from: &[f32]) {
    for (t, f) in to.iter_mut().zip(from) {
        *t += coef as f32 * *f;
    }
}

/// Pairs one pass of [`dot_slice`] scores: eight independent add chains
/// keep the core's f64 adders busy where one chain waits on each add.
const LANES: usize = 8;

/// One pair's partial dot product over a column slice: an f64 chain in
/// column order from `+0.0`.
#[inline]
fn dot_chain(x: &[f32], y: &[f32]) -> f64 {
    x.iter().zip(y).fold(0.0, |s, (a, b)| s + *a as f64 * *b as f64)
}

/// Adds the [`dot_chain`] of rows `a[i_k]` and `b[j_k]` to `out[k]` for
/// every `pairs[k] = (i_k, j_k)`, over one column slice `w` wide (`a`,
/// `b` row-major).
/// Blocks of [`LANES`] pairs run their chains side by side, lane `l` of
/// block `k` holding pair `LANES·k + l`; the remainder runs one chain at a
/// time. Each chain is its pair's own, from `+0.0` in column order, so
/// every sum carries `dot_chain`'s bits.
fn dot_slice(a: &[f32], b: &[f32], w: usize, pairs: &[(u64, u64)], out: &mut [f64]) {
    let mut blocks = pairs.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        let rows: [(&[f32], &[f32]); LANES] =
            std::array::from_fn(|l| (&a[span(block[l].0, w)], &b[span(block[l].1, w)]));
        let mut acc = [0.0f64; LANES];
        for c in 0..w {
            for (s, (x, y)) in acc.iter_mut().zip(&rows) {
                *s += x[c] as f64 * y[c] as f64;
            }
        }
        for (o, s) in out.iter_mut().zip(acc) {
            *o += s;
        }
    }
    for (o, &(i, j)) in outs.into_remainder().iter_mut().zip(blocks.remainder()) {
        *o += dot_chain(&a[span(i, w)], &b[span(j, w)]);
    }
}

/// Typed client handle to a PS matrix, split by rows or by columns.
#[derive(Debug, Clone)]
pub struct MatrixHandle<E: Element> {
    obj: PsObject,
    rows: u64,
    cols: usize,
    split: Split,
    _e: PhantomData<fn() -> E>,
}

impl<E: Element> MatrixHandle<E> {
    /// Create a zero `rows × cols` matrix whose columns are range-partitioned
    /// over the servers, every server holding its slice of every row.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        rows: u64,
        cols: usize,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        Self::install(ps, name.into(), rows, cols, Split::Cols, recovery)
    }

    /// Create a zero `rows × cols` matrix whose rows are partitioned by
    /// `partitioner`, one partition per server (the paper's
    /// `PSContext.matrix(row, col, DataType)`).
    pub fn create_row_split(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        rows: u64,
        cols: usize,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        Self::install(ps, name.into(), rows, cols, Split::Rows(partitioner), recovery)
    }

    fn install(
        ps: &Arc<Ps>,
        name: String,
        rows: u64,
        cols: usize,
        split: Split,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        if cols == 0 {
            return Err(PsError::DimensionMismatch(format!("{name}: need at least one column")));
        }
        let servers = ps.num_servers();
        let layout = match split {
            Split::Rows(partitioner) => PartitionLayout::new(partitioner, rows, servers, servers),
            Split::Cols => {
                PartitionLayout::new(Partitioner::Range, cols as u64, servers.min(cols), servers)
            }
        };
        let obj = PsObject::new(ps, name, layout);
        obj.install(recovery, |p| {
            // Partition `p`'s row range (none under a hash row split) and columns.
            let (row_range, col_range) = match split {
                Split::Rows(_) => (obj.layout.range_of(p), 0..cols),
                Split::Cols => {
                    let (c0, c1) = obj.layout.range_of(p).unwrap_or((0, cols as u64));
                    (Some((0, rows)), c0 as usize..c1 as usize)
                }
            };
            let rows = match row_range {
                Some((r0, r1)) => RowSet::Dense {
                    start: r0,
                    data: vec![E::default(); (r1 - r0) as usize * col_range.len()],
                },
                None => RowSet::Sparse(FxHashMap::default()),
            };
            MatPart { cols: col_range, rows }
        })?;
        Ok(MatrixHandle { obj, rows, cols, split, _e: PhantomData })
    }

    pub fn name(&self) -> &str {
        &self.obj.name
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The layout of the split: over the rows or over the columns.
    pub fn layout(&self) -> &PartitionLayout {
        &self.obj.layout
    }

    /// Per-partition write versions (see [`crate::PsServer::version`]).
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    /// Bytes resident on the servers for this matrix.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<MatPart<E>>()
    }

    fn check_rows(&self, rows: impl IntoIterator<Item = u64>) -> Result<()> {
        self.obj.check_below(self.rows, rows)
    }

    /// One row of `cols` values for each of `rows`, every row in range.
    fn check_values(&self, rows: &[u64], values: &[Vec<E>]) -> Result<()> {
        if rows.len() != values.len() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: {} rows vs {} value rows",
                self.obj.name,
                rows.len(),
                values.len()
            )));
        }
        if let Some(v) = values.iter().find(|v| v.len() != self.cols) {
            return Err(PsError::DimensionMismatch(format!(
                "{}: row of width {} vs cols {}",
                self.obj.name,
                v.len(),
                self.cols
            )));
        }
        self.check_rows(rows.iter().copied())
    }

    /// The partitions holding each of `rows`, one group per server as
    /// [`PsObject::group`] returns them: a row's one partition under the
    /// row split, every column slice under the column split (slice `p` is
    /// on server `p` — there are no more slices than servers).
    fn route(&self, rows: &[u64]) -> Vec<(usize, ServerGroup)> {
        match self.split {
            Split::Rows(_) => self.obj.group(rows.iter().copied().enumerate()),
            Split::Cols if rows.is_empty() => Vec::new(),
            Split::Cols => (0..self.obj.layout.num_partitions)
                .map(|p| (self.obj.layout.server_of_partition(p), vec![(p, (0..rows.len()).collect())]))
                .collect(),
        }
    }

    /// Pull whole rows; result aligns with `rows`. Under the column split
    /// every server sends its slice of every row — the expensive baseline
    /// the psFuncs avoid, and the final readout.
    pub fn pull_rows(&self, client: &NodeClock, rows: &[u64]) -> Result<Vec<Vec<E>>> {
        self.check_rows(rows.iter().copied())?;
        let mut out = vec![vec![E::default(); self.cols]; rows.len()];
        self.obj.scatter_groups(client, self.route(rows), |server, n, parts| {
            let mut items = 0;
            for (p, positions) in parts {
                items += server.get(&self.obj.name, p, |part: &MatPart<E>| {
                    for &pos in &positions {
                        part.read_row(rows[pos], &mut out[pos][part.cols.clone()]);
                    }
                    (positions.len() * part.width()) as u64
                })?;
            }
            Ok((n * 8, self.obj.item_ops(items), items * E::WIDTH as u64))
        })?;
        Ok(out)
    }

    /// Server-side row update: `apply(row, value)` for every row, each
    /// partition getting its own columns of the value.
    fn push_rows_with(
        &self,
        client: &NodeClock,
        rows: &[u64],
        values: &[Vec<E>],
        apply: impl Fn(&mut [E], &[E]),
    ) -> Result<()> {
        self.check_values(rows, values)?;
        self.obj.scatter_groups(client, self.route(rows), |server, n, parts| {
            let mut items = 0;
            for (p, positions) in parts {
                items += self.obj.write(server, p, |part: &mut MatPart<E>| {
                    let cols = part.cols.clone();
                    for &pos in &positions {
                        apply(part.row_mut(rows[pos]), &values[pos][cols.clone()]);
                    }
                    (positions.len() * cols.len()) as u64
                })?;
            }
            Ok((n * 8 + items * E::WIDTH as u64, self.obj.item_ops(items), 8))
        })
    }

    /// Add deltas into rows.
    pub fn push_add_rows(
        &self,
        client: &NodeClock,
        rows: &[u64],
        deltas: &[Vec<E>],
    ) -> Result<()> {
        self.push_rows_with(client, rows, deltas, |row, d| {
            for (r, &x) in row.iter_mut().zip(d) {
                *r = r.add(x);
            }
        })
    }

    /// Overwrite rows.
    pub fn push_set_rows(
        &self,
        client: &NodeClock,
        rows: &[u64],
        values: &[Vec<E>],
    ) -> Result<()> {
        self.push_rows_with(client, rows, values, |row, v| {
            for (r, &x) in row.iter_mut().zip(v) {
                *r = x;
            }
        })
    }
}

impl MatrixHandle<f32> {
    /// Server-side uniform initialization in `[-scale, scale)` (seeded;
    /// deterministic per run). Dense partitions fill every row; sparse
    /// partitions stay lazy (rows materialize on first update).
    pub fn init_uniform(&self, client: &NodeClock, seed: u64, scale: f32) -> Result<()> {
        self.obj.each_partition(client, |p, server| {
            let n = self.obj.write(server, p, |part: &mut MatPart<f32>| {
                let (data, _) = part.block_mut();
                let mut rng = SplitMix64::new(seed ^ (p as u64).wrapping_mul(0xA5A5_5A5A));
                for v in data.iter_mut() {
                    *v = (rng.next_f64() as f32 * 2.0 - 1.0) * scale;
                }
                data.len() as u64
            })?;
            Ok((24, self.obj.item_ops(n), 8))
        })
    }

    /// Server-side Adam (psFunc, paper §IV-E): first/second moments live in
    /// shadow matrices `<name>.m` / `<name>.v` of the same split; `t` is the
    /// 1-based step. The moment rows and the weight row of a key are
    /// updated together; gradients cross the wire, weights and moments do
    /// not.
    #[allow(clippy::too_many_arguments)]
    pub fn adam_step(
        &self,
        client: &NodeClock,
        rows: &[u64],
        grads: &[Vec<f32>],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
    ) -> Result<()> {
        self.check_values(rows, grads)?;
        let (m, v) = (self.optimizer_state(".m")?, self.optimizer_state(".v")?);
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        self.obj.scatter_groups(client, self.route(rows), |server, n, parts| {
            let mut items = 0;
            for (p, positions) in parts {
                for &pos in &positions {
                    let key = rows[pos];
                    let read = |s: &Self| server.get(&s.obj.name, p, |sp: &MatPart<f32>| sp.row_vec(key));
                    let (mut mrow, mut vrow) = (read(&m)?, read(&v)?);
                    items += self.obj.write(server, p, |wp: &mut MatPart<f32>| {
                        let g = &grads[pos][wp.cols.clone()];
                        let w = wp.row_mut(key);
                        for i in 0..w.len() {
                            mrow[i] = beta1 * mrow[i] + (1.0 - beta1) * g[i];
                            vrow[i] = beta2 * vrow[i] + (1.0 - beta2) * g[i] * g[i];
                            let mhat = mrow[i] / bc1;
                            let vhat = vrow[i] / bc2;
                            w[i] -= lr * mhat / (vhat.sqrt() + eps);
                        }
                        g.len() as u64
                    })?;
                    for (s, srow) in [(&m, &mrow), (&v, &vrow)] {
                        s.obj.write(server, p, |sp: &mut MatPart<f32>| {
                            for (to, &x) in sp.row_mut(key).iter_mut().zip(srow) {
                                *to = x;
                            }
                        })?;
                    }
                }
            }
            // Each moment row is read and written back, the weight row updated.
            Ok((n * 8 + items * 4, self.obj.item_ops(5 * items), 8))
        })
    }

    /// The same-shaped shadow matrix `<name><suffix>` holding optimizer
    /// state, created on first use.
    fn optimizer_state(&self, suffix: &str) -> Result<Self> {
        let name = format!("{}{suffix}", self.obj.name);
        if self.obj.ps.is_registered(&name) {
            let obj = PsObject::new(&self.obj.ps, name, self.obj.layout.clone());
            Ok(MatrixHandle { obj, ..self.clone() })
        } else {
            Self::install(&self.obj.ps, name, self.rows, self.cols, self.split, RecoveryMode::Inconsistent)
        }
    }

    /// Partition `p` as the server's store names it.
    fn part(&self, p: usize) -> (&str, usize) {
        (&self.obj.name, p)
    }

    /// The psFuncs and the block export need co-located column slices.
    fn col_split(&self) -> Result<()> {
        match self.split {
            Split::Cols => Ok(()),
            Split::Rows(_) => Err(PsError::DimensionMismatch(format!(
                "{}: split by rows, not by columns",
                self.obj.name
            ))),
        }
    }

    fn same_shape(&self, other: &Self) -> Result<()> {
        self.col_split()?;
        if self.rows != other.rows
            || self.cols != other.cols
            || self.split != other.split
            || self.obj.layout != other.obj.layout
        {
            return Err(PsError::DimensionMismatch(format!(
                "{} and {} have different shapes/layouts",
                self.obj.name, other.obj.name
            )));
        }
        Ok(())
    }

    /// Pull column slice `partition` whole, every row of it (snapshot
    /// export: a changed partition is one column stripe). Charged as one
    /// bulk RPC to `client`.
    pub(crate) fn pull_block(
        &self,
        client: &NodeClock,
        partition: usize,
    ) -> Result<(Range<usize>, Vec<f32>)> {
        self.col_split()?;
        let server = self.obj.server(partition);
        server.ensure_alive()?;
        self.obj.fan_out(client, |fan| {
            let (cols, data) = server.get(&self.obj.name, partition, |part: &MatPart<f32>| {
                (part.cols.clone(), part.block().0.to_vec())
            })?;
            let n = data.len() as u64;
            fan.leg(server, (16, self.obj.item_ops(n), n * 4 + 16));
            Ok((cols, data))
        })
    }

    /// Server-side partial dot products, merged client-side:
    /// `out[k] = Σ_c self[i_k, c] × other[j_k, c]` for `pairs[k] = (i_k, j_k)`.
    /// Only ids and one f64 per pair per server cross the wire; the server
    /// CPU is `pairs × width × 2` raw ops (a multiply and an add per
    /// column), not a per-item charge. Column split only. Each server's
    /// partial is a chain from `+0.0` in column order (`dot_slice`, a
    /// block of pairs per pass); the partials are added to `0.0` in
    /// partition order.
    pub fn dot_pairs(
        &self,
        client: &NodeClock,
        other: &Self,
        pairs: &[(u64, u64)],
    ) -> Result<Vec<f64>> {
        self.same_shape(other)?;
        self.check_rows(pairs.iter().map(|&(i, _)| i))?;
        self.check_rows(pairs.iter().map(|&(_, j)| j))?;
        let mut out = vec![0.0f64; pairs.len()];
        let n = pairs.len() as u64;
        self.obj.each_partition(client, |p, server| {
            let width = server.get_pair(self.part(p), other.part(p), |a: &MatPart<f32>, b: &MatPart<f32>| {
                let ((a, w), (b, _)) = (a.block(), b.block());
                dot_slice(a, b, w, pairs, &mut out);
                w as u64
            })?;
            Ok((n * 16, n * width * 2, n * 8))
        })?;
        Ok(out)
    }

    /// Server-side fused pair update (one SGD round of LINE): for every
    /// `(i, t, coef)` of `updates`, in input order,
    /// `self[i] += coef × other[t]` reading `other` as it was before the
    /// call; then, again for every update in input order,
    /// `other[t] += coef × self[i]` reading `self` as the first pass left
    /// it. `other` may be `self` (first-order LINE). One RPC per server:
    /// the update list crosses once, server CPU is `updates × width × 4`
    /// raw ops (a multiply and an add per column, per pass). Column split
    /// only.
    pub fn update_pairs(
        &self,
        client: &NodeClock,
        other: &Self,
        updates: &[(u64, u64, f64)],
    ) -> Result<()> {
        self.same_shape(other)?;
        self.check_rows(updates.iter().map(|&(i, _, _)| i))?;
        self.check_rows(updates.iter().map(|&(_, t, _)| t))?;
        let n = updates.len() as u64;
        // Distinct matrices: the pass that writes one only reads the
        // other, so rows are read in place.
        let both = |a: &mut MatPart<f32>, b: &mut MatPart<f32>| {
            let ((a, w), (b, _)) = (a.block_mut(), b.block_mut());
            for &(i, t, coef) in updates {
                axpy(&mut a[span(i, w)], coef, &b[span(t, w)]);
            }
            for &(i, t, coef) in updates {
                axpy(&mut b[span(t, w)], coef, &a[span(i, w)]);
            }
            w as u64
        };
        // One matrix on both sides: each pass reads the rows as they were
        // when it began, from a copy.
        let aliased = |a: &mut MatPart<f32>| {
            let (a, w) = a.block_mut();
            let mut from = vec![0.0f32; updates.len() * w];
            for (into, &(_, t, _)) in from.chunks_exact_mut(w).zip(updates) {
                into.copy_from_slice(&a[span(t, w)]);
            }
            for (from, &(i, _, coef)) in from.chunks_exact(w).zip(updates) {
                axpy(&mut a[span(i, w)], coef, from);
            }
            for (into, &(i, _, _)) in from.chunks_exact_mut(w).zip(updates) {
                into.copy_from_slice(&a[span(i, w)]);
            }
            for (from, &(_, t, coef)) in from.chunks_exact(w).zip(updates) {
                axpy(&mut a[span(t, w)], coef, from);
            }
            w as u64
        };
        self.obj.each_partition(client, |p, server| {
            let width = if self.obj.name == other.obj.name {
                self.obj.write(server, p, aliased)?
            } else {
                server.update_pair(self.part(p), other.part(p), both)?
            };
            Ok((n * 24, n * width * 4, 8))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps(servers: usize) -> Arc<Ps> {
        Ps::new(PsConfig { servers, ..Default::default() })
    }

    fn row_split(ps: &Arc<Ps>, name: &str, rows: u64, cols: usize, p: Partitioner) -> MatrixHandle<f32> {
        MatrixHandle::create_row_split(ps, name, rows, cols, p, RecoveryMode::Inconsistent).unwrap()
    }

    fn col_split(ps: &Arc<Ps>, name: &str, rows: u64, cols: usize) -> ColMatrixHandle {
        ColMatrixHandle::create(ps, name, rows, cols, RecoveryMode::Inconsistent).unwrap()
    }

    /// The three layouts a matrix can have.
    fn every_split(ps: &Arc<Ps>, name: &str, rows: u64, cols: usize) -> [MatrixHandle<f32>; 3] {
        [
            row_split(ps, &format!("{name}.range"), rows, cols, Partitioner::Range),
            row_split(ps, &format!("{name}.hash"), rows, cols, Partitioner::Hash),
            col_split(ps, &format!("{name}.cols"), rows, cols),
        ]
    }

    #[test]
    fn create_pull_push_rows_on_every_split() {
        let ps = ps(3);
        let c = NodeClock::new();
        for m in every_split(&ps, "w", 10, 7) {
            assert_eq!(m.pull_rows(&c, &[0, 9]).unwrap(), vec![vec![0.0; 7]; 2], "{}", m.name());
            let delta: Vec<f32> = (0..7).map(|i| i as f32).collect();
            m.push_add_rows(&c, &[3], std::slice::from_ref(&delta)).unwrap();
            m.push_add_rows(&c, &[3], &[vec![1.0; 7]]).unwrap();
            let want: Vec<f32> = delta.iter().map(|x| x + 1.0).collect();
            assert_eq!(m.pull_rows(&c, &[3, 0]).unwrap(), vec![want, vec![0.0; 7]], "{}", m.name());
            m.push_set_rows(&c, &[3], &[vec![9.0; 7]]).unwrap();
            assert_eq!(m.pull_rows(&c, &[3]).unwrap(), vec![vec![9.0; 7]], "{}", m.name());
        }
    }

    #[test]
    fn create_splits_columns_across_servers() {
        let ps = ps(3);
        let m = col_split(&ps, "u", 10, 9);
        assert_eq!((m.rows(), m.cols()), (10, 9));
        // Three servers → three column slices of width 3.
        assert_eq!(m.layout().num_partitions, 3);
        assert_eq!(m.layout().range_of(2), Some((6, 9)));
        let c = NodeClock::new();
        assert_eq!(m.pull_rows(&c, &[0]).unwrap()[0].len(), 9);
    }

    #[test]
    fn hash_partitioned_sparse_rows_default_zero() {
        let ps = ps(2);
        let c = NodeClock::new();
        let m = MatrixHandle::<f64>::create_row_split(
            &ps, "x", 1000, 3, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert_eq!(m.pull_rows(&c, &[777]).unwrap(), vec![vec![0.0; 3]]);
        m.push_add_rows(&c, &[777], &[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(m.pull_rows(&c, &[777]).unwrap(), vec![vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn zero_columns_are_an_error_not_a_panic() {
        let ps = ps(3);
        let rec = RecoveryMode::Inconsistent;
        for p in [Partitioner::Range, Partitioner::Hash] {
            let err = MatrixHandle::<f32>::create_row_split(&ps, "w", 10, 0, p, rec);
            assert!(matches!(err, Err(PsError::DimensionMismatch(_))), "{p:?}: {err:?}");
        }
        let err = ColMatrixHandle::create(&ps, "u", 10, 0, rec);
        assert!(matches!(err, Err(PsError::DimensionMismatch(_))), "{err:?}");
        assert!(!ps.is_registered("w") && !ps.is_registered("u"));
    }

    #[test]
    fn dimension_checks() {
        let ps = ps(2);
        let c = NodeClock::new();
        for m in every_split(&ps, "w", 10, 4) {
            assert!(m.pull_rows(&c, &[10]).is_err());
            assert!(m.push_add_rows(&c, &[0], &[vec![1.0; 3]]).is_err());
            assert!(m.push_add_rows(&c, &[0, 1], &[vec![1.0; 4]]).is_err());
            assert!(m.adam_step(&c, &[0], &[vec![1.0; 5]], 0.1, 0.9, 0.999, 1e-8, 1).is_err());
        }
    }

    #[test]
    fn an_empty_row_request_contacts_no_server_on_either_split() {
        let ps = ps(4);
        let c = NodeClock::new();
        for m in every_split(&ps, "e", 8, 6) {
            let rpcs = ps.network().stats().rpcs();
            assert_eq!(m.pull_rows(&c, &[]).unwrap(), Vec::<Vec<f32>>::new());
            m.push_add_rows(&c, &[], &[]).unwrap();
            m.push_set_rows(&c, &[], &[]).unwrap();
            m.adam_step(&c, &[], &[], 0.1, 0.9, 0.999, 1e-8, 1).unwrap();
            assert_eq!(ps.network().stats().rpcs(), rpcs, "{}", m.name());
        }
        assert_eq!(c.now(), psgraph_sim::SimTime::ZERO);
    }

    #[test]
    fn a_row_leg_charges_over_its_own_partitions_width() {
        // Seven columns over three servers: slices of width 2, 2 and 3.
        let ps = ps(3);
        let c = NodeClock::new();
        let stats = ps.network().stats();
        let rows = [4u64, 1, 4];
        let charged = |op: &dyn Fn()| {
            let (rpcs, sent, recv) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
            op();
            (stats.rpcs() - rpcs, stats.bytes_sent() - sent, stats.bytes_received() - recv)
        };
        for m in every_split(&ps, "c", 6, 7) {
            // Every leg is sent the ids of the rows it holds; the rows' values
            // over all legs are 3 rows × 7 columns either way.
            let (legs, ids) = match m.split {
                Split::Cols => (3, 3 * 3),
                Split::Rows(_) => {
                    let owners: std::collections::BTreeSet<usize> =
                        rows.iter().map(|&r| m.layout().server_of(r)).collect();
                    (owners.len() as u64, 3)
                }
            };
            let values = vec![vec![1.0; 7]; 3];
            let pull = charged(&|| drop(m.pull_rows(&c, &rows).unwrap()));
            assert_eq!(pull, (legs, ids * 8, 3 * 7 * 4), "{}", m.name());
            let push = charged(&|| m.push_add_rows(&c, &rows, &values).unwrap());
            assert_eq!(push, (legs, ids * 8 + 3 * 7 * 4, legs * 8), "{}", m.name());
        }
    }

    #[test]
    fn init_uniform_is_seeded_and_bounded() {
        let ps = ps(2);
        let c = NodeClock::new();
        let all: Vec<u64> = (0..20).collect();
        for m in [row_split(&ps, "w", 20, 8, Partitioner::Range), col_split(&ps, "u", 20, 8)] {
            m.init_uniform(&c, 42, 0.5).unwrap();
            let a = m.pull_rows(&c, &all).unwrap();
            assert!(a.iter().flatten().any(|&x| x != 0.0));
            assert!(a.iter().flatten().all(|&x| x.abs() <= 0.5));
            // Re-init with same seed reproduces.
            m.init_uniform(&c, 42, 0.5).unwrap();
            assert_eq!(m.pull_rows(&c, &all).unwrap(), a);
        }
        // A hash row split stays lazy.
        let h = row_split(&ps, "h", 20, 8, Partitioner::Hash);
        h.init_uniform(&c, 42, 0.5).unwrap();
        assert_eq!(h.pull_rows(&c, &[3]).unwrap(), vec![vec![0.0; 8]]);
    }

    #[test]
    fn adam_first_step_is_about_lr() {
        let ps = ps(2);
        let c = NodeClock::new();
        let m = row_split(&ps, "w", 2, 2, Partitioner::Range);
        m.adam_step(&c, &[0], &[vec![3.0, -3.0]], 0.01, 0.9, 0.999, 1e-8, 1)
            .unwrap();
        let r = m.pull_rows(&c, &[0]).unwrap();
        // Bias-corrected Adam's first step ≈ lr in gradient direction.
        assert!((r[0][0] + 0.01).abs() < 1e-3, "got {}", r[0][0]);
        assert!((r[0][1] - 0.01).abs() < 1e-3, "got {}", r[0][1]);
        // Moments were created as shadow objects.
        assert!(ps.is_registered("w.m"));
        assert!(ps.is_registered("w.v"));
    }

    #[test]
    fn adam_steps_the_same_bits_on_every_split() {
        let ps = ps(3);
        let c = NodeClock::new();
        let rows: Vec<u64> = vec![5, 0, 2];
        let grads = |t: u64| -> Vec<Vec<f32>> {
            rows.iter()
                .map(|&r| (0..7).map(|j| (r as f32 - j as f32) * 0.25 + t as f32).collect())
                .collect()
        };
        let all: Vec<u64> = (0..6).collect();
        let runs: Vec<Vec<Vec<f32>>> = every_split(&ps, "a", 6, 7)
            .iter()
            .map(|m| {
                m.push_set_rows(&c, &all, &vec![vec![0.5; 7]; 6]).unwrap();
                for t in 1..=3 {
                    m.adam_step(&c, &rows, &grads(t), 0.05, 0.9, 0.999, 1e-8, t).unwrap();
                }
                m.pull_rows(&c, &all).unwrap()
            })
            .collect();
        assert_ne!(runs[0], vec![vec![0.5; 7]; 6]);
        assert_eq!(runs[1], runs[0]);
        assert_eq!(runs[2], runs[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let ps = ps(2);
        let c = NodeClock::new();
        let m = row_split(&ps, "w", 1, 1, Partitioner::Range);
        m.push_set_rows(&c, &[0], &[vec![5.0]]).unwrap();
        // Minimize (w-2)^2: grad = 2(w-2).
        for t in 1..=600u64 {
            let w = m.pull_rows(&c, &[0]).unwrap()[0][0];
            m.adam_step(&c, &[0], &[vec![2.0 * (w - 2.0)]], 0.05, 0.9, 0.999, 1e-8, t)
                .unwrap();
        }
        let w = m.pull_rows(&c, &[0]).unwrap()[0][0];
        assert!((w - 2.0).abs() < 0.05, "adam failed to converge: {w}");
    }

    /// Signed zeros and magnitudes a few thousand times apart beside
    /// ordinary values: no product swamps a slice's sum, so a chain added
    /// in another order shows in the bits.
    fn arb_entry(rng: &mut SplitMix64) -> f32 {
        let x = rng.next_f64() as f32 * 4.0 - 2.0;
        match rng.next_below(8) {
            0 => -0.0,
            1 => 0.0,
            2 => x * 1e3,
            3 => x * 1e-3,
            _ => x,
        }
    }

    #[test]
    fn dot_pairs_matches_client_side_dot() {
        let rows = 12u64;
        let mut rng = SplitMix64::new(44);
        for servers in 1..=5 {
            // Slices of unequal widths, some wider than a block of pairs.
            let cols = 9 * servers + 1;
            let ps = ps(servers);
            let c = NodeClock::new();
            let u = col_split(&ps, "u", rows, cols);
            let v = col_split(&ps, "v", rows, cols);
            let slices: Vec<(usize, usize)> = (0..u.layout().num_partitions)
                .map(|p| u.layout().range_of(p).map(|(a, b)| (a as usize, b as usize)).unwrap())
                .collect();
            let widths: std::collections::BTreeSet<usize> =
                slices.iter().map(|(a, b)| b - a).collect();
            assert_eq!(widths.len() > 1, servers > 1, "{servers} servers: {slices:?}");
            let all: Vec<u64> = (0..rows).collect();
            for m in [&u, &v] {
                let values: Vec<Vec<f32>> =
                    all.iter().map(|_| (0..cols).map(|_| arb_entry(&mut rng)).collect()).collect();
                m.push_set_rows(&c, &all, &values).unwrap();
            }
            let (ur, vr) = (u.pull_rows(&c, &all).unwrap(), v.pull_rows(&c, &all).unwrap());
            // The reference: per slice a chain from +0.0 in column order,
            // the slices added to 0.0 in partition order.
            let reference = |a: &[f32], b: &[f32]| {
                slices.iter().fold(0.0f64, |total, &(c0, c1)| {
                    let products = a[c0..c1].iter().zip(&b[c0..c1]);
                    total + products.fold(0.0f64, |s, (x, y)| s + *x as f64 * *y as f64)
                })
            };
            for n in 0..=3 * LANES + 5 {
                let mut pairs: Vec<(u64, u64)> =
                    (0..n).map(|_| (rng.next_below(rows), rng.next_below(rows))).collect();
                // Repeated pairs, within a block and across blocks.
                for k in (4..n).step_by(5) {
                    pairs[k] = pairs[k - 4];
                }
                for (other, or) in [(&v, &vr), (&u, &ur)] {
                    let got = u.dot_pairs(&c, other, &pairs).unwrap();
                    let want: Vec<u64> = pairs
                        .iter()
                        .map(|&(i, j)| reference(&ur[i as usize], &or[j as usize]).to_bits())
                        .collect();
                    let got: Vec<u64> = got.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, want, "{servers} servers, {n} pairs, other {}", other.name());
                }
            }
        }
    }

    #[test]
    fn dot_pairs_self_is_norm_squared() {
        let ps = ps(3);
        let c = NodeClock::new();
        let u = col_split(&ps, "u", 4, 5);
        u.push_add_rows(&c, &[1], &[vec![2.0; 5]]).unwrap();
        let d = u.dot_pairs(&c, &u, &[(1, 1)]).unwrap();
        assert!((d[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn update_pairs_self_reads_each_pass_from_its_start() {
        let ps = ps(3);
        let c = NodeClock::new();
        let u = col_split(&ps, "u", 4, 6);
        u.push_add_rows(&c, &[0], &[vec![1.0; 6]]).unwrap();
        u.push_add_rows(&c, &[1], &[vec![2.0; 6]]).unwrap();
        // Pass 1: u[0] += 0.5·u[1] → 2, then u[1] += 1·u[0] with the
        // u[0] of before the call → 3. Pass 2 reads what pass 1 left:
        // u[1] += 0.5·2 → 4, then u[0] += 1·3 (not 4) → 5.
        u.update_pairs(&c, &u.clone(), &[(0, 1, 0.5), (1, 0, 1.0)]).unwrap();
        assert_eq!(u.pull_rows(&c, &[0]).unwrap()[0], vec![5.0f32; 6]);
        assert_eq!(u.pull_rows(&c, &[1]).unwrap()[0], vec![4.0f32; 6]);
    }

    #[test]
    fn update_pairs_cross_matrix_updates_both_sides() {
        let ps = ps(3);
        let c = NodeClock::new();
        let u = col_split(&ps, "u", 4, 6);
        let ctx = col_split(&ps, "ctx", 4, 6);
        ctx.push_add_rows(&c, &[3], &[vec![4.0; 6]]).unwrap();
        let before = (u.partition_versions().unwrap(), ctx.partition_versions().unwrap());
        // u[2] += -0.25·ctx[3] → -1; then ctx[3] += -0.25·u[2] → 4.25.
        u.update_pairs(&c, &ctx, &[(2, 3, -0.25)]).unwrap();
        assert_eq!(u.pull_rows(&c, &[2]).unwrap()[0], vec![-1.0f32; 6]);
        assert_eq!(ctx.pull_rows(&c, &[3]).unwrap()[0], vec![4.25f32; 6]);
        // Both matrices were written: the delta exporter must see both.
        let bumped = |v: &[u64]| v.iter().map(|x| x + 1).collect::<Vec<_>>();
        assert_eq!(u.partition_versions().unwrap(), bumped(&before.0));
        assert_eq!(ctx.partition_versions().unwrap(), bumped(&before.1));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ps = ps(3);
        let c = NodeClock::new();
        let a = col_split(&ps, "a", 4, 6);
        let b = col_split(&ps, "b", 4, 8);
        assert!(a.dot_pairs(&c, &b, &[(0, 0)]).is_err());
        assert!(a.update_pairs(&c, &b, &[(0, 0, 1.0)]).is_err());
        assert!(a.pull_rows(&c, &[4]).is_err());
        assert!(a.push_add_rows(&c, &[0], &[vec![0.0; 5]]).is_err());
    }

    #[test]
    fn the_psfuncs_and_the_block_pull_refuse_a_row_split() {
        // Six rows and six columns over three servers: the row split's
        // layout equals the column split's, the split still differs.
        let ps = ps(3);
        let c = NodeClock::new();
        let cols = col_split(&ps, "u", 6, 6);
        for rows in [
            row_split(&ps, "r", 6, 6, Partitioner::Range),
            row_split(&ps, "h", 6, 6, Partitioner::Hash),
        ] {
            let rpcs = ps.network().stats().rpcs();
            let refused = |r: Result<()>| matches!(r, Err(PsError::DimensionMismatch(_)));
            assert!(refused(rows.dot_pairs(&c, &rows, &[(0, 1)]).map(drop)));
            assert!(refused(rows.update_pairs(&c, &rows, &[(0, 1, 0.5)])));
            assert!(refused(rows.pull_block(&c, 0).map(drop)));
            assert!(refused(cols.dot_pairs(&c, &rows, &[(0, 1)]).map(drop)));
            assert!(refused(cols.update_pairs(&c, &rows, &[(0, 1, 0.5)])));
            assert_eq!(ps.network().stats().rpcs(), rpcs, "refused before any leg");
        }
        assert_eq!(cols.pull_block(&c, 2).unwrap().0, 4..6);
    }

    #[test]
    fn dot_pairs_cheaper_than_pull_rows_in_sim_time() {
        // The §IV-D optimization: server-side dots move O(pairs) bytes,
        // pulling whole embeddings moves O(pairs × dim) bytes.
        let ps = ps(4);
        let u = col_split(&ps, "u", 1000, 256);
        let init = NodeClock::new();
        u.init_uniform(&init, 7, 0.5).unwrap();
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i % 1000, (i * 7) % 1000)).collect();
        let c1 = NodeClock::new();
        u.dot_pairs(&c1, &u.clone(), &pairs).unwrap();
        let c2 = NodeClock::new();
        let ids: Vec<u64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        u.pull_rows(&c2, &ids).unwrap();
        assert!(
            c1.now() < c2.now(),
            "psFunc dots ({}) should beat row pulls ({})",
            c1.now(),
            c2.now()
        );
    }

    #[test]
    fn pulls_cost_time_proportional_to_width() {
        let ps = ps(2);
        let narrow = row_split(&ps, "n", 100, 2, Partitioner::Range);
        let wide = row_split(&ps, "wdt", 100, 256, Partitioner::Range);
        let c1 = NodeClock::new();
        let c2 = NodeClock::new();
        let ids: Vec<u64> = (0..100).collect();
        narrow.pull_rows(&c1, &ids).unwrap();
        wide.pull_rows(&c2, &ids).unwrap();
        assert!(c2.now() > c1.now());
    }

    #[test]
    fn checkpoint_restore_matrix_on_every_split() {
        let ps = ps(3);
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let splits = every_split(&ps, "w", 8, 5);
        for m in &splits {
            m.push_set_rows(&c, &[0, 7], &[vec![1.0; 5], vec![7.0; 5]]).unwrap();
            ps.checkpoint(&dfs, m.name()).unwrap();
        }
        ps.kill_server(1);
        ps.restart_server(1, c.now());
        ps.recover_server(1, &dfs, &c).unwrap();
        for m in &splits {
            assert_eq!(m.pull_rows(&c, &[0, 7]).unwrap(), vec![vec![1.0; 5], vec![7.0; 5]]);
        }
    }

    #[test]
    fn matpart_encode_decode_roundtrip() {
        let dense: MatPart<f32> =
            MatPart { cols: 0..2, rows: RowSet::Dense { start: 2, data: vec![1.0, 2.0, 3.0, 4.0] } };
        let mut map = FxHashMap::default();
        map.insert(9u64, vec![1.0f32, -1.0]);
        let sparse: MatPart<f32> = MatPart { cols: 0..2, rows: RowSet::Sparse(map) };
        let slice: MatPart<f32> =
            MatPart { cols: 2..4, rows: RowSet::Dense { start: 0, data: vec![1.0, 2.0, 3.0, 4.0] } };
        for part in [dense, sparse, slice] {
            assert_eq!(MatPart::<f32>::decode(&part.encode()).unwrap(), part);
        }
        assert!(MatPart::<f32>::decode(&[7]).is_err());
        assert!(MatPart::<f32>::decode(&[]).is_err());
    }
}
