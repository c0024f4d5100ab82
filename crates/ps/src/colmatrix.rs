//! Column-partitioned embedding matrices for LINE (paper §IV-D).
//!
//! "To enable the dot product operation on PS, we partition the embedding
//! vectors and context vectors by column … the same dimensions of u and c
//! are co-located on the same server, so that we can calculate partial dot
//! products on PS and merge them on the executor."
//!
//! Each server holds a column slice `[c0, c1)` of *every* row. The psFunc
//! operators [`ColMatrixHandle::dot_pairs`] and
//! [`ColMatrixHandle::update_pairs`] run entirely server-side, reading the
//! co-located slices of both matrices in place under one store lock: only
//! vertex-id pairs, scalar coefficients, and partial sums cross the
//! network — this is the communication optimization `repro -- line`
//! measures against pull-whole-row training. Every operation touches
//! every server, so all of them go over `PsObject::each_partition`: one
//! leg per column slice, all in flight together, so the servers compute
//! their partial dot products in parallel.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{NodeClock, Reader, SplitMix64};
use std::sync::Arc;

use crate::error::{PsError, Result};
use crate::object::{Partition, PsObject};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};

/// One server's column slice of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ColPart {
    pub col_start: usize,
    pub col_end: usize,
    /// Row-major `rows × (col_end - col_start)` values.
    pub data: Vec<f32>,
}

impl ColPart {
    fn width(&self) -> usize {
        self.col_end - self.col_start
    }

    #[inline]
    fn row(&self, r: u64) -> &[f32] {
        let w = self.width();
        &self.data[r as usize * w..(r as usize + 1) * w]
    }

    #[inline]
    fn row_mut(&mut self, r: u64) -> &mut [f32] {
        let w = self.width();
        &mut self.data[r as usize * w..(r as usize + 1) * w]
    }
}

impl Partition for ColPart {
    fn approx_bytes(&self) -> u64 {
        self.data.len() as u64 * 4 + 48
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24 + self.data.len() * 4);
        buf.put_u64_le(self.col_start as u64);
        buf.put_u64_le(self.col_end as u64);
        buf.put_u64_le(self.data.len() as u64);
        for v in &self.data {
            buf.put_f32_le(*v);
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Reader::decode(bytes, "col-matrix checkpoint", |r| {
            let (col_start, col_end) = (r.usize()?, r.usize()?);
            let len = r.count::<u64>(4)?;
            // `width()` and `row()` rely on a non-empty column range that the
            // data tiles exactly.
            if col_start >= col_end || !len.is_multiple_of(col_end - col_start) {
                return Err(r.corrupt("data does not tile the column range").into());
            }
            Ok(ColPart { col_start, col_end, data: r.vec(len)? })
        })
    }
}

/// `to += coef × from`, element-wise in f32.
fn axpy(to: &mut [f32], coef: f64, from: &[f32]) {
    for (t, f) in to.iter_mut().zip(from) {
        *t += coef as f32 * *f;
    }
}

/// Client handle to a column-partitioned `rows × cols` f32 matrix.
#[derive(Debug, Clone)]
pub struct ColMatrixHandle {
    obj: PsObject,
    rows: u64,
    cols: usize,
}

impl ColMatrixHandle {
    /// Create a zero matrix whose columns are range-partitioned over the
    /// servers.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        rows: u64,
        cols: usize,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let name = name.into();
        if cols == 0 {
            return Err(PsError::DimensionMismatch(format!("{name}: need at least one column")));
        }
        let layout = PartitionLayout::new(
            Partitioner::Range,
            cols as u64,
            ps.num_servers().min(cols),
            ps.num_servers(),
        );
        let ranges: Vec<(u64, u64)> = (0..layout.num_partitions)
            .map(|p| layout.range_of(p))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                PsError::DimensionMismatch(format!("{name}: columns need a range layout"))
            })?;
        let obj = PsObject::new(ps, name, layout);
        obj.install(recovery, |p| {
            let (c0, c1) = ranges[p];
            ColPart {
                col_start: c0 as usize,
                col_end: c1 as usize,
                data: vec![0.0; rows as usize * (c1 - c0) as usize],
            }
        })?;
        Ok(ColMatrixHandle { obj, rows, cols })
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

    /// Per-partition write versions (see [`crate::PsServer::version`]).
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    /// Pull one server's full column slice (snapshot delta export: a
    /// changed partition is a column stripe of every row). Charged as one
    /// bulk RPC to `client`.
    pub(crate) fn pull_col_slice(&self, client: &NodeClock, partition: usize) -> Result<ColPart> {
        let server = self.obj.server(partition);
        server.ensure_alive()?;
        self.obj.fan_out(client, |fan| {
            let part = server.get(&self.obj.name, partition, |p: &ColPart| p.clone())?;
            let n = part.data.len() as u64;
            fan.leg(server, (16, self.obj.item_ops(n), n * 4 + 16));
            Ok(part)
        })
    }

    /// Partition `p` as the server's store names it.
    fn part(&self, p: usize) -> (&str, usize) {
        (&self.obj.name, p)
    }

    fn check_rows(&self, rows: impl IntoIterator<Item = u64>) -> Result<()> {
        self.obj.check_below(self.rows, rows)
    }

    fn same_shape(&self, other: &ColMatrixHandle) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols || self.obj.layout != other.obj.layout
        {
            return Err(PsError::DimensionMismatch(format!(
                "{} and {} have different shapes/layouts",
                self.obj.name, other.obj.name
            )));
        }
        Ok(())
    }

    /// Seeded uniform init in `[-scale, scale)`.
    pub fn init_uniform(&self, client: &NodeClock, seed: u64, scale: f32) -> Result<()> {
        self.obj.each_partition(client, |p, server| {
            let n = self.obj.write(server, p, |part: &mut ColPart| {
                let mut rng = SplitMix64::new(seed ^ (p as u64).wrapping_mul(0xA5A5_5A5A));
                for v in part.data.iter_mut() {
                    *v = (rng.next_f64() as f32 * 2.0 - 1.0) * scale;
                }
                part.data.len() as u64
            })?;
            Ok((24, self.obj.item_ops(n), 8))
        })
    }

    /// Server-side partial dot products, merged client-side:
    /// `out[k] = Σ_c self[i_k, c] × other[j_k, c]` for `pairs[k] = (i_k, j_k)`.
    /// Only ids and one f64 per pair per server cross the wire; the server
    /// CPU is `pairs × width × 2` raw ops (a multiply and an add per
    /// column), not a per-item charge.
    pub fn dot_pairs(
        &self,
        client: &NodeClock,
        other: &ColMatrixHandle,
        pairs: &[(u64, u64)],
    ) -> Result<Vec<f64>> {
        self.same_shape(other)?;
        self.check_rows(pairs.iter().map(|&(i, _)| i))?;
        self.check_rows(pairs.iter().map(|&(_, j)| j))?;
        let mut out = vec![0.0f64; pairs.len()];
        let n = pairs.len() as u64;
        self.obj.each_partition(client, |p, server| {
            let width = server.get_pair(self.part(p), other.part(p), |a: &ColPart, b: &ColPart| {
                for (o, &(i, j)) in out.iter_mut().zip(pairs) {
                    let mut s = 0.0f64;
                    for (x, y) in a.row(i).iter().zip(b.row(j)) {
                        s += (*x as f64) * (*y as f64);
                    }
                    *o += s;
                }
                b.width() as u64
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
    /// raw ops (a multiply and an add per column, per pass).
    pub fn update_pairs(
        &self,
        client: &NodeClock,
        other: &ColMatrixHandle,
        updates: &[(u64, u64, f64)],
    ) -> Result<()> {
        self.same_shape(other)?;
        self.check_rows(updates.iter().map(|&(i, _, _)| i))?;
        self.check_rows(updates.iter().map(|&(_, t, _)| t))?;
        let n = updates.len() as u64;
        // Distinct matrices: the pass that writes one only reads the
        // other, so rows are read in place.
        let both = |a: &mut ColPart, b: &mut ColPart| {
            for &(i, t, coef) in updates {
                axpy(a.row_mut(i), coef, b.row(t));
            }
            for &(i, t, coef) in updates {
                axpy(b.row_mut(t), coef, a.row(i));
            }
            a.width() as u64
        };
        // One matrix on both sides: each pass reads the rows as they were
        // when it began, from a copy.
        let aliased = |a: &mut ColPart| {
            let w = a.width();
            let mut from = vec![0.0f32; updates.len() * w];
            for (into, &(_, t, _)) in from.chunks_exact_mut(w).zip(updates) {
                into.copy_from_slice(a.row(t));
            }
            for (from, &(i, _, coef)) in from.chunks_exact(w).zip(updates) {
                axpy(a.row_mut(i), coef, from);
            }
            for (into, &(i, _, _)) in from.chunks_exact_mut(w).zip(updates) {
                into.copy_from_slice(a.row(i));
            }
            for (from, &(_, t, coef)) in from.chunks_exact(w).zip(updates) {
                axpy(a.row_mut(t), coef, from);
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

    /// Pull full rows, gathering slices from every server (the expensive
    /// baseline the column layout avoids; also used for final readout).
    pub fn pull_rows(&self, client: &NodeClock, rows: &[u64]) -> Result<Vec<Vec<f32>>> {
        self.check_rows(rows.iter().copied())?;
        let mut out = vec![vec![0.0f32; self.cols]; rows.len()];
        let n = rows.len() as u64;
        self.obj.each_partition(client, |p, server| {
            let width = server.get(&self.obj.name, p, |part: &ColPart| {
                for (k, &r) in rows.iter().enumerate() {
                    out[k][part.col_start..part.col_end].copy_from_slice(part.row(r));
                }
                part.width() as u64
            })?;
            Ok((n * 8, self.obj.item_ops(n * width), n * width * 4))
        })?;
        Ok(out)
    }

    /// Push full-row deltas, scattering slices to every server (baseline
    /// counterpart of [`ColMatrixHandle::pull_rows`]).
    pub fn push_add_rows(
        &self,
        client: &NodeClock,
        rows: &[u64],
        deltas: &[Vec<f32>],
    ) -> Result<()> {
        if rows.len() != deltas.len() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: {} rows vs {} deltas",
                self.obj.name,
                rows.len(),
                deltas.len()
            )));
        }
        for d in deltas {
            if d.len() != self.cols {
                return Err(PsError::DimensionMismatch(format!(
                    "{}: delta width {} vs cols {}",
                    self.obj.name,
                    d.len(),
                    self.cols
                )));
            }
        }
        self.check_rows(rows.iter().copied())?;
        let n = rows.len() as u64;
        self.obj.each_partition(client, |p, server| {
            let width = self.obj.write(server, p, |part: &mut ColPart| {
                for (k, &r) in rows.iter().enumerate() {
                    let slice = &deltas[k][part.col_start..part.col_end];
                    for (t, f) in part.row_mut(r).iter_mut().zip(slice) {
                        *t += *f;
                    }
                }
                part.width() as u64
            })?;
            Ok((n * (8 + width * 4), self.obj.item_ops(n * width), 8))
        })
    }

    /// Bytes resident on servers.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<ColPart>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    #[test]
    fn create_splits_columns_across_servers() {
        let ps = ps();
        let m = ColMatrixHandle::create(&ps, "u", 10, 9, RecoveryMode::Inconsistent).unwrap();
        assert_eq!(m.cols(), 9);
        assert_eq!(m.rows(), 10);
        // Three servers → three column slices of width 3.
        let c = NodeClock::new();
        let rows = m.pull_rows(&c, &[0]).unwrap();
        assert_eq!(rows[0].len(), 9);
    }

    #[test]
    fn zero_columns_are_an_error_not_a_panic() {
        let ps = ps();
        let err = ColMatrixHandle::create(&ps, "u", 10, 0, RecoveryMode::Inconsistent);
        assert!(matches!(err, Err(PsError::DimensionMismatch(_))), "{err:?}");
    }

    #[test]
    fn push_pull_rows_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let m = ColMatrixHandle::create(&ps, "u", 5, 6, RecoveryMode::Inconsistent).unwrap();
        let delta: Vec<f32> = (0..6).map(|i| i as f32).collect();
        m.push_add_rows(&c, &[2], std::slice::from_ref(&delta)).unwrap();
        m.push_add_rows(&c, &[2], &[vec![1.0; 6]]).unwrap();
        let got = m.pull_rows(&c, &[2, 0]).unwrap();
        let want: Vec<f32> = delta.iter().map(|x| x + 1.0).collect();
        assert_eq!(got[0], want);
        assert_eq!(got[1], vec![0.0; 6]);
    }

    #[test]
    fn dot_pairs_matches_client_side_dot() {
        let ps = ps();
        let c = NodeClock::new();
        let u = ColMatrixHandle::create(&ps, "u", 8, 7, RecoveryMode::Inconsistent).unwrap();
        let v = ColMatrixHandle::create(&ps, "v", 8, 7, RecoveryMode::Inconsistent).unwrap();
        u.init_uniform(&c, 1, 1.0).unwrap();
        v.init_uniform(&c, 2, 1.0).unwrap();
        let pairs = [(0u64, 1u64), (3, 3), (7, 0)];
        let server_side = u.dot_pairs(&c, &v, &pairs).unwrap();
        // Reference: pull rows and dot on the client.
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let a = &u.pull_rows(&c, &[i]).unwrap()[0];
            let b = &v.pull_rows(&c, &[j]).unwrap()[0];
            let want: f64 = a.iter().zip(b).map(|(x, y)| *x as f64 * *y as f64).sum();
            assert!((server_side[k] - want).abs() < 1e-6, "pair {k}");
        }
    }

    #[test]
    fn dot_pairs_self_is_norm_squared() {
        let ps = ps();
        let c = NodeClock::new();
        let u = ColMatrixHandle::create(&ps, "u", 4, 5, RecoveryMode::Inconsistent).unwrap();
        u.push_add_rows(&c, &[1], &[vec![2.0; 5]]).unwrap();
        let d = u.dot_pairs(&c, &u, &[(1, 1)]).unwrap();
        assert!((d[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn update_pairs_self_reads_each_pass_from_its_start() {
        let ps = ps();
        let c = NodeClock::new();
        let u = ColMatrixHandle::create(&ps, "u", 4, 6, RecoveryMode::Inconsistent).unwrap();
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
        let ps = ps();
        let c = NodeClock::new();
        let u = ColMatrixHandle::create(&ps, "u", 4, 6, RecoveryMode::Inconsistent).unwrap();
        let ctx = ColMatrixHandle::create(&ps, "ctx", 4, 6, RecoveryMode::Inconsistent).unwrap();
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
        let ps = ps();
        let c = NodeClock::new();
        let a = ColMatrixHandle::create(&ps, "a", 4, 6, RecoveryMode::Inconsistent).unwrap();
        let b = ColMatrixHandle::create(&ps, "b", 4, 8, RecoveryMode::Inconsistent).unwrap();
        assert!(a.dot_pairs(&c, &b, &[(0, 0)]).is_err());
        assert!(a.update_pairs(&c, &b, &[(0, 0, 1.0)]).is_err());
        assert!(a.pull_rows(&c, &[4]).is_err());
        assert!(a.push_add_rows(&c, &[0], &[vec![0.0; 5]]).is_err());
    }

    #[test]
    fn dot_pairs_cheaper_than_pull_rows_in_sim_time() {
        // The §IV-D optimization: server-side dots move O(pairs) bytes,
        // pulling whole embeddings moves O(pairs × dim) bytes.
        let ps = Ps::new(PsConfig { servers: 4, ..Default::default() });
        let dim = 256;
        let u = ColMatrixHandle::create(&ps, "u", 1000, dim, RecoveryMode::Inconsistent).unwrap();
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
    fn checkpoint_restore_colmatrix() {
        let ps = ps();
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let u = ColMatrixHandle::create(&ps, "u", 6, 6, RecoveryMode::Inconsistent).unwrap();
        u.init_uniform(&c, 5, 1.0).unwrap();
        let before = u.pull_rows(&c, &[0, 5]).unwrap();
        ps.checkpoint(&dfs, "u").unwrap();
        ps.kill_server(1);
        ps.restart_server(1, c.now());
        ps.recover_server(1, &dfs, &c).unwrap();
        assert_eq!(u.pull_rows(&c, &[0, 5]).unwrap(), before);
    }

    #[test]
    fn colpart_encode_decode() {
        let p = ColPart { col_start: 2, col_end: 4, data: vec![1.0, 2.0, 3.0, 4.0] };
        assert_eq!(ColPart::decode(&p.encode()).unwrap(), p);
        assert!(ColPart::decode(&[1, 2, 3]).is_err());
    }
}
