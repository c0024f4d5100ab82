//! Row-partitioned matrices: GNN weight matrices `W^k`, vertex feature
//! matrices `X`, and per-vertex embedding tables (paper §IV-E).
//!
//! Rows (vertex index or weight-row index) are distributed by a
//! [`PartitionLayout`]; each server stores its rows contiguously (range) or
//! in a sparse map (hash). Beyond pull/push, the handle exposes the
//! server-side optimizers the paper implements as `psFunc` UDFs: plain SGD,
//! AdaGrad, and Adam — the optimizer state (first/second moments) lives
//! next to the weights on the server and never crosses the network.
//! Routing, liveness and the RPC charge are `PsObject`'s.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::{FxHashMap, NodeClock, Reader, SplitMix64};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::element::Element;
use crate::error::{PsError, Result};
use crate::object::{Partition, PsObject};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};

/// One stored matrix partition (a set of rows).
#[derive(Debug, Clone, PartialEq)]
pub enum MatPart<E> {
    /// Rows `[start, start + n)`, row-major, `n × cols` values.
    Dense { start: u64, cols: usize, data: Vec<E> },
    /// Sparse rows keyed by row index.
    Sparse { cols: usize, map: FxHashMap<u64, Vec<E>> },
}

impl<E: Element> MatPart<E> {
    fn row(&self, key: u64) -> Vec<E> {
        match self {
            MatPart::Dense { start, cols, data } => {
                let i = (key - start) as usize * cols;
                data[i..i + cols].to_vec()
            }
            MatPart::Sparse { cols, map } => {
                map.get(&key).cloned().unwrap_or_else(|| vec![E::default(); *cols])
            }
        }
    }

    fn row_mut(&mut self, key: u64) -> &mut [E] {
        match self {
            MatPart::Dense { start, cols, data } => {
                let i = (key - *start) as usize * *cols;
                &mut data[i..i + *cols]
            }
            MatPart::Sparse { cols, map } => map
                .entry(key)
                .or_insert_with(|| vec![E::default(); *cols]),
        }
    }
}

impl<E: Element> Partition for MatPart<E> {
    fn approx_bytes(&self) -> u64 {
        match self {
            MatPart::Dense { data, .. } => (data.len() * E::WIDTH) as u64 + 48,
            MatPart::Sparse { cols, map } => {
                (map.len() * (8 + 24 + cols * E::WIDTH)) as u64 + 48
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            MatPart::Dense { start, cols, data } => {
                buf.put_u8(0);
                buf.put_u64_le(*start);
                buf.put_u64_le(*cols as u64);
                buf.put_u64_le(data.len() as u64);
                for &v in data {
                    v.put_le(&mut buf);
                }
            }
            MatPart::Sparse { cols, map } => {
                buf.put_u8(1);
                buf.put_u64_le(*cols as u64);
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
        Reader::decode(bytes, "matrix checkpoint", |r| match r.get::<u8>()? {
            0 => {
                let start = r.get()?;
                let cols = r.usize()?;
                let len = r.count::<u64>(E::WIDTH)?;
                if cols == 0 || !len.is_multiple_of(cols) {
                    return Err(r.corrupt("data is not whole rows").into());
                }
                Ok(MatPart::Dense { start, cols, data: r.vec(len)? })
            }
            1 => {
                let cols = r.usize()?;
                let row_bytes = cols.checked_mul(E::WIDTH).and_then(|b| b.checked_add(8));
                let n = r.count::<u64>(row_bytes.ok_or_else(|| r.corrupt("row width overflows"))?)?;
                let mut map = FxHashMap::default();
                for _ in 0..n {
                    let k = r.get()?;
                    map.insert(k, r.vec(cols)?);
                }
                Ok(MatPart::Sparse { cols, map })
            }
            t => Err(r.corrupt(format!("bad partition tag {t}")).into()),
        })
    }
}

/// Typed client handle to a PS row-partitioned matrix.
#[derive(Debug, Clone)]
pub struct MatrixHandle<E: Element> {
    obj: PsObject,
    cols: usize,
    _e: PhantomData<fn() -> E>,
}

impl<E: Element> MatrixHandle<E> {
    /// Create a zero matrix of `rows × cols` (paper's
    /// `PSContext.matrix(row, col, DataType)`).
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        rows: u64,
        cols: usize,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        assert!(cols > 0, "matrix needs at least one column");
        let layout =
            PartitionLayout::new(partitioner, rows, ps.num_servers(), ps.num_servers());
        let obj = PsObject::new(ps, name, layout);
        obj.install(recovery, |p| match obj.layout.range_of(p) {
            Some((start, end)) => MatPart::Dense {
                start,
                cols,
                data: vec![E::default(); (end - start) as usize * cols],
            },
            None => MatPart::Sparse { cols, map: FxHashMap::default() },
        })?;
        Ok(MatrixHandle { obj, cols, _e: PhantomData })
    }

    pub fn name(&self) -> &str {
        &self.obj.name
    }

    pub fn rows(&self) -> u64 {
        self.obj.layout.size
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn layout(&self) -> &PartitionLayout {
        &self.obj.layout
    }

    /// Per-partition write versions (see [`crate::PsServer::version`]).
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    /// Pull whole rows; result aligns with `rows`.
    pub fn pull_rows(&self, client: &NodeClock, rows: &[u64]) -> Result<Vec<Vec<E>>> {
        self.obj.check(rows.iter().copied())?;
        let mut out: Vec<Vec<E>> = vec![Vec::new(); rows.len()];
        let (cols, row_bytes) = (self.cols as u64, (self.cols * E::WIDTH) as u64);
        self.obj.scatter(client, rows.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &MatPart<E>| {
                    for &pos in &positions {
                        out[pos] = part.row(rows[pos]);
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n * cols), n * row_bytes))
        })?;
        Ok(out)
    }

    /// Generic server-side row update.
    fn push_rows_with(
        &self,
        client: &NodeClock,
        rows: &[u64],
        values: &[Vec<E>],
        apply: impl Fn(&mut [E], &[E]),
    ) -> Result<()> {
        if rows.len() != values.len() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: {} rows vs {} value rows",
                self.obj.name,
                rows.len(),
                values.len()
            )));
        }
        for v in values {
            if v.len() != self.cols {
                return Err(PsError::DimensionMismatch(format!(
                    "{}: row of width {} vs cols {}",
                    self.obj.name,
                    v.len(),
                    self.cols
                )));
            }
        }
        self.obj.check(rows.iter().copied())?;
        let (cols, row_bytes) = (self.cols as u64, (self.cols * E::WIDTH) as u64);
        self.obj.scatter(client, rows.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                self.obj.write(server, p, |part: &mut MatPart<E>| {
                    for &pos in &positions {
                        apply(part.row_mut(rows[pos]), &values[pos]);
                    }
                })?;
            }
            Ok((n * (8 + row_bytes), self.obj.item_ops(n * cols), 8))
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
        self.push_rows_with(client, rows, values, |row, v| row.copy_from_slice(v))
    }

    /// Pull the whole matrix (driver-side initialization / readout).
    pub fn pull_all(&self, client: &NodeClock) -> Result<Vec<Vec<E>>> {
        let rows: Vec<u64> = (0..self.rows()).collect();
        self.pull_rows(client, &rows)
    }

    /// Bytes resident on the servers for this matrix.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<MatPart<E>>()
    }
}

impl MatrixHandle<f32> {
    /// Server-side uniform initialization in `[-scale, scale)` (seeded;
    /// deterministic per run). Dense partitions fill every row; sparse
    /// partitions stay lazy (rows materialize on first update).
    pub fn init_uniform(&self, client: &NodeClock, seed: u64, scale: f32) -> Result<()> {
        self.obj.each_partition(client, |p, server| {
            let n = self.obj.write(server, p, |part: &mut MatPart<f32>| {
                let mut rng = SplitMix64::new(seed ^ (p as u64).wrapping_mul(0x9E37_79B9));
                match part {
                    MatPart::Dense { data, .. } => {
                        for v in data.iter_mut() {
                            *v = (rng.next_f64() as f32 * 2.0 - 1.0) * scale;
                        }
                        data.len() as u64
                    }
                    MatPart::Sparse { .. } => 0,
                }
            })?;
            Ok((24, self.obj.item_ops(n), 8))
        })
    }

    /// Server-side SGD step: `row -= lr × grad` — the simplest psFunc
    /// optimizer.
    pub fn sgd_step(
        &self,
        client: &NodeClock,
        rows: &[u64],
        grads: &[Vec<f32>],
        lr: f32,
    ) -> Result<()> {
        self.push_rows_with(client, rows, grads, move |row, g| {
            for (r, &gi) in row.iter_mut().zip(g) {
                *r -= lr * gi;
            }
        })
    }

    /// Server-side AdaGrad (psFunc, paper §IV-E): accumulates squared
    /// gradients in a shadow matrix `<name>.G` on the same servers.
    pub fn adagrad_step(
        &self,
        client: &NodeClock,
        rows: &[u64],
        grads: &[Vec<f32>],
        lr: f32,
        eps: f32,
    ) -> Result<()> {
        let state = [self.optimizer_state(".G")?];
        self.optimizer_step(client, rows, grads, &state, move |w, g, [gsq]| {
            for i in 0..w.len() {
                gsq[i] += g[i] * g[i];
                w[i] -= lr * g[i] / (gsq[i].sqrt() + eps);
            }
        })
    }

    /// Server-side Adam (psFunc, paper §IV-E): first/second moments live in
    /// shadow matrices `<name>.m` / `<name>.v`; `t` is the 1-based step.
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
        let state = [self.optimizer_state(".m")?, self.optimizer_state(".v")?];
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        self.optimizer_step(client, rows, grads, &state, move |w, g, [mrow, vrow]| {
            for i in 0..w.len() {
                mrow[i] = beta1 * mrow[i] + (1.0 - beta1) * g[i];
                vrow[i] = beta2 * vrow[i] + (1.0 - beta2) * g[i] * g[i];
                let mhat = mrow[i] / bc1;
                let vhat = vrow[i] / bc2;
                w[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        })
    }

    /// The same-shaped shadow matrix `<name><suffix>` holding optimizer
    /// state, created on first use.
    fn optimizer_state(&self, suffix: &str) -> Result<MatrixHandle<f32>> {
        let name = format!("{}{suffix}", self.obj.name);
        if self.obj.ps.is_registered(&name) {
            let obj = PsObject::new(&self.obj.ps, name, self.obj.layout.clone());
            Ok(MatrixHandle { obj, cols: self.cols, _e: PhantomData })
        } else {
            MatrixHandle::<f32>::create(
                &self.obj.ps,
                name,
                self.rows(),
                self.cols,
                self.obj.layout.partitioner,
                RecoveryMode::Inconsistent,
            )
        }
    }

    /// One optimizer step over `S` co-located state matrices (AdaGrad 1,
    /// Adam 2), fused so the state rows and the weight row of a key are
    /// updated together: `apply(weights, grad, state rows)`.
    fn optimizer_step<const S: usize>(
        &self,
        client: &NodeClock,
        rows: &[u64],
        grads: &[Vec<f32>],
        state: &[MatrixHandle<f32>; S],
        apply: impl Fn(&mut [f32], &[f32], &mut [Vec<f32>; S]),
    ) -> Result<()> {
        if rows.len() != grads.len() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: {} rows vs {} grads",
                self.obj.name,
                rows.len(),
                grads.len()
            )));
        }
        self.obj.check(rows.iter().copied())?;
        let (cols, row_bytes) = (self.cols as u64, (self.cols * 4) as u64);
        self.obj.scatter(client, rows.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                for &pos in &positions {
                    let key = rows[pos];
                    let mut srows: [Vec<f32>; S] = std::array::from_fn(|_| Vec::new());
                    for (s, srow) in state.iter().zip(&mut srows) {
                        *srow = server.get(&s.obj.name, p, |sp: &MatPart<f32>| sp.row(key))?;
                    }
                    self.obj.write(server, p, |wp: &mut MatPart<f32>| {
                        apply(wp.row_mut(key), &grads[pos], &mut srows)
                    })?;
                    for (s, srow) in state.iter().zip(&srows) {
                        s.obj.write(server, p, |sp: &mut MatPart<f32>| {
                            sp.row_mut(key).copy_from_slice(srow)
                        })?;
                    }
                }
            }
            // Gradients cross the wire; weights and state do not. Each
            // state row is read and written back, the weight row updated.
            let ops = self.obj.item_ops((2 * S as u64 + 1) * n * cols);
            Ok((n * (8 + row_bytes), ops, 8))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 2, ..Default::default() })
    }

    #[test]
    fn create_pull_push_rows() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 10, 4, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert_eq!(m.pull_rows(&c, &[0, 9]).unwrap(), vec![vec![0.0; 4]; 2]);
        m.push_add_rows(&c, &[3], &[vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        m.push_add_rows(&c, &[3], &[vec![1.0, 0.0, 0.0, 0.0]]).unwrap();
        assert_eq!(m.pull_rows(&c, &[3]).unwrap(), vec![vec![2.0, 2.0, 3.0, 4.0]]);
        m.push_set_rows(&c, &[3], &[vec![9.0; 4]]).unwrap();
        assert_eq!(m.pull_rows(&c, &[3]).unwrap(), vec![vec![9.0; 4]]);
    }

    #[test]
    fn hash_partitioned_sparse_rows_default_zero() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f64>::create(
            &ps, "x", 1000, 3, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert_eq!(m.pull_rows(&c, &[777]).unwrap(), vec![vec![0.0; 3]]);
        m.push_add_rows(&c, &[777], &[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(m.pull_rows(&c, &[777]).unwrap(), vec![vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn dimension_checks() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 10, 4, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        assert!(m.pull_rows(&c, &[10]).is_err());
        assert!(m.push_add_rows(&c, &[0], &[vec![1.0; 3]]).is_err());
        assert!(m.push_add_rows(&c, &[0, 1], &[vec![1.0; 4]]).is_err());
    }

    #[test]
    fn init_uniform_is_seeded_and_bounded() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 20, 8, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.init_uniform(&c, 42, 0.5).unwrap();
        let a = m.pull_all(&c).unwrap();
        assert!(a.iter().flatten().any(|&x| x != 0.0));
        assert!(a.iter().flatten().all(|&x| x.abs() <= 0.5));
        // Re-init with same seed reproduces.
        m.init_uniform(&c, 42, 0.5).unwrap();
        assert_eq!(m.pull_all(&c).unwrap(), a);
    }

    #[test]
    fn sgd_step_descends() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 4, 2, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.push_set_rows(&c, &[1], &[vec![1.0, 1.0]]).unwrap();
        m.sgd_step(&c, &[1], &[vec![0.5, -0.5]], 0.1).unwrap();
        let r = m.pull_rows(&c, &[1]).unwrap();
        assert!((r[0][0] - 0.95).abs() < 1e-6);
        assert!((r[0][1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn adagrad_scales_by_accumulated_gradient() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 4, 1, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.adagrad_step(&c, &[0], &[vec![1.0]], 0.1, 1e-8).unwrap();
        let w1 = m.pull_rows(&c, &[0]).unwrap()[0][0];
        assert!((w1 + 0.1).abs() < 1e-4, "first step ≈ -lr, got {w1}");
        m.adagrad_step(&c, &[0], &[vec![1.0]], 0.1, 1e-8).unwrap();
        let w2 = m.pull_rows(&c, &[0]).unwrap()[0][0];
        let second_step = (w2 - w1).abs();
        assert!(second_step < 0.1, "adagrad must shrink steps: {second_step}");
    }

    #[test]
    fn adam_first_step_is_about_lr() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 2, 2, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
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
    fn adam_converges_on_quadratic() {
        let ps = ps();
        let c = NodeClock::new();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 1, 1, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
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

    #[test]
    fn checkpoint_restore_matrix() {
        let ps = ps();
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let m = MatrixHandle::<f32>::create(
            &ps, "w", 8, 3, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.push_set_rows(&c, &[0, 7], &[vec![1.0; 3], vec![7.0; 3]]).unwrap();
        ps.checkpoint(&dfs, "w").unwrap();
        ps.kill_server(0);
        ps.restart_server(0, c.now());
        ps.recover_server(0, &dfs, &c).unwrap();
        assert_eq!(m.pull_rows(&c, &[0]).unwrap(), vec![vec![1.0; 3]]);
        assert_eq!(m.pull_rows(&c, &[7]).unwrap(), vec![vec![7.0; 3]]);
    }

    #[test]
    fn matpart_encode_decode_roundtrip() {
        let dense: MatPart<f32> =
            MatPart::Dense { start: 2, cols: 2, data: vec![1.0, 2.0, 3.0, 4.0] };
        assert_eq!(MatPart::<f32>::decode(&dense.encode()).unwrap(), dense);
        let mut map = FxHashMap::default();
        map.insert(9u64, vec![1.0f32, -1.0]);
        let sparse: MatPart<f32> = MatPart::Sparse { cols: 2, map };
        assert_eq!(MatPart::<f32>::decode(&sparse.encode()).unwrap(), sparse);
        assert!(MatPart::<f32>::decode(&[7]).is_err());
        assert!(MatPart::<f32>::decode(&[]).is_err());
    }

    #[test]
    fn pulls_cost_time_proportional_to_width() {
        let ps = ps();
        let narrow = MatrixHandle::<f32>::create(
            &ps, "n", 100, 2, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let wide = MatrixHandle::<f32>::create(
            &ps, "wdt", 100, 256, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let c1 = NodeClock::new();
        let c2 = NodeClock::new();
        let ids: Vec<u64> = (0..100).collect();
        narrow.pull_rows(&c1, &ids).unwrap();
        wide.pull_rows(&c2, &ids).unwrap();
        assert!(c2.now() > c1.now());
    }
}
