//! Dense 2-D f32 tensors (row-major). Everything GraphSage needs and
//! nothing more — no strides, no views, no broadcasting beyond row-bias.

use psgraph_sim::SplitMix64;

/// A dense `rows × cols` matrix of f32 (vectors are `1 × n` or `n × 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// From row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Seeded uniform init in `[-scale, scale)` (Xavier-ish when
    /// `scale = sqrt(6/(fan_in+fan_out))`).
    pub fn uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols)
            .map(|_| (rng.next_f64() as f32 * 2.0 - 1.0) * scale)
            .collect();
        Tensor { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// In-memory footprint in bytes (JNI transfer sizing).
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * 4) as u64
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self × other` (naive triple loop with slice-based inner kernel).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue; // aggregation matrices are sparse-ish
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise sum (same shape).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Add a `1 × cols` bias row to every row.
    pub fn add_row(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Scalar multiply.
    pub fn scale(&self, k: f32) -> Tensor {
        let data = self.data.iter().map(|v| v * k).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat row mismatch");
        let mut out = Tensor::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Column sums as a `1 × cols` tensor (bias gradients).
    pub fn col_sum(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        out
    }

    /// Row-wise argmax (predictions).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!((t.rows(), t.cols(), t.len()), (2, 3, 6));
        assert!(!t.is_empty());
        assert_eq!(t.byte_size(), 24);
        let u = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(u.get(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_validates() {
        Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn uniform_is_seeded_and_bounded() {
        let a = Tensor::uniform(4, 4, 0.3, 7);
        let b = Tensor::uniform(4, 4, 0.3, 7);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.3));
        assert!(a.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::uniform(3, 5, 1.0, 1);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 5);
    }

    #[test]
    fn add_and_bias_and_scale() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 2, vec![10., 20., 30., 40.]);
        assert_eq!(a.add(&b), Tensor::from_vec(2, 2, vec![11., 22., 33., 44.]));
        let bias = Tensor::from_vec(1, 2, vec![1., -1.]);
        assert_eq!(a.add_row(&bias), Tensor::from_vec(2, 2, vec![2., 1., 4., 3.]));
        assert_eq!(a.scale(2.0), Tensor::from_vec(2, 2, vec![2., 4., 6., 8.]));
    }

    #[test]
    fn concat_and_colsum() {
        let a = Tensor::from_vec(2, 1, vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_cols(&b);
        assert_eq!(c, Tensor::from_vec(2, 3, vec![1., 3., 4., 2., 5., 6.]));
        assert_eq!(c.col_sum(), Tensor::from_vec(1, 3, vec![3., 8., 10.]));
    }

    #[test]
    fn softmax_rows_normalized() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large values don't overflow (max-subtraction).
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn hadamard_and_map() {
        let a = Tensor::from_vec(1, 3, vec![3., 0., 4.]);
        assert_eq!(a.hadamard(&a), Tensor::from_vec(1, 3, vec![9., 0., 16.]));
        assert_eq!(a.map(|v| v + 1.0), Tensor::from_vec(1, 3, vec![4., 1., 5.]));
    }
}
