//! Sparse constant operators in CSR form — how a GNN mini-batch's
//! selection and aggregation matrices reach the tensor runtime (paper
//! Fig. 5 feeds PyTorch "graph data": features plus an index structure,
//! not dense `|L1| × |L2|` selectors).
//!
//! The kernels visit a row's entries in column order and scatter rows in
//! ascending order, which is the summation order of [`Tensor::matmul`] on
//! the materialised matrix (it skips zeros the same way), so swapping a
//! dense operator for its [`SparseRows`] changes no bit of a result.

use crate::tensor::Tensor;

/// A `rows × cols` f32 matrix stored by rows: offsets, column indices and
/// weights. A row's entries are sorted by column and a column appears at
/// most once per row.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    cols: usize,
    /// Row `r` owns entries `offsets[r]..offsets[r + 1]`.
    offsets: Vec<u32>,
    indices: Vec<u32>,
    weights: Vec<f32>,
}

impl SparseRows {
    /// An operator over `cols` columns with no rows yet.
    pub fn new(cols: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "column count must fit in u32");
        SparseRows { cols, offsets: vec![0], indices: Vec::new(), weights: Vec::new() }
    }

    /// Append a row from `(column, weight)` entries in any order. Entries
    /// naming the same column merge into one whose weight is their sum,
    /// added in input order (what repeated `m[r][c] += w` on a dense
    /// matrix computes).
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f32)>) {
        let mut row: Vec<(usize, f32)> = entries.into_iter().collect();
        row.sort_by_key(|&(c, _)| c); // stable: equal columns keep input order
        let start = self.indices.len();
        for (c, w) in row {
            assert!(c < self.cols, "column {c} outside 0..{}", self.cols);
            if self.indices.len() > start && self.indices.last() == Some(&(c as u32)) {
                *self.weights.last_mut().expect("one weight per index") += w;
            } else {
                self.indices.push(c as u32);
                self.weights.push(w);
            }
        }
        let end = u32::try_from(self.indices.len()).expect("entry count must fit in u32");
        self.offsets.push(end);
    }

    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// In-memory footprint in bytes (JNI transfer sizing): offsets,
    /// indices and weights, four bytes each.
    pub fn byte_size(&self) -> u64 {
        ((self.offsets.len() + self.indices.len() + self.weights.len()) * 4) as u64
    }

    /// Row `r`'s `(column, weight)` entries in column order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let run = self.offsets[r] as usize..self.offsets[r + 1] as usize;
        self.indices[run.clone()].iter().map(|&c| c as usize).zip(self.weights[run].iter().copied())
    }

    /// The same matrix, dense.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            for (c, w) in self.row(r) {
                out.set(r, c, w);
            }
        }
        out
    }

    /// `self × x`.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        let mut out = Tensor::zeros(self.rows(), x.cols());
        for r in 0..self.rows() {
            let orow = out.row_mut(r);
            for (c, w) in self.row(r) {
                if w == 0.0 {
                    continue; // as `Tensor::matmul` skips a zero entry
                }
                for (o, &b) in orow.iter_mut().zip(x.row(c)) {
                    *o += w * b;
                }
            }
        }
        out
    }

    /// `selfᵀ × g` without materialising the transpose: row `r` of `g`
    /// is scattered to the output rows its entries name.
    pub fn transpose_matmul(&self, g: &Tensor) -> Tensor {
        assert_eq!(self.rows(), g.rows(), "spmm-transpose shape mismatch");
        let mut out = Tensor::zeros(self.cols, g.cols());
        for r in 0..self.rows() {
            let grow = g.row(r);
            for (c, w) in self.row(r) {
                if w == 0.0 {
                    continue;
                }
                for (o, &b) in out.row_mut(c).iter_mut().zip(grow) {
                    *o += w * b;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_sorted_and_duplicates_merge_in_input_order() {
        let mut a = SparseRows::new(4);
        a.push_row([(3, 1.0), (1, 0.1), (3, 0.5), (1, 0.2), (1, 0.3)]);
        a.push_row([]);
        a.push_row([(0, 0.0)]);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(1, (0.1f32 + 0.2) + 0.3), (3, 1.5)]);
        assert_eq!(a.row(1).count(), 0);
        assert_eq!(a.row(2).collect::<Vec<_>>(), vec![(0, 0.0)]);
        assert_eq!(a.byte_size(), (4 + 3 + 3) * 4);
        let w = (0.1f32 + 0.2) + 0.3;
        assert_eq!(
            a.to_dense(),
            Tensor::from_vec(3, 4, vec![0., w, 0., 1.5, 0., 0., 0., 0., 0., 0., 0., 0.])
        );
    }

    #[test]
    #[should_panic(expected = "outside 0..2")]
    fn push_row_rejects_a_column_out_of_range() {
        SparseRows::new(2).push_row([(2, 1.0)]);
    }
}
