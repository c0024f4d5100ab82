//! Neural-network layers over the autograd graph.

use psgraph_sim::FxHashMap;

use crate::autograd::{Graph, Var};
use crate::sparse::SparseRows;
use crate::tensor::Tensor;

/// A fully-connected layer `y = x·W + b` with the weights held as plain
/// tensors so they can be synced to/from the parameter server between
/// steps (PSGraph pulls `W^k` from PS, builds the tape, and pushes the
/// gradients back — paper Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Linear {
    /// Xavier-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let scale = (6.0 / (in_dim + out_dim) as f32).sqrt();
        Linear {
            weight: Tensor::uniform(in_dim, out_dim, scale, seed),
            bias: Tensor::zeros(1, out_dim),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Register parameters on the tape and apply the layer. Returns
    /// `(output, weight var, bias var)` so callers can read the gradients
    /// after `backward`.
    pub fn forward(&self, g: &mut Graph, x: Var) -> (Var, Var, Var) {
        let w = g.param(self.weight.clone());
        let b = g.param(self.bias.clone());
        let xw = g.matmul(x, w);
        let y = g.add_bias(xw, b);
        (y, w, b)
    }

    /// Flatten parameters into one row-major vector (PS storage layout:
    /// weight rows then bias).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut v = self.weight.data().to_vec();
        v.extend_from_slice(self.bias.data());
        v
    }

    /// Inverse of [`Linear::to_flat`].
    pub fn from_flat(in_dim: usize, out_dim: usize, flat: &[f32]) -> Self {
        assert_eq!(flat.len(), in_dim * out_dim + out_dim, "flat size mismatch");
        Linear {
            weight: Tensor::from_vec(in_dim, out_dim, flat[..in_dim * out_dim].to_vec()),
            bias: Tensor::from_vec(1, out_dim, flat[in_dim * out_dim..].to_vec()),
        }
    }
}

/// Vertex ids numbered by first appearance — which row of a layer's
/// input each vertex of a mini-batch closure occupies.
#[derive(Debug, Clone, Default)]
pub struct Columns {
    ids: Vec<u64>,
    at: FxHashMap<u64, usize>,
}

impl Columns {
    /// Number `id` if it is new; its column either way.
    pub fn insert(&mut self, id: u64) -> usize {
        *self.at.entry(id).or_insert_with(|| {
            self.ids.push(id);
            self.ids.len() - 1
        })
    }

    pub fn get(&self, id: u64) -> Option<usize> {
        self.at.get(&id).copied()
    }

    /// The ids in column order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl Extend<u64> for Columns {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

/// One mean-aggregator GraphSage layer's constant operators over the rows
/// of the layer below: `select` picks each target's own row, `mean`
/// averages the rows of its sampled neighbors.
#[derive(Debug, Clone, PartialEq)]
pub struct SageOps {
    pub select: SparseRows,
    pub mean: SparseRows,
}

impl SageOps {
    /// One output row per item of `rows`: the target's own column, and
    /// the columns of its sampled neighbors (repeats weigh in once each).
    /// A target without neighbors aggregates itself.
    pub fn new(cols: usize, rows: impl IntoIterator<Item = (usize, Vec<usize>)>) -> Self {
        let (mut select, mut mean) = (SparseRows::new(cols), SparseRows::new(cols));
        for (own, neighbors) in rows {
            select.push_row([(own, 1.0)]);
            if neighbors.is_empty() {
                mean.push_row([(own, 1.0)]);
            } else {
                let w = 1.0 / neighbors.len() as f32;
                mean.push_row(neighbors.into_iter().map(|c| (c, w)));
            }
        }
        SageOps { select, mean }
    }

    /// Output rows (the layer's targets).
    pub fn rows(&self) -> usize {
        self.select.rows()
    }

    /// In-memory footprint in bytes (JNI transfer sizing).
    pub fn byte_size(&self) -> u64 {
        self.select.byte_size() + self.mean.byte_size()
    }
}

/// A two-layer GraphSage mini-batch as the tensor runtime receives it:
/// the features of the 2-hop closure plus each layer's operators.
#[derive(Debug, Clone, PartialEq)]
pub struct SageBatch {
    /// `|L2| × feat_dim` features of the closure.
    pub x: Tensor,
    /// `|L1| × |L2|`.
    pub layer1: SageOps,
    /// `|B| × |L1|`.
    pub layer2: SageOps,
}

impl SageBatch {
    /// Bytes that cross the JNI bridge when the batch is fed.
    pub fn byte_size(&self) -> u64 {
        self.x.byte_size() + self.layer1.byte_size() + self.layer2.byte_size()
    }

    /// Two-layer forward with mean aggregation; layer k computes
    /// `h^k_v = σ(W^k · concat(h^{k-1}_v, mean h^{k-1}_{N(v)}))`. Returns
    /// the logits and the `[W¹, b¹, W², b²]` parameter vars.
    pub fn forward(&self, g: &mut Graph, l1: &Linear, l2: &Linear) -> (Var, [Var; 4]) {
        let x = g.input(self.x.clone());
        let (z1, w1, b1) = sage_layer(g, &self.layer1, x, l1);
        let h1 = g.relu(z1);
        let (logits, w2, b2) = sage_layer(g, &self.layer2, h1, l2);
        (logits, [w1, b1, w2, b2])
    }
}

fn sage_layer(g: &mut Graph, ops: &SageOps, below: Var, layer: &Linear) -> (Var, Var, Var) {
    let own = g.spmm(&ops.select, below);
    let agg = g.spmm(&ops.mean, below);
    let cat = g.concat_cols(own, agg);
    layer.forward(g, cat)
}

/// Classification accuracy of `logits` against integer labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_forward() {
        let layer = Linear::new(3, 2, 7);
        assert_eq!((layer.in_dim(), layer.out_dim()), (3, 2));
        let mut g = Graph::new();
        let x = g.input(Tensor::uniform(4, 3, 1.0, 1));
        let (y, _, _) = layer.forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (4, 2));
    }

    #[test]
    fn flat_roundtrip() {
        let layer = Linear::new(5, 3, 9);
        let flat = layer.to_flat();
        assert_eq!(flat.len(), 18);
        let back = Linear::from_flat(5, 3, &flat);
        assert_eq!(back, layer);
    }

    #[test]
    #[should_panic(expected = "flat size mismatch")]
    fn from_flat_validates() {
        Linear::from_flat(2, 2, &[0.0; 5]);
    }

    #[test]
    fn gradients_flow_through_layer() {
        let layer = Linear::new(3, 2, 11);
        let mut g = Graph::new();
        let x = g.input(Tensor::uniform(4, 3, 1.0, 2));
        let (y, wv, bv) = layer.forward(&mut g, x);
        let loss = g.softmax_cross_entropy(y, &[0, 1, 1, 0]);
        g.backward(loss);
        assert!(g.grad(wv).unwrap().data().iter().any(|&v| v != 0.0));
        assert_eq!(g.grad(bv).unwrap().cols(), 2);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&Tensor::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn columns_number_ids_by_first_appearance() {
        let mut cols = Columns::default();
        cols.extend([7, 3, 7, 9]);
        assert_eq!(cols.insert(3), 1);
        assert_eq!(cols.insert(4), 3);
        assert_eq!(cols.ids(), &[7, 3, 9, 4]);
        assert_eq!((cols.get(9), cols.get(5), cols.len()), (Some(2), None, 4));
    }

    #[test]
    fn sage_ops_select_self_and_average_neighbors() {
        // Target 0 sampled column 2 twice and column 1 once; target 1 has
        // no neighbors and aggregates itself.
        let ops = SageOps::new(3, [(0, vec![2, 1, 2]), (1, vec![])]);
        let third = 1.0f32 / 3.0;
        assert_eq!(ops.rows(), 2);
        assert_eq!(ops.select.to_dense(), Tensor::from_vec(2, 3, vec![1., 0., 0., 0., 1., 0.]));
        assert_eq!(
            ops.mean.to_dense(),
            Tensor::from_vec(2, 3, vec![0., third, third + third, 0., 1., 0.])
        );
    }

    #[test]
    fn sage_batch_forward_shapes_and_bytes() {
        let batch = SageBatch {
            x: Tensor::uniform(5, 4, 1.0, 3),
            layer1: SageOps::new(5, [(0, vec![3, 4]), (1, vec![]), (2, vec![0])]),
            layer2: SageOps::new(3, [(0, vec![1, 2]), (1, vec![2])]),
        };
        // x, then per operator offsets + indices + weights at 4 bytes each.
        let ops_bytes = [(4, 3), (4, 4), (3, 2), (3, 3)].map(|(o, n)| (o + 2 * n) * 4);
        assert_eq!(batch.byte_size(), 5 * 4 * 4 + ops_bytes.iter().sum::<u64>());
        let (l1, l2) = (Linear::new(8, 6, 1), Linear::new(12, 2, 2));
        let mut g = Graph::new();
        let (logits, params) = batch.forward(&mut g, &l1, &l2);
        assert_eq!((g.value(logits).rows(), g.value(logits).cols()), (2, 2));
        let loss = g.softmax_cross_entropy(logits, &[0, 1]);
        g.backward(loss);
        assert!(params.iter().all(|&p| g.grad(p).is_some()));
    }

    #[test]
    fn two_layer_net_learns_xor() {
        // Classic sanity check that the whole stack trains.
        let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let labels = vec![0usize, 1, 1, 0];
        let mut l1 = Linear::new(2, 8, 1);
        let mut l2 = Linear::new(8, 2, 2);
        let mut final_acc = 0.0;
        for _ in 0..800 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let (h, w1, b1) = l1.forward(&mut g, xv);
            let h = g.relu(h);
            let (logits, w2, b2) = l2.forward(&mut g, h);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward(loss);
            let lr = 0.5;
            for (p, gv) in [
                (&mut l1.weight, w1),
                (&mut l1.bias, b1),
                (&mut l2.weight, w2),
                (&mut l2.bias, b2),
            ] {
                let grad = g.grad(gv).unwrap();
                for (pi, gi) in p.data_mut().iter_mut().zip(grad.data()) {
                    *pi -= lr * gi;
                }
            }
            final_acc = accuracy(g.value(logits), &labels);
        }
        assert!(final_acc > 0.99, "xor accuracy {final_acc}");
    }
}
