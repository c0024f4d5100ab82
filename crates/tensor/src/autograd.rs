//! Reverse-mode automatic differentiation over a tape of tensor ops — the
//! "Autograd mechanism" the paper relies on PyTorch for (§III-C: "PyTorch
//! performs forward calculation and backward propagation with Autograd").

use std::sync::Arc;

use crate::sparse::SparseRows;
use crate::tensor::Tensor;

/// Handle to a node in the computation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Leaf: a trainable parameter when `requires_grad`, else an input.
    Leaf { requires_grad: bool },
    MatMul(Var, Var),
    /// `A·x` for a constant sparse operator `A`.
    Spmm(Arc<SparseRows>, Var),
    Add(Var, Var),
    /// `x + bias_row` broadcast over rows.
    AddBias(Var, Var),
    Relu(Var),
    Scale(Var, f32),
    ConcatCols(Var, Var),
    /// Mean softmax cross-entropy against integer labels; scalar output.
    SoftmaxCrossEntropy { logits: Var, labels: Vec<usize> },
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
    /// Whether a trainable parameter lies at or upstream of this node —
    /// `backward` neither computes nor stores a gradient where none does.
    needs_grad: bool,
}

/// A dynamic computation graph (fresh per forward/backward pass, like a
/// PyTorch tape).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        let needs = |v: &Var| self.nodes[v.0].needs_grad;
        let needs_grad = match &op {
            Op::Leaf { requires_grad } => *requires_grad,
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddBias(a, b) | Op::ConcatCols(a, b) => {
                needs(a) || needs(b)
            }
            Op::Spmm(_, x)
            | Op::Relu(x)
            | Op::Scale(x, _)
            | Op::SoftmaxCrossEntropy { logits: x, .. } => needs(x),
        };
        self.nodes.push(Node { op, value, grad: None, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// A constant input (no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf { requires_grad: false }, value)
    }

    /// A trainable parameter (gradient accumulated by `backward`).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf { requires_grad: true }, value)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` target w.r.t. `v` — `None` if the
    /// target does not depend on `v`, or no parameter lies at or upstream
    /// of `v` (a constant input has none).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), value)
    }

    /// `a·x` for a constant sparse operator: gradient flows into `x` only.
    pub fn spmm(&mut self, a: &SparseRows, x: Var) -> Var {
        let value = a.matmul(self.value(x));
        self.push(Op::Spmm(Arc::new(a.clone()), x), value)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), value)
    }

    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.value(x).add_row(self.value(bias));
        self.push(Op::AddBias(x, bias), value)
    }

    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        self.push(Op::Relu(x), value)
    }

    pub fn scale(&mut self, x: Var, k: f32) -> Var {
        let value = self.value(x).scale(k);
        self.push(Op::Scale(x, k), value)
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).concat_cols(self.value(b));
        self.push(Op::ConcatCols(a, b), value)
    }

    /// Mean softmax cross-entropy loss (scalar `1 × 1`).
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let l = self.value(logits);
        assert_eq!(l.rows(), labels.len(), "labels/batch mismatch");
        let probs = l.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            loss -= probs.get(r, y).max(1e-12).ln();
        }
        loss /= labels.len() as f32;
        self.push(
            Op::SoftmaxCrossEntropy { logits, labels: labels.to_vec() },
            Tensor::from_vec(1, 1, vec![loss]),
        )
    }

    /// Add `g()` to `v`'s gradient — computed only if `v` needs one.
    fn accumulate(&mut self, v: Var, g: impl FnOnce(&Graph) -> Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        let g = g(self);
        match &mut self.nodes[v.0].grad {
            Some(existing) => *existing = existing.add(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Backpropagate from the scalar node `target`.
    pub fn backward(&mut self, target: Var) {
        assert_eq!(self.value(target).len(), 1, "backward target must be scalar");
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[target.0].grad = Some(Tensor::from_vec(1, 1, vec![1.0]));

        // The tape is already topologically ordered (ops only reference
        // earlier nodes), so one reverse sweep suffices.
        for i in (0..=target.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.clone() else { continue };
            match self.nodes[i].op.clone() {
                Op::Leaf { .. } => {}
                Op::MatMul(a, b) => {
                    self.accumulate(a, |t| g.matmul(&t.value(b).transpose()));
                    self.accumulate(b, |t| t.value(a).transpose().matmul(&g));
                }
                Op::Spmm(a, x) => self.accumulate(x, |_| a.transpose_matmul(&g)),
                Op::Add(a, b) => {
                    self.accumulate(a, |_| g.clone());
                    self.accumulate(b, |_| g);
                }
                Op::AddBias(x, bias) => {
                    self.accumulate(bias, |_| g.col_sum());
                    self.accumulate(x, |_| g);
                }
                Op::Relu(x) => self.accumulate(x, |t| {
                    g.hadamard(&t.value(x).map(|v| if v > 0.0 { 1.0 } else { 0.0 }))
                }),
                Op::Scale(x, k) => self.accumulate(x, |_| g.scale(k)),
                Op::ConcatCols(a, b) => {
                    let ca = self.value(a).cols();
                    let cols = |lo: usize, hi: usize| {
                        let mut part = Tensor::zeros(g.rows(), hi - lo);
                        for r in 0..g.rows() {
                            part.row_mut(r).copy_from_slice(&g.row(r)[lo..hi]);
                        }
                        part
                    };
                    self.accumulate(a, |_| cols(0, ca));
                    self.accumulate(b, |_| cols(ca, g.cols()));
                }
                Op::SoftmaxCrossEntropy { logits, labels } => self.accumulate(logits, |t| {
                    let scale = g.get(0, 0) / labels.len() as f32;
                    let mut dl = t.value(logits).softmax_rows();
                    for (r, &y) in labels.iter().enumerate() {
                        let v = dl.get(r, y);
                        dl.set(r, y, v - 1.0);
                    }
                    dl.scale(scale)
                }),
            }
        }
    }

    /// Scalar value of a loss node.
    pub fn scalar(&self, v: Var) -> f32 {
        assert_eq!(self.value(v).len(), 1);
        self.value(v).get(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_harness::prop::{check, Source};
    use psgraph_harness::prop_assert_eq;

    /// Numeric gradient of `loss(build)` w.r.t. one parameter entry.
    fn numeric_grad(
        build: &dyn Fn(&mut Graph, &Tensor) -> Var,
        param: &Tensor,
        r: usize,
        c: usize,
    ) -> f32 {
        let eps = 1e-3f32;
        let mut plus = param.clone();
        plus.set(r, c, plus.get(r, c) + eps);
        let mut minus = param.clone();
        minus.set(r, c, minus.get(r, c) - eps);
        let mut g1 = Graph::new();
        let l1 = build(&mut g1, &plus);
        let mut g2 = Graph::new();
        let l2 = build(&mut g2, &minus);
        (g1.scalar(l1) - g2.scalar(l2)) / (2.0 * eps)
    }

    fn check_grads(build: impl Fn(&mut Graph, &Tensor) -> (Var, Var), param: Tensor) {
        let mut g = Graph::new();
        let (pvar, loss) = build(&mut g, &param);
        g.backward(loss);
        let analytic = g.grad(pvar).expect("param grad").clone();
        let rebuild = |gg: &mut Graph, p: &Tensor| build(gg, p).1;
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let num = numeric_grad(&rebuild, &param, r, c);
                let ana = analytic.get(r, c);
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn grad_check_linear() {
        let w = Tensor::uniform(3, 2, 0.5, 11);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(4, 3, 1.0, 5));
                let w = g.param(p.clone());
                let y = g.matmul(x, w);
                let loss = g.softmax_cross_entropy(y, &[0, 1, 1, 0]);
                (w, loss)
            },
            w,
        );
    }

    #[test]
    fn grad_check_bias() {
        let b = Tensor::uniform(1, 2, 0.5, 3);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(4, 2, 1.0, 9));
                let b = g.param(p.clone());
                let y = g.add_bias(x, b);
                let loss = g.softmax_cross_entropy(y, &[1, 0, 0, 1]);
                (b, loss)
            },
            b,
        );
    }

    #[test]
    fn grad_check_relu_chain() {
        let w = Tensor::uniform(2, 2, 0.7, 21);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(3, 2, 1.0, 8));
                let w = g.param(p.clone());
                let h = g.matmul(x, w);
                let h = g.relu(h);
                let h = g.matmul(h, w);
                let loss = g.softmax_cross_entropy(h, &[1, 0, 1]);
                (w, loss)
            },
            w,
        );
    }

    #[test]
    fn grad_check_concat_and_scale() {
        let w = Tensor::uniform(2, 2, 0.5, 31);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(3, 2, 1.0, 12));
                let w = g.param(p.clone());
                let a = g.matmul(x, w);
                let b = g.scale(a, 0.5);
                let cat = g.concat_cols(a, b);
                let loss = g.softmax_cross_entropy(cat, &[3, 0, 2]);
                (w, loss)
            },
            w,
        );
    }

    #[test]
    fn grad_check_softmax_cross_entropy() {
        let w = Tensor::uniform(3, 4, 0.5, 41);
        let labels = vec![0usize, 3, 1, 2, 0];
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(5, 3, 1.0, 17));
                let w = g.param(p.clone());
                let logits = g.matmul(x, w);
                let loss = g.softmax_cross_entropy(logits, &labels);
                (w, loss)
            },
            w,
        );
    }

    #[test]
    fn grad_check_shared_parameter_two_paths() {
        // Gradient accumulates across both uses of the parameter.
        let w = Tensor::uniform(2, 2, 0.5, 51);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(2, 2, 1.0, 13));
                let w = g.param(p.clone());
                let a = g.matmul(x, w);
                let b = g.matmul(a, w); // w used twice
                let loss = g.softmax_cross_entropy(b, &[1, 0]);
                (w, loss)
            },
            w,
        );
    }

    #[test]
    fn training_reduces_loss() {
        // One linear layer learning the labels `argmax(x·W*)` on random data.
        let wstar = Tensor::uniform(3, 2, 1.0, 1);
        let x = Tensor::uniform(16, 3, 1.0, 2);
        let y = x.matmul(&wstar).argmax_rows();
        let mut w = Tensor::uniform(3, 2, 0.1, 3);
        let mut losses = Vec::new();
        for _ in 0..200 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let wv = g.param(w.clone());
            let pred = g.matmul(xv, wv);
            let loss = g.softmax_cross_entropy(pred, &y);
            g.backward(loss);
            let gw = g.grad(wv).unwrap();
            for (wi, gi) in w.data_mut().iter_mut().zip(gw.data()) {
                *wi -= gi;
            }
            losses.push(g.scalar(loss));
        }
        let (first, last) = (losses[0], losses[199]);
        assert!(last < first * 0.25, "loss {first} → {last}");
        assert_eq!(x.matmul(&w).argmax_rows(), y, "the layer separates the labels");
    }

    #[test]
    fn no_gradient_where_no_parameter_lives() {
        let mut g = Graph::new();
        let x = g.input(Tensor::uniform(2, 2, 1.0, 4));
        let pre = g.relu(x); // constant: only inputs upstream
        let w = g.param(Tensor::uniform(2, 2, 1.0, 5));
        let y = g.matmul(pre, w);
        let h = g.relu(y);
        let loss = g.softmax_cross_entropy(h, &[0, 1]);
        g.backward(loss);
        assert!(g.grad(w).is_some());
        // Gradient flows *through* a node that depends on a parameter …
        assert!(g.grad(y).is_some());
        // … and stops where nothing trainable is upstream.
        assert!(g.grad(pre).is_none());
        assert!(g.grad(x).is_none());
    }

    #[test]
    fn grad_check_spmm_between_layers() {
        // A constant sparse operator applied to a trainable layer's output,
        // with a repeated column, an empty row and an explicit zero.
        let mut a = SparseRows::new(4);
        a.push_row([(2, 0.5), (0, 0.25), (2, 0.25)]);
        a.push_row([]);
        a.push_row([(3, 1.0), (1, 0.0)]);
        let w = Tensor::uniform(3, 2, 0.5, 61);
        check_grads(
            |g, p| {
                let x = g.input(Tensor::uniform(4, 3, 1.0, 19));
                let w = g.param(p.clone());
                let h = g.matmul(x, w);
                let agg = g.spmm(&a, h);
                let loss = g.softmax_cross_entropy(agg, &[1, 0, 1]);
                (w, loss)
            },
            w,
        );
    }

    /// A random operator of one to six rows and columns: empty rows,
    /// repeated columns and explicit zero weights included.
    fn arb_operator(s: &mut Source) -> SparseRows {
        let cols = s.usize_range(1, 7);
        let mut a = SparseRows::new(cols);
        for _ in 0..s.usize_range(1, 7) {
            let entries = s.vec_with(0, 6, |s| {
                let w = match s.choice(5) {
                    0 => 0.0,
                    k => (s.choice(64) as f32 - 32.0) / (8.0 * k as f32),
                };
                (s.usize_range(0, cols), w)
            });
            a.push_row(entries);
        }
        a
    }

    #[test]
    fn spmm_equals_matmul_on_the_materialised_matrix_bit_for_bit() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        check(
            "spmm_equals_matmul_on_the_materialised_matrix",
            |s: &mut Source| (arb_operator(s), s.usize_range(1, 6), s.any_u64()),
            |(a, width, seed)| {
                let dense = a.to_dense();
                // `x` is a parameter here so that its gradient is kept.
                let run = |apply: &dyn Fn(&mut Graph, Var) -> Var| {
                    let mut g = Graph::new();
                    let x = g.param(Tensor::uniform(dense.cols(), *width, 2.0, *seed));
                    let y = apply(&mut g, x);
                    let labels: Vec<usize> =
                        (0..a.rows()).map(|r| (r + *seed as usize) % width).collect();
                    let loss = g.softmax_cross_entropy(y, &labels);
                    g.backward(loss);
                    (bits(g.value(y)), g.grad(x).map(bits))
                };
                let sparse = run(&|g, x| g.spmm(a, x));
                let dense = run(&|g, x| {
                    let av = g.input(dense.clone());
                    g.matmul(av, x)
                });
                prop_assert_eq!(sparse, dense);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(2, 2));
        g.backward(x);
    }
}
