//! Client-side optimizers over plain tensors.
//!
//! PSGraph runs its one optimizer, Adam, *on the servers* (a psFunc — see
//! `psgraph_ps::MatrixHandle::adam_step`, with the moments in shadow
//! matrices beside the weights); these local versions (SGD, Adam) exist for
//! the Euler baseline, which trains worker-side, and for unit-level
//! comparisons between the two placements.

use crate::tensor::Tensor;

/// A stateful optimizer over a fixed set of parameter slots.
pub trait Optimizer {
    /// Apply one step: `params[i] -= update(grads[i])`.
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]);
}

/// Plain SGD.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len());
        for (p, g) in params.iter_mut().zip(grads) {
            debug_assert_eq!(p.len(), g.len());
            for (pi, gi) in p.data_mut().iter_mut().zip(g.data()) {
                *pi -= self.lr * gi;
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len());
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter set changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (slot, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for (i, (pi, &gi)) in p.data_mut().iter_mut().zip(g.data()).enumerate() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                *pi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_grad(p: &Tensor) -> Tensor {
        // ∇ of Σ (p - 2)^2
        p.map(|x| 2.0 * (x - 2.0))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Tensor::from_vec(1, 2, vec![10.0, -5.0]);
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            let g = quad_grad(&p);
            opt.step(&mut [&mut p], &[&g]);
        }
        assert!(p.data().iter().all(|&x| (x - 2.0).abs() < 1e-3), "{:?}", p.data());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Tensor::from_vec(1, 2, vec![10.0, -5.0]);
        let mut opt = Adam::new(0.2);
        for _ in 0..400 {
            let g = quad_grad(&p);
            opt.step(&mut [&mut p], &[&g]);
        }
        assert!(p.data().iter().all(|&x| (x - 2.0).abs() < 0.05), "{:?}", p.data());
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        let mut p = Tensor::from_vec(1, 1, vec![0.0]);
        let g = Tensor::from_vec(1, 1, vec![100.0]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p], &[&g]);
        assert!((p.get(0, 0) + 0.01).abs() < 1e-4, "got {}", p.get(0, 0));
    }

    #[test]
    fn multiple_param_slots_tracked_independently() {
        let mut a = Tensor::from_vec(1, 1, vec![5.0]);
        let mut b = Tensor::from_vec(1, 2, vec![5.0, 5.0]);
        let mut opt = Adam::new(0.5);
        for _ in 0..300 {
            let ga = quad_grad(&a);
            let gb = quad_grad(&b);
            opt.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        }
        assert!((a.get(0, 0) - 2.0).abs() < 0.1);
        assert!((b.get(0, 1) - 2.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut p = Tensor::zeros(1, 1);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p], &[]);
    }
}
