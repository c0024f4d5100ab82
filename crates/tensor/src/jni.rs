//! The JNI bridge cost shim (paper §III-C): "We transfer data between JVM
//! runtime and C++ runtime using JNI — 1) graph data is fed into PyTorch,
//! 2) PyTorch performs forward calculation and backward propagation, 3)
//! send gradients to JVM runtime."
//!
//! In this reproduction both "runtimes" are the same process, so the
//! bridge only charges the simulated copy cost of moving tensors across
//! the boundary — making the GNN cost model honest about the overhead the
//! paper actually pays.

use psgraph_sim::{CostModel, NodeClock, SimTime};

use crate::tensor::Tensor;

/// Charges JVM ↔ native copy costs.
#[derive(Debug)]
pub struct JniBridge {
    cost: CostModel,
}

impl JniBridge {
    pub fn new(cost: CostModel) -> Self {
        JniBridge { cost }
    }

    /// Feed `bytes` of graph data — features plus the index structures of
    /// a mini-batch — into the native runtime (step 1). Returns the charge.
    pub fn feed(&self, clock: &NodeClock, bytes: u64) -> SimTime {
        let c = self.cost.jni_cost(bytes);
        clock.advance(c);
        c
    }

    /// Read gradients back to the JVM (step 3). Returns the charge.
    pub fn read_back(&self, clock: &NodeClock, tensors: &[&Tensor]) -> SimTime {
        let bytes: u64 = tensors.iter().map(|t| t.byte_size()).sum();
        let c = self.cost.jni_cost(bytes);
        clock.advance(c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_and_read_back_charge_their_bytes() {
        let cost = CostModel::default();
        let b = JniBridge::new(cost.clone());
        let clock = NodeClock::new();
        let t = Tensor::zeros(100, 100); // 40 kB
        let c1 = b.feed(&clock, 2 * t.byte_size());
        assert_eq!(c1, cost.jni_cost(80_000));
        let c2 = b.read_back(&clock, &[&t]);
        assert_eq!(c2, cost.jni_cost(40_000));
        assert_eq!(clock.now(), c1 + c2);
    }

    #[test]
    fn feed_scales_with_bytes() {
        let b = JniBridge::new(CostModel::default());
        let c1 = NodeClock::new();
        let c2 = NodeClock::new();
        b.feed(&c1, 1 << 10);
        b.feed(&c2, 1 << 24);
        assert!(c2.now() > c1.now());
    }

    #[test]
    fn empty_transfer_is_free() {
        let b = JniBridge::new(CostModel::default());
        let clock = NodeClock::new();
        assert_eq!(b.feed(&clock, 0), SimTime::ZERO);
        assert_eq!(clock.now(), SimTime::ZERO);
    }
}
