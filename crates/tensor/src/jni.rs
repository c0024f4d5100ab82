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
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tensor::Tensor;

/// Charges JVM ↔ native copy costs and counts traffic.
#[derive(Debug)]
pub struct JniBridge {
    cost: CostModel,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl JniBridge {
    pub fn new(cost: CostModel) -> Self {
        JniBridge { cost, bytes_in: AtomicU64::new(0), bytes_out: AtomicU64::new(0) }
    }

    /// Feed `bytes` of graph data — features plus the index structures of
    /// a mini-batch — into the native runtime (step 1). Returns the charge.
    pub fn feed(&self, clock: &NodeClock, bytes: u64) -> SimTime {
        let c = self.cost.jni_cost(bytes);
        clock.advance(c);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        c
    }

    /// Read gradients back to the JVM (step 3). Returns the charge.
    pub fn read_back(&self, clock: &NodeClock, tensors: &[&Tensor]) -> SimTime {
        let bytes: u64 = tensors.iter().map(|t| t.byte_size()).sum();
        let c = self.cost.jni_cost(bytes);
        clock.advance(c);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        c
    }

    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_and_read_back_charge_time_and_count() {
        let b = JniBridge::new(CostModel::default());
        let clock = NodeClock::new();
        let t = Tensor::zeros(100, 100); // 40 kB
        let c1 = b.feed(&clock, 2 * t.byte_size());
        assert!(c1 > SimTime::ZERO);
        assert_eq!(b.bytes_in(), 80_000);
        let c2 = b.read_back(&clock, &[&t]);
        assert_eq!(b.bytes_out(), 40_000);
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
