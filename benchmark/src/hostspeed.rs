//! Host-speed reference. The 2-core VM this benchmark is judged on changes
//! speed by up to a factor of two over tens of seconds to minutes (CPU
//! time inflates along with wall time, so it is not steal or scheduling
//! but the cores themselves getting slower), which buries any host-time
//! change under ±25 % of drift. A fixed kernel that owes nothing to the
//! program — sorting, hash-map inserts and page-faulting allocation — is
//! timed next to every pass; dividing a pass's wall time by it cancels the
//! drift both share (README "Baseline observations" has the measurement).
//!
//! Wall end-to-end metrics are therefore reported at the reference host
//! speed: `wall × NOMINAL_S ÷ kernel time around the pass`. On a host that
//! runs the kernel in `NOMINAL_S` the correction is 1. `bench.host_speed`
//! and `bench.work_wall_raw_s` keep the uncorrected reading visible, and
//! per-layer wall metrics are left uncorrected.

use std::collections::HashMap;
use std::time::Instant;

/// About the kernel's time on the baseline host in its quiet phases
/// (`psgraph-benchmark host-speed` prints it). Only a scale: every commit
/// is corrected with the same constant.
pub const NOMINAL_S: f64 = 0.060;

/// Run the reference kernel once; wall seconds. It keeps under 4 MiB live,
/// so `peak_rss_mb` stays the workload's own even on the smallest workload.
pub fn reference_s() -> f64 {
    let w0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    let mut v = vec![0u64; 128 * 1024];
    for round in 0..2u8 {
        // Compute + memory: fill and sort 128 k pseudo-random words.
        for _ in 0..8 {
            v.iter_mut().for_each(|x| *x = next());
            v.sort_unstable();
            acc ^= v[v.len() / 2];
        }
        // Random access + small allocations: grow 16 k hash-map buckets.
        let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..200_000u64 {
            m.entry(next() % 16_384).or_default().push(i);
        }
        acc ^= m.len() as u64;
        // Page faults: map, touch and unmap a fresh 1 MiB block.
        for i in 0..48u8 {
            let mut block = vec![round; 1 << 20];
            block.iter_mut().step_by(4096).for_each(|b| *b = i);
            acc ^= std::hint::black_box(&block)[4096] as u64;
        }
    }
    std::hint::black_box(acc);
    w0.elapsed().as_secs_f64()
}

/// Host speed relative to nominal around a pass bracketed by two kernel
/// runs: above 1 the host is faster than nominal.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time_and_speed_is_its_inverse() {
        let t = reference_s();
        assert!(t > 0.005, "kernel too short to track drift: {t}");
        assert!((speed(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!(speed(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) < 0.51);
    }
}
