//! Deterministic, allocation-free RNG for hot paths (negative sampling,
//! neighbor sampling, synthetic graph generation seeds).
//!
//! [`SplitMix64`] is tiny, passes BigCrush-adjacent smoke tests, and — more
//! importantly here — makes every experiment reproducible from a single
//! `u64` seed. The heavier distributions (exponential, Zipf) are
//! implemented as inherent samplers so the workspace needs no
//! external `rand`/`rand_distr` crates (hermetic build policy).

/// SplitMix64 PRNG (Steele, Lea & Flood 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::hash::mix64(self.state)
    }

    /// Uniform in `[0, bound)`. Uses the widening-multiply trick; bias is
    /// negligible for bounds far below 2^64 (all our uses).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential with rate `lambda` (mean `1/lambda`), by inversion.
    pub fn next_exp(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Zipf over `{1, …, n}` with exponent `s > 0`: P(k) ∝ k^-s.
    ///
    /// Rejection-inversion sampling (Hörmann & Derflinger 1996), O(1)
    /// expected draws for any `n` — the skewed key-popularity model for
    /// hot-vertex access patterns.
    pub fn next_zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n >= 1, "zipf needs a non-empty support");
        assert!(s > 0.0, "zipf exponent must be positive");
        if n == 1 {
            return 1;
        }
        // H is the integral of x^-s; h_inv its inverse.
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_inv = |y: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                y.exp()
            } else {
                (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        let hx0 = h(0.5);
        let hxm = h(n as f64 + 0.5);
        let cut = 1.0 - h_inv(h(1.5) - 1.0);
        loop {
            let u = hx0 + self.next_f64() * (hxm - hx0);
            let x = h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, n as f64);
            if k - x <= cut || u >= h(k + 0.5) - k.powf(-s) {
                return k as u64;
            }
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Derive an independent stream for a sub-task (executor id, epoch…).
    pub fn fork(&mut self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.next() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn first_outputs_match_the_reference_stream() {
        // Vigna's splitmix64.c from seed 1234567, and from 0.
        let mut r = SplitMix64::new(1_234_567);
        let want = [
            0x599E_D017_FB08_FC85,
            0x2C73_F084_5854_0FA5,
            0x883E_BCE5_A3F2_7C77,
            0x3FBE_F740_E917_7B3F,
            0xE3B8_3467_08CB_5ECD,
        ];
        assert_eq!(want.map(|_| r.next()), want);
        let mut r = SplitMix64::new(0);
        let want = [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F];
        assert_eq!(want.map(|_| r.next()), want);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn next_below_stays_in_range_and_covers() {
        let mut r = SplitMix64::new(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn next_f64_in_unit_interval_with_sane_mean() {
        let mut r = SplitMix64::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut base = SplitMix64::new(5);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        assert_ne!(f1.next(), f2.next());
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SplitMix64::new(23);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!((0..1000).all(|_| r.next_exp(4.0) >= 0.0));
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut r = SplitMix64::new(27);
        let n = 50_000;
        let mut counts = vec![0u64; 101];
        for _ in 0..n {
            let k = r.next_zipf(100, 1.1);
            assert!((1..=100).contains(&k));
            counts[k as usize] += 1;
        }
        // Rank 1 dominates and frequencies decay.
        assert!(counts[1] > counts[2] && counts[2] > counts[5]);
        assert!(counts[1] as f64 / n as f64 > 0.15, "head mass {}", counts[1]);
        // Degenerate support sizes still work.
        assert_eq!(r.next_zipf(1, 1.5), 1);
        for _ in 0..100 {
            assert!((1..=5).contains(&r.next_zipf(5, 1.0)));
        }
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(31).shuffle(&mut a);
        SplitMix64::new(31).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
