//! The benchmark's own seeded generators. Keys, arrivals, query mixes and
//! synthetic attributes come from here rather than from the program's
//! `sim::SplitMix64` / `serve::loadgen`, so a change to the program cannot
//! silently change the load it is measured with. Everything derives from
//! `--seed`; [`Fnv`] digests what was generated so a result file records
//! which inputs it saw.

/// SplitMix64 (Steele et al.): tiny, fast, and good enough for load shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of the run seeded `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with mean `1 / rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Zipf(s) over `n` keys by inverse CDF, with ranks scattered over the id
/// space by a multiplier coprime with `n` so the hot head does not sit on
/// one range-partitioned shard.
pub struct Zipf {
    cdf: Vec<f64>,
    scramble: u64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let mut scramble = n / 2 + 1;
        while gcd(scramble, n) != 1 {
            scramble += 1;
        }
        Zipf { cdf, scramble }
    }

    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let n = self.cdf.len() as u64;
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(n as usize - 1) as u64;
        ((rank as u128 * self.scramble as u128) % n as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// FNV-1a fold, used for input digests and bit-exact output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    pub fn u64s(&mut self, xs: &[u64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x);
        }
    }

    pub fn edges(&mut self, es: &[(u64, u64)]) {
        self.u64(es.len() as u64);
        for &(s, d) in es {
            self.u64(s);
            self.u64(d);
        }
    }

    pub fn f32_rows(&mut self, rows: &[Vec<f32>]) {
        for row in rows {
            for x in row {
                self.u64(x.to_bits() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn zipf_head_is_hot_and_keys_stay_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng) as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(
            hottest > 2000,
            "rank-1 key should take ~13% of draws, got {hottest}"
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() > 500);
    }
}
