//! A fast, non-cryptographic hasher in the style of rustc's FxHash.
//!
//! Vertex ids are dense integers; SipHash (std's default) is needlessly slow
//! for them and HashDoS is not a concern inside a simulator. Hand-rolled to
//! stay inside the approved dependency list (see DESIGN.md §5).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// FxHash-style multiply-rotate hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// One-shot FxHash of a `u64` key: `key · K mod 2⁶⁴` with `K` odd, so its
/// value mod a power of two is the key's own low bits times `K`. Stable
/// across processes and runs; the dataflow shuffle's partitioner, Euler's
/// shard placement and the train/test splits use it.
#[inline]
pub fn hash_u64(key: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

/// SplitMix64's finalizer (Steele, Lea & Flood 2014): a bijection on `u64`
/// in which every output bit depends on every input bit. The PS's hash
/// layout places a key by `mix64(key) % partitions`, so placement does not
/// follow how the ids were assigned (an RMAT id carries its degree in its
/// low bits); [`crate::rng::SplitMix64`] draws each output through it.
#[inline]
pub fn mix64(key: u64) -> u64 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
    }

    #[test]
    fn hashmap_roundtrip() {
        let mut m: FxHashMap<u64, String> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i.to_string());
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i).unwrap(), &i.to_string());
        }
    }

    #[test]
    fn hashset_dedups() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn byte_writes_consistent_with_chunking() {
        // The same logical bytes hash identically regardless of how they
        // are fed in (single write), exercising remainder handling.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    /// The inverse of `x ↦ x ^ (x >> shift)`.
    fn unshift(y: u64, shift: u32) -> u64 {
        let mut x = y;
        for _ in 0..64 / shift {
            x = y ^ (x >> shift);
        }
        x
    }

    /// The inverse of an odd `c` mod 2⁶⁴ (Newton: each step doubles the
    /// correct low bits, from 3 at `x = c`).
    fn inverse(c: u64) -> u64 {
        let mut x = c;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
        }
        assert_eq!(c.wrapping_mul(x), 1);
        x
    }

    #[test]
    fn mix64_is_a_bijection_on_a_sample() {
        let unmix = |y: u64| {
            let z = unshift(y, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
            let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
            unshift(z, 30)
        };
        let dense = 0..20_000u64;
        let strided = (0..20_000u64).map(|i| i << 20);
        let wide = (0..20_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let keys: FxHashSet<u64> = dense.chain(strided).chain(wide).chain([u64::MAX]).collect();
        for &key in &keys {
            assert_eq!(unmix(mix64(key)), key, "key {key:#x}");
        }
        let images: FxHashSet<u64> = keys.iter().map(|&key| mix64(key)).collect();
        assert_eq!(images.len(), keys.len());
    }

    #[test]
    fn distribution_is_not_degenerate() {
        // Low-entropy sequential keys must spread over buckets: check that
        // 10k sequential ids fall into >200 distinct 8-bit buckets' worth
        // of high bits.
        let mut buckets = FxHashSet::default();
        for i in 0..10_000u64 {
            buckets.insert(hash_u64(i) >> 56);
        }
        assert!(buckets.len() > 200, "only {} buckets", buckets.len());
    }
}
