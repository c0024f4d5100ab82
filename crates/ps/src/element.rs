//! Element types storable in PS vectors/matrices: a fixed-width
//! little-endian [`Scalar`] encoding for checkpoints, and additive merge
//! semantics for `push_add`.

use psgraph_sim::bytes::Scalar;

/// A numeric element of a PS data structure.
pub trait Element: Scalar + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Additive merge used by `push_add` (saturating for integers).
    fn add(self, other: Self) -> Self;

    /// Lossy view as `f64` (server-side aggregates, convergence checks).
    fn to_f64(self) -> f64;
}

impl Element for f64 {
    fn add(self, other: Self) -> Self {
        self + other
    }

    fn to_f64(self) -> f64 {
        self
    }
}

impl Element for f32 {
    fn add(self, other: Self) -> Self {
        self + other
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Element for u64 {
    fn add(self, other: Self) -> Self {
        self.saturating_add(other)
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Element for i64 {
    fn add(self, other: Self) -> Self {
        self.saturating_add(other)
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Element for u32 {
    fn add(self, other: Self) -> Self {
        self.saturating_add(other)
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_semantics() {
        assert_eq!(1.5f64.add(2.5), 4.0);
        assert_eq!(u64::MAX.add(1), u64::MAX, "saturating");
        assert_eq!(i64::MAX.add(1), i64::MAX, "saturating");
        assert_eq!(3u32.add(4), 7);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(f64::default(), 0.0);
        assert_eq!(u64::default(), 0);
    }
}
