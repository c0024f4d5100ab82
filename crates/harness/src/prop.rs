//! Property-based testing without external crates.
//!
//! Architecture (the Hypothesis model): every random decision a generator
//! makes is a bounded integer **choice** drawn through a [`Source`], and
//! the sequence of choices is recorded. A failing case is *shrunk* by
//! minimizing the choice sequence — deleting blocks, zeroing, and
//! lowering individual choices — and replaying the generator over the
//! minimized sequence. Because generators are deterministic functions of
//! their choices, shrinking composes through `map`/`and_then` for free,
//! which is what classic typed-shrinker designs struggle with.
//!
//! Determinism: the base seed is fixed per property (derived from the
//! property name) so CI runs are reproducible; `PSGRAPH_PROP_SEED=<n>`
//! overrides the base seed, and `PSGRAPH_PROP_CASES=<n>` the case budget.
//! Every failure message includes the values to replay it.

use psgraph_sim::SplitMix64;
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Resolution of f64 choices: 53 mantissa bits, so `[0, 1)` is dense.
const F64_BOUND: u64 = 1 << 53;

thread_local! {
    static IN_PROP_RUN: Cell<bool> = const { Cell::new(false) };
}

/// Install (once per process) a panic hook that stays silent while a
/// property case is executing on the panicking thread — shrinking replays
/// the failing case hundreds of times and each replay panics by design.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_PROP_RUN.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// The stream of bounded choices a generator draws from.
///
/// Live mode draws fresh values from a seeded RNG; replay mode re-reads a
/// (possibly mutated) recorded sequence, reducing out-of-range values
/// modulo the bound and returning 0 when the sequence is exhausted — both
/// keep mutated sequences valid, which is what makes shrinking a plain
/// search over `Vec<u64>`.
pub struct Source {
    rng: SplitMix64,
    replay: Option<Vec<u64>>,
    draws: Vec<u64>,
    pos: usize,
}

impl Source {
    /// A live source: fresh choices from `seed`, recorded as drawn.
    pub fn live(seed: u64) -> Self {
        Source { rng: SplitMix64::new(seed), replay: None, draws: Vec::new(), pos: 0 }
    }

    /// A replay source over a recorded (or shrunk) choice sequence.
    pub fn replay(choices: Vec<u64>) -> Self {
        Source { rng: SplitMix64::new(0), replay: Some(choices), draws: Vec::new(), pos: 0 }
    }

    /// The recorded choice sequence so far.
    pub fn record(&self) -> &[u64] {
        &self.draws
    }

    /// Draw a choice in `[0, bound)`. The fundamental operation: every
    /// other helper bottoms out here, so every generator decision is one
    /// recorded integer and "smaller recorded integer" means "simpler
    /// generated value".
    pub fn choice(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "choice bound must be positive");
        let v = match &self.replay {
            Some(seq) => seq.get(self.pos).map_or(0, |&r| r % bound),
            None => self.rng.next_below(bound),
        };
        self.draws.push(v);
        self.pos += 1;
        v
    }

    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.choice(hi - lo)
    }

    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_range(lo as u64, hi as u64) as usize
    }

    pub fn i64_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.choice(hi.abs_diff(lo)) as i64)
    }

    /// Any `u64` (shrinks toward 0).
    pub fn any_u64(&mut self) -> u64 {
        // Two 32-bit choices: u64::MAX is not a valid `choice` bound.
        let hi = self.choice(1 << 32);
        let lo = self.choice(1 << 32);
        (hi << 32) | lo
    }

    pub fn bool(&mut self) -> bool {
        self.choice(2) == 1
    }

    /// Uniform in `[0, 1)` with 53-bit resolution (shrinks toward 0.0).
    fn f64_unit(&mut self) -> f64 {
        self.choice(F64_BOUND) as f64 * (1.0 / F64_BOUND as f64)
    }

    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.f64_unit() * (hi - lo)
    }

    /// A vector with length in `[min_len, max_len)`, elements from `f`.
    /// The length is one choice, so shrinking shortens vectors directly.
    pub fn vec_with<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let len = self.usize_range(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// A reusable generator: a deterministic function from choices to values.
pub struct Gen<T> {
    f: Box<dyn Fn(&mut Source) -> T>,
}

impl<T: 'static> Gen<T> {
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Box::new(f) }
    }

    pub fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    pub fn constant(value: T) -> Self
    where
        T: Clone,
    {
        Gen::new(move |_| value.clone())
    }

    pub fn map<U: 'static>(self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| g((self.f)(src)))
    }

    /// Monadic bind: the second generator may depend on the first value
    /// (proptest's `prop_flat_map`).
    pub fn and_then<U: 'static>(self, g: impl Fn(T, &mut Source) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| {
            let t = (self.f)(src);
            g(t, src)
        })
    }

    pub fn vec(self, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
        Gen::new(move |src| {
            let len = src.usize_range(min_len, max_len);
            (0..len).map(|_| (self.f)(src)).collect()
        })
    }

    pub fn zip<U: 'static>(self, other: Gen<U>) -> Gen<(T, U)> {
        Gen::new(move |src| ((self.f)(src), (other.f)(src)))
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of cases to generate and check.
    pub cases: u32,
    /// Base seed; case `i` runs on an independent stream forked from it.
    /// `None` derives a fixed seed from the property name.
    pub seed: Option<u64>,
    /// Budget of property re-executions the shrinker may spend.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 64, seed: None, max_shrink_iters: 1000 }
    }
}

impl Config {
    pub fn with_cases(cases: u32) -> Self {
        Config { cases, ..Default::default() }
    }
}

/// `Ok(())` or a falsification message.
pub type PropResult = Result<(), String>;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| {
        v.parse()
            .or_else(|_| u64::from_str_radix(v.trim_start_matches("0x"), 16))
            .ok()
    })
}

/// Run one case: generate from `src`, then apply the property, catching
/// panics so `unwrap()`/`assert!` inside properties falsify instead of
/// aborting the shrink search.
fn run_case<T>(
    gen: &impl Fn(&mut Source) -> T,
    prop: &impl Fn(&T) -> PropResult,
    src: &mut Source,
) -> PropResult {
    IN_PROP_RUN.with(|f| f.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(&gen(src))));
    IN_PROP_RUN.with(|f| f.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Minimize a failing choice sequence. Returns the smallest sequence
/// found that still fails, together with its error.
fn shrink<T>(
    gen: &impl Fn(&mut Source) -> T,
    prop: &impl Fn(&T) -> PropResult,
    mut choices: Vec<u64>,
    mut error: String,
    budget: u32,
) -> (Vec<u64>, String, u32) {
    let mut spent = 0u32;
    let try_candidate = |cand: Vec<u64>, spent: &mut u32| -> Option<(Vec<u64>, String)> {
        if *spent >= budget {
            return None;
        }
        *spent += 1;
        let mut src = Source::replay(cand);
        match run_case(gen, prop, &mut src) {
            Err(e) => {
                // Keep only the choices the generator actually consumed.
                Some((src.record().to_vec(), e))
            }
            Ok(()) => None,
        }
    };

    let mut improved = true;
    while improved && spent < budget {
        improved = false;

        // Pass 1: delete trailing-to-leading blocks (shortens vectors and
        // drops whole generated substructures).
        for block in [8usize, 4, 2, 1] {
            let mut i = choices.len().saturating_sub(block);
            loop {
                if i + block <= choices.len() {
                    let mut cand = choices.clone();
                    cand.drain(i..i + block);
                    if let Some((c, e)) = try_candidate(cand, &mut spent) {
                        if c.len() < choices.len() || c < choices {
                            choices = c;
                            error = e;
                            improved = true;
                        }
                    }
                }
                if i == 0 || spent >= budget {
                    break;
                }
                i = i.saturating_sub(block);
            }
        }

        // Pass 2: lower individual choices toward zero. Try 0 outright,
        // then binary-search the smallest value that still falsifies —
        // linear `v - 1` descent would burn the whole budget walking down
        // from a large choice without reaching the true minimum.
        let mut i = 0;
        while i < choices.len() {
            if choices[i] > 0 && spent < budget {
                let mut cand = choices.clone();
                cand[i] = 0;
                if let Some((c, e)) = try_candidate(cand, &mut spent) {
                    choices = c;
                    error = e;
                    improved = true;
                } else if i < choices.len() {
                    let mut lo = 0u64; // largest known-passing value
                    let mut hi = choices[i]; // smallest known-failing value
                    while lo + 1 < hi && spent < budget {
                        let mid = lo + (hi - lo) / 2;
                        let mut cand = choices.clone();
                        cand[i] = mid;
                        match try_candidate(cand, &mut spent) {
                            Some((c, e)) => {
                                choices = c;
                                error = e;
                                improved = true;
                                hi = mid;
                                if i >= choices.len() {
                                    break;
                                }
                            }
                            None => lo = mid,
                        }
                    }
                }
            }
            i += 1;
        }
    }
    (choices, error, spent)
}

/// Check `prop` over `cases` generated inputs; panics with a replayable
/// report on the first (shrunk) falsification.
///
/// `gen` is any `Fn(&mut Source) -> T` — a closure or a [`Gen`] via
/// [`Gen::generate`].
pub fn check_with<T: Debug>(
    name: &str,
    config: &Config,
    gen: impl Fn(&mut Source) -> T,
    prop: impl Fn(&T) -> PropResult,
) {
    install_quiet_hook();
    let cases = env_u64("PSGRAPH_PROP_CASES").map_or(config.cases, |v| v as u32).max(1);
    let base_seed = env_u64("PSGRAPH_PROP_SEED")
        .or(config.seed)
        .unwrap_or_else(|| {
            use std::hash::{Hash, Hasher};
            let mut h = psgraph_sim::FxHasher::default();
            name.hash(&mut h);
            h.finish()
        });

    let mut root = SplitMix64::new(base_seed);
    for case in 0..cases {
        let case_seed = root.fork(case as u64).next();
        let mut src = Source::live(case_seed);
        if let Err(original_error) = run_case(&gen, &prop, &mut src) {
            let (choices, error, spent) = shrink(
                &gen,
                &prop,
                src.record().to_vec(),
                original_error.clone(),
                config.max_shrink_iters,
            );
            // Regenerate the minimized value for the report.
            let value = gen(&mut Source::replay(choices));
            panic!(
                "property '{name}' falsified\n\
                 \x20 case {case_no} of {cases}; replay with PSGRAPH_PROP_SEED={base_seed} \
                 PSGRAPH_PROP_CASES={cases}\n\
                 \x20 shrunk input ({spent} shrink runs): {value:#?}\n\
                 \x20 error: {error}\n\
                 \x20 original error: {original_error}",
                case_no = case + 1,
            );
        }
    }
}

/// [`check_with`] under the default [`Config`].
pub fn check<T: Debug>(
    name: &str,
    gen: impl Fn(&mut Source) -> T,
    prop: impl Fn(&T) -> PropResult,
) {
    check_with(name, &Config::default(), gen, prop);
}

/// Early-return falsification, mirroring `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Early-return equality falsification, mirroring `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} != {}\n  left: {:?}\n  right: {:?}",
                stringify!($a), stringify!($b), a, b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{}\n  left: {:?}\n  right: {:?}",
                format!($($fmt)+), a, b
            ));
        }
    }};
}

/// What every decoder of untrusted bytes owes a damaged encoding: each
/// strict prefix of `bytes`, and `bytes` with a byte appended, fail to
/// decode (no prefix of an encoding is itself one); `bytes` with bit `bit`
/// of byte `at % len` flipped, for each `(at, bit)` of `flips`, decodes to
/// an error or to a value `usable` accepts (it also gets the damaged
/// bytes). A panic in `decode` fails the property.
pub fn survives_damage<T, E>(
    bytes: &[u8],
    flips: &[(u64, u32)],
    mut decode: impl FnMut(&[u8]) -> Result<T, E>,
    usable: impl FnOnce(T, &[u8]) -> PropResult,
) -> PropResult {
    for cut in 0..bytes.len() {
        prop_assert!(decode(&bytes[..cut]).is_err(), "cut at {}", cut);
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    prop_assert!(decode(&longer).is_err(), "trailing byte accepted");
    let mut damaged = bytes.to_vec();
    for &(at, bit) in flips {
        let at = (at % damaged.len() as u64) as usize;
        damaged[at] ^= 1 << bit;
    }
    match decode(&damaged) {
        Ok(value) => usable(value, &damaged),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u32;
        let counter = std::cell::RefCell::new(&mut ran);
        check_with(
            "sum_commutes",
            &Config::with_cases(40),
            |src| (src.u64_range(0, 100), src.u64_range(0, 100)),
            |&(a, b)| {
                **counter.borrow_mut() += 1;
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        assert_eq!(ran, 40);
    }

    #[test]
    fn failing_property_shrinks_to_minimal_counterexample() {
        // "All vectors have length < 5" is falsified; minimal
        // counterexample is a vector of exactly 5 zeros.
        let result = panic::catch_unwind(|| {
            check_with(
                "short_vectors",
                &Config::with_cases(200),
                |src| src.vec_with(0, 40, |s| s.u64_range(0, 1000)),
                |v| {
                    prop_assert!(v.len() < 5, "got length {}", v.len());
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("falsified"), "{msg}");
        assert!(msg.contains("got length 5"), "shrunk to exactly 5: {msg}");
        assert!(msg.contains("0,\n"), "elements zeroed: {msg}");
        assert!(msg.contains("PSGRAPH_PROP_SEED="), "replay line: {msg}");
    }

    #[test]
    fn shrinking_lowers_scalar_values() {
        let result = panic::catch_unwind(|| {
            check_with(
                "no_big_numbers",
                &Config::with_cases(200),
                |src| src.u64_range(0, 100_000),
                |&n| {
                    prop_assert!(n < 777, "saw {}", n);
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("saw 777"), "minimal failing value is 777: {msg}");
    }

    #[test]
    fn panics_inside_properties_are_caught_and_shrunk() {
        let result = panic::catch_unwind(|| {
            check_with(
                "panicky",
                &Config::with_cases(100),
                |src| src.u64_range(0, 1000),
                |&n| {
                    assert!(n < 900, "panic at {n}");
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("panic at 900"), "{msg}");
    }

    #[test]
    fn replay_reproduces_live_generation() {
        let mut live = Source::live(99);
        let v1: Vec<u64> = (0..20).map(|_| live.choice(50)).collect();
        let mut replayed = Source::replay(live.record().to_vec());
        let v2: Vec<u64> = (0..20).map(|_| replayed.choice(50)).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn exhausted_replay_yields_zeros() {
        let mut src = Source::replay(vec![7]);
        assert_eq!(src.choice(10), 7);
        assert_eq!(src.choice(10), 0);
        assert_eq!(src.bool(), false);
    }

    #[test]
    fn gen_combinators_compose() {
        let g = Gen::new(|s: &mut Source| s.u64_range(1, 10))
            .map(|n| n * 2)
            .vec(1, 5)
            .zip(Gen::constant("tag"));
        let mut src = Source::live(5);
        let (v, tag) = g.generate(&mut src);
        assert!(!v.is_empty() && v.len() < 5);
        assert!(v.iter().all(|&x| x % 2 == 0 && (2..20).contains(&x)));
        assert_eq!(tag, "tag");
    }

    #[test]
    fn and_then_sees_prior_value() {
        // A dependent pair (n, k) with k < n — the arb_graph pattern.
        let g = Gen::new(|s: &mut Source| s.u64_range(1, 100))
            .and_then(|n, s| (n, s.u64_range(0, n)));
        let mut src = Source::live(8);
        for _ in 0..100 {
            let (n, k) = g.generate(&mut src);
            assert!(k < n);
        }
    }

    #[test]
    fn f64_helpers_cover_ranges() {
        let mut src = Source::live(3);
        for _ in 0..1000 {
            let u = src.f64_unit();
            assert!((0.0..1.0).contains(&u));
            let r = src.f64_range(-1e6, 1e6);
            assert!((-1e6..1e6).contains(&r));
        }
    }

    #[test]
    fn any_u64_reaches_high_bits() {
        let mut src = Source::live(17);
        assert!((0..100).any(|_| src.any_u64() > u32::MAX as u64));
    }
}
