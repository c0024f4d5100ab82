//! In-tree correctness substrate for the PSGraph workspace.
//!
//! The workspace builds with **zero external crates** (hermetic build
//! policy — DESIGN.md): this crate supplies the two tools that used to
//! come from the registry.
//!
//! * [`prop`] — a property-testing layer in the proptest/Hypothesis
//!   family: generators draw from a recorded choice sequence, failing
//!   cases shrink by minimizing that sequence, and every failure prints a
//!   seed that replays it (`PSGRAPH_PROP_SEED=<n>`).
//! * [`pool`] — a hermetic thread pool (the rayon replacement) with one
//!   primitive, an indexed parallel `map`: a call is one job whose
//!   indices the calling thread and the workers claim, results come back
//!   by input position (the deterministic reduction rule, so parallel
//!   results are bit-identical at any thread count), and an item's panic
//!   reaches the caller.
//!
//! Both are deterministic-by-default and safe to run fully offline.
//! Measurement lives elsewhere: `benchmark/` is the perf benchmark every
//! PR is judged by, and `psgraph-bench`'s `repro` binary prints the
//! paper's tables on the simulated clock.

pub mod pool;
pub mod prop;

pub use pool::Pool;
pub use prop::{Config, Source};
