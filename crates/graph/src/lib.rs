//! Graph data structures, synthetic generators, DFS I/O, and exact
//! reference algorithms.
//!
//! The paper's datasets are proprietary Tencent social graphs (DS1: 0.8 B
//! vertices / 11 B edges; DS2: 2 B / 140 B; DS3: 30 M / 100 M). This crate
//! substitutes seeded RMAT-style power-law graphs scaled down ~4000×
//! with the same vertex:edge ratios ([`datasets`]), which preserves the
//! degree skew that drives both PSGraph's wins and GraphX's OOMs.
//!
//! [`metrics`] holds exact single-threaded reference implementations
//! (power-iteration PageRank, peeling K-core, exact triangle count,
//! modularity) used by the test suites to validate the distributed
//! algorithms, never by the benchmarks themselves — plus
//! [`metrics::Anchor`], the sorted-list intersection kernel the Common
//! Neighbor / Triangle Count jobs run per pair, and
//! [`metrics::anchored_run_ops`], the ops PSGraph's executors are charged
//! for a loaded list and the partners counted against it
//! ([`metrics::intersection_ops`] for one pair).

pub mod datasets;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod metrics;

pub use datasets::{Dataset, DatasetSpec};
pub use edgelist::{EdgeList, WeightedEdgeList};
