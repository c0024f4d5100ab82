//! The Euler baseline (paper §V-B3, Table I) — Alibaba's graph learning
//! system, reproduced at the level of its cost structure.
//!
//! Two properties drive Table I and both are modeled mechanically, not by
//! hard-coded slowdowns:
//!
//! 1. **Sequential, disk-bound preprocessing** (§V-B3: "about 8 hours to
//!    transform the graph data — 4 hours for index mapping, 4 hours for
//!    data-to-JSON transformation, and several minutes for JSON
//!    partitioning. These operations are executed sequentially and
//!    individually, meaning every operation reads from disk and writes to
//!    disk"). [`preprocess`](fn@preprocess) runs exactly those three passes against the
//!    DFS on one driver, paying full read+write bandwidth each time; the
//!    JSON text format inflates the bytes several-fold.
//! 2. **Per-vertex graph-service queries during training.** Euler's
//!    workers query a remote graph engine per sample; [`train`](fn@train) issues one
//!    RPC per vertex for sampling and feature fetch (vs PSGraph's batched
//!    PS pulls), so every mini-batch pays hundreds of network latencies.
//!
//! The model itself (2-layer mean-aggregator GraphSage trained with Adam)
//! is identical to PSGraph's, so the accuracy column of Table I matches.

pub mod cluster;
pub mod preprocess;
pub mod train;

pub use cluster::EulerCluster;
pub use preprocess::{preprocess, PreprocessReport};
pub use train::{train, EulerConfig, EulerOutput};
