//! A Spark-like distributed dataflow engine, simulated in-process.
//!
//! This is the "computation engine" layer of PSGraph (paper §III-C): a
//! driver plus a pool of executors, each with a fixed number of cores and a
//! memory budget scaled from the paper's container sizes. Datasets are
//! partitioned [`Rdd`]s; narrow operations (map/filter/flatMap) run
//! partition-local, and wide operations (groupByKey/reduceByKey/join) run a
//! hash shuffle whose serialization, disk-spill, network, and hash-table
//! costs are charged to simulated clocks and memory meters.
//!
//! Two properties matter for reproducing the paper:
//!
//! 1. **Shuffle is expensive.** Map outputs are serialized and spilled to
//!    (simulated) disk, then fetched over the (simulated) network and
//!    hash-aggregated in memory — the exact mechanism that makes GraphX's
//!    join-based message passing slow.
//! 2. **Memory is finite.** Cached partitions, shuffle buffers, and join
//!    hash tables all draw from per-executor
//!    [`MemoryMeter`](psgraph_sim::MemoryMeter)s; exceeding the budget aborts the job
//!    with OOM, which is how the GraphX baseline fails on K-Core, Triangle
//!    Count, and the DS2 dataset in Fig. 6.
//!
//! Executor failure is injected via `psgraph_sim::FailureInjector`; lost
//! partitions are rebuilt through lineage ([`Rdd::recover`]), mirroring
//! Spark's recompute-from-source recovery described in §III-C.

pub mod cluster;
pub mod error;
pub mod rdd;
pub mod record;
pub mod shuffle;

pub use cluster::{Cluster, ClusterConfig, Executor};
pub use error::DataflowError;
pub use rdd::Rdd;
pub use record::Record;
