//! The distributed parameter server (PS) — the paper's central contribution
//! (§III-A).
//!
//! Frequently-accessed, frequently-updated state (ranks, communities,
//! embeddings, GNN weights, neighbor tables, features) is partitioned over
//! a set of PS servers and accessed by Spark executors through pull/push
//! RPCs instead of shuffle joins. The crate provides:
//!
//! * **Partitioners** (`partition`): hash, range, and hash-range layouts
//!   mapping vertex/row indices to partitions and partitions to servers.
//! * **Data structures** (`vector`, `matrix`, `colmatrix`, `neighbor`):
//!   typed handles over server-resident dense/sparse vectors, row- and
//!   column-partitioned matrices, and neighbor tables.
//! * **Operators**: `pull`, `push_add`, `push_set`, fills, and
//!   user-defined server-side functions (*psFunc*, §III-A) — including the
//!   server-side partial dot products used by LINE (§IV-D) and the
//!   Adam/AdaGrad optimizers used by GraphSage (§IV-E), and the fused
//!   residual-push round of online PageRank (`residual_push`).
//! * **Synchronization** (`sync`): BSP and ASP superstep control.
//! * **Checkpoint/recovery** (`ps`, `master`): periodic per-server
//!   checkpoints to the DFS, a master that health-checks servers, restarts
//!   the dead ones, and restores either the failed partition
//!   (inconsistency-tolerant algorithms) or every partition (consistent
//!   algorithms such as PageRank) — §III-B.
//!
//! Every operation charges simulated time: client-side RPC latency + wire
//! bytes, server-side queueing + CPU, via `psgraph_net`. The handles share
//! one crate-private client core (`object`): key → (server, partition)
//! grouping, the liveness check before a leg, the charge of a request's
//! legs (all leaving at once, the client resuming at the slowest), and
//! checkpoint encode / bounds-checked decode of a partition.

pub mod colmatrix;
pub mod csr;
pub mod element;
pub mod error;
pub mod master;
pub mod matrix;
pub mod neighbor;
mod object;
pub mod partition;
pub mod ps;
pub mod psfunc;
pub mod residual_push;
pub mod server;
pub mod snapshot;
pub mod sync;
pub mod vector;

pub use colmatrix::ColMatrixHandle;
pub use csr::CsrHandle;
pub use element::Element;
pub use error::PsError;
pub use master::Master;
pub use matrix::MatrixHandle;
pub use neighbor::{NeighborEntry, NeighborTableHandle};
pub use object::PullPlan;
pub use partition::{PartitionLayout, Partitioner};
pub use ps::{Ps, PsConfig, RecoveryMode};
pub use psfunc::PartitionViewMut;
pub use residual_push::{PushFrontier, PushRound};
pub use server::PsServer;
pub use snapshot::{SnapshotData, SnapshotEntry, SnapshotKind, SnapshotManifest, SnapshotWriter};
pub use sync::SyncMode;
pub use vector::VectorHandle;
