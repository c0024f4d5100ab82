//! The distributed parameter server (PS) — the paper's central contribution
//! (§III-A).
//!
//! Frequently-accessed, frequently-updated state (ranks, communities,
//! embeddings, GNN weights, neighbor tables, features) is partitioned over
//! a set of PS servers and accessed by Spark executors through pull/push
//! RPCs instead of shuffle joins. The crate provides:
//!
//! * **Partitioners** (`partition`): hash and range layouts
//!   mapping vertex/row indices to partitions and partitions to servers.
//! * **Data structures** (`vector`, `matrix`, `neighbor`): typed handles
//!   over server-resident dense/sparse vectors, matrices — one partition
//!   type, a row set × a column range, split by rows (GraphSage) or by
//!   columns (LINE, the serving embeddings) — and neighbor tables.
//! * **Operators**: `pull`, `push_add`, `push_set`, fills, one planned
//!   read per vector whose plan carries a dense or sparse response, and
//!   user-defined server-side functions (*psFunc*, §III-A) — including the
//!   server-side partial dot products used by LINE (§IV-D), the Adam
//!   optimizer used by GraphSage (§IV-E), and online PageRank's residual
//!   push, run to quiescence on the servers with the boundary Δs sent
//!   server to server (`residual_push`).
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
//! legs (all leaving at once, the client resuming at the slowest) or of
//! one the servers finish among themselves, and checkpoint encode /
//! bounds-checked decode of a partition.

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

pub use element::Element;
pub use error::PsError;
pub use master::Master;
pub use matrix::{ColMatrixHandle, MatrixHandle};
pub use neighbor::{NeighborEntry, NeighborTableHandle};
pub use object::{PullPlan, PullResponse};
pub use partition::{PartitionLayout, Partitioner};
pub use ps::{Ps, PsConfig, RecoveryMode};
pub use psfunc::PartitionViewMut;
pub use residual_push::{PushFrontier, PushRun};
pub use server::PsServer;
pub use snapshot::{SnapshotEntry, SnapshotKind, SnapshotManifest, SnapshotWriter};
pub use sync::SyncMode;
pub use vector::VectorHandle;
