//! Streaming ingestion and incremental computation — closing the
//! train → serve → refresh loop.
//!
//! The offline pipeline (train on the PS, snapshot to the DFS, load a
//! [`psgraph_serve::ServeCluster`]) leaves the serving tier frozen at
//! snapshot time. This crate keeps it fresh while the graph keeps
//! changing:
//!
//! 1. **Events** ([`events`]) — timestamped edge add/remove events, from
//!    a drift-parameterized RMAT source ([`events::DriftRmat`]) or
//!    replayed bit-exactly from a DFS event log ([`events::EventLog`]).
//! 2. **Ingest** ([`shard`]) — the [`ShardedIngestor`] routes events
//!    across N owner-keyed lanes (source-range tiling; each a bounded
//!    mailbox with its own writer clock and watermark), drains them as
//!    one micro-batch into mutable PS state (tombstone-backed neighbor
//!    table + degree vector) by one table write that reports which
//!    events took effect ([`ingest::BatchEffect`]), and merges freshness
//!    as the min across lane watermarks. One lane is the plain
//!    single-writer ingestor.
//! 3. **Maintain** — each batch's effects feed the incremental
//!    maintainers in `psgraph_core::algos::incremental`: PageRank by
//!    residual re-push, connected components by union-on-add and bounded
//!    recompute-on-remove.
//! 4. **Refresh** ([`refresh`]) — every few batches a
//!    [`psgraph_ps::snapshot::DeltaWriter`] delta of the dirtied
//!    partitions is hot-swapped into the live serve replicas, so queries
//!    observe updates within a bounded number of micro-batches.

pub mod error;
pub mod events;
pub mod ingest;
pub mod recovery;
pub mod refresh;
pub mod shard;

pub use error::{Result, StreamError};
pub use events::{DriftRmat, DriftRmatSource, EdgeEvent, EdgeOp, EventLog};
pub use ingest::{BatchEffect, IngestConfig, IngestStats};
pub use recovery::{replay_from_log, StreamCheckpoint};
pub use refresh::{RefreshConfig, RefreshDriver, SwapRecord};
pub use shard::ShardedIngestor;
