//! A miniature HDFS for the simulated cluster.
//!
//! Files are split into fixed-size blocks, replicated across in-memory
//! datanodes, and checksummed. A namenode tracks file → block → replica
//! metadata. Reads fall back across replicas when datanodes die, and every
//! operation charges disk + network costs to the caller's simulated clock —
//! which is what makes Euler's read-everything/write-everything
//! preprocessing passes expensive in the Table I reproduction, and what
//! prices PSGraph's checkpoint/recovery path in Table II.

pub mod block;
pub mod cluster;
pub mod error;

pub use block::{checksum, Block, BlockId};
pub use cluster::{Dfs, DfsConfig, FileStatus};
pub use error::DfsError;
