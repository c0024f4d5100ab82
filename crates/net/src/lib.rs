//! In-process network simulation for the PSGraph cluster.
//!
//! Data moves between logical nodes by ordinary function calls (everything
//! lives in one address space), so this crate's job is *timing and
//! accounting*, not transport: every RPC charges latency + wire time to the
//! caller, queues on the callee's service port, and updates global traffic
//! statistics. The model is a simplified single-server queue per port —
//! good enough to reproduce the communication-bound behaviour of the
//! paper's parameter server under 10 GbE. Besides client legs
//! (`Network::rpc_at`), servers can finish a request among themselves in
//! rounds of peer-to-peer messages (`Network::exchange_at`), and a block
//! fetch's leg is served for a given time rather than CPU ops — a shuffle
//! source reading its disk (`Network::fetch_at`).

pub mod bus;
pub mod reliable;
pub mod rpc;

pub use bus::{Mailbox, MailboxCounters, Message};
pub use reliable::{DeliveryError, DeliveryReceipt, IdempotencyFilter, RetryPolicy};
pub use rpc::{Network, NetworkStats, NodeId, ServicePort, Step};
