//! Online query serving over trained PS state.
//!
//! Training (PageRank, label propagation, LINE) leaves its results on the
//! parameter servers; this crate turns them into a low-latency read tier,
//! the way Tencent's production graph platform puts trained embeddings
//! and graph features behind an online service. The pipeline is:
//!
//! 1. **Snapshot** — `psgraph_ps::snapshot` exports PS vectors, matrices,
//!    and CSR adjacency to the DFS, bit-exactly.
//! 2. **Shard + replicate** — [`cluster::ServeCluster`] loads the
//!    snapshot into range-partitioned vertex shards (embeddings are
//!    column-partitioned, psFunc-style) with N read replicas each, every
//!    replica a `psgraph_net` service port charging real RPC costs.
//! 3. **Serve** — the [`frontend::Frontend`] answers point lookups,
//!    embedding gathers, and compound declarative plans
//!    (`psgraph_query::Plan`: filter → expand → score → top-k over
//!    vertex sets; the legacy k-hop/top-k query shapes compile to
//!    plans), with a cost-based planner pushing plan prefixes
//!    shard-side; a byte-budgeted hot-key LRU [`cache::LruCache`]
//!    absorbs the Zipf head, batching amortizes per-message latency,
//!    and admission control sheds load to defend a p99 SLO.
//! 4. **Measure** — [`loadgen`] replays open- or closed-loop Zipf
//!    traffic, optionally killing replicas mid-run at the crash points
//!    of a `psgraph_sim::FaultSchedule`, and reports QPS and latency
//!    percentiles in simulated time.

pub mod cache;
pub mod cluster;
pub mod error;
pub mod frontend;
pub mod loadgen;
pub mod monitor;
pub mod router;
pub mod shard;

pub use cache::LruCache;
pub use cluster::{DemoBackend, DemoTruth, ObjectMap, ServeCluster, ServeConfig, SwapStats};
pub use error::ServeError;
pub use frontend::{Frontend, Outcome, PlanCounters, SloPolicy};
// The query-plan surface, re-exported so serving callers need not
// depend on psgraph-query directly.
pub use psgraph_query::{
    ExpandMode, GraphTruth, Interpreter, Plan, PlanOutput, Pred, PushPolicy, Scorer, Source,
    Stage,
};
pub use loadgen::{LoadReport, Mode, QueryMix, ScriptedAction, Workload};
pub use monitor::{Monitor, RecoveryEvent};
pub use router::Router;
pub use shard::{Query, Replica, ShardData, ShardSpec, Value};
