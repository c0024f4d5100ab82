//! Simulation substrate for PSGraph: simulated time, a calibrated cost
//! model for CPU/network/disk, memory budgets with OOM semantics, failure
//! injection, and small utilities (fast hashing, deterministic RNG).
//!
//! Every logical node in the simulated cluster (Spark executor, parameter
//! server, DFS datanode, driver) owns a [`NodeClock`]. Operations charge
//! simulated nanoseconds to the clocks of the nodes they touch, using the
//! constants in [`CostModel`]. A BSP superstep advances the global
//! [`ClusterClock`] by the maximum over the participating node clocks, which
//! reproduces the synchronous-parallel timing of the paper's cluster without
//! needing a thousand machines. Inside a [`stage`] the participants'
//! requests are charged in sim order when the stage ends, so the host's
//! schedule does not decide whose request a server queues first.

pub mod bytes;
pub mod chaos;
pub mod clock;
pub mod cost;
pub mod hash;
pub mod memory;
pub mod rng;
pub mod sync;

pub use bytes::{BufMut, Bytes, Corrupt, Reader, Scalar};
pub use chaos::{ChaosConfig, FaultSchedule, FaultSite, FaultStats};
pub use clock::{stage, ClusterClock, NodeClock, SimTime, Watermark};
pub use cost::CostModel;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use memory::{MemoryMeter, OutOfMemory};
pub use rng::SplitMix64;
