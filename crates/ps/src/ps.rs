//! The PS cluster: servers + object registry + checkpoint/recovery (the
//! master's failure-handling policy from paper §III-B).

use psgraph_harness::Pool;
use psgraph_net::Network;
use psgraph_sim::sync::RwLock;
use psgraph_sim::{CostModel, FxHashMap, NodeClock, SimTime};
use std::sync::Arc;

use psgraph_dfs::Dfs;

use crate::error::{PsError, Result};
use crate::object::each_partition;
use crate::partition::PartitionLayout;
use crate::server::PsServer;

/// PS sizing (paper: 20–200 servers with 10–30 GB each, scaled down).
#[derive(Debug, Clone)]
pub struct PsConfig {
    pub servers: usize,
    pub memory_per_server: u64,
    /// Server CPU ops charged per pulled/pushed item.
    pub ops_per_item: u64,
    pub cost: CostModel,
    /// Thread pool for per-partition psFunc application (`None` = the
    /// process-wide [`Pool::global`]).
    pub pool: Option<Arc<Pool>>,
}

impl Default for PsConfig {
    fn default() -> Self {
        PsConfig {
            servers: 2,
            memory_per_server: 1 << 30,
            ops_per_item: 4,
            cost: CostModel::default(),
            pool: None,
        }
    }
}

/// How a registered object must be recovered after a server failure
/// (paper §III-B): inconsistency-tolerant objects (GE/GNN models) restore
/// only the failed server's partitions; consistency-critical objects
/// (PageRank state) force *every* server back to the last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    Consistent,
    Inconsistent,
}

/// Type-erased per-object operations the cluster needs for checkpointing
/// and recovery. Each typed handle registers one of these.
pub trait ObjectOps: Send + Sync {
    fn name(&self) -> &str;
    fn layout(&self) -> &PartitionLayout;
    fn recovery_mode(&self) -> RecoveryMode;
    /// Serialize one partition (must exist on `server`).
    fn encode_partition(&self, server: &PsServer, partition: usize) -> Result<Vec<u8>>;
    /// Restore one partition onto `server` from its serialized form.
    fn decode_partition(&self, server: &PsServer, partition: usize, bytes: &[u8]) -> Result<()>;
}

/// The parameter-server cluster handle.
pub struct Ps {
    config: PsConfig,
    network: Network,
    servers: Vec<Arc<PsServer>>,
    registry: RwLock<FxHashMap<String, Arc<dyn ObjectOps>>>,
    pool: Arc<Pool>,
}

impl std::fmt::Debug for Ps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ps")
            .field("servers", &self.servers.len())
            .field("objects", &self.registry.read().len())
            .finish()
    }
}

impl Ps {
    pub fn new(config: PsConfig) -> Arc<Self> {
        assert!(config.servers > 0, "need at least one PS server");
        let servers = (0..config.servers)
            .map(|i| Arc::new(PsServer::new(i, config.memory_per_server)))
            .collect();
        let network = Network::new(config.cost.clone());
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::clone(Pool::global()));
        Arc::new(Ps {
            config,
            network,
            servers,
            registry: RwLock::default(),
            pool,
        })
    }

    /// A small default PS (tests, examples).
    pub fn local() -> Arc<Self> {
        Ps::new(PsConfig::default())
    }

    pub fn config(&self) -> &PsConfig {
        &self.config
    }

    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The thread pool psFunc partition application runs on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    pub fn server(&self, i: usize) -> &Arc<PsServer> {
        &self.servers[i]
    }

    /// Register a (typed) object for checkpoint/recovery bookkeeping.
    pub fn register(&self, ops: Arc<dyn ObjectOps>) {
        self.registry.write().insert(ops.name().to_string(), ops);
    }

    /// Drop an object from every server and the registry.
    pub fn unregister(&self, name: &str) {
        self.registry.write().remove(name);
        for s in &self.servers {
            s.remove_object(name);
        }
    }

    pub fn is_registered(&self, name: &str) -> bool {
        self.registry.read().contains_key(name)
    }

    /// Kill a server (failure injection / tests).
    pub fn kill_server(&self, id: usize) {
        self.servers[id].kill();
    }

    /// Restart a dead server at simulated time `t` (empty store).
    pub fn restart_server(&self, id: usize, t: SimTime) {
        self.servers[id].restart(t);
    }

    /// Checkpoint file layout. Generational checkpoints live in their own
    /// directory so writing generation `g` never touches generation `g-1`:
    /// a crash *during* checkpointing leaves the previous generation fully
    /// intact instead of a half-overwritten mix (write-then-publish
    /// atomicity, the simulated stand-in for HDFS rename).
    fn ckpt_path_gen(generation: Option<u64>, name: &str, partition: usize) -> String {
        match generation {
            None => format!("/ckpt/{name}/part-{partition:05}"),
            Some(g) => format!("/ckpt/gen-{g:06}/{name}/part-{partition:05}"),
        }
    }

    /// Checkpoint every partition of every registered object to the DFS
    /// (paper §III-A "Each parameter server periodically stores the local
    /// data partition to HDFS"). Each server writes its own partitions,
    /// charging its own clock.
    pub fn checkpoint_all(&self, dfs: &Dfs) -> Result<()> {
        let registry = self.registry.read();
        for ops in registry.values() {
            self.checkpoint_object(dfs, ops.as_ref(), None)?;
        }
        Ok(())
    }

    /// Checkpoint every registered object into generation `g`'s directory.
    /// Callers treat the generation as published only after this returns
    /// `Ok` — a crash partway through leaves earlier generations untouched
    /// and recoverable.
    pub fn checkpoint_all_generation(&self, dfs: &Dfs, g: u64) -> Result<()> {
        let registry = self.registry.read();
        for ops in registry.values() {
            self.checkpoint_object(dfs, ops.as_ref(), Some(g))?;
        }
        Ok(())
    }

    /// Delete a published-and-superseded checkpoint generation.
    pub fn discard_checkpoint_generation(&self, dfs: &Dfs, g: u64) {
        for path in dfs.list(&format!("/ckpt/gen-{g:06}/")) {
            dfs.delete(&path);
        }
    }

    /// Checkpoint a single registered object by name.
    pub fn checkpoint(&self, dfs: &Dfs, name: &str) -> Result<()> {
        let ops = self
            .registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PsError::NotFound(name.to_string()))?;
        self.checkpoint_object(dfs, ops.as_ref(), None)
    }

    fn checkpoint_object(
        &self,
        dfs: &Dfs,
        ops: &dyn ObjectOps,
        generation: Option<u64>,
    ) -> Result<()> {
        each_partition(self, ops.layout(), |p, server| {
            let bytes = ops.encode_partition(server, p)?;
            dfs.write(
                &Self::ckpt_path_gen(generation, ops.name(), p),
                &bytes,
                server.port().clock(),
            )?;
            Ok(())
        })
    }

    /// Recover a restarted server: restore its partitions of
    /// inconsistency-tolerant objects from their checkpoints; for
    /// consistency-critical objects, roll *all* partitions (on every
    /// server) back to the checkpoint. `clock` is the driver/master clock
    /// observing the recovery.
    pub fn recover_server(&self, id: usize, dfs: &Dfs, clock: &NodeClock) -> Result<()> {
        self.recover_server_impl(id, dfs, clock, None)
    }

    /// [`Ps::recover_server`], restoring from a specific checkpoint
    /// generation (see [`Ps::checkpoint_all_generation`]).
    pub fn recover_server_from_generation(
        &self,
        id: usize,
        dfs: &Dfs,
        clock: &NodeClock,
        g: u64,
    ) -> Result<()> {
        self.recover_server_impl(id, dfs, clock, Some(g))
    }

    fn recover_server_impl(
        &self,
        id: usize,
        dfs: &Dfs,
        clock: &NodeClock,
        generation: Option<u64>,
    ) -> Result<()> {
        let server = Arc::clone(&self.servers[id]);
        server.ensure_alive()?;
        let registry = self.registry.read();
        for ops in registry.values() {
            let layout = ops.layout();
            match ops.recovery_mode() {
                RecoveryMode::Inconsistent => {
                    for p in layout.partitions_of_server(id) {
                        self.restore_partition(dfs, ops.as_ref(), p, &server, generation)?;
                    }
                }
                RecoveryMode::Consistent => {
                    for p in 0..layout.num_partitions {
                        let target = &self.servers[layout.server_of_partition(p)];
                        self.restore_partition(dfs, ops.as_ref(), p, target, generation)?;
                    }
                }
            }
        }
        clock.sync_to(server.port().clock().now());
        Ok(())
    }

    fn restore_partition(
        &self,
        dfs: &Dfs,
        ops: &dyn ObjectOps,
        partition: usize,
        server: &Arc<PsServer>,
        generation: Option<u64>,
    ) -> Result<()> {
        let path = Self::ckpt_path_gen(generation, ops.name(), partition);
        if !dfs.exists(&path) {
            return Err(PsError::NoCheckpoint(format!("{}[{partition}]", ops.name())));
        }
        let bytes = dfs.read(&path, server.port().clock())?;
        ops.decode_partition(server, partition, &bytes)
    }

    /// Total bytes resident across servers (diagnostics).
    pub fn resident_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.memory().in_use()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_construction() {
        let ps = Ps::new(PsConfig { servers: 3, ..Default::default() });
        assert_eq!(ps.num_servers(), 3);
        assert!(ps.server(0).is_alive());
        assert_eq!(ps.resident_bytes(), 0);
    }

    #[test]
    fn kill_and_restart_server() {
        let ps = Ps::local();
        ps.kill_server(1);
        assert!(!ps.server(1).is_alive());
        ps.restart_server(1, SimTime::from_secs(10));
        assert!(ps.server(1).is_alive());
        assert_eq!(ps.server(1).port().clock().now(), SimTime::from_secs(10));
    }

    #[test]
    fn checkpoint_unknown_object_fails() {
        let ps = Ps::local();
        let dfs = Dfs::in_memory();
        assert!(matches!(
            ps.checkpoint(&dfs, "ghost"),
            Err(PsError::NotFound(_))
        ));
    }

    // Checkpoint/recovery round-trips are tested end-to-end in vector.rs /
    // matrix.rs where typed ObjectOps implementations exist.
}
