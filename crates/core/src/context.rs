//! `PsGraphContext`: the paper's `SparkContext` + `PSContext` pair plus the
//! master's failure-recovery policy (§III-B, §III-C).

use std::sync::Arc;

use psgraph_dataflow::{Cluster, ClusterConfig};
use psgraph_dfs::{Dfs, DfsConfig};
use psgraph_net::Network;
use psgraph_ps::sync::SyncController;
use psgraph_ps::{Master, Ps, PsConfig};
use psgraph_sim::sync::Mutex;
use psgraph_sim::{CostModel, FaultSchedule, FaultSite, SimTime};

use crate::error::Result;

/// Everything needed to stand up one PSGraph deployment.
#[derive(Debug, Clone, Default)]
pub struct PsGraphConfig {
    pub cluster: ClusterConfig,
    pub ps: PsConfig,
    pub dfs: DfsConfig,
}

impl PsGraphConfig {
    /// Run the cluster's stage tasks and the PS's psFunc fan-out on one
    /// explicit thread pool (thread-count sweeps, determinism tests).
    pub fn with_pool(mut self, pool: std::sync::Arc<psgraph_harness::Pool>) -> Self {
        self.cluster.pool = Some(std::sync::Arc::clone(&pool));
        self.ps.pool = Some(pool);
        self
    }

    /// Paper-style sizing: `executors × exec_mem` + `servers × server_mem`.
    pub fn sized(
        executors: usize,
        exec_mem: u64,
        servers: usize,
        server_mem: u64,
    ) -> Self {
        let mut cfg = PsGraphConfig::default();
        cfg.cluster = cfg.cluster.with_executors(executors).with_memory(exec_mem);
        cfg.ps.servers = servers;
        cfg.ps.memory_per_server = server_mem;
        cfg
    }
}

/// Execution statistics returned by every algorithm run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Supersteps / iterations executed.
    pub supersteps: u64,
    /// Simulated wall-clock the job took.
    pub elapsed: SimTime,
    /// Bytes moved over the Spark-side network (shuffles, collects).
    pub spark_net_bytes: u64,
    /// Bytes moved over the PS network (pull/push).
    pub ps_net_bytes: u64,
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} supersteps in {} (spark {} MB, ps {} MB over the wire)",
            self.supersteps,
            self.elapsed,
            self.spark_net_bytes / (1 << 20),
            self.ps_net_bytes / (1 << 20),
        )
    }
}

/// One PSGraph deployment: Spark cluster + PS cluster + DFS.
pub struct PsGraphContext {
    cluster: Arc<Cluster>,
    ps: Arc<Ps>,
    dfs: Arc<Dfs>,
    master: Master,
    chaos: Mutex<FaultSchedule>,
}

impl std::fmt::Debug for PsGraphContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsGraphContext")
            .field("executors", &self.cluster.num_executors())
            .field("servers", &self.ps.num_servers())
            .finish()
    }
}

impl PsGraphContext {
    pub fn new(config: PsGraphConfig) -> Arc<Self> {
        let cluster = Cluster::new(config.cluster.clone());
        let ps = Ps::new(config.ps.clone());
        let dfs = Arc::new(Dfs::new(config.dfs.clone(), Network::new(config.ps.cost.clone())));
        Arc::new(PsGraphContext {
            cluster,
            ps,
            dfs,
            master: Master::new(),
            chaos: Mutex::default(),
        })
    }

    /// A small default deployment (tests, examples).
    pub fn local() -> Arc<Self> {
        Self::new(PsGraphConfig::default())
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn ps(&self) -> &Arc<Ps> {
        &self.ps
    }

    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// The PS master (health checks, restart + recovery bookkeeping).
    pub fn master(&self) -> &Master {
        &self.master
    }

    pub fn cost(&self) -> &CostModel {
        self.cluster.cost()
    }

    /// Attach the fault schedule whose crash points
    /// `PsGraphContext::superstep_maintenance` consults: executor `e` dies
    /// at superstep `s` when `crash(ExecutorCrash, s, e)` fires, server `i`
    /// when `crash(PsCrash, s, i)` does. Off by default.
    pub fn attach_chaos(&self, sched: FaultSchedule) {
        *self.chaos.lock() = sched;
    }

    /// Current simulated time (global barrier clock).
    pub fn now(&self) -> SimTime {
        self.cluster.now()
    }

    /// Snapshot network counters (for [`PsGraphContext::stats_since`]).
    pub fn net_snapshot(&self) -> (u64, u64) {
        (
            self.cluster.network().stats().total_bytes(),
            self.ps.network().stats().total_bytes(),
        )
    }

    /// Build run statistics from a start time + network snapshot.
    pub fn stats_since(
        &self,
        start: SimTime,
        snapshot: (u64, u64),
        supersteps: u64,
    ) -> RunStats {
        let (spark0, ps0) = snapshot;
        let (spark1, ps1) = self.net_snapshot();
        RunStats {
            supersteps,
            elapsed: self.now().saturating_sub(start),
            spark_net_bytes: spark1.saturating_sub(spark0),
            ps_net_bytes: ps1.saturating_sub(ps0),
        }
    }

    /// Failure maintenance at the top of superstep `step` (§III-B/C):
    ///
    /// * kills every executor/server whose crash point fires at `step` in
    ///   the attached fault schedule,
    /// * has the master detect + restart them (charging detection and
    ///   container-restart overhead to the global clock),
    /// * restores the failed server's partitions from the last checkpoint
    ///   (per-object recovery mode decides failed-only vs everyone),
    /// * blocks the healthy executors at the barrier while this happens.
    ///
    /// RDD recovery (reloading lost partitions through lineage) is the
    /// caller's job — it knows which RDDs matter.
    ///
    /// Returns `(killed executors, killed servers)`.
    pub(crate) fn superstep_maintenance(&self, step: u64) -> Result<(Vec<usize>, Vec<usize>)> {
        let chaos = self.chaos.lock().clone();
        let killed_execs: Vec<usize> = (0..self.cluster.num_executors())
            .filter(|&e| chaos.crash(FaultSite::ExecutorCrash, step, e as u64))
            .collect();
        let killed_servers: Vec<usize> = (0..self.ps.num_servers())
            .filter(|&i| chaos.crash(FaultSite::PsCrash, step, i as u64))
            .collect();
        for &i in &killed_servers {
            self.ps.kill_server(i);
        }
        for &e in &killed_execs {
            self.cluster.kill_executor(e);
            self.cluster.restart_executor(e); // charges restart overhead
        }
        if !killed_servers.is_empty() {
            // The master detects the dead servers via its health check,
            // has the resource manager restart them, and restores their
            // checkpointed state (§III-B).
            let recovered =
                self.master.recover_failed(&self.ps, &self.dfs, self.cluster.now())?;
            debug_assert_eq!(recovered, killed_servers);
            self.cluster.clock().barrier([self.master.clock()]);
        }

        if !killed_execs.is_empty() || !killed_servers.is_empty() {
            // Healthy executors block at the synchronization barrier until
            // recovery completes (§III-C).
            let until = self.cluster.now();
            let clocks: Vec<_> = (0..self.cluster.num_executors())
                .map(|i| self.cluster.executor(i).clock())
                .collect();
            SyncController::block_until(self.cluster.clock(), clocks.iter().copied(), until);
        }
        Ok((killed_execs, killed_servers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_ps::{Partitioner, RecoveryMode, VectorHandle};
    use psgraph_sim::NodeClock;

    #[test]
    fn context_wires_components() {
        let ctx = PsGraphContext::local();
        assert_eq!(ctx.cluster().num_executors(), 4);
        assert_eq!(ctx.ps().num_servers(), 2);
        assert_eq!(ctx.now(), SimTime::ZERO);
    }

    #[test]
    fn sized_config() {
        let cfg = PsGraphConfig::sized(8, 1 << 20, 4, 1 << 21);
        assert_eq!(cfg.cluster.executors, 8);
        assert_eq!(cfg.cluster.memory_per_executor, 1 << 20);
        assert_eq!(cfg.ps.servers, 4);
        assert_eq!(cfg.ps.memory_per_server, 1 << 21);
    }

    #[test]
    fn stats_since_tracks_deltas() {
        let ctx = PsGraphContext::local();
        let start = ctx.now();
        let snap = ctx.net_snapshot();
        let v = VectorHandle::<f64>::create(
            ctx.ps(), "v", 100, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let c = NodeClock::new();
        v.push_add(&c, &[1, 2, 3], &[1.0, 2.0, 3.0]).unwrap();
        let stats = ctx.stats_since(start, snap, 3);
        assert_eq!(stats.supersteps, 3);
        assert!(stats.ps_net_bytes > 0);
        assert_eq!(stats.spark_net_bytes, 0);
        assert!(stats.to_string().contains("3 supersteps"));
    }

    #[test]
    fn maintenance_without_failures_is_free() {
        let ctx = PsGraphContext::local();
        let before = ctx.now();
        let (e, s) = ctx.superstep_maintenance(0).unwrap();
        assert!(e.is_empty() && s.is_empty());
        assert_eq!(ctx.now(), before);
    }

    #[test]
    fn maintenance_recovers_server_from_checkpoint() {
        let ctx = PsGraphContext::local();
        let c = NodeClock::new();
        let v = VectorHandle::<f64>::create(
            ctx.ps(), "state", 64, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_set(&c, &[0, 63], &[1.0, 2.0]).unwrap();
        ctx.ps().checkpoint_all(ctx.dfs()).unwrap();
        let chaos = FaultSchedule::scripted([(FaultSite::PsCrash, 5, 0)]);
        ctx.attach_chaos(chaos.clone());
        let before = ctx.now();
        let (e, s) = ctx.superstep_maintenance(5).unwrap();
        assert!(e.is_empty());
        assert_eq!(s, vec![0]);
        assert!(ctx.now() > before, "recovery must cost time");
        // Data intact after recovery.
        assert_eq!(v.pull(&c, &[0, 63]).unwrap(), vec![1.0, 2.0]);
        assert_eq!(chaos.stats().crashes, 1);
    }

    #[test]
    fn maintenance_restarts_executor_and_blocks_peers() {
        let ctx = PsGraphContext::local();
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 1, 2)]);
        ctx.attach_chaos(chaos.clone());
        let (e, s) = ctx.superstep_maintenance(1).unwrap();
        assert_eq!(e, vec![2]);
        assert!(s.is_empty());
        assert!(ctx.cluster().executor(2).is_alive());
        // Everyone advanced to at least the recovery completion time.
        let t = ctx.now();
        for i in 0..ctx.cluster().num_executors() {
            assert_eq!(ctx.cluster().executor(i).clock().now(), t);
        }
        assert!(t >= ctx.cost().restart_overhead());
        assert_eq!(chaos.stats().crashes, 1);
    }
}
