//! The PS master (paper §III-B): resource allocation, task monitoring,
//! and failure recovery.
//!
//! "When a task is submitted to the resource management platform such as
//! Yarn and Kubernetes, the master is first initialized. It then requests
//! resources … to launch the parameter servers. During the execution, the
//! master monitors the status of servers by periodically sending health
//! checking signals. Once one server encounters failure, the master asks
//! the resource management platform to restart the server" — and then
//! drives checkpoint-based state recovery with per-object consistency
//! policies (see [`crate::RecoveryMode`]).

use psgraph_dfs::Dfs;
use psgraph_net::{Mailbox, NodeId};
use psgraph_sim::{NodeClock, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::Result;
use crate::ps::Ps;

/// Heartbeat payload recorded by the master's monitor mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    Alive,
    Dead,
}

/// The master node.
pub struct Master {
    clock: NodeClock,
    monitor: Mailbox<Health>,
    checks_run: AtomicU64,
    recoveries: AtomicU64,
}

impl Default for Master {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Master {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Master")
            .field("checks_run", &self.checks_run.load(Ordering::Relaxed))
            .field("recoveries", &self.recoveries.load(Ordering::Relaxed))
            .finish()
    }
}

impl Master {
    pub fn new() -> Self {
        Master {
            clock: NodeClock::new(),
            monitor: Mailbox::new(),
            checks_run: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    pub fn checks_run(&self) -> u64 {
        self.checks_run.load(Ordering::Relaxed)
    }

    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// One health-check round: ping every server (heartbeat RPCs charged
    /// to the master's clock) and report which are dead. Does not recover.
    pub fn health_check(&self, ps: &Ps) -> Vec<usize> {
        self.checks_run.fetch_add(1, Ordering::Relaxed);
        let mut dead = Vec::new();
        for i in 0..ps.num_servers() {
            let server = ps.server(i);
            // Ping: a tiny RPC; dead servers time out (charged as one
            // latency each way — the master learns nothing sooner).
            if server.is_alive() {
                ps.network().rpc(&self.clock, server.port(), 16, 8, 16);
                self.monitor.post(NodeId::Server(i), self.clock.now(), Health::Alive);
            } else {
                self.clock.advance(ps.cost().net_latency);
                self.clock.advance(ps.cost().net_latency);
                self.monitor.post(NodeId::Server(i), self.clock.now(), Health::Dead);
                dead.push(i);
            }
        }
        // Fold the round's heartbeats (keeps the mailbox bounded).
        let _ = self.monitor.drain();
        dead
    }

    /// Detect, restart, and recover every dead server (paper §III-B):
    /// charges detection delay + container restart per recovery wave,
    /// restores checkpointed state per each object's [`crate::RecoveryMode`],
    /// and returns the recovered server ids. `at` is the cluster time the
    /// wave starts (the master cannot act before the failure happened).
    pub fn recover_failed(&self, ps: &Ps, dfs: &Dfs, at: SimTime) -> Result<Vec<usize>> {
        self.clock.sync_to(at);
        let dead = self.health_check(ps);
        for &id in &dead {
            self.clock.advance(ps.cost().restart_overhead());
            ps.restart_server(id, self.clock.now());
            ps.recover_server(id, dfs, &self.clock)?;
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use crate::{Partitioner, RecoveryMode, VectorHandle};
    use std::sync::Arc;

    fn setup() -> (Arc<Ps>, Master, Dfs, NodeClock) {
        let ps = Ps::new(PsConfig { servers: 3, ..Default::default() });
        (ps, Master::new(), Dfs::in_memory(), NodeClock::new())
    }

    #[test]
    fn health_check_reports_dead_servers() {
        let (ps, master, _dfs, _c) = setup();
        assert!(master.health_check(&ps).is_empty());
        ps.kill_server(1);
        assert_eq!(master.health_check(&ps), vec![1]);
        assert_eq!(master.checks_run(), 2);
        assert!(master.clock().now() > SimTime::ZERO, "pings cost time");
    }

    #[test]
    fn recover_failed_restores_state() {
        let (ps, master, dfs, c) = setup();
        let v = VectorHandle::<f64>::create(
            &ps, "m.v", 30, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        v.push_set(&c, &[0, 15, 29], &[1.0, 2.0, 3.0]).unwrap();
        ps.checkpoint_all(&dfs).unwrap();
        ps.kill_server(0);
        ps.kill_server(2);
        let recovered = master.recover_failed(&ps, &dfs, c.now()).unwrap();
        assert_eq!(recovered, vec![0, 2]);
        assert_eq!(master.recoveries(), 2);
        assert_eq!(v.pull(&c, &[0, 15, 29]).unwrap(), vec![1.0, 2.0, 3.0]);
        // Two full restart overheads were paid.
        assert!(master.clock().now() >= ps.cost().restart_overhead());
    }

    #[test]
    fn recover_failed_noop_when_healthy() {
        let (ps, master, dfs, c) = setup();
        let recovered = master.recover_failed(&ps, &dfs, c.now()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(master.recoveries(), 0);
    }

    #[test]
    fn master_waits_for_the_failure_time() {
        let (ps, master, dfs, _c) = setup();
        ps.kill_server(1);
        // Nothing was checkpointed, but there are also no registered
        // objects — recovery succeeds trivially after restart.
        let at = SimTime::from_secs(100);
        master.recover_failed(&ps, &dfs, at).unwrap();
        assert!(master.clock().now() >= at + ps.cost().restart_overhead());
        assert!(ps.server(1).is_alive());
    }
}
