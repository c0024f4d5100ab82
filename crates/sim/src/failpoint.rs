//! Failure injection for the Table II experiment and for fault-tolerance
//! tests.
//!
//! A [`FailPlan`] lists scripted kills — "kill executor 3 at superstep 5" —
//! and the [`FailureInjector`] is consulted by the engines at the top of
//! each superstep. A kill fires exactly once; recovery is then exercised by
//! the master / lineage machinery of the crates under test.

use crate::sync::Mutex;
use std::sync::Arc;

/// Which kind of node a scripted failure targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Executor,
    Server,
    Datanode,
    /// A serving-tier read replica (`psgraph-serve`).
    Replica,
}

/// What a scripted plan does to its target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailAction {
    /// The node dies (the default — every `kill_*` constructor).
    Kill,
    /// The node comes back, bypassing the monitor's detect/restart
    /// charges — for scripting manual restarts in tests.
    Restart,
}

/// One scripted kill or restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPlan {
    pub kind: NodeKind,
    /// Index of the node within its kind.
    pub node_id: usize,
    /// Superstep (0-based) at whose start the plan fires.
    pub at_superstep: u64,
    pub action: FailAction,
}

impl FailPlan {
    pub fn kill_executor(node_id: usize, at_superstep: u64) -> Self {
        FailPlan { kind: NodeKind::Executor, node_id, at_superstep, action: FailAction::Kill }
    }

    pub fn kill_server(node_id: usize, at_superstep: u64) -> Self {
        FailPlan { kind: NodeKind::Server, node_id, at_superstep, action: FailAction::Kill }
    }

    pub fn kill_datanode(node_id: usize, at_superstep: u64) -> Self {
        FailPlan { kind: NodeKind::Datanode, node_id, at_superstep, action: FailAction::Kill }
    }

    /// For the serving tier, `at_superstep` is a query index rather than
    /// a BSP superstep — the load generator consults the injector between
    /// queries.
    pub fn kill_replica(node_id: usize, at_superstep: u64) -> Self {
        FailPlan { kind: NodeKind::Replica, node_id, at_superstep, action: FailAction::Kill }
    }

    /// Scripted manual restart of a serving replica (same query-index
    /// timeline as [`FailPlan::kill_replica`]).
    pub fn restart_replica(node_id: usize, at_superstep: u64) -> Self {
        FailPlan { kind: NodeKind::Replica, node_id, at_superstep, action: FailAction::Restart }
    }
}

/// Shared registry of scripted failures. Cheap to clone; thread-safe.
#[derive(Debug, Clone, Default)]
pub struct FailureInjector {
    inner: Arc<Mutex<Vec<FailPlan>>>,
}

impl FailureInjector {
    /// An injector with no scripted failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// An injector pre-loaded with `plans`.
    pub fn with_plans(plans: impl IntoIterator<Item = FailPlan>) -> Self {
        FailureInjector {
            inner: Arc::new(Mutex::new(plans.into_iter().collect())),
        }
    }

    /// Add a scripted failure.
    pub fn schedule(&self, plan: FailPlan) {
        self.inner.lock().push(plan);
    }

    /// Called by engines at the start of `superstep`: returns — and
    /// consumes — every kill that fires now for the given node kind.
    pub fn take_due(&self, kind: NodeKind, superstep: u64) -> Vec<FailPlan> {
        let mut guard = self.inner.lock();
        let mut due = Vec::new();
        guard.retain(|p| {
            if p.kind == kind && p.at_superstep == superstep {
                due.push(p.clone());
                false
            } else {
                true
            }
        });
        due
    }

    /// Number of kills still pending.
    pub fn pending(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_injector_never_kills() {
        let inj = FailureInjector::none();
        assert!(inj.take_due(NodeKind::Executor, 0).is_empty());
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn kill_fires_once_at_the_right_step() {
        let inj = FailureInjector::with_plans([FailPlan::kill_executor(2, 5)]);
        assert!(inj.take_due(NodeKind::Executor, 4).is_empty());
        assert!(inj.take_due(NodeKind::Server, 5).is_empty());
        assert_eq!(inj.take_due(NodeKind::Executor, 5), vec![FailPlan::kill_executor(2, 5)]);
        // Consumed: does not fire again.
        assert!(inj.take_due(NodeKind::Executor, 5).is_empty());
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn take_due_consumes_only_matching() {
        let inj = FailureInjector::with_plans([
            FailPlan::kill_executor(0, 3),
            FailPlan::kill_server(1, 3),
            FailPlan::kill_executor(4, 7),
        ]);
        let due = inj.take_due(NodeKind::Executor, 3);
        assert_eq!(due, vec![FailPlan::kill_executor(0, 3)]);
        assert_eq!(inj.pending(), 2);
        let due = inj.take_due(NodeKind::Server, 3);
        assert_eq!(due, vec![FailPlan::kill_server(1, 3)]);
        assert_eq!(inj.pending(), 1);
    }

    #[test]
    fn schedule_adds_after_construction() {
        let inj = FailureInjector::none();
        inj.schedule(FailPlan::kill_datanode(9, 1));
        assert_eq!(inj.pending(), 1);
        assert_eq!(inj.take_due(NodeKind::Datanode, 1), vec![FailPlan::kill_datanode(9, 1)]);
    }

    #[test]
    fn take_due_delivers_restarts_with_their_action() {
        let inj = FailureInjector::with_plans([
            FailPlan::kill_replica(1, 4),
            FailPlan::restart_replica(1, 8),
        ]);
        assert_eq!(inj.take_due(NodeKind::Replica, 4)[0].action, FailAction::Kill);
        let due = inj.take_due(NodeKind::Replica, 8);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].action, FailAction::Restart);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = FailureInjector::none();
        let b = a.clone();
        a.schedule(FailPlan::kill_executor(0, 0));
        assert_eq!(b.take_due(NodeKind::Executor, 0).len(), 1);
        assert_eq!(a.pending(), 0);
    }
}
