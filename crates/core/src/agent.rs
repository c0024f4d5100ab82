//! The PS agent (paper §III-C): "PSGraph establishes a PS agent in every
//! Spark executor to manage the data communication between Spark and PS.
//! When the PS agent needs to get a data item from the PS, it first uses
//! the data index to get the partition location from PSContext … then
//! gets the required data from PS via RPC."
//!
//! A superstep job reads the same keys every superstep — its partitions'
//! own tables — so the agent works the locations out once per (job,
//! executor): a [`PullPlan`] over the union of the key sets of every
//! partition the executor hosts, built on the executor's first read and
//! replayed by every later one. One executor then makes one RPC per server
//! per superstep however many partitions it hosts, and an id that several
//! of its partitions name crosses the wire once (DESIGN.md §8, mechanism
//! 8). Jobs drive it from [`Cluster::run_executors`].
//!
//! The plan is executor state (`ExecutorState`, which Common Neighbor's
//! and Triangle Count's kept lists use too): it is charged to the
//! executor's memory budget, and it dies with the executor — a plan built
//! under an earlier incarnation is never replayed, the restarted executor
//! builds its own from the recovered partitions.

use std::sync::Arc;

use psgraph_dataflow::{Cluster, DataflowError, Executor};
use psgraph_ps::{Element, PullPlan, PullResponse, VectorHandle};
use psgraph_sim::sync::Mutex;

use crate::error::PsResultExt;

type Result<T> = std::result::Result<T, DataflowError>;

/// What a value kept on an executor holds on the executor's memory meter.
pub(crate) trait Charged {
    fn charged(&self) -> u64;
}

impl Charged for Arc<PullPlan> {
    fn charged(&self) -> u64 {
        self.approx_bytes()
    }
}

/// A value a job keeps on every executor of the cluster from one stage to
/// the next. It is executor state: whoever builds or grows it charges what
/// it holds to the executor's memory budget, and it dies with the executor
/// — a value an earlier incarnation built is neither used nor freed (the
/// kill cleared the meter), the restarted executor builds its own. Dropping
/// it hands back what the live incarnations hold.
pub(crate) struct ExecutorState<'a, T: Charged> {
    cluster: &'a Cluster,
    /// Per executor: the incarnation that built the value, and the value.
    slots: Vec<Mutex<Option<(u64, T)>>>,
}

impl<'a, T: Charged> ExecutorState<'a, T> {
    pub(crate) fn new(cluster: &'a Cluster) -> Self {
        let slots = (0..cluster.num_executors()).map(|_| Mutex::new(None)).collect();
        ExecutorState { cluster, slots }
    }

    /// `f` on `exec`'s value, built by `build` first when this incarnation
    /// of the executor holds none.
    pub(crate) fn with<R>(
        &self,
        exec: &Executor,
        build: impl FnOnce() -> Result<T>,
        f: impl FnOnce(&mut T) -> Result<R>,
    ) -> Result<R> {
        let mut slot = self.slots[exec.id()].lock();
        let value = match slot.take() {
            Some((built_by, value)) if built_by == exec.incarnation() => value,
            _ => build()?,
        };
        f(&mut slot.insert((exec.incarnation(), value)).1)
    }
}

impl<T: Charged> Drop for ExecutorState<'_, T> {
    fn drop(&mut self) {
        for (id, slot) in self.slots.iter().enumerate() {
            let exec = self.cluster.executor(id);
            if let Some((built_by, value)) = slot.lock().as_ref() {
                if *built_by == exec.incarnation() {
                    exec.memory().free(value.charged());
                }
            }
        }
    }
}

/// One job's PS agents, one per executor of the cluster.
pub struct PsAgent<'a> {
    /// What the job's reads want back, fixed in every plan.
    response: PullResponse,
    plans: ExecutorState<'a, Arc<PullPlan>>,
}

impl<'a> PsAgent<'a> {
    /// The agents of a job whose reads want `response` back: PageRank's
    /// Δrank read is [`PullResponse::Sparse`] (§IV-A), a neighbourhood
    /// program's read is [`PullResponse::Dense`].
    pub fn new(cluster: &'a Cluster, response: PullResponse) -> Self {
        PsAgent { response, plans: ExecutorState::new(cluster) }
    }

    /// `exec`'s plan: built from `keys()` over `vector`'s layout when this
    /// incarnation of the executor holds none.
    fn plan<E: Element>(
        &self,
        exec: &Executor,
        vector: &VectorHandle<E>,
        keys: impl FnOnce() -> Vec<u64>,
    ) -> Result<Arc<PullPlan>> {
        let build = || {
            let plan = vector.plan(&keys(), self.response).df()?;
            exec.memory().alloc(plan.approx_bytes())?;
            Ok(Arc::new(plan))
        };
        self.plans.with(exec, build, |plan| Ok(Arc::clone(plan)))
    }

    /// The job's per-superstep read on `exec`: `vector` at `keys()` (any
    /// order, duplicates allowed), result aligned with the keys, with the
    /// agent's response. `keys`
    /// runs only when the executor has to build its plan — on its first
    /// read and on the first after a restart — and must name the same
    /// request every time.
    pub fn pull<E: Element>(
        &self,
        exec: &Executor,
        vector: &VectorHandle<E>,
        keys: impl FnOnce() -> Vec<u64>,
    ) -> Result<Vec<E>> {
        let plan = self.plan(exec, vector, keys)?;
        vector.pull_planned(exec.clock(), &plan).df()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PsGraphContext;
    use psgraph_ps::{Partitioner, RecoveryMode};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn vector(ctx: &PsGraphContext, name: &str, size: u64) -> VectorHandle<f64> {
        VectorHandle::create(ctx.ps(), name, size, Partitioner::Range, RecoveryMode::Inconsistent)
            .unwrap()
    }

    #[test]
    fn one_plan_per_executor_built_once_and_again_after_a_restart() {
        let ctx = PsGraphContext::local();
        let v = vector(&ctx, "agent.v", 100);
        let keys = [7u64, 3, 7, 99, 3];
        v.push_set(ctx.cluster().driver(), &keys[1..4], &[3.0, 7.0, 99.0]).unwrap();
        let cluster = ctx.cluster();
        let exec = cluster.executor(1);
        let idle = exec.memory().in_use();
        let built = AtomicUsize::new(0);
        let read = |agent: &PsAgent| {
            agent.pull(exec, &v, || {
                built.fetch_add(1, Ordering::Relaxed);
                keys.to_vec()
            })
        };
        {
            let agent = PsAgent::new(cluster, PullResponse::Dense);
            let rpcs = ctx.ps().network().stats().rpcs();
            assert_eq!(read(&agent).unwrap(), vec![7.0, 3.0, 7.0, 99.0, 3.0]);
            assert_eq!(read(&agent).unwrap(), vec![7.0, 3.0, 7.0, 99.0, 3.0]);
            assert_eq!(built.load(Ordering::Relaxed), 1, "the second read replays the plan");
            // Keys 3 and 7 live on server 0, key 99 on server 1.
            assert_eq!(ctx.ps().network().stats().rpcs() - rpcs, 4);
            let held = exec.memory().in_use() - idle;
            assert!(held > 0, "the plan is charged to its executor");

            // The executor dies: its memory — plan included — is gone, and
            // the replacement must not replay what it never built.
            cluster.kill_executor(1);
            cluster.restart_executor(1);
            assert_eq!(exec.memory().in_use(), 0);
            assert_eq!(read(&agent).unwrap(), vec![7.0, 3.0, 7.0, 99.0, 3.0]);
            assert_eq!(built.load(Ordering::Relaxed), 2, "a restarted executor builds its own plan");
            assert_eq!(exec.memory().in_use(), held);
            // Other executors hold their own plans.
            agent.pull(cluster.executor(0), &v, || vec![3, 3]).unwrap();
            assert!(cluster.executor(0).memory().in_use() > 0);
        }
        // The job is over: exactly what the live plans held is handed back.
        assert_eq!(exec.memory().in_use(), 0);
        assert_eq!(cluster.executor(0).memory().in_use(), 0);
    }

    #[test]
    fn agent_surfaces_ps_errors_and_executor_oom() {
        let ctx = PsGraphContext::local();
        let v = vector(&ctx, "agent.e", 10);
        let agent = PsAgent::new(ctx.cluster(), PullResponse::Sparse);
        let exec = ctx.cluster().executor(2);
        let err = agent.pull(exec, &v, || vec![10]).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
        assert_eq!(exec.memory().in_use(), 0, "a failed build holds nothing");
        // A plan that does not fit the executor is an OOM, typed as one.
        exec.memory().alloc(exec.memory().budget()).unwrap();
        assert!(matches!(agent.pull(exec, &v, || vec![1]), Err(DataflowError::Oom(_))));
        exec.memory().free(exec.memory().budget());
        ctx.ps().kill_server(0);
        let err = agent.pull(exec, &v, || vec![0]).unwrap_err();
        assert!(err.to_string().contains("server 0 is down"), "{err}");
    }
}
