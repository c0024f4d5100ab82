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
//! The plan is executor state: it is charged to the executor's memory
//! budget, and it dies with the executor — a plan built under an earlier
//! incarnation is never replayed, the restarted executor builds its own
//! from the recovered partitions.

use std::sync::Arc;

use psgraph_dataflow::{Cluster, DataflowError, Executor};
use psgraph_ps::{Element, PullPlan, PullResponse, VectorHandle};
use psgraph_sim::sync::Mutex;

use crate::error::PsResultExt;

type Result<T> = std::result::Result<T, DataflowError>;

/// The plan an executor holds, and the incarnation of it that built it.
struct Held {
    built_by: u64,
    plan: Arc<PullPlan>,
}

/// One job's PS agents, one per executor of the cluster.
pub struct PsAgent<'a> {
    cluster: &'a Cluster,
    /// What the job's reads want back, fixed in every plan.
    response: PullResponse,
    plans: Vec<Mutex<Option<Held>>>,
}

impl<'a> PsAgent<'a> {
    /// The agents of a job whose reads want `response` back: PageRank's
    /// Δrank read is [`PullResponse::Sparse`] (§IV-A), a neighbourhood
    /// program's read is [`PullResponse::Dense`].
    pub fn new(cluster: &'a Cluster, response: PullResponse) -> Self {
        let plans = (0..cluster.num_executors()).map(|_| Mutex::new(None)).collect();
        PsAgent { cluster, response, plans }
    }

    /// `exec`'s plan: built from `keys()` over `vector`'s layout when this
    /// incarnation of the executor holds none.
    fn plan<E: Element>(
        &self,
        exec: &Executor,
        vector: &VectorHandle<E>,
        keys: impl FnOnce() -> Vec<u64>,
    ) -> Result<Arc<PullPlan>> {
        let mut slot = self.plans[exec.id()].lock();
        if let Some(held) = slot.as_ref().filter(|held| held.built_by == exec.incarnation()) {
            return Ok(Arc::clone(&held.plan));
        }
        // A plan from before a restart went with the executor's memory:
        // there is nothing to free.
        let plan = Arc::new(vector.plan(&keys(), self.response).df()?);
        exec.memory().alloc(plan.approx_bytes())?;
        *slot = Some(Held { built_by: exec.incarnation(), plan: Arc::clone(&plan) });
        Ok(plan)
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

impl Drop for PsAgent<'_> {
    fn drop(&mut self) {
        for (id, slot) in self.plans.iter().enumerate() {
            let exec = self.cluster.executor(id);
            // What an earlier incarnation held went when it was killed.
            if let Some(held) = slot.lock().as_ref().filter(|held| held.built_by == exec.incarnation()) {
                exec.memory().free(held.plan.approx_bytes());
            }
        }
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
