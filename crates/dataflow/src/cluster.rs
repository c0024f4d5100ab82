//! The simulated Spark cluster: a driver plus a pool of executors.

use psgraph_harness::Pool;
use psgraph_net::{Network, NodeId, ServicePort};
use psgraph_sim::sync::Mutex;
use psgraph_sim::{stage, ClusterClock, CostModel, MemoryMeter, NodeClock, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{DataflowError, Result};

/// Cluster sizing, mirroring the paper's resource allocations (executor
/// count, cores, and container memory — scaled down with the datasets).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of executors (paper: 100 for DS1, 300–500 for DS2).
    pub executors: usize,
    /// Cores per executor; compute cost is divided by this.
    pub cores_per_executor: usize,
    /// Memory budget per executor in bytes (paper: 20–55 GB).
    pub memory_per_executor: u64,
    /// Default partition count for new RDDs (Spark default: 2–3× cores).
    pub default_partitions: usize,
    /// CPU ops charged per record for a generic narrow transformation.
    pub ops_per_record: u64,
    /// Extra bytes charged per cached record, modeling the JVM-object
    /// cost of **deserialized** RDD caching (headers + boxed tuple
    /// fields). GraphX's triplet machinery requires deserialized caching
    /// (set ~32); jobs that persist with Kryo serialization
    /// (`MEMORY_ONLY_SER`, as PSGraph's production pipelines do) set 0 and
    /// pay deserialization CPU on access instead.
    pub record_overhead: u64,
    /// Cost model shared with the rest of the simulated datacenter.
    pub cost: CostModel,
    /// Thread pool that executes stage tasks (`None` = the process-wide
    /// [`Pool::global`]). Benches and determinism tests install explicit
    /// pools to sweep thread counts.
    pub pool: Option<Arc<Pool>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let executors = 4;
        ClusterConfig {
            executors,
            cores_per_executor: 2,
            memory_per_executor: 1 << 30,
            default_partitions: executors * 2,
            ops_per_record: 8,
            record_overhead: 0,
            cost: CostModel::default(),
            pool: None,
        }
    }
}

impl ClusterConfig {
    pub fn with_executors(mut self, n: usize) -> Self {
        self.executors = n;
        self.default_partitions = n * 2;
        self
    }

    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_per_executor = bytes;
        self
    }

    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

/// One executor: clock + memory budget + liveness + incarnation counter +
/// the disk its shuffle files live on.
///
/// The incarnation counter invalidates partition data cached on the
/// executor when it is killed: data written under incarnation `k` is
/// unreadable once the executor is restarted as incarnation `k+1`. The
/// disk is not reset by a kill or a restart: shuffle files outlive the
/// executor behind the external shuffle service (DESIGN.md §8, mechanism
/// 3), and reads of them queue there in sim time.
#[derive(Debug)]
pub struct Executor {
    id: usize,
    cores: usize,
    clock: NodeClock,
    memory: MemoryMeter,
    disk: ServicePort,
    alive: AtomicBool,
    incarnation: AtomicU64,
}

impl Executor {
    fn new(id: usize, cores: usize, memory: u64) -> Self {
        Executor {
            id,
            cores,
            clock: NodeClock::new(),
            memory: MemoryMeter::new(format!("executor-{id}"), memory),
            disk: ServicePort::new(NodeId::Executor(id)),
            alive: AtomicBool::new(true),
            incarnation: AtomicU64::new(0),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    pub fn memory(&self) -> &MemoryMeter {
        &self.memory
    }

    /// The port that serves this executor's blocks: every read of its
    /// shuffle files, local or for a remote reducer, is served FIFO here.
    pub fn disk(&self) -> &ServicePort {
        &self.disk
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::Acquire)
    }

    /// Charge `ops` of data-parallel CPU work (split across cores).
    pub fn charge_cpu(&self, cost: &CostModel, ops: u64) {
        self.clock
            .advance(cost.cpu_cost(ops.div_ceil(self.cores as u64)));
    }

    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.incarnation.fetch_add(1, Ordering::AcqRel);
        self.memory.clear();
    }

    fn restart(&self, at: SimTime) {
        self.clock.reset_to(at);
        self.alive.store(true, Ordering::Release);
    }
}

/// Bytes of one block id in a fetch request.
const BLOCK_ID_BYTES: u64 = 8;

/// The simulated Spark cluster.
pub struct Cluster {
    config: ClusterConfig,
    network: Network,
    clock: ClusterClock,
    driver: NodeClock,
    executors: Vec<Arc<Executor>>,
    stages_run: AtomicU64,
    pool: Arc<Pool>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("executors", &self.executors.len())
            .field("stages_run", &self.stages_run.load(Ordering::Relaxed))
            .finish()
    }
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        assert!(config.executors > 0, "need at least one executor");
        assert!(config.cores_per_executor > 0, "need at least one core");
        let executors = (0..config.executors)
            .map(|i| {
                Arc::new(Executor::new(
                    i,
                    config.cores_per_executor,
                    config.memory_per_executor,
                ))
            })
            .collect();
        let network = Network::new(config.cost.clone());
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::clone(Pool::global()));
        Arc::new(Cluster {
            config,
            network,
            clock: ClusterClock::new(),
            driver: NodeClock::new(),
            executors,
            stages_run: AtomicU64::new(0),
            pool,
        })
    }

    /// A small default cluster (tests, examples).
    pub fn local() -> Arc<Self> {
        Cluster::new(ClusterConfig::default())
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    pub fn network(&self) -> &Network {
        &self.network
    }

    pub fn clock(&self) -> &ClusterClock {
        &self.clock
    }

    pub fn driver(&self) -> &NodeClock {
        &self.driver
    }

    /// The thread pool stage tasks execute on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }

    pub fn default_partitions(&self) -> usize {
        self.config.default_partitions
    }

    pub fn executor(&self, i: usize) -> &Arc<Executor> {
        &self.executors[i]
    }

    /// Home executor of partition `p` (fixed modulo placement, as with
    /// Spark's preferred locations once an RDD is cached).
    pub fn executor_for(&self, partition: usize) -> &Arc<Executor> {
        &self.executors[partition % self.executors.len()]
    }

    /// Simulated time elapsed so far (global barrier clock).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Number of stages executed (diagnostics / tests).
    pub fn stages_run(&self) -> u64 {
        self.stages_run.load(Ordering::Relaxed)
    }

    /// One fetch by `client` that leaves at `departs`, of `blocks` given
    /// as (source executor, bytes); returns the bytes fetched. There is one
    /// leg per source, all in flight together, and the client resumes at
    /// the slowest ([`NodeClock::request`]: at once outside a stage, in sim
    /// order when the stage ends inside one). A source serves its leg at
    /// its disk port for `read` of its bytes, FIFO. A remote leg (its
    /// source is not `local`) sends the block ids there first and streams
    /// the bytes back ([`Network::fetch_at`]); a local one is the read
    /// alone.
    pub(crate) fn fetch(
        &self,
        client: &NodeClock,
        departs: SimTime,
        local: Option<usize>,
        blocks: impl IntoIterator<Item = (usize, u64)>,
        read: impl Fn(u64) -> SimTime,
    ) -> u64 {
        let mut per_source = vec![(0u64, 0u64); self.executors.len()];
        for (from, bytes) in blocks {
            per_source[from].0 += 1;
            per_source[from].1 += bytes;
        }
        let legs: Vec<_> = per_source
            .iter()
            .zip(&self.executors)
            .filter(|&(&(count, _), _)| count > 0)
            .map(|(&(count, bytes), e)| {
                let req = (local != Some(e.id)).then_some(count * BLOCK_ID_BYTES);
                (e.disk.clone(), req, read(bytes), bytes)
            })
            .collect();
        let network = self.network.clone();
        client.request(departs, move |at| {
            legs.iter().fold(at, |back, (disk, req, read, bytes)| {
                back.max(match req {
                    Some(req) => network.fetch_at(at, disk, *req, *read, *bytes),
                    None => disk.serve(at, *read),
                })
            })
        });
        per_source.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Kill an executor: memory cleared, cached partitions invalidated.
    pub fn kill_executor(&self, id: usize) {
        self.executors[id].kill();
    }

    /// Restart an executor. Charges the master's failure-detection +
    /// container-restart overhead to the global clock, and the replacement
    /// joins at that time.
    pub fn restart_executor(&self, id: usize) {
        self.clock.advance(self.config.cost.restart_overhead());
        self.executors[id].restart(self.clock.now());
    }

    /// Run one stage over `tasks` partitions, one task per executor: `f`
    /// gets an executor and the partitions it hosts (`p % executors`, in
    /// partition order) and decides how to walk them — this is where a
    /// job can talk to the PS once for all of an executor's partitions
    /// instead of once per partition.
    ///
    /// The executor tasks are one `Pool::map` over the hosting executors
    /// (real parallelism up to the pool's thread count, the calling thread
    /// included), each charging simulated costs to its own executor's
    /// clock. The map is one `sim::stage` over the hosting executors'
    /// clocks: their requests are charged in sim order when the map is
    /// done — also when a task failed — so the stage ends at the same sim
    /// time on any pool. Results come back in executor order, one per
    /// executor that hosts a partition — the deterministic reduction rule,
    /// so the output is bit-identical for any pool size. A BSP barrier over
    /// all live executors closes the stage. A dead executor fails the stage
    /// with `ExecutorLost`; the first error recorded is the stage's, and
    /// executor tasks that have not started by then are skipped.
    pub fn run_executors<R, F>(&self, tasks: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Executor, &[usize]) -> Result<R> + Send + Sync,
    {
        self.stages_run.fetch_add(1, Ordering::Relaxed);
        // Stages start from the current global time.
        for e in &self.executors {
            if e.is_alive() {
                self.clock.register(&e.clock);
            }
        }

        let hosted: Vec<(&Arc<Executor>, Vec<usize>)> = self
            .executors
            .iter()
            .take(tasks)
            .map(|e| (e, (e.id()..tasks).step_by(self.executors.len()).collect()))
            .collect();
        let first_err: Mutex<Option<DataflowError>> = Mutex::new(None);
        let task = |(exec, parts): (&Arc<Executor>, Vec<usize>)| {
            if let Some(e) = &*first_err.lock() {
                return Err(e.clone());
            }
            let outcome = if exec.is_alive() {
                f(exec, &parts)
            } else {
                Err(DataflowError::ExecutorLost { id: exec.id() })
            };
            if let Err(e) = &outcome {
                first_err.lock().get_or_insert_with(|| e.clone());
            }
            outcome
        };

        let clients: Vec<&NodeClock> = hosted.iter().map(|&(e, _)| e.clock()).collect();
        let results = stage(&clients, || self.pool.map(hosted, task));

        if let Some(e) = first_err.into_inner() {
            return Err(e);
        }

        self.clock
            .barrier(self.executors.iter().filter(|e| e.is_alive()).map(|e| e.clock()));

        // No error was recorded, so every task returned its result.
        results.into_iter().collect()
    }

    /// Per-partition values that [`Cluster::run_executors`] tasks returned
    /// (one `Vec` per executor, in the order of its `parts`), back in
    /// partition order. The values are read as the results of a stage of
    /// as many partitions as there are values; an executor that returned
    /// fewer or more than it hosts there is an error.
    pub fn in_partition_order<R>(&self, per_executor: Vec<Vec<R>>) -> Result<Vec<R>> {
        let tasks = per_executor.iter().map(Vec::len).sum();
        let mut per_executor: Vec<_> = per_executor.into_iter().map(Vec::into_iter).collect();
        let executors = self.executors.len();
        (0..tasks)
            .map(|p| {
                per_executor.get_mut(p % executors).and_then(Iterator::next).ok_or_else(|| {
                    DataflowError::Other(format!(
                        "executor {} returned no value for partition {p} of {tasks}",
                        p % executors
                    ))
                })
            })
            .collect()
    }

    /// Run one stage of `tasks` partition-indexed tasks:
    /// [`Cluster::run_executors`] with each executor walking its partitions
    /// serially in partition order, stopping at the first error anywhere in
    /// the stage. Returns per-partition results in partition order, or the
    /// first error (OOM / executor-lost) encountered.
    pub fn run_stage<R, F>(&self, tasks: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &Executor) -> Result<R> + Send + Sync,
    {
        let failed = AtomicBool::new(false);
        let per_executor = self.run_executors(tasks, |exec, parts| {
            let mut out = Vec::with_capacity(parts.len());
            for &p in parts {
                // Another executor failed: the stage returns its error and
                // nothing of this one is read.
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                out.push(f(p, exec).inspect_err(|_| failed.store(true, Ordering::Relaxed))?);
            }
            Ok(out)
        })?;
        self.in_partition_order(per_executor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_runs_all_tasks_in_partition_order() {
        let c = Cluster::local();
        let out = c.run_stage(10, |p, _e| Ok(p * 2)).unwrap();
        assert_eq!(out, (0..10).map(|p| p * 2).collect::<Vec<_>>());
        assert_eq!(c.stages_run(), 1);
    }

    #[test]
    fn executor_tasks_get_their_partitions_in_partition_order() {
        for threads in [1, 4] {
            let pool = Arc::new(Pool::with_perturb(threads, None));
            let c = Cluster::new(ClusterConfig::default().with_pool(pool));
            let out = c.run_executors(10, |e, parts| Ok((e.id(), parts.to_vec()))).unwrap();
            assert_eq!(
                out,
                vec![(0, vec![0, 4, 8]), (1, vec![1, 5, 9]), (2, vec![2, 6]), (3, vec![3, 7])]
            );
            // An executor that hosts no partition gets no task.
            let out = c.run_executors(2, |e, parts| Ok((e.id(), parts.len()))).unwrap();
            assert_eq!(out, vec![(0, 1), (1, 1)]);
            assert_eq!(c.stages_run(), 2);
            assert_eq!(
                c.in_partition_order(vec![vec![0, 4], vec![1, 5], vec![2], vec![3]]),
                Ok(vec![0, 1, 2, 3, 4, 5])
            );
            // Same failure semantics as a partition-indexed stage: the
            // first error recorded is the stage's, and an executor that
            // has not started by then is skipped.
            let started = Mutex::new(Vec::new());
            let err = c
                .run_executors(8, |e, _| {
                    started.lock().push(e.id());
                    match e.id() {
                        1 => Err(DataflowError::Other("first".into())),
                        3 => Err(DataflowError::Other("late".into())),
                        id => Ok(id),
                    }
                })
                .unwrap_err();
            let mut started = started.into_inner();
            if threads == 1 {
                assert_eq!(err, DataflowError::Other("first".into()));
                assert_eq!(started, vec![0, 1], "executors 2 and 3 never started");
            } else {
                // Which of the two was recorded first is the schedule's
                // choice; no executor ever starts twice.
                assert!(matches!(&err, DataflowError::Other(m) if m == "first" || m == "late"));
                started.sort_unstable();
                assert!(started.windows(2).all(|w| w[0] != w[1]), "{started:?}");
            }
            // A dead executor fails the stage only if it hosts a partition.
            c.kill_executor(3);
            let err = c.run_executors(8, |e, _| Ok(e.id())).unwrap_err();
            assert_eq!(err, DataflowError::ExecutorLost { id: 3 }, "{threads} threads");
            assert_eq!(c.run_executors(3, |e, _| Ok(e.id())), Ok(vec![0, 1, 2]));
        }
    }

    #[test]
    fn a_per_executor_result_of_the_wrong_length_is_an_error_not_a_panic() {
        let c = Cluster::local();
        // Eight partitions on four executors, but executor 1 returned one
        // value instead of two: partition 5 has none.
        let short = c.in_partition_order(vec![vec![0, 4], vec![1], vec![2, 6], vec![3, 7]]);
        assert!(matches!(short, Err(DataflowError::Other(_))), "{short:?}");
        // Executor 1 returned a third value: read as a stage of nine
        // partitions, partition 8 (executor 0's) has none.
        let long = c.in_partition_order(vec![vec![0, 4], vec![1, 5, 9], vec![2, 6], vec![3, 7]]);
        assert!(matches!(long, Err(DataflowError::Other(_))), "{long:?}");
        // More vectors than executors: the fifth one is never read.
        let extra = c.in_partition_order(vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
        assert!(matches!(extra, Err(DataflowError::Other(_))), "{extra:?}");
        assert_eq!(c.in_partition_order(Vec::<Vec<u8>>::new()), Ok(vec![]));
    }

    #[test]
    fn a_stage_ends_at_the_same_sim_time_on_any_pool_and_schedule() {
        use psgraph_net::{NodeId, ServicePort};
        // Eight executors share one port: each computes for a time of its
        // own before every one of three requests, and its last request is
        // two legs made from a nested map — on another thread on a larger
        // pool, but still on the executor's clock.
        let stage_end = |threads: usize, perturb: Option<u64>| {
            let pool = Arc::new(Pool::with_perturb(threads, perturb));
            let c = Cluster::new(ClusterConfig::default().with_executors(8).with_pool(pool));
            let port = ServicePort::new(NodeId::Server(0));
            c.run_executors(8, |e, _| {
                let rpc = || c.network().rpc(e.clock(), &port, 64, 20_000, 64);
                for round in 0..3u64 {
                    e.charge_cpu(c.cost(), 40_000 * ((e.id() as u64 * 5 + round * 3) % 8));
                    if round < 2 {
                        rpc();
                    } else {
                        c.pool().map(vec![0, 1], |_| rpc());
                    }
                }
                Ok(())
            })
            .unwrap();
            (c.now(), port.clock().now(), c.network().stats().rpcs())
        };
        let serial = stage_end(1, None);
        assert_eq!(serial.2, 8 * 4);
        for threads in [1, 4, 8] {
            for perturb in [None, Some(1), Some(7), Some(42)] {
                let end = stage_end(threads, perturb);
                assert_eq!(end, serial, "{threads} threads, perturb {perturb:?}");
            }
        }
    }

    #[test]
    fn stage_charges_time_and_barriers() {
        let c = Cluster::local();
        let before = c.now();
        c.run_stage(8, |_p, e| {
            e.charge_cpu(c.cost(), 2_000_000_000);
            Ok(())
        })
        .unwrap();
        let after = c.now();
        assert!(after > before);
        // All live executors synchronized to the barrier.
        for i in 0..c.num_executors() {
            assert_eq!(c.executor(i).clock().now(), after);
        }
    }

    #[test]
    fn cores_divide_parallel_work() {
        let cfg1 = ClusterConfig { executors: 1, cores_per_executor: 1, ..Default::default() };
        let cfg4 = ClusterConfig { executors: 1, cores_per_executor: 4, ..Default::default() };
        let c1 = Cluster::new(cfg1);
        let c4 = Cluster::new(cfg4);
        c1.run_stage(1, |_p, e| {
            e.charge_cpu(c1.cost(), 4_000_000);
            Ok(())
        })
        .unwrap();
        c4.run_stage(1, |_p, e| {
            e.charge_cpu(c4.cost(), 4_000_000);
            Ok(())
        })
        .unwrap();
        assert!(c4.now() < c1.now());
    }

    #[test]
    fn error_aborts_stage() {
        let c = Cluster::local();
        let err = c
            .run_stage(4, |p, _e| {
                if p == 2 {
                    Err(DataflowError::Other("boom".into()))
                } else {
                    Ok(p)
                }
            })
            .unwrap_err();
        assert!(matches!(err, DataflowError::Other(_)));
    }

    #[test]
    fn dead_executor_fails_its_tasks() {
        let c = Cluster::local();
        c.kill_executor(1);
        let err = c.run_stage(8, |p, _e| Ok(p)).unwrap_err();
        assert_eq!(err, DataflowError::ExecutorLost { id: 1 });
    }

    #[test]
    fn restart_charges_overhead_and_revives() {
        let c = Cluster::local();
        c.kill_executor(0);
        assert!(!c.executor(0).is_alive());
        let inc = c.executor(0).incarnation();
        let before = c.now();
        c.restart_executor(0);
        assert!(c.executor(0).is_alive());
        assert_eq!(c.executor(0).incarnation(), inc); // bump happens at kill
        assert_eq!(c.now(), before + c.cost().restart_overhead());
        // Stage runs again.
        c.run_stage(8, |p, _e| Ok(p)).unwrap();
    }

    #[test]
    fn kill_bumps_incarnation_and_clears_memory() {
        let c = Cluster::local();
        c.executor(2).memory().alloc(1000).unwrap();
        let inc = c.executor(2).incarnation();
        c.kill_executor(2);
        assert_eq!(c.executor(2).incarnation(), inc + 1);
        assert_eq!(c.executor(2).memory().in_use(), 0);
    }

    #[test]
    fn executor_placement_is_stable() {
        let c = Cluster::local();
        assert_eq!(c.executor_for(0).id(), 0);
        assert_eq!(c.executor_for(5).id(), 5 % c.num_executors());
        assert_eq!(c.executor_for(5).id(), c.executor_for(5).id());
    }

    #[test]
    fn parallel_stage_uses_multiple_threads() {
        // Smoke test: tasks on different executors can overlap in real
        // time. Uses an explicit 4-thread pool so the test holds under
        // any `POOL_THREADS` setting (CI runs the suite at 1 and max).
        let pool = Arc::new(Pool::with_perturb(4, None));
        let c = Cluster::new(ClusterConfig::default().with_pool(pool));
        let t0 = std::time::Instant::now();
        c.run_stage(4, |_p, _e| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Ok(())
        })
        .unwrap();
        // 4 tasks on 4 executors: well under 4 × 50 ms if parallel.
        assert!(t0.elapsed() < std::time::Duration::from_millis(190));
    }
}
