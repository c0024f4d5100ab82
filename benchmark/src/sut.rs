//! The system under test, seen from outside. Every call the benchmark
//! makes into the program goes through this file and uses public items
//! only, each wrapped in a span naming the layer it enters. Nothing here
//! depends on `crates/bench`, `serve::loadgen`, `serve::frontend::reference`
//! or the single `stream::Ingestor` (all on ROADMAP's collapse list), so
//! an API-collapsing change needs a follow-up in this one file.

use std::sync::Arc;

use psgraph_core::algos::{
    CommonNeighbor, GraphSage, GraphSageConfig, IncrementalCc, IncrementalPageRank, KCore, Line,
    LineConfig, PageRank, PrState,
};
use psgraph_core::runner::{distribute_edges, to_neighbor_tables};
use psgraph_core::{PsGraphConfig, PsGraphContext};
use psgraph_dataflow::{Cluster, ClusterConfig, Rdd};
use psgraph_dfs::Dfs;
use psgraph_graph::{gen as graph_gen, io as graph_io, Dataset};
use psgraph_graphx::{gx_pagerank, GxGraph};
use psgraph_net::rpc::{NodeId, ServicePort};
use psgraph_net::Network;
use psgraph_ps::{
    ColMatrixHandle, NeighborTableHandle, Partitioner, Ps, PsConfig, RecoveryMode, SnapshotWriter,
    VectorHandle,
};
use psgraph_serve::{ObjectMap, ServeConfig};
use psgraph_sim::{CostModel, NodeClock, SimTime};
use psgraph_stream::{DriftRmat, IngestConfig, RefreshConfig, RefreshDriver, ShardedIngestor};
use psgraph_tensor::{Graph, Linear, Tensor};

pub use psgraph_core::RunStats;
pub use psgraph_graph::gen::Sbm2;
pub use psgraph_graph::metrics::connected_components;
pub use psgraph_graph::Dataset as Ds;
pub use psgraph_graph::EdgeList;
pub use psgraph_harness::Pool;
pub use psgraph_query::{
    decide, ExpandMode, GraphTruth, Interpreter, Plan, PlanOutput, Pred, PushPolicy, Scorer,
    Source, Stage, TierStats,
};
pub use psgraph_serve::{Outcome, Query, ServeCluster, SloPolicy, Value};
pub use psgraph_stream::{BatchEffect, EdgeEvent, EdgeOp, SwapRecord};

use crate::metrics::Layer;
use crate::trace::Tracer;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn secs(t: SimTime) -> f64 {
    t.as_secs_f64()
}

/// Pin the process-wide pool (used by code that takes no explicit pool,
/// e.g. `ShardedIngestor::drain_all`) to `threads`, instead of its
/// default of `max(cores, 4)`. Must run before anything touches the pool.
pub fn pin_global_pool(threads: usize) {
    std::env::set_var("POOL_THREADS", threads.to_string());
    assert_eq!(
        Pool::global().threads(),
        threads,
        "global pool was sized before pinning"
    );
}

pub fn new_pool(threads: usize) -> Arc<Pool> {
    Arc::new(Pool::new(threads))
}

pub fn pool_tasks(pool: &Pool) -> u64 {
    pool.tasks_executed() + Pool::global().tasks_executed()
}

// ---------------------------------------------------------------- graphs

/// RMAT graph sized like `dataset` at `scale`, seeded by the run (the
/// program's own `Dataset::generate` fixes its seed per dataset).
pub fn rmat(dataset: Dataset, scale: f64, seed: u64) -> EdgeList {
    let spec = dataset.spec(scale);
    graph_gen::rmat(spec.vertices, spec.edges, Default::default(), seed)
}

/// DS3' with features and labels, same shape parameters as
/// `Dataset::generate_ds3_features` but seeded by the run.
pub fn ds3_features(scale: f64, feat_dim: usize, seed: u64) -> Sbm2 {
    let spec = Dataset::Ds3.spec(scale);
    let avg_deg = spec.edges as f64 / spec.vertices as f64;
    graph_gen::sbm2(
        spec.vertices,
        avg_deg * 1.4,
        avg_deg * 0.6,
        feat_dim,
        4.0,
        seed,
    )
}

/// Sorted, deduplicated out-adjacency — what the CSR snapshot stores.
pub fn out_adjacency(g: &EdgeList) -> Vec<Vec<u64>> {
    psgraph_core::truth::out_adjacency(g.edges(), g.num_vertices())
}

/// Pre-generate `count` drift-RMAT edge events over `base`.
pub fn drift_events(
    base: &EdgeList,
    count: usize,
    events_per_sec: f64,
    remove_fraction: f64,
    seed: u64,
) -> Vec<EdgeEvent> {
    let cfg = DriftRmat {
        num_vertices: base.num_vertices(),
        remove_fraction,
        events_per_sec,
        seed,
        ..DriftRmat::default()
    };
    let mut source = cfg.start(base.edges());
    (0..count).map(|_| source.next_event()).collect()
}

// ------------------------------------------------------------ deployment

/// The benchmark's own copy of the paper-allocation sizing rule
/// (`crates/bench/src/deploy.rs`): total memory pools divided by the
/// dataset scale-down, executor pools corrected by the JVM factor.
const SIM_EXECUTORS: usize = 8;
const SIM_SERVERS: usize = 4;
const PARTITIONS: usize = SIM_EXECUTORS * 6;
const JVM_EXPANSION: f64 = 0.5;
const GRAPHX_RECORD_OVERHEAD: u64 = 32;
const GIB: f64 = (1u64 << 30) as f64;

/// Paper allocation `(executors, exec GiB, servers, server GiB)`.
#[derive(Clone, Copy)]
pub struct Alloc(pub f64, pub f64, pub f64, pub f64);

impl Alloc {
    pub const PSGRAPH_DS1: Alloc = Alloc(100.0, 20.0, 20.0, 15.0);
    pub const GRAPHX_DS1: Alloc = Alloc(100.0, 55.0, 0.0, 0.0);
    pub const PSGRAPH_DS2: Alloc = Alloc(300.0, 30.0, 200.0, 30.0);
    pub const PSGRAPH_DS3: Alloc = Alloc(30.0, 10.0, 30.0, 10.0);

    fn exec_budget(self, sigma: f64) -> u64 {
        (self.0 * self.1 * GIB / sigma / JVM_EXPANSION / SIM_EXECUTORS as f64).max(65536.0) as u64
    }

    fn server_budget(self, sigma: f64) -> u64 {
        (self.2 * self.3 * GIB / sigma / JVM_EXPANSION / SIM_SERVERS as f64).max(65536.0) as u64
    }
}

pub fn psgraph_context(
    dataset: Dataset,
    scale: f64,
    alloc: Alloc,
    pool: &Arc<Pool>,
) -> Arc<PsGraphContext> {
    let sigma = dataset.scale_down(scale);
    let mut cfg = PsGraphConfig::sized(
        SIM_EXECUTORS,
        alloc.exec_budget(sigma),
        SIM_SERVERS,
        alloc.server_budget(sigma),
    )
    .with_pool(Arc::clone(pool));
    cfg.cluster.default_partitions = PARTITIONS;
    PsGraphContext::new(cfg)
}

fn graphx_cluster(dataset: Dataset, scale: f64, alloc: Alloc, pool: &Arc<Pool>) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default()
        .with_executors(SIM_EXECUTORS)
        .with_memory(alloc.exec_budget(dataset.scale_down(scale)))
        .with_pool(Arc::clone(pool));
    cfg.default_partitions = PARTITIONS;
    cfg.record_overhead = GRAPHX_RECORD_OVERHEAD;
    Cluster::new(cfg)
}

fn ctx_sim(ctx: &Arc<PsGraphContext>) -> impl Fn() -> Option<u64> + '_ {
    move || Some(ctx.now().as_nanos())
}

/// Counters every PSGraph deployment exposes, read after a pass.
pub fn context_counters(ctx: &PsGraphContext, out: &mut Layer) {
    let add = |out: &mut Layer, name: &'static str, v: f64| {
        let prev = out.get(name).unwrap_or(0.0);
        out.set(name, prev + v);
    };
    add(out, "net.ps_rpcs", ctx.ps().network().stats().rpcs() as f64);
    add(
        out,
        "net.ps_bytes",
        ctx.ps().network().stats().total_bytes() as f64,
    );
    add(
        out,
        "net.spark_bytes",
        ctx.cluster().network().stats().total_bytes() as f64,
    );
    add(out, "dfs.bytes_stored", ctx.dfs().total_bytes() as f64);
    let exec_peak = (0..ctx.cluster().num_executors())
        .map(|i| ctx.cluster().executor(i).memory().peak())
        .max()
        .unwrap_or(0);
    let prev = out.get("sim.exec_mem_peak_mb").unwrap_or(0.0);
    out.set(
        "sim.exec_mem_peak_mb",
        prev.max(exec_peak as f64 / (1 << 20) as f64),
    );
    add(
        out,
        "ps.resident_mb",
        ps_peak_bytes(ctx.ps()) as f64 / (1 << 20) as f64,
    );
}

/// Jobs unregister their PS objects when they finish, so residency is
/// read as the servers' memory high-water marks.
fn ps_peak_bytes(ps: &Ps) -> u64 {
    (0..ps.num_servers())
        .map(|i| ps.server(i).memory().peak())
        .sum()
}

// --------------------------------------------------------------- tg_batch

pub type CommonCount = (u64, u64, u64);

pub struct TgDeploy {
    pub ctx: Arc<PsGraphContext>,
    pub edges: Rdd<(u64, u64)>,
    pub gx: GxGraph,
    pub n: u64,
}

pub fn tg_deploy(t: &Tracer, g: &EdgeList, scale: f64, pool: &Arc<Pool>) -> Res<TgDeploy> {
    let ctx = psgraph_context(Dataset::Ds1, scale, Alloc::PSGRAPH_DS1, pool);
    let edges = t
        .span_sim("dataflow.distribute", "dataflow", ctx_sim(&ctx), || {
            distribute_edges(&ctx, g, PARTITIONS)
        })
        .map_err(err("distribute_edges"))?;
    let cluster = graphx_cluster(Dataset::Ds1, scale, Alloc::GRAPHX_DS1, pool);
    let gx = GxGraph::from_edgelist(&cluster, g, PARTITIONS).map_err(err("GxGraph"))?;
    Ok(TgDeploy {
        ctx,
        edges,
        gx,
        n: g.num_vertices(),
    })
}

impl TgDeploy {
    pub fn pagerank(&self, t: &Tracer, iterations: u64) -> Res<(Vec<f64>, RunStats)> {
        let job = PageRank {
            max_iterations: iterations,
            delta_threshold: 1e-6,
            ..Default::default()
        };
        let out = t
            .span_sim("core.pagerank", "core", ctx_sim(&self.ctx), || {
                job.run(&self.ctx, &self.edges, self.n)
            })
            .map_err(err("PageRank"))?;
        Ok((out.ranks, out.stats))
    }

    /// Counts as `(u, v, common neighbors)` triples.
    pub fn common_neighbor(&self, t: &Tracer) -> Res<(Vec<CommonCount>, RunStats)> {
        let out = t
            .span_sim("core.common_neighbor", "core", ctx_sim(&self.ctx), || {
                CommonNeighbor::default().run(&self.ctx, &self.edges, self.n)
            })
            .map_err(err("CommonNeighbor"))?;
        Ok((out.counts, out.stats))
    }

    pub fn kcore(&self, t: &Tracer) -> Res<(Vec<u64>, RunStats)> {
        let out = t
            .span_sim("core.kcore", "core", ctx_sim(&self.ctx), || {
                KCore::default().run(&self.ctx, &self.edges, self.n)
            })
            .map_err(err("KCore"))?;
        Ok((out.coreness, out.stats))
    }

    /// The GraphX baseline leg: ranks by vertex id and simulated time.
    pub fn graphx_pagerank(&self, t: &Tracer, iterations: u64) -> Res<(Vec<f64>, f64)> {
        let cluster = self.gx.cluster();
        let t0 = cluster.now();
        let pairs = t
            .span_sim(
                "graphx.pagerank",
                "graphx",
                || Some(cluster.now().as_nanos()),
                || gx_pagerank(&self.gx, 0.85, iterations),
            )
            .map_err(err("gx_pagerank"))?;
        let mut ranks = vec![0.0; self.n as usize];
        for (v, r) in pairs {
            ranks[v as usize] = r;
        }
        Ok((ranks, secs(cluster.now().saturating_sub(t0))))
    }
}

// -------------------------------------------------------------- gnn_epoch

pub struct GnnDeploy {
    pub gs_ctx: Arc<PsGraphContext>,
    pub line_ctx: Arc<PsGraphContext>,
    pub line_edges: Rdd<(u64, u64)>,
    pub line_n: u64,
}

pub struct GnnOutput {
    pub test_accuracy: f64,
    pub gs_losses: Vec<f64>,
    pub gs_epoch_sim_s: Vec<f64>,
    pub gs_prep_sim_s: f64,
    pub gs_stats: RunStats,
    pub line_losses: Vec<f64>,
    pub line_embeddings: Vec<Vec<f32>>,
    pub line_stats: RunStats,
}

const FEATURES_PATH: &str = "/raw/features.bin";
const EDGES_PATH: &str = "/raw/edges.bin";

/// Bring up both deployments and land GraphSage's raw inputs on the DFS.
/// LINE gets the DS2 server pool, as `repro -- line` does: a dim-128
/// embedding plus context table does not fit the TG allocation.
pub fn gnn_deploy(
    t: &Tracer,
    ds3: &Sbm2,
    ds3_scale: f64,
    line_graph: &EdgeList,
    line_scale: f64,
    pool: &Arc<Pool>,
) -> Res<GnnDeploy> {
    let gs_ctx = psgraph_context(Dataset::Ds3, ds3_scale, Alloc::PSGRAPH_DS3, pool);
    t.span("dfs.write_inputs", "dfs", || -> Res<()> {
        let driver = gs_ctx.cluster().driver();
        graph_io::write_binary(gs_ctx.dfs(), EDGES_PATH, &ds3.graph, driver)
            .map_err(err("write edges"))?;
        graph_io::write_features(
            gs_ctx.dfs(),
            FEATURES_PATH,
            &ds3.features,
            &ds3.labels,
            driver,
        )
        .map_err(err("write features"))
    })?;
    let line_ctx = psgraph_context(Dataset::Ds1, line_scale, Alloc::PSGRAPH_DS2, pool);
    let line_edges = t
        .span_sim(
            "dataflow.distribute",
            "dataflow",
            ctx_sim(&line_ctx),
            || distribute_edges(&line_ctx, line_graph, PARTITIONS),
        )
        .map_err(err("distribute_edges"))?;
    Ok(GnnDeploy {
        gs_ctx,
        line_ctx,
        line_edges,
        line_n: line_graph.num_vertices(),
    })
}

impl GnnDeploy {
    pub fn train(
        &self,
        t: &Tracer,
        feat_dim: usize,
        epochs: u64,
        line_dim: usize,
    ) -> Res<GnnOutput> {
        let ctx = &self.gs_ctx;
        let driver = ctx.cluster().driver();
        let sim_driver = || Some(driver.now().as_nanos());
        let (graph, features, labels) = t.span_sim("graph.io_read", "graph", sim_driver, || {
            let g =
                graph_io::read_binary(ctx.dfs(), EDGES_PATH, driver).map_err(err("read edges"))?;
            let (f, l) = graph_io::read_features(ctx.dfs(), FEATURES_PATH, driver)
                .map_err(err("read features"))?;
            Ok::<_, String>((g, f, l))
        })?;
        let edges = t
            .span_sim("dataflow.distribute", "dataflow", ctx_sim(ctx), || {
                distribute_edges(ctx, &graph, PARTITIONS)
            })
            .map_err(err("distribute_edges"))?;
        let (features, labels) = (Arc::new(features), Arc::new(labels));
        let gs = GraphSage::new(GraphSageConfig {
            feat_dim,
            epochs,
            ..Default::default()
        });
        let gs_out = t
            .span_sim("core.graphsage", "core", ctx_sim(ctx), || {
                gs.run(ctx, &edges, &features, &labels, graph.num_vertices())
            })
            .map_err(err("GraphSage"))?;

        let line = Line::new(LineConfig {
            dim: line_dim,
            epochs,
            use_psfunc: true,
            ..Default::default()
        });
        let line_out = t
            .span_sim("core.line", "core", ctx_sim(&self.line_ctx), || {
                line.run(&self.line_ctx, &self.line_edges, self.line_n)
            })
            .map_err(err("LINE"))?;
        Ok(GnnOutput {
            test_accuracy: gs_out.test_accuracy,
            gs_losses: gs_out.loss_per_epoch,
            gs_epoch_sim_s: gs_out.epoch_times.iter().map(|t| secs(*t)).collect(),
            gs_prep_sim_s: secs(gs_out.preprocess_time),
            gs_stats: gs_out.stats,
            line_losses: line_out.loss_per_epoch,
            line_embeddings: line_out.embeddings,
            line_stats: line_out.stats,
        })
    }
}

// ------------------------------------------------------------ serve_ladder

/// Truth arrays a serving tier is built from and verified against.
pub struct ServeArrays {
    pub ranks: Vec<f64>,
    pub communities: Vec<u64>,
    pub adjacency: Vec<Vec<u64>>,
    pub embeddings: Vec<Vec<f32>>,
}

impl ServeArrays {
    pub fn truth(&self) -> GraphTruth {
        let mut t = GraphTruth::new(self.ranks.len() as u64);
        t.ranks = Some(self.ranks.clone());
        t.communities = Some(self.communities.clone());
        t.adjacency = Some(self.adjacency.clone());
        t.embeddings = Some(self.embeddings.clone());
        t
    }
}

pub const SERVE_SHARDS: usize = 4;

/// 4 shards × 2 replicas behind a 128 KiB hot-key cache: the Zipf working
/// set is larger than the cache, so both hits and misses are exercised.
pub fn serve_cluster(t: &Tracer, a: &ServeArrays, pool: &Arc<Pool>) -> Res<ServeCluster> {
    let cfg = ServeConfig {
        shards: SERVE_SHARDS,
        replicas_per_shard: 2,
        cache_budget: 128 << 10,
        ..ServeConfig::default()
    }
    .with_pool(Arc::clone(pool));
    t.span("serve.load", "serve", || {
        ServeCluster::from_arrays(
            Some(&a.ranks),
            Some(&a.communities),
            Some(&a.adjacency),
            Some(&a.embeddings),
            &cfg,
        )
    })
    .map_err(err("ServeCluster::from_arrays"))
}

/// One request of the open-loop stream.
#[derive(Debug, Clone)]
pub enum Req {
    Q(Query),
    P(Plan),
}

impl Req {
    pub fn is_point(&self) -> bool {
        matches!(
            self,
            Req::Q(
                Query::Rank(_) | Query::Community(_) | Query::Embedding(_) | Query::Neighbors(_)
            )
        )
    }
}

pub fn submit(
    t: &Tracer,
    c: &mut ServeCluster,
    idx: usize,
    at_ns: u64,
    req: &Req,
) -> Vec<(usize, Outcome)> {
    let at = SimTime::from_nanos(at_ns);
    match req {
        Req::Q(q) if req.is_point() => {
            let out = t.span("serve.point_miss", "serve", || {
                c.frontend_mut().submit(idx, at, *q)
            });
            // Only a cache hit answers the submitted query within its own
            // step; a miss is batched and resolves later.
            if out
                .iter()
                .any(|(i, o)| *i == idx && matches!(o, Outcome::Answered { cached: true, .. }))
            {
                t.rename_last("serve.point_hit");
            }
            out
        }
        Req::Q(q) => t.span("serve.submit_multi", "serve", || {
            c.frontend_mut().submit(idx, at, *q)
        }),
        Req::P(p) => t.span("query.submit_plan", "query", || {
            c.frontend_mut().submit_plan(idx, at, p)
        }),
    }
}

pub fn drain(t: &Tracer, c: &mut ServeCluster) -> Vec<(usize, Outcome)> {
    t.span("serve.drain", "serve", || c.frontend_mut().drain())
}

pub fn slo_p99_ns() -> u64 {
    SloPolicy::default().slo_p99.as_nanos()
}

/// Cumulative counters of a serving tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub rpcs: u64,
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub mailbox_dropped: u64,
    pub mailbox_retried: u64,
    pub plans: u64,
    pub pushed_plans: u64,
    pub shard_bytes: u64,
    pub rows_pruned: u64,
}

pub fn serve_counters(c: &ServeCluster) -> ServeCounters {
    let (dropped, retried) = c.replicas().iter().fold((0, 0), |(d, r), rep| {
        let q = rep.queue_counters();
        (d + q.dropped, r + q.retried)
    });
    let pc = c.frontend().plan_counters();
    let cache = c.frontend().cache();
    ServeCounters {
        rpcs: c.network().stats().rpcs(),
        bytes: c.network().stats().total_bytes(),
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
        mailbox_dropped: dropped,
        mailbox_retried: retried,
        plans: pc.plans,
        pushed_plans: pc.pushed_plans,
        shard_bytes: pc.shard_bytes,
        rows_pruned: pc.rows_pruned(),
    }
}

/// Shard statistics as the frontend's planner sees them.
pub fn tier_stats(c: &ServeCluster) -> TierStats {
    let mut shards: Vec<_> = c
        .replicas()
        .iter()
        .filter(|r| r.index() == 0)
        .map(|r| (r.shard(), r.data().stats()))
        .collect();
    shards.sort_by_key(|(s, _)| *s);
    TierStats {
        shards: shards.into_iter().map(|(_, s)| s).collect(),
    }
}

// ---------------------------------------------------------- stream_refresh

const SNAPSHOT_DIR: &str = "/stream/snapshot";

pub struct StreamDeploy {
    pub ps: Arc<Ps>,
    pub dfs: Dfs,
    /// The pipeline's clock: every maintenance and refresh cost lands here.
    pub client: NodeClock,
    /// Separate clock for the benchmark's own verification reads, so they
    /// never advance the pipeline's timeline.
    pub verify: NodeClock,
    pub ingest: ShardedIngestor,
    pr: IncrementalPageRank,
    pr_state: PrState,
    cc: IncrementalCc,
    pub cluster: ServeCluster,
    driver: RefreshDriver,
    n: u64,
}

/// What the live tier must answer with until the next swap.
pub struct Mirror {
    pub ranks: Vec<f64>,
    pub labels: Vec<u64>,
    pub adjacency: Vec<Vec<u64>>,
}

pub fn stream_deploy(
    t: &Tracer,
    base: &EdgeList,
    shards: usize,
    batch: usize,
    swap_every_batches: usize,
    pool: &Arc<Pool>,
) -> Res<StreamDeploy> {
    let n = base.num_vertices();
    let ps = Ps::new(PsConfig {
        pool: Some(Arc::clone(pool)),
        ..PsConfig::default()
    });
    let dfs = Dfs::in_memory();
    let client = NodeClock::new();
    let sim = || Some(client.now().as_nanos());

    let icfg = IngestConfig {
        prefix: "stream".into(),
        mailbox_cap: batch,
    };
    let ingest = ShardedIngestor::create(&ps, &icfg, n, shards).map_err(err("ingestor"))?;
    t.span_sim("stream.bootstrap", "stream", sim, || {
        ingest.bootstrap(&client, base.edges())
    })
    .map_err(err("bootstrap"))?;
    let pr = IncrementalPageRank::default();
    let mut pr_state = pr
        .create_state(&ps, "stream.pr", n)
        .map_err(err("pr state"))?;
    t.span_sim("core.incr_pagerank_init", "core", sim, || {
        pr.init_full(&mut pr_state, &client, ingest.adjacency())
    })
    .map_err(err("init_full"))?;
    let mut cc = IncrementalCc::create(&ps, "stream.cc", n).map_err(err("cc"))?;
    t.span_sim("core.incr_cc_bootstrap", "core", sim, || {
        cc.bootstrap(&client, ingest.adjacency())
    })
    .map_err(err("cc bootstrap"))?;

    let manifest = t.span_sim("ps.snapshot", "ps", sim, || -> Res<_> {
        let mut w = SnapshotWriter::new(&dfs, SNAPSHOT_DIR, &client);
        w.vector_f64(&pr_state.ranks)
            .map_err(err("snapshot ranks"))?;
        w.vector_u64(&cc.labels).map_err(err("snapshot labels"))?;
        w.neighbor_table(ingest.adjacency())
            .map_err(err("snapshot adjacency"))?;
        w.finish().map_err(err("snapshot finish"))
    })?;
    let objects = ObjectMap {
        ranks: Some("stream.pr.ranks".into()),
        communities: Some("stream.cc.labels".into()),
        embeddings: None,
        adjacency: Some("stream.adj".into()),
    };
    let scfg = ServeConfig::default().with_pool(Arc::clone(pool));
    let cluster = t
        .span_sim("serve.load", "serve", sim, || {
            ServeCluster::load(&dfs, SNAPSHOT_DIR, &objects, &scfg, &client)
        })
        .map_err(err("ServeCluster::load"))?;
    let driver = RefreshDriver::new(SNAPSHOT_DIR, manifest, RefreshConfig { swap_every_batches });
    Ok(StreamDeploy {
        ps,
        dfs,
        verify: NodeClock::new(),
        ingest,
        pr,
        pr_state,
        cc,
        cluster,
        driver,
        n,
        client,
    })
}

impl StreamDeploy {
    pub fn now_ns(&self) -> u64 {
        self.client.now().as_nanos()
    }

    /// Events cannot be processed before they exist.
    pub fn wait_until(&self, event_time_ns: u64) {
        self.client.sync_to(SimTime::from_nanos(event_time_ns));
    }

    /// Offer a micro-batch; returns how many offers were refused.
    pub fn offer(&mut self, t: &Tracer, events: &[EdgeEvent]) -> usize {
        t.span("stream.offer", "stream", || {
            events
                .iter()
                .filter(|ev| !self.ingest.offer(NodeId::Driver, **ev))
                .count()
        })
    }

    pub fn drain(&mut self, t: &Tracer) -> Res<BatchEffect> {
        t.span("stream.drain", "stream", || self.ingest.drain_all())
            .map_err(err("drain_all"))
    }

    pub fn maintain(&mut self, t: &Tracer, fx: &BatchEffect) -> Res<()> {
        let client = &self.client;
        let sim = || Some(client.now().as_nanos());
        let (pr, st, adj) = (&self.pr, &mut self.pr_state, self.ingest.adjacency());
        t.span_sim("core.incr_pagerank", "core", sim, || -> Res<()> {
            pr.on_batch(st, client, &fx.effects)
                .map_err(err("pr.on_batch"))?;
            pr.propagate(st, client, adj)
                .map(|_| ())
                .map_err(err("pr.propagate"))
        })?;
        let cc = &mut self.cc;
        t.span_sim("core.incr_cc", "core", sim, || {
            cc.on_batch(client, &fx.applied, adj)
        })
        .map(|_| ())
        .map_err(err("cc.on_batch"))
    }

    /// Tick the refresh cadence and publish when due (or when `force`d at
    /// the tail). Returns the swap record when a swap happened.
    pub fn refresh(&mut self, t: &Tracer, effective: bool, force: bool) -> Res<Option<SwapRecord>> {
        let due = self.driver.tick(effective);
        if !(due || (force && self.driver.batches_since_swap() > 0)) {
            return Ok(None);
        }
        let client = &self.client;
        t.span_sim(
            "stream.refresh",
            "stream",
            || Some(client.now().as_nanos()),
            || {
                self.driver.refresh(
                    &self.dfs,
                    client,
                    &mut self.cluster,
                    &self.pr_state.ranks,
                    &self.cc.labels,
                    self.ingest.adjacency(),
                    client.now(),
                )
            },
        )
        .map_err(err("refresh"))
    }

    pub fn lookup(&mut self, t: &Tracer, idx: usize, q: Query) -> Vec<(usize, Outcome)> {
        let at = self.client.now();
        t.span("serve.submit", "serve", || {
            self.cluster.frontend_mut().submit(idx, at, q)
        })
    }

    /// Capture the PS state the tier now serves (benchmark-side reads on
    /// the verification clock).
    pub fn capture(&self) -> Res<Mirror> {
        self.verify.sync_to(self.client.now());
        let ids: Vec<u64> = (0..self.n).collect();
        let adjacency = self
            .ingest
            .adjacency()
            .pull(&self.verify, &ids)
            .map_err(err("mirror adjacency"))?
            .into_iter()
            .map(|l| l.to_vec())
            .collect();
        Ok(Mirror {
            ranks: self
                .pr
                .ranks(&self.pr_state, &self.verify)
                .map_err(err("mirror ranks"))?,
            labels: self.cc.labels().to_vec(),
            adjacency,
        })
    }

    /// L-infinity distance between the maintained ranks and a from-scratch
    /// recompute over the final adjacency.
    pub fn pagerank_linf_vs_full(&self) -> Res<f64> {
        let mut full = self
            .pr
            .create_state(&self.ps, "stream.fullck", self.n)
            .map_err(err("full state"))?;
        self.pr
            .init_full(&mut full, &self.verify, self.ingest.adjacency())
            .map_err(err("init_full"))?;
        let inc = self
            .pr
            .ranks(&self.pr_state, &self.verify)
            .map_err(err("ranks"))?;
        let fr = self.pr.ranks(&full, &self.verify).map_err(err("ranks"))?;
        Ok(inc
            .iter()
            .zip(&fr)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    pub fn degrees(&self) -> Res<Vec<f64>> {
        let ids: Vec<u64> = (0..self.n).collect();
        self.ingest
            .degrees()
            .pull(&self.verify, &ids)
            .map_err(err("degrees"))
    }

    pub fn ingest_counts(&self) -> (u64, u64, u64) {
        let s = self.ingest.stats();
        (s.applied_adds + s.applied_removes, s.accepted, s.rejected)
    }

    pub fn ps_rpcs(&self) -> u64 {
        self.ps.network().stats().rpcs()
    }

    pub fn counters(&self, out: &mut Layer) {
        out.set("net.ps_rpcs", self.ps.network().stats().rpcs() as f64);
        out.set(
            "net.ps_bytes",
            self.ps.network().stats().total_bytes() as f64,
        );
        out.set("dfs.bytes_stored", self.dfs.total_bytes() as f64);
        out.set(
            "ps.resident_mb",
            self.ps.resident_bytes() as f64 / (1 << 20) as f64,
        );
    }
}

// ------------------------------------------------------------------ probes
// Isolated drives of one layer's public API, sized like a workload's
// inputs. Each returns `(wall seconds, simulated seconds)`.

fn timed<R>(clock: &NodeClock, f: impl FnOnce() -> R) -> (f64, f64, R) {
    let (s0, w0) = (clock.now(), std::time::Instant::now());
    let r = f();
    (
        w0.elapsed().as_secs_f64(),
        secs(clock.now().saturating_sub(s0)),
        r,
    )
}

pub fn probe_pool_map(pool: &Pool, items: usize) -> f64 {
    let w0 = std::time::Instant::now();
    let out = pool.map((0..items as u64).collect(), |x| std::hint::black_box(x + 1));
    std::hint::black_box(out);
    w0.elapsed().as_secs_f64()
}

pub fn probe_net_rpc(calls: usize) -> f64 {
    let net = Network::new(CostModel::default());
    let (client, port) = (NodeClock::new(), ServicePort::new(NodeId::Driver));
    let w0 = std::time::Instant::now();
    for _ in 0..calls {
        std::hint::black_box(net.rpc(&client, &port, 64, 16, 256));
    }
    w0.elapsed().as_secs_f64()
}

/// Write then read one blob; `(write wall, write sim, read wall, read sim)`.
pub fn probe_dfs(bytes: usize) -> Res<(f64, f64, f64, f64)> {
    let dfs = Dfs::in_memory();
    let clock = NodeClock::new();
    let blob: Vec<u8> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
    let (ww, ws, w) = timed(&clock, || dfs.write("/probe/blob", &blob, &clock));
    w.map_err(err("dfs write"))?;
    let (rw, rs, r) = timed(&clock, || dfs.read("/probe/blob", &clock));
    let back = r.map_err(err("dfs read"))?;
    if back.len() != bytes {
        return Err("dfs probe read back a different length".into());
    }
    Ok((ww, ws, rw, rs))
}

/// `to_neighbor_tables` over an edge RDD; `(wall, sim, spark bytes moved)`.
pub fn probe_groupby(g: &EdgeList, scale: f64, pool: &Arc<Pool>) -> Res<(f64, f64, f64)> {
    let ctx = psgraph_context(Dataset::Ds1, scale, Alloc::PSGRAPH_DS1, pool);
    let edges = distribute_edges(&ctx, g, PARTITIONS).map_err(err("distribute_edges"))?;
    let bytes0 = ctx.cluster().network().stats().total_bytes();
    let (s0, w0) = (ctx.now(), std::time::Instant::now());
    let tables = to_neighbor_tables(&edges).map_err(err("to_neighbor_tables"))?;
    let wall = w0.elapsed().as_secs_f64();
    std::hint::black_box(tables.num_partitions());
    let bytes = ctx.cluster().network().stats().total_bytes() - bytes0;
    Ok((wall, secs(ctx.now().saturating_sub(s0)), bytes as f64))
}

/// Vector pull then push-add of every id in 4 k chunks;
/// `(pull wall, pull sim, push wall, push sim)`.
pub fn probe_ps_vector(n: u64, pool: &Arc<Pool>) -> Res<(f64, f64, f64, f64)> {
    let ps = Ps::new(PsConfig {
        servers: SIM_SERVERS,
        pool: Some(Arc::clone(pool)),
        ..PsConfig::default()
    });
    let v = VectorHandle::<f64>::create(
        &ps,
        "probe.v",
        n,
        Partitioner::Range,
        RecoveryMode::Inconsistent,
    )
    .map_err(err("probe vector"))?;
    let clock = NodeClock::new();
    let ids: Vec<u64> = (0..n).collect();
    let ones = vec![1.0; 4096];
    let (pw, psim, r) = timed(&clock, || -> Res<()> {
        for chunk in ids.chunks(4096) {
            std::hint::black_box(v.pull(&clock, chunk).map_err(err("pull"))?);
        }
        Ok(())
    });
    r?;
    let (uw, usim, r) = timed(&clock, || -> Res<()> {
        for chunk in ids.chunks(4096) {
            v.push_add(&clock, chunk, &ones[..chunk.len()])
                .map_err(err("push_add"))?;
        }
        Ok(())
    });
    r?;
    Ok((pw, psim, uw, usim))
}

/// Server-side `dot_pairs` over `pairs` row pairs of two `n × dim` matrices.
pub fn probe_psfunc(n: u64, dim: usize, pairs: &[(u64, u64)], pool: &Arc<Pool>) -> Res<(f64, f64)> {
    let ps = Ps::new(PsConfig {
        servers: SIM_SERVERS,
        pool: Some(Arc::clone(pool)),
        ..PsConfig::default()
    });
    let clock = NodeClock::new();
    let a = ColMatrixHandle::create(&ps, "probe.a", n, dim, RecoveryMode::Inconsistent)
        .map_err(err("matrix"))?;
    let b = ColMatrixHandle::create(&ps, "probe.b", n, dim, RecoveryMode::Inconsistent)
        .map_err(err("matrix"))?;
    a.init_uniform(&clock, 1, 0.5).map_err(err("init"))?;
    b.init_uniform(&clock, 2, 0.5).map_err(err("init"))?;
    let (w, s, r) = timed(&clock, || a.dot_pairs(&clock, &b, pairs));
    std::hint::black_box(r.map_err(err("dot_pairs"))?);
    Ok((w, s))
}

/// `add_edges` then `remove_edges` of `edges` on a table holding `base`.
pub fn probe_adj_update(
    base: &EdgeList,
    edges: &[(u64, u64)],
    pool: &Arc<Pool>,
) -> Res<(f64, f64)> {
    let ps = Ps::new(PsConfig {
        pool: Some(Arc::clone(pool)),
        ..PsConfig::default()
    });
    let clock = NodeClock::new();
    let table = NeighborTableHandle::create(
        &ps,
        "probe.adj",
        base.num_vertices(),
        Partitioner::Range,
        RecoveryMode::Inconsistent,
    )
    .map_err(err("table"))?;
    table
        .add_edges(&clock, base.edges())
        .map_err(err("seed table"))?;
    let (w, s, r) = timed(&clock, || -> Res<()> {
        table.add_edges(&clock, edges).map_err(err("add_edges"))?;
        table
            .remove_edges(&clock, edges)
            .map(|_| ())
            .map_err(err("remove_edges"))
    });
    r?;
    Ok((w, s))
}

/// GraphSage-shaped step on the tensor runtime alone: two linear layers
/// with ReLU over `[batch × 2·feat]`, softmax cross-entropy, backward, and
/// an SGD-style update of the weights. Returns wall seconds per step.
pub fn probe_tensor(batch: usize, feat: usize, hidden: usize, steps: usize) -> f64 {
    let mut l1 = Linear::new(2 * feat, hidden, 1);
    let mut l2 = Linear::new(hidden, 2, 2);
    let x = Tensor::uniform(batch, 2 * feat, 1.0, 3);
    let labels: Vec<usize> = (0..batch).map(|i| i % 2).collect();
    let w0 = std::time::Instant::now();
    for _ in 0..steps {
        let mut g = Graph::new();
        let xin = g.input(x.clone());
        let (h, w1, b1) = l1.forward(&mut g, xin);
        let h = g.relu(h);
        let (logits, w2, b2) = l2.forward(&mut g, h);
        let loss = g.softmax_cross_entropy(logits, &labels);
        g.backward(loss);
        std::hint::black_box(g.scalar(loss));
        for (layer, w, b) in [(&mut l1, w1, b1), (&mut l2, w2, b2)] {
            let mut flat = layer.to_flat();
            let grads = g
                .grad(w)
                .into_iter()
                .chain(g.grad(b))
                .flat_map(|t| t.data().iter());
            for (p, gr) in flat.iter_mut().zip(grads) {
                *p -= 0.01 * gr;
            }
            *layer = Linear::from_flat(layer.in_dim(), layer.out_dim(), &flat);
        }
    }
    w0.elapsed().as_secs_f64() / steps as f64
}

pub fn probe_decide(plan: &Plan, stats: &TierStats, calls: usize) -> f64 {
    let w0 = std::time::Instant::now();
    for _ in 0..calls {
        std::hint::black_box(decide(plan, stats, PushPolicy::Auto));
    }
    w0.elapsed().as_secs_f64() / calls as f64
}
