//! GraphSage on PSGraph (paper §IV-E, Fig. 5, Table I).
//!
//! PS state: vertex features `X` (row matrix, hash-partitioned), the
//! neighbor table `A`, and the layer weights `W¹`/`W²` (+bias rows). Each
//! training step an executor (1) pulls the current weights, (2) samples
//! 2-hop neighborhoods server-side, (3) pulls the sampled vertices'
//! features, (4) crosses the JNI bridge into the tensor runtime — the
//! features plus each layer's select / mean operators as CSR index
//! structures, never dense `|L1| × |L2|` matrices — and runs forward +
//! backward with autograd, (5) crosses back and pushes the
//! gradients to the PS, where an Adam psFunc applies them. The mean
//! aggregator is used; layer k computes
//! `h^k_v = σ(W^k · concat(h^{k-1}_v, mean h^{k-1}_{N(v)}))`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{MatrixHandle, NeighborTableHandle, Partitioner, RecoveryMode};
use psgraph_sim::SimTime;
use psgraph_tensor::{Columns, Graph, JniBridge, Linear, SageBatch, SageOps, Tensor, Var};

use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::{CoreError, Result};

/// GraphSage job configuration.
#[derive(Debug, Clone)]
pub struct GraphSageConfig {
    pub feat_dim: usize,
    pub hidden_dim: usize,
    pub num_classes: usize,
    /// Neighbors sampled at hop 1 (paper uses 25, scaled here).
    pub fanout1: usize,
    /// Neighbors sampled at hop 2 (paper uses 10, scaled here).
    pub fanout2: usize,
    pub batch_size: usize,
    pub epochs: u64,
    pub lr: f32,
    pub seed: u64,
    /// Fraction of vertices used for training (rest evaluate).
    pub train_fraction: f64,
}

impl Default for GraphSageConfig {
    fn default() -> Self {
        GraphSageConfig {
            feat_dim: 16,
            hidden_dim: 32,
            num_classes: 2,
            fanout1: 10,
            fanout2: 5,
            batch_size: 64,
            epochs: 3,
            lr: 0.01,
            seed: 7,
            train_fraction: 0.7,
        }
    }
}

/// GraphSage runner.
#[derive(Debug, Clone, Default)]
pub struct GraphSage {
    pub config: GraphSageConfig,
}

/// Result: accuracies, per-epoch losses and simulated epoch times, plus
/// the preprocessing time Table I compares against Euler.
#[derive(Debug, Clone)]
pub struct GraphSageOutput {
    pub train_accuracy: f64,
    pub test_accuracy: f64,
    pub loss_per_epoch: Vec<f64>,
    pub preprocess_time: SimTime,
    pub epoch_times: Vec<SimTime>,
    pub stats: RunStats,
}

/// PS handles produced by preprocessing.
pub struct GraphSageModels {
    pub adj: NeighborTableHandle,
    pub features: MatrixHandle<f32>,
    pub w1: MatrixHandle<f32>,
    pub w2: MatrixHandle<f32>,
}

fn is_train(v: u64, seed: u64, frac: f64) -> bool {
    (psgraph_sim::hash::hash_u64(v ^ seed) % 1000) as f64 / 1000.0 < frac
}

impl GraphSage {
    pub fn new(config: GraphSageConfig) -> Self {
        GraphSage { config }
    }

    /// Preprocessing (Table I "Preprocessing time"): groupBy the edges to
    /// neighbor tables, push adjacency + features to the PS, and create
    /// the weight matrices — all inside the Spark pipeline, no disk
    /// round-trips.
    pub fn preprocess(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        features: &Arc<Vec<Vec<f32>>>,
        num_vertices: u64,
    ) -> Result<(GraphSageModels, SimTime)> {
        let cfg = &self.config;
        let t0 = ctx.now();

        // Undirected adjacency via a pipelined symmetrize + groupBy
        // (in-shuffle dedup).
        let tables = crate::runner::to_undirected_neighbor_tables(edges)?;
        let adj = NeighborTableHandle::create(
            ctx.ps(), "gs.adj", num_vertices, Partitioner::Hash, RecoveryMode::Inconsistent,
        )?;
        let adj_ref = &adj;
        ctx.cluster()
            .run_stage(tables.num_partitions(), |p, exec| {
                let part = tables.partition(p)?;
                if !part.is_empty() {
                    adj_ref.push(exec.clock(), &part).df()?;
                }
                Ok(())
            })
            .map_err(CoreError::from)?;

        // Features: executors push their split of X to the PS.
        let x = MatrixHandle::<f32>::create_row_split(
            ctx.ps(), "gs.x", num_vertices, cfg.feat_dim, Partitioner::Hash,
            RecoveryMode::Inconsistent,
        )?;
        let x_ref = &x;
        let feats = Arc::clone(features);
        let nparts = ctx.cluster().default_partitions();
        ctx.cluster()
            .run_stage(nparts, move |p, exec| {
                let ids: Vec<u64> = (0..num_vertices).filter(|v| *v as usize % nparts == p).collect();
                let rows: Vec<Vec<f32>> =
                    ids.iter().map(|&v| feats[v as usize].clone()).collect();
                if !ids.is_empty() {
                    x_ref.push_set_rows(exec.clock(), &ids, &rows).df()?;
                }
                Ok(())
            })
            .map_err(CoreError::from)?;

        // Weight matrices: W¹ is (2f+1) × h (weights + bias row), W² is
        // (2h+1) × classes. The driver loads the "PyTorch model" and
        // pushes the initialized weights (Fig. 5 step 2).
        let w1 = MatrixHandle::<f32>::create_row_split(
            ctx.ps(), "gs.w1", (2 * cfg.feat_dim + 1) as u64, cfg.hidden_dim,
            Partitioner::Range, RecoveryMode::Inconsistent,
        )?;
        let w2 = MatrixHandle::<f32>::create_row_split(
            ctx.ps(), "gs.w2", (2 * cfg.hidden_dim + 1) as u64, cfg.num_classes,
            Partitioner::Range, RecoveryMode::Inconsistent,
        )?;
        let l1 = Linear::new(2 * cfg.feat_dim, cfg.hidden_dim, cfg.seed);
        let l2 = Linear::new(2 * cfg.hidden_dim, cfg.num_classes, cfg.seed ^ 1);
        push_layer(ctx, &w1, &l1)?;
        push_layer(ctx, &w2, &l2)?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);

        let elapsed = ctx.now().saturating_sub(t0);
        Ok((GraphSageModels { adj, features: x, w1, w2 }, elapsed))
    }

    /// Full pipeline: preprocess, train, evaluate.
    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        features: &Arc<Vec<Vec<f32>>>,
        labels: &Arc<Vec<usize>>,
        num_vertices: u64,
    ) -> Result<GraphSageOutput> {
        let cfg = &self.config;
        if features.len() as u64 != num_vertices || labels.len() as u64 != num_vertices {
            return Err(CoreError::Invalid("features/labels must cover all vertices".into()));
        }
        let start = ctx.now();
        let snap = ctx.net_snapshot();
        let mut supersteps = 0u64;

        let _objects = super::PsObjects::new(
            ctx,
            &["gs.adj", "gs.x", "gs.w1", "gs.w2", "gs.w1.m", "gs.w1.v", "gs.w2.m", "gs.w2.v"],
        );
        let (models, preprocess_time) = self.preprocess(ctx, edges, features, num_vertices)?;
        supersteps += 1;

        // Vertex splits, distributed round-robin over executors.
        let train: Vec<u64> = (0..num_vertices)
            .filter(|&v| is_train(v, cfg.seed, cfg.train_fraction))
            .collect();
        let test: Vec<u64> =
            (0..num_vertices).filter(|&v| !is_train(v, cfg.seed, cfg.train_fraction)).collect();
        let train_rdd =
            Rdd::from_vec(ctx.cluster(), train.clone(), ctx.cluster().default_partitions())
                .map_err(CoreError::from)?;

        let bridge = Arc::new(JniBridge::new(ctx.cost().clone()));
        let adam_t = Arc::new(AtomicU64::new(0));

        let mut loss_per_epoch = Vec::new();
        let mut epoch_times = Vec::new();
        let recover = || Ok(train_rdd.recover()?);
        let epochs = super::superstep::supersteps(ctx, supersteps, cfg.epochs, recover, || {
            let epoch = loss_per_epoch.len() as u64;
            let e0 = ctx.now();

            let models_ref = &models;
            let bridge_ref = &bridge;
            let adam_ref = &adam_t;
            let labels_ref = labels;
            let losses: Vec<(f64, u64)> = ctx
                .cluster()
                .run_stage(train_rdd.num_partitions(), |p, exec| {
                    let part = train_rdd.partition(p)?;
                    let mut loss_sum = 0.0;
                    let mut batches = 0u64;
                    for (bi, batch) in part.chunks(cfg.batch_size.max(1)).enumerate() {
                        // Fig. 5 step 4a: pull the current weights.
                        let l1 = pull_layer(exec.clock(), &models_ref.w1, 2 * cfg.feat_dim)?;
                        let l2 = pull_layer(exec.clock(), &models_ref.w2, 2 * cfg.hidden_dim)?;
                        let sample_seed =
                            cfg.seed ^ (epoch << 40) ^ ((p as u64) << 20) ^ bi as u64;
                        let (mut g, logits, vars) = forward_batch(
                            ctx, exec, bridge_ref, models_ref, batch, cfg, sample_seed, &l1, &l2,
                            3, // forward + backward
                        )?;
                        let y: Vec<usize> =
                            batch.iter().map(|&v| labels_ref[v as usize]).collect();
                        let loss = g.softmax_cross_entropy(logits, &y);
                        g.backward(loss);
                        loss_sum += g.scalar(loss) as f64;
                        batches += 1;

                        // Fig. 5: gradients cross back over JNI, then go
                        // to the PS where Adam (psFunc) applies them.
                        let gw1 = layer_grads(&g, vars[0], vars[1]);
                        let gw2 = layer_grads(&g, vars[2], vars[3]);
                        bridge_ref.read_back(exec.clock(), &[&gw1.0, &gw1.1, &gw2.0, &gw2.1]);
                        let t = adam_ref.fetch_add(1, Ordering::Relaxed) + 1;
                        push_grads(exec.clock(), &models_ref.w1, &gw1, cfg.lr, t)?;
                        push_grads(exec.clock(), &models_ref.w2, &gw2, cfg.lr, t)?;
                    }
                    Ok((loss_sum, batches))
                })
                .map_err(CoreError::from)?;

            let (lsum, bsum) = losses.into_iter().fold((0.0, 0), |(l, b), (pl, pb)| {
                (l + pl, b + pb)
            });
            loss_per_epoch.push(if bsum == 0 { 0.0 } else { lsum / bsum as f64 });
            epoch_times.push(ctx.now().saturating_sub(e0));
            Ok(1) // every epoch runs
        })?;
        supersteps += epochs;

        // Evaluation (driver-coordinated, same forward path).
        let train_accuracy = self.evaluate(ctx, &models, &train, labels)?;
        let test_accuracy = self.evaluate(ctx, &models, &test, labels)?;
        supersteps += 1;

        Ok(GraphSageOutput {
            train_accuracy,
            test_accuracy,
            loss_per_epoch,
            preprocess_time,
            epoch_times,
            stats: ctx.stats_since(start, snap, supersteps),
        })
    }

    /// Forward-only accuracy over `vertices`. Nothing writes the weights
    /// while this runs, so each executor pulls them once for all of its
    /// partitions; every batch pays the JNI feed and one forward pass.
    pub fn evaluate(
        &self,
        ctx: &Arc<PsGraphContext>,
        models: &GraphSageModels,
        vertices: &[u64],
        labels: &Arc<Vec<usize>>,
    ) -> Result<f64> {
        if vertices.is_empty() {
            return Ok(0.0);
        }
        let cfg = &self.config;
        let bridge = JniBridge::new(ctx.cost().clone());
        let rdd = Rdd::from_vec(
            ctx.cluster(),
            vertices.to_vec(),
            ctx.cluster().default_partitions(),
        )
        .map_err(CoreError::from)?;
        let correct: Vec<u64> = ctx
            .cluster()
            .run_executors(rdd.num_partitions(), |exec, parts| {
                let l1 = pull_layer(exec.clock(), &models.w1, 2 * cfg.feat_dim)?;
                let l2 = pull_layer(exec.clock(), &models.w2, 2 * cfg.hidden_dim)?;
                let mut correct = 0u64;
                for &p in parts {
                    let part = rdd.partition(p)?;
                    for (bi, batch) in part.chunks(cfg.batch_size.max(1)).enumerate() {
                        let seed = cfg.seed ^ 0xEAA ^ ((p as u64) << 20) ^ bi as u64;
                        let (g, logits, _) = forward_batch(
                            ctx, exec, &bridge, models, batch, cfg, seed, &l1, &l2, 1,
                        )?;
                        let preds = g.value(logits).argmax_rows();
                        correct += preds
                            .iter()
                            .zip(batch)
                            .filter(|&(pred, &v)| *pred == labels[v as usize])
                            .count() as u64;
                    }
                }
                Ok(correct)
            })
            .map_err(CoreError::from)?;
        Ok(correct.iter().sum::<u64>() as f64 / vertices.len() as f64)
    }
}

/// Push a layer's parameters to its PS matrix (weight rows, then bias).
fn push_layer(
    ctx: &Arc<PsGraphContext>,
    m: &MatrixHandle<f32>,
    layer: &Linear,
) -> Result<()> {
    let rows: Vec<u64> = (0..m.rows()).collect();
    let mut data: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
    for r in 0..layer.in_dim() {
        data.push(layer.weight.row(r).to_vec());
    }
    data.push(layer.bias.data().to_vec());
    m.push_set_rows(ctx.cluster().driver(), &rows, &data)?;
    Ok(())
}

/// Pull a layer from its PS matrix.
fn pull_layer(
    clock: &psgraph_sim::NodeClock,
    m: &MatrixHandle<f32>,
    in_dim: usize,
) -> std::result::Result<Linear, psgraph_dataflow::DataflowError> {
    let rows: Vec<u64> = (0..m.rows()).collect();
    let data = m.pull_rows(clock, &rows).df()?;
    let out_dim = m.cols();
    let mut flat = Vec::with_capacity((in_dim + 1) * out_dim);
    for row in &data {
        flat.extend_from_slice(row);
    }
    Ok(Linear::from_flat(in_dim, out_dim, &flat))
}

/// Extract (weight grad, bias grad) tensors for a layer's vars.
fn layer_grads(g: &Graph, wv: Var, bv: Var) -> (Tensor, Tensor) {
    (
        g.grad(wv).cloned().unwrap_or_else(|| Tensor::zeros(1, 1)),
        g.grad(bv).cloned().unwrap_or_else(|| Tensor::zeros(1, 1)),
    )
}

/// Push a layer's gradients to the PS and apply Adam server-side.
fn push_grads(
    clock: &psgraph_sim::NodeClock,
    m: &MatrixHandle<f32>,
    grads: &(Tensor, Tensor),
    lr: f32,
    t: u64,
) -> std::result::Result<(), psgraph_dataflow::DataflowError> {
    let (gw, gb) = grads;
    let mut rows: Vec<u64> = (0..gw.rows() as u64).collect();
    rows.push(m.rows() - 1);
    let mut data: Vec<Vec<f32>> = (0..gw.rows()).map(|r| gw.row(r).to_vec()).collect();
    data.push(gb.data().to_vec());
    m.adam_step(clock, &rows, &data, lr, 0.9, 0.999, 1e-8, t).df()?;
    Ok(())
}

/// Fig. 5 steps 3–4 for one mini-batch: sample and pull its closure, feed
/// it over the JNI bridge and run the forward pass. The executor is
/// charged `passes` × the forward flops (3 when a backward pass follows).
#[allow(clippy::too_many_arguments)]
fn forward_batch(
    ctx: &Arc<PsGraphContext>,
    exec: &psgraph_dataflow::Executor,
    bridge: &JniBridge,
    models: &GraphSageModels,
    batch: &[u64],
    cfg: &GraphSageConfig,
    seed: u64,
    l1: &Linear,
    l2: &Linear,
    passes: u64,
) -> std::result::Result<(Graph, Var, [Var; 4]), psgraph_dataflow::DataflowError> {
    let b = build_batch(ctx, exec, models, batch, cfg, seed)?;
    bridge.feed(exec.clock(), b.byte_size());
    let mut g = Graph::new();
    let (logits, vars) = b.forward(&mut g, l1, l2);
    let flops = (b.x.len() * cfg.hidden_dim
        + b.layer1.rows() * 2 * cfg.feat_dim * cfg.hidden_dim
        + b.layer2.rows() * 2 * cfg.hidden_dim * cfg.num_classes) as u64;
    exec.charge_cpu(ctx.cluster().cost(), flops * passes);
    Ok((g, logits, vars))
}

/// Assemble the mini-batch: features `X` of the 2-hop closure and the
/// select / mean operators of each layer.
fn build_batch(
    ctx: &Arc<PsGraphContext>,
    exec: &psgraph_dataflow::Executor,
    models: &GraphSageModels,
    batch: &[u64],
    cfg: &GraphSageConfig,
    seed: u64,
) -> std::result::Result<SageBatch, psgraph_dataflow::DataflowError> {
    // Hop-1 sampling (server-side, only samples cross the wire).
    let n1 = models.adj.sample_neighbors(exec.clock(), batch, cfg.fanout1, seed).df()?;
    // Layer-1 targets: batch ∪ their sampled neighbors, each numbered once.
    let mut l1 = Columns::default();
    let batch_cols: Vec<usize> = batch.iter().map(|&v| l1.insert(v)).collect();
    let n1_cols = columns_of(&mut l1, &n1);
    // Hop-2 sampling for every layer-1 target.
    let n2 = models
        .adj
        .sample_neighbors(exec.clock(), l1.ids(), cfg.fanout2, seed ^ 0x2).df()?;
    let mut l2 = l1.clone();
    let n2_cols = columns_of(&mut l2, &n2);

    // Pull features of the closure.
    let rows = models.features.pull_rows(exec.clock(), l2.ids()).df()?;
    let mut x = Tensor::zeros(l2.len(), cfg.feat_dim);
    for (r, row) in rows.iter().enumerate() {
        x.row_mut(r).copy_from_slice(row);
    }

    // One operator row per target: its own column among the layer below
    // (in `l2` a layer-1 target keeps its `l1` column), and its sampled
    // neighbors' columns.
    let layer1 = SageOps::new(l2.len(), n2_cols.into_iter().enumerate());
    let layer2 = SageOps::new(l1.len(), batch_cols.into_iter().zip(n1_cols));
    exec.charge_cpu(
        ctx.cluster().cost(),
        (l2.len() * cfg.feat_dim + l1.len() + batch.len()) as u64 * 2,
    );
    Ok(SageBatch { x, layer1, layer2 })
}

/// Number every id of `sampled` in `cols`: each list's columns.
fn columns_of(cols: &mut Columns, sampled: &[Vec<u64>]) -> Vec<Vec<usize>> {
    sampled.iter().map(|ns| ns.iter().map(|&v| cols.insert(v)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::gen;

    type Setup = (Arc<PsGraphContext>, Rdd<(u64, u64)>, Arc<Vec<Vec<f32>>>, Arc<Vec<usize>>);

    fn sbm_setup(n: u64) -> Setup {
        let s = gen::sbm2(n, 8.0, 0.5, 16, 0.8, 77);
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &s.graph, 8).unwrap();
        (ctx, edges, Arc::new(s.features), Arc::new(s.labels))
    }

    #[test]
    fn learns_sbm_classification() {
        let (ctx, edges, feats, labels) = sbm_setup(300);
        let out = GraphSage::new(GraphSageConfig { epochs: 4, ..Default::default() })
            .run(&ctx, &edges, &feats, &labels, 300)
            .unwrap();
        assert!(
            out.test_accuracy > 0.85,
            "test accuracy {} too low",
            out.test_accuracy
        );
        assert!(out.train_accuracy > 0.85);
        assert!(out.loss_per_epoch.last().unwrap() < &out.loss_per_epoch[0]);
        assert_eq!(out.epoch_times.len(), 4);
        assert!(out.preprocess_time > SimTime::ZERO);
        assert!(out.epoch_times.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn preprocess_reports_time_and_creates_models() {
        let (ctx, edges, feats, _labels) = sbm_setup(100);
        let gs = GraphSage::default();
        let (models, t) = gs.preprocess(&ctx, &edges, &feats, 100).unwrap();
        assert!(t > SimTime::ZERO);
        assert!(models.adj.len().unwrap() > 0);
        assert_eq!(models.features.rows(), 100);
        assert_eq!(models.w1.rows() as usize, 2 * 16 + 1);
        assert_eq!(models.w2.cols(), 2);
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (ctx, edges, feats, labels) = sbm_setup(100);
        let err = GraphSage::default()
            .run(&ctx, &edges, &feats, &labels, 200)
            .unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
    }

    #[test]
    fn train_test_split_is_stable_and_covering() {
        let train: Vec<bool> = (0..1000).map(|v| is_train(v, 7, 0.7)).collect();
        let again: Vec<bool> = (0..1000).map(|v| is_train(v, 7, 0.7)).collect();
        assert_eq!(train, again);
        let n_train = train.iter().filter(|&&b| b).count();
        assert!((600..800).contains(&n_train), "split {n_train}");
    }

    #[test]
    fn survives_executor_failure_during_training() {
        use psgraph_sim::{FaultSchedule, FaultSite};
        let (ctx, edges, feats, labels) = sbm_setup(200);
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 2, 1)]);
        ctx.attach_chaos(chaos.clone());
        let out = GraphSage::new(GraphSageConfig { epochs: 3, ..Default::default() })
            .run(&ctx, &edges, &feats, &labels, 200)
            .unwrap();
        assert_eq!(chaos.stats().crashes, 1);
        assert!(out.test_accuracy > 0.7, "accuracy {}", out.test_accuracy);
    }
}
