//! Euler GraphSage training: data-parallel workers querying the graph
//! service per vertex, with worker-local Adam and synchronous weight
//! averaging per epoch.

use std::sync::Arc;

use psgraph_sim::{stage, FxHashMap, NodeClock, SimTime, SplitMix64};
use psgraph_tensor::{Adam, Columns, Graph, Linear, Optimizer, SageBatch, SageOps, Tensor};

use crate::cluster::EulerCluster;
use crate::preprocess::EulerGraph;

/// Euler training configuration (mirrors PSGraph's GraphSage config).
#[derive(Debug, Clone)]
pub struct EulerConfig {
    pub workers: usize,
    pub shards: usize,
    pub feat_dim: usize,
    pub hidden_dim: usize,
    pub num_classes: usize,
    pub fanout1: usize,
    pub fanout2: usize,
    pub batch_size: usize,
    pub epochs: u64,
    pub lr: f32,
    pub seed: u64,
    pub train_fraction: f64,
}

impl Default for EulerConfig {
    fn default() -> Self {
        EulerConfig {
            workers: 2,
            shards: 2,
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

/// Euler training result.
#[derive(Debug, Clone)]
pub struct EulerOutput {
    pub train_accuracy: f64,
    pub test_accuracy: f64,
    pub loss_per_epoch: Vec<f64>,
    pub epoch_times: Vec<SimTime>,
}

fn is_train(v: u64, seed: u64, frac: f64) -> bool {
    (psgraph_sim::hash::hash_u64(v ^ seed) % 1000) as f64 / 1000.0 < frac
}

/// Sample up to `k` neighbors without replacement (worker-side: Euler
/// already fetched the full adjacency with the vertex query).
fn sample_k(ns: &[u64], k: usize, rng: &mut SplitMix64) -> Vec<u64> {
    if ns.len() <= k {
        return ns.to_vec();
    }
    let mut idx: Vec<usize> = (0..ns.len()).collect();
    for i in 0..k {
        let j = i + rng.next_below((idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| ns[i]).collect()
}

struct Model {
    l1: Linear,
    l2: Linear,
}

impl Model {
    fn new(cfg: &EulerConfig) -> Self {
        Model {
            l1: Linear::new(2 * cfg.feat_dim, cfg.hidden_dim, cfg.seed),
            l2: Linear::new(2 * cfg.hidden_dim, cfg.num_classes, cfg.seed ^ 1),
        }
    }
}

/// What a vertex query returned: full adjacency and features.
type VertexCache = FxHashMap<u64, (Vec<u64>, Vec<f32>)>;

/// Per-vertex service queries for the 2-hop closure of `batch`. Every
/// vertex costs one full RPC round trip (Euler's per-sample access).
/// Returns the layer-1 targets, the closure and what the queries fetched.
fn fetch_closure(
    cluster: &EulerCluster,
    worker: usize,
    batch: &[u64],
    cfg: &EulerConfig,
    seed: u64,
) -> (Columns, Columns, VertexCache) {
    let mut rng = SplitMix64::new(seed);
    let mut cache = VertexCache::default();
    let fetch = |v: u64, cache: &mut VertexCache| {
        cache.entry(v).or_insert_with(|| cluster.query_vertex(worker, v));
    };
    let mut l1 = Columns::default();
    l1.extend(batch.iter().copied());
    for &v in batch {
        fetch(v, &mut cache);
        l1.extend(sample_k(&cache[&v].0, cfg.fanout1, &mut rng));
    }
    let mut l2 = l1.clone();
    for &v in l1.ids() {
        fetch(v, &mut cache);
        for u in sample_k(&cache[&v].0, cfg.fanout2, &mut rng) {
            fetch(u, &mut cache);
            l2.insert(u);
        }
    }
    (l1, l2, cache)
}

/// The mini-batch as the tensor runtime takes it: closure features, and
/// per layer one operator row per target over freshly sampled neighbors
/// (those outside the closure are dropped).
fn build_batch(
    batch: &[u64],
    l1: &Columns,
    l2: &Columns,
    cache: &VertexCache,
    cfg: &EulerConfig,
    seed: u64,
) -> SageBatch {
    let mut rng = SplitMix64::new(seed ^ 0x7EA);
    let mut x = Tensor::zeros(l2.len(), cfg.feat_dim);
    for (r, v) in l2.ids().iter().enumerate() {
        if let Some((_, f)) = cache.get(v) {
            if f.len() == cfg.feat_dim {
                x.row_mut(r).copy_from_slice(f);
            }
        }
    }
    let mut ops = |below: &Columns, targets: &[u64], fanout: usize| {
        SageOps::new(
            below.len(),
            targets.iter().map(|v| {
                let own = below.get(*v).expect("a target is a row of the layer below");
                let sampled = sample_k(&cache[v].0, fanout, &mut rng);
                (own, sampled.into_iter().filter_map(|u| below.get(u)).collect())
            }),
        )
    };
    let layer1 = ops(l2, l1.ids(), cfg.fanout2);
    let layer2 = ops(l1, batch, cfg.fanout1);
    SageBatch { x, layer1, layer2 }
}

/// Run Euler's GraphSage training end to end on an already-loaded cluster.
pub fn train(
    cluster: &EulerCluster,
    graph: &Arc<EulerGraph>,
    cfg: &EulerConfig,
) -> EulerOutput {
    let n = graph.num_vertices;
    let train_v: Vec<u64> = (0..n).filter(|&v| is_train(v, cfg.seed, cfg.train_fraction)).collect();
    let test_v: Vec<u64> = (0..n).filter(|&v| !is_train(v, cfg.seed, cfg.train_fraction)).collect();

    // Worker replicas + local optimizers.
    let mut models: Vec<Model> = (0..cfg.workers).map(|_| Model::new(cfg)).collect();
    let mut opts: Vec<Adam> = (0..cfg.workers).map(|_| Adam::new(cfg.lr)).collect();

    let clients: Vec<&NodeClock> = (0..cluster.num_workers()).map(|w| cluster.worker(w)).collect();
    let mut loss_per_epoch = Vec::new();
    let mut epoch_times = Vec::new();
    for epoch in 0..cfg.epochs {
        let e0 = cluster.clock().now();
        let mut loss_sum = 0.0;
        let mut batches = 0u64;
        let mut train_worker = |w: usize, model: &mut Model, opt: &mut Adam| {
            let mine: Vec<u64> = train_v
                .iter()
                .copied()
                .filter(|v| (*v as usize) % cfg.workers == w)
                .collect();
            for (bi, batch) in mine.chunks(cfg.batch_size.max(1)).enumerate() {
                let seed = cfg.seed ^ (epoch << 32) ^ ((w as u64) << 16) ^ bi as u64;
                let (l1, l2, cache) = fetch_closure(cluster, w, batch, cfg, seed);
                let b = build_batch(batch, &l1, &l2, &cache, cfg, seed);
                // Worker-side compute.
                let flops = (b.x.len() * cfg.hidden_dim) as u64 * 6;
                cluster
                    .worker(w)
                    .advance(cluster.network().cost_model().cpu_cost(flops));
                let mut g = Graph::new();
                let (logits, [w1, b1, w2, b2]) = b.forward(&mut g, &model.l1, &model.l2);
                let y: Vec<usize> = batch.iter().map(|&v| graph.labels[v as usize]).collect();
                let loss = g.softmax_cross_entropy(logits, &y);
                g.backward(loss);
                loss_sum += g.scalar(loss) as f64;
                batches += 1;
                let gw1 = g.grad(w1).unwrap().clone();
                let gb1 = g.grad(b1).unwrap().clone();
                let gw2 = g.grad(w2).unwrap().clone();
                let gb2 = g.grad(b2).unwrap().clone();
                opt.step(
                    &mut [
                        &mut model.l1.weight,
                        &mut model.l1.bias,
                        &mut model.l2.weight,
                        &mut model.l2.bias,
                    ],
                    &[&gw1, &gb1, &gw2, &gb2],
                );
            }
        };
        // The workers train concurrently: one stage over their clocks, so a
        // worker's queries queue behind the others' in sim order, not in the
        // order this loop happens to run the workers.
        stage(&clients, || {
            for (w, (model, opt)) in models.iter_mut().zip(&mut opts).enumerate() {
                train_worker(w, model, opt);
            }
        });
        // Synchronous weight averaging at the epoch barrier.
        average_models(cluster, &mut models, cfg);
        cluster.barrier();
        loss_per_epoch.push(if batches == 0 { 0.0 } else { loss_sum / batches as f64 });
        epoch_times.push(cluster.clock().now().saturating_sub(e0));
    }

    // Evaluate with the averaged model on worker 0.
    let eval = |ids: &[u64]| -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for (bi, batch) in ids.chunks(cfg.batch_size.max(1)).enumerate() {
            let seed = cfg.seed ^ 0xE7A1 ^ bi as u64;
            let (l1, l2, cache) = fetch_closure(cluster, 0, batch, cfg, seed);
            let b = build_batch(batch, &l1, &l2, &cache, cfg, seed);
            let mut g = Graph::new();
            let (logits, _) = b.forward(&mut g, &models[0].l1, &models[0].l2);
            let preds = g.value(logits).argmax_rows();
            for (p, &v) in preds.iter().zip(batch) {
                if *p == graph.labels[v as usize] {
                    correct += 1;
                }
            }
        }
        correct as f64 / ids.len() as f64
    };
    let train_accuracy = eval(&train_v);
    let test_accuracy = eval(&test_v);

    EulerOutput { train_accuracy, test_accuracy, loss_per_epoch, epoch_times }
}

/// All-reduce (average) the worker replicas, charging the weight bytes.
fn average_models(cluster: &EulerCluster, models: &mut [Model], cfg: &EulerConfig) {
    let nw = models.len();
    if nw <= 1 {
        return;
    }
    let param_bytes =
        ((2 * cfg.feat_dim + 1) * cfg.hidden_dim + (2 * cfg.hidden_dim + 1) * cfg.num_classes)
            * 4;
    for w in 0..nw {
        cluster.worker(w).advance(
            cluster
                .network()
                .cost_model()
                .net_cost(param_bytes as u64 * 2),
        );
    }
    let avg = |get: &dyn Fn(&Model) -> &Tensor| -> Tensor {
        let mut acc = get(&models[0]).clone();
        for m in models.iter().skip(1) {
            acc = acc.add(get(m));
        }
        acc.scale(1.0 / nw as f32)
    };
    let w1 = avg(&|m| &m.l1.weight);
    let b1 = avg(&|m| &m.l1.bias);
    let w2 = avg(&|m| &m.l2.weight);
    let b2 = avg(&|m| &m.l2.bias);
    for m in models.iter_mut() {
        m.l1.weight = w1.clone();
        m.l1.bias = b1.clone();
        m.l2.weight = w2.clone();
        m.l2.bias = b2.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_dfs::Dfs;
    use psgraph_graph::{gen, io};
    use psgraph_sim::{CostModel, NodeClock};

    fn pipeline(n: u64, cfg: &EulerConfig) -> (EulerOutput, SimTime) {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        let s = gen::sbm2(n, 8.0, 0.5, cfg.feat_dim, 0.8, 77);
        io::write_text(&dfs, "/raw/e", &s.graph, &clk).unwrap();
        io::write_features(&dfs, "/raw/f", &s.features, &s.labels, &clk).unwrap();
        let driver = NodeClock::new();
        let (graph, report) =
            crate::preprocess::preprocess(&dfs, "/raw/e", "/raw/f", "/euler", cfg.shards, &driver)
                .unwrap();
        let mut cluster = EulerCluster::new(cfg.workers, cfg.shards, CostModel::default());
        let c = Arc::get_mut(&mut cluster).unwrap();
        c.load(&graph.adjacency, &graph.features);
        let out = train(&cluster, &Arc::new(graph), cfg);
        (out, report.total())
    }

    #[test]
    fn euler_learns_sbm() {
        let cfg = EulerConfig { epochs: 4, ..Default::default() };
        let (out, preprocess_time) = pipeline(300, &cfg);
        assert!(out.test_accuracy > 0.85, "accuracy {}", out.test_accuracy);
        assert!(out.loss_per_epoch.last().unwrap() < &out.loss_per_epoch[0]);
        assert!(preprocess_time > SimTime::ZERO);
        assert_eq!(out.epoch_times.len(), 4);
        assert!(out.epoch_times.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn per_vertex_queries_make_epochs_slow() {
        // The defining Euler property: per-vertex RPCs. A bigger fanout
        // must cost proportionally more simulated time.
        let small = EulerConfig { epochs: 1, fanout1: 2, fanout2: 2, ..Default::default() };
        let big = EulerConfig { epochs: 1, fanout1: 10, fanout2: 8, ..Default::default() };
        let (o1, _) = pipeline(200, &small);
        let (o2, _) = pipeline(200, &big);
        assert!(o2.epoch_times[0] > o1.epoch_times[0]);
    }

    #[test]
    fn sample_k_bounds() {
        let mut rng = SplitMix64::new(1);
        let ns: Vec<u64> = (0..20).collect();
        let s = sample_k(&ns, 5, &mut rng);
        assert_eq!(s.len(), 5);
        let set: std::collections::HashSet<u64> = s.iter().copied().collect();
        assert_eq!(set.len(), 5);
        assert_eq!(sample_k(&ns[..3], 5, &mut rng), vec![0, 1, 2]);
        assert!(sample_k(&[], 5, &mut rng).is_empty());
    }

    #[test]
    fn single_worker_skips_averaging() {
        let cfg = EulerConfig { workers: 1, epochs: 2, ..Default::default() };
        let (out, _) = pipeline(150, &cfg);
        assert!(out.train_accuracy > 0.7);
    }
}
