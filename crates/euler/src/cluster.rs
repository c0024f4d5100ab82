//! Euler's deployment: training workers + graph-service shards.

use psgraph_net::{Network, NodeId, ServicePort};
use psgraph_sim::{ClusterClock, CostModel, FxHashMap, NodeClock};
use std::sync::Arc;

/// The Euler mini-cluster: `workers` trainers and `shards` graph-service
/// nodes holding adjacency + features.
/// One graph-service shard's state: vertex → (neighbors, features).
type ShardStore = FxHashMap<u64, (Vec<u64>, Vec<f32>)>;

pub struct EulerCluster {
    network: Network,
    clock: ClusterClock,
    driver: NodeClock,
    workers: Vec<NodeClock>,
    shards: Vec<ServicePort>,
    store: Vec<ShardStore>,
}

impl EulerCluster {
    pub fn new(workers: usize, shards: usize, cost: CostModel) -> Arc<Self> {
        assert!(workers > 0 && shards > 0);
        Arc::new(EulerCluster {
            network: Network::new(cost),
            clock: ClusterClock::new(),
            driver: NodeClock::new(),
            workers: (0..workers).map(|_| NodeClock::new()).collect(),
            shards: (0..shards).map(|i| ServicePort::new(NodeId::Server(i))).collect(),
            store: (0..shards).map(|_| FxHashMap::default()).collect(),
        })
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

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn worker(&self, i: usize) -> &NodeClock {
        &self.workers[i]
    }

    fn shard_of(&self, v: u64) -> usize {
        (psgraph_sim::hash::hash_u64(v) % self.shards.len() as u64) as usize
    }

    /// Load the graph service (done once after preprocessing; charged to
    /// the driver as a bulk upload).
    pub fn load(&mut self, adjacency: &FxHashMap<u64, Vec<u64>>, features: &[Vec<f32>]) {
        let mut bytes = 0u64;
        for (v, ns) in adjacency {
            let feat = features.get(*v as usize).cloned().unwrap_or_default();
            bytes += 16 + ns.len() as u64 * 8 + feat.len() as u64 * 4;
            let shard = self.shard_of(*v);
            self.store[shard].insert(*v, (ns.clone(), feat));
        }
        // Vertices without edges still need features served.
        for (v, feat) in features.iter().enumerate() {
            let shard = self.shard_of(v as u64);
            self.store[shard]
                .entry(v as u64)
                .or_insert_with(|| (Vec::new(), feat.clone()));
            bytes += 16 + feat.len() as u64 * 4;
        }
        self.driver
            .advance(self.network.cost_model().net_bulk_cost(bytes));
    }

    /// One graph-service query for a single vertex (Euler's per-sample
    /// access pattern): returns (neighbors, features), charging a full
    /// RPC round-trip to the worker.
    pub fn query_vertex(&self, worker: usize, v: u64) -> (Vec<u64>, Vec<f32>) {
        let shard = self.shard_of(v);
        let entry = self.store[shard].get(&v).cloned().unwrap_or_default();
        let resp_bytes = 16 + entry.0.len() as u64 * 8 + entry.1.len() as u64 * 4;
        self.network.rpc(
            &self.workers[worker],
            &self.shards[shard],
            16,
            32 + entry.0.len() as u64,
            resp_bytes,
        );
        entry
    }

    /// Barrier all workers (synchronous data-parallel step).
    pub fn barrier(&self) {
        self.clock.barrier(self.workers.iter().chain([&self.driver]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_sim::SimTime;

    fn loaded() -> EulerCluster {
        let mut c = Arc::try_unwrap(EulerCluster::new(2, 2, CostModel::default()))
            .ok()
            .unwrap();
        let mut adj = FxHashMap::default();
        adj.insert(0u64, vec![1, 2]);
        adj.insert(1u64, vec![0]);
        let feats = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        c.load(&adj, &feats);
        c
    }

    #[test]
    fn query_returns_neighbors_and_features() {
        let c = loaded();
        let (ns, f) = c.query_vertex(0, 0);
        assert_eq!(ns, vec![1, 2]);
        assert_eq!(f, vec![1.0, 2.0]);
        // Edge-less vertex still serves features.
        let (ns, f) = c.query_vertex(1, 2);
        assert!(ns.is_empty());
        assert_eq!(f, vec![5.0, 6.0]);
        // Unknown vertex: empty.
        let (ns, f) = c.query_vertex(0, 99);
        assert!(ns.is_empty() && f.is_empty());
    }

    #[test]
    fn queries_charge_latency_per_call() {
        let c = loaded();
        let before = c.worker(0).now();
        for _ in 0..100 {
            c.query_vertex(0, 0);
        }
        let elapsed = c.worker(0).now() - before;
        // 100 RPCs ≥ 200 one-way latencies.
        let lat = CostModel::default().net_latency;
        let floor = SimTime::from_nanos(lat.as_nanos() * 200);
        assert!(elapsed >= floor, "elapsed {elapsed}");
    }

    #[test]
    fn barrier_synchronizes_workers() {
        let c = loaded();
        c.query_vertex(0, 0);
        c.barrier();
        assert_eq!(c.worker(0).now(), c.worker(1).now());
        assert_eq!(c.clock().now(), c.worker(0).now());
    }
}
