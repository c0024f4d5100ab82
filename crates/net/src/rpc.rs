//! RPC timing: charge request/response costs to simulated clocks and queue
//! service time on the callee.

use psgraph_sim::sync::Mutex;
use psgraph_sim::{CostModel, FaultSchedule, FaultSite, NodeClock, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Address of a logical node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    Driver,
    Master,
    Executor(usize),
    Server(usize),
    Datanode(usize),
    /// A read replica in the serving tier (see `psgraph-serve`).
    Replica(usize),
}

impl NodeId {
    /// Stable numeric key for chaos hashing: `(tag << 32) | index`. Two
    /// distinct nodes never collide, and the mapping is independent of
    /// construction order.
    pub fn as_key(self) -> u64 {
        match self {
            NodeId::Driver => 0,
            NodeId::Master => 1 << 32,
            NodeId::Executor(i) => (2 << 32) | i as u64,
            NodeId::Server(i) => (3 << 32) | i as u64,
            NodeId::Datanode(i) => (4 << 32) | i as u64,
            NodeId::Replica(i) => (5 << 32) | i as u64,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Driver => write!(f, "driver"),
            NodeId::Master => write!(f, "master"),
            NodeId::Executor(i) => write!(f, "executor-{i}"),
            NodeId::Server(i) => write!(f, "server-{i}"),
            NodeId::Datanode(i) => write!(f, "datanode-{i}"),
            NodeId::Replica(i) => write!(f, "replica-{i}"),
        }
    }
}

/// Aggregate traffic counters for one simulated network.
#[derive(Debug, Default)]
pub struct NetworkStats {
    pub rpc_count: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub bytes_received: AtomicU64,
}

impl NetworkStats {
    pub fn rpcs(&self) -> u64 {
        self.rpc_count.load(Ordering::Relaxed)
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent() + self.bytes_received()
    }

    pub fn reset(&self) {
        self.rpc_count.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
    }
}

/// The service side of a node: its clock plus a FIFO availability horizon.
///
/// Concurrent RPCs to the same port serialize in simulated time — the
/// second request starts service only when the first finishes — which is
/// what makes an under-provisioned parameter server a bottleneck.
#[derive(Debug)]
pub struct ServicePort {
    id: NodeId,
    clock: NodeClock,
    next_free: Mutex<SimTime>,
}

impl ServicePort {
    pub fn new(id: NodeId) -> Self {
        ServicePort {
            id,
            clock: NodeClock::new(),
            next_free: Mutex::new(SimTime::ZERO),
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    /// Reserve the port from `arrival` for `service`: returns the completion
    /// time. Requests arriving while the port is busy wait their turn.
    pub(crate) fn serve(&self, arrival: SimTime, service: SimTime) -> SimTime {
        let mut free = self.next_free.lock();
        let start = free.max(arrival);
        let done = start + service;
        *free = done;
        self.clock.sync_to(done);
        done
    }

    /// Reset after a node restart: the replacement is idle from `t`.
    pub fn reset(&self, t: SimTime) {
        *self.next_free.lock() = t;
        self.clock.reset_to(t);
    }
}

/// Chaos attachment point shared by every clone of a [`Network`]. The
/// `active` flag is checked lock-free so fault-free runs pay one relaxed
/// atomic load per RPC and stay bit-identical to a build without chaos.
#[derive(Debug, Default)]
struct ChaosCell {
    active: AtomicBool,
    sched: Mutex<FaultSchedule>,
}

/// The simulated network: cost model + stats. Cheap to clone and share.
#[derive(Debug, Clone)]
pub struct Network {
    cost: Arc<CostModel>,
    stats: Arc<NetworkStats>,
    chaos: Arc<ChaosCell>,
}

impl Network {
    pub fn new(cost: CostModel) -> Self {
        Network {
            cost: Arc::new(cost),
            stats: Arc::new(NetworkStats::default()),
            chaos: Arc::new(ChaosCell::default()),
        }
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Attach a fault schedule: every clone of this network (and every
    /// subsystem holding one) starts consulting it. Attaching
    /// [`FaultSchedule::off`] detaches.
    pub fn attach_chaos(&self, sched: FaultSchedule) {
        let active = sched.is_active();
        *self.chaos.sched.lock() = sched;
        self.chaos.active.store(active, Ordering::Release);
    }

    /// The currently attached fault schedule (off by default).
    pub fn chaos(&self) -> FaultSchedule {
        self.chaos.sched.lock().clone()
    }

    /// Cheap check-then-clone: `None` unless a live schedule is attached.
    pub(crate) fn chaos_if_active(&self) -> Option<FaultSchedule> {
        if self.chaos.active.load(Ordering::Acquire) {
            Some(self.chaos.sched.lock().clone())
        } else {
            None
        }
    }

    /// A synchronous RPC from `client` to `port`: one [`Network::rpc_at`]
    /// leg that leaves now, and the client blocks (its clock jumps to the
    /// response arrival). Returns the round-trip simulated duration.
    pub fn rpc(
        &self,
        client: &NodeClock,
        port: &ServicePort,
        req_bytes: u64,
        server_ops: u64,
        resp_bytes: u64,
    ) -> SimTime {
        let sent_at = client.now();
        let back = self.rpc_at(sent_at, port, req_bytes, server_ops, resp_bytes);
        client.sync_to(back);
        back.saturating_sub(sent_at)
    }

    /// One leg of a request that leaves its client at `at`; returns when
    /// the response is back. No clock but the port's moves, so the legs
    /// of one fan-out all leave at the same `at` and the caller resumes
    /// at the slowest of them.
    ///
    /// Timeline: the request travels `net_cost(req_bytes)`, queues at the
    /// port (FIFO in sim time), is served for `cpu_cost(server_ops)`, and
    /// the response travels `net_cost(resp_bytes)` back.
    pub fn rpc_at(
        &self,
        at: SimTime,
        port: &ServicePort,
        req_bytes: u64,
        server_ops: u64,
        resp_bytes: u64,
    ) -> SimTime {
        let mut arrival = at + self.cost.net_cost(req_bytes);
        if let Some(chaos) = self.chaos_if_active() {
            // Keyed by the call *shape* (callee + sizes + work), not by a
            // draw counter: the same logical call is perturbed identically
            // on every run and under any thread interleaving, which keeps
            // chaos runs replayable from the seed alone (determinism rule,
            // DESIGN.md "Fault model").
            let lane = req_bytes ^ resp_bytes.rotate_left(21) ^ server_ops.rotate_left(42);
            arrival += chaos.delay(FaultSite::Rpc, port.id.as_key(), lane);
        }
        let done = port.serve(arrival, self.cost.cpu_cost(server_ops));
        self.stats.rpc_count.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_sent.fetch_add(req_bytes, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(resp_bytes, Ordering::Relaxed);
        done + self.cost.net_cost(resp_bytes)
    }

    /// Bulk point-to-point transfer (shuffle fetch): pipelined, so only
    /// wire time plus a single latency is charged to the receiver.
    pub fn bulk_fetch(&self, receiver: &NodeClock, bytes: u64) -> SimTime {
        let cost = self.cost.net_latency + self.cost.net_bulk_cost(bytes);
        receiver.advance(cost);
        self.stats.rpc_count.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(CostModel::default())
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::Executor(3).to_string(), "executor-3");
        assert_eq!(NodeId::Server(0).to_string(), "server-0");
        assert_eq!(NodeId::Driver.to_string(), "driver");
        assert_eq!(NodeId::Master.to_string(), "master");
        assert_eq!(NodeId::Datanode(7).to_string(), "datanode-7");
        assert_eq!(NodeId::Replica(2).to_string(), "replica-2");
    }

    #[test]
    fn rpc_advances_client_past_round_trip() {
        let n = net();
        let client = NodeClock::new();
        let port = ServicePort::new(NodeId::Server(0));
        let rtt = n.rpc(&client, &port, 1000, 1000, 1000);
        assert!(rtt > SimTime::ZERO);
        assert_eq!(client.now().as_nanos(), rtt.as_nanos());
        // Two latencies minimum.
        assert!(rtt >= n.cost_model().net_latency + n.cost_model().net_latency);
    }

    #[test]
    fn concurrent_rpcs_serialize_on_port() {
        let n = net();
        let c1 = NodeClock::new();
        let c2 = NodeClock::new();
        let port = ServicePort::new(NodeId::Server(0));
        // Both requests arrive at the same time; heavy service work.
        let ops = 2_000_000_000; // 1 simulated second of server CPU
        n.rpc(&c1, &port, 10, ops, 10);
        n.rpc(&c2, &port, 10, ops, 10);
        // The second client waited for the first's service slot.
        assert!(c2.now().as_secs_f64() > 1.9, "c2 at {}", c2.now());
        assert!(c1.now().as_secs_f64() < 1.1, "c1 at {}", c1.now());
    }

    #[test]
    fn port_serve_respects_arrival_time() {
        let port = ServicePort::new(NodeId::Server(1));
        let done = port.serve(SimTime::from_secs(5), SimTime::from_secs(1));
        assert_eq!(done, SimTime::from_secs(6));
        // An earlier-arriving request now queues behind.
        let done2 = port.serve(SimTime::from_secs(0), SimTime::from_secs(1));
        assert_eq!(done2, SimTime::from_secs(7));
        assert_eq!(port.clock().now(), SimTime::from_secs(7));
    }

    #[test]
    fn port_reset_clears_queue_horizon() {
        let port = ServicePort::new(NodeId::Server(0));
        port.serve(SimTime::ZERO, SimTime::from_secs(100));
        port.reset(SimTime::from_secs(1));
        let done = port.serve(SimTime::from_secs(1), SimTime::from_secs(1));
        assert_eq!(done, SimTime::from_secs(2));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let n = net();
        let c = NodeClock::new();
        let port = ServicePort::new(NodeId::Server(0));
        n.rpc(&c, &port, 100, 0, 200);
        n.bulk_fetch(&c, 50);
        assert_eq!(n.stats().rpcs(), 2);
        assert_eq!(n.stats().bytes_sent(), 100);
        assert_eq!(n.stats().bytes_received(), 250);
        assert_eq!(n.stats().total_bytes(), 350);
        n.stats().reset();
        assert_eq!(n.stats().total_bytes(), 0);
    }

    #[test]
    fn a_leg_on_an_idle_port_is_back_one_round_trip_after_it_left() {
        let n = net();
        let cost = n.cost_model();
        let rtt = cost.net_cost(1000) + cost.cpu_cost(500) + cost.net_cost(64);
        let at = SimTime::from_secs(3);
        let port = ServicePort::new(NodeId::Server(0));
        assert_eq!(n.rpc_at(at, &port, 1000, 500, 64), at + rtt);
        assert_eq!(port.clock().now(), at + rtt - cost.net_cost(64));
        assert_eq!(n.stats().rpcs(), 1);
        assert_eq!((n.stats().bytes_sent(), n.stats().bytes_received()), (1000, 64));
    }

    #[test]
    fn legs_of_one_fan_out_overlap_across_ports_and_queue_at_one() {
        let n = net();
        let ops = 2_000_000_000; // 1 simulated second of server CPU
        let at = SimTime::from_secs(1);
        let (p0, p1) = (ServicePort::new(NodeId::Server(0)), ServicePort::new(NodeId::Server(1)));
        // Two ports: both legs are back one round trip after `at`.
        let a = n.rpc_at(at, &p0, 10, ops, 10);
        let b = n.rpc_at(at, &p1, 10, ops, 10);
        assert_eq!(a, b);
        // One port: the second leg waits for the first one's service slot.
        let q = ServicePort::new(NodeId::Server(2));
        let first = n.rpc_at(at, &q, 10, ops, 10);
        let second = n.rpc_at(at, &q, 10, ops, 10);
        assert_eq!(first, a);
        assert_eq!(second, first + n.cost_model().cpu_cost(ops));
    }

    #[test]
    fn rpc_is_one_leg_that_leaves_now_and_blocks_the_client() {
        let (n, m) = (net(), net());
        let (c, d) = (NodeClock::new(), NodeClock::new());
        let (p, q) = (ServicePort::new(NodeId::Server(0)), ServicePort::new(NodeId::Server(0)));
        for (req, ops, resp) in [(100, 7, 900), (5_000, 1_000_000, 8), (0, 0, 0)] {
            c.advance(SimTime(1_234));
            d.advance(SimTime(1_234));
            let rtt = n.rpc(&c, &p, req, ops, resp);
            let sent = d.now();
            d.sync_to(m.rpc_at(sent, &q, req, ops, resp));
            assert_eq!(c.now(), d.now());
            assert_eq!(rtt, d.now() - sent);
            assert_eq!(p.clock().now(), q.clock().now());
        }
    }

    #[test]
    fn attached_chaos_perturbs_rpc_latency_deterministically() {
        use psgraph_sim::ChaosConfig;
        let cfg = ChaosConfig {
            seed: 7,
            p_delay: 1.0,
            max_delay: SimTime(1_000_000),
            ..ChaosConfig::off()
        };
        let plain = {
            let n = net();
            let c = NodeClock::new();
            let port = ServicePort::new(NodeId::Server(0));
            n.rpc(&c, &port, 1000, 1000, 1000)
        };
        // A blocking RPC, then two legs of one fan-out leaving at its return.
        let run = || {
            let n = net();
            n.attach_chaos(FaultSchedule::new(cfg));
            let c = NodeClock::new();
            let port = ServicePort::new(NodeId::Server(0));
            let rtt = n.rpc(&c, &port, 1000, 1000, 1000);
            (rtt, [0, 1].map(|_| n.rpc_at(c.now(), &port, 300, 300, 300)))
        };
        let (a, b) = (run(), run());
        assert!(a.0 > plain, "chaos delay did not lengthen the rtt: {} vs {plain}", a.0);
        assert_eq!(a, b, "same seed + same call shape must perturb identically");
        // Detaching restores the exact fault-free timeline.
        let n = net();
        n.attach_chaos(FaultSchedule::new(cfg));
        n.attach_chaos(FaultSchedule::off());
        let c = NodeClock::new();
        let port = ServicePort::new(NodeId::Server(0));
        assert_eq!(n.rpc(&c, &port, 1000, 1000, 1000), plain);
    }

    #[test]
    fn node_id_keys_are_unique() {
        let ids = [
            NodeId::Driver,
            NodeId::Master,
            NodeId::Executor(0),
            NodeId::Executor(1),
            NodeId::Server(0),
            NodeId::Server(1),
            NodeId::Datanode(0),
            NodeId::Replica(0),
            NodeId::Replica(1),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a.as_key(), b.as_key(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn bulk_fetch_cheaper_than_per_item_rpcs() {
        let n = net();
        let a = NodeClock::new();
        let b = NodeClock::new();
        let port = ServicePort::new(NodeId::Executor(0));
        let bulk = n.bulk_fetch(&a, 1_000_000);
        let mut rpc_total = SimTime::ZERO;
        for _ in 0..100 {
            rpc_total += n.rpc(&b, &port, 10_000, 0, 0);
        }
        assert!(bulk < rpc_total, "bulk {bulk} vs rpcs {rpc_total}");
    }
}
