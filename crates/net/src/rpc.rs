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

/// The chaos lane of a message of `bytes` bytes in a call whose shape is
/// also `b` and `c` ([`Network::send`]).
fn lane(bytes: u64, b: u64, c: u64) -> u64 {
    bytes ^ c.rotate_left(21) ^ b.rotate_left(42)
}

/// What one port does in one round of a [`Network::exchange_at`]: serve
/// `ops` of CPU, then send every other port `t` a message of `bytes[t]`
/// bytes (its own entry is not sent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    pub ops: u64,
    pub bytes: Vec<u64>,
}

/// The service side of a node: its clock plus a FIFO availability horizon.
///
/// Concurrent RPCs to the same port serialize in simulated time — the
/// second request starts service only when the first finishes — which is
/// what makes an under-provisioned parameter server a bottleneck. A clone
/// is the same port (a request recorded inside a stage holds one until the
/// stage charges it).
#[derive(Debug, Clone)]
pub struct ServicePort(Arc<Port>);

#[derive(Debug)]
struct Port {
    id: NodeId,
    clock: NodeClock,
    next_free: Mutex<SimTime>,
}

impl ServicePort {
    pub fn new(id: NodeId) -> Self {
        ServicePort(Arc::new(Port {
            id,
            clock: NodeClock::new(),
            next_free: Mutex::new(SimTime::ZERO),
        }))
    }

    pub fn id(&self) -> NodeId {
        self.0.id
    }

    pub fn clock(&self) -> &NodeClock {
        &self.0.clock
    }

    /// Reserve the port from `arrival` for `service`: returns the completion
    /// time. Requests arriving while the port is busy wait their turn. A
    /// request that crosses no network (an executor reading its own
    /// shuffle files) is served here directly; every other goes through a
    /// [`Network`] leg.
    pub fn serve(&self, arrival: SimTime, service: SimTime) -> SimTime {
        let mut free = self.0.next_free.lock();
        let start = free.max(arrival);
        let done = start + service;
        *free = done;
        self.0.clock.sync_to(done);
        done
    }

    /// Reset after a node restart: the replacement is idle from `t`.
    pub fn reset(&self, t: SimTime) {
        *self.0.next_free.lock() = t;
        self.0.clock.reset_to(t);
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
    /// leg that leaves now, and the client blocks until the response is
    /// back — at once, or when the client's stage ends if it is inside one
    /// ([`NodeClock::request`]). Nothing reads the round trip: inside a
    /// stage it is not known yet.
    pub fn rpc(
        &self,
        client: &NodeClock,
        port: &ServicePort,
        req_bytes: u64,
        server_ops: u64,
        resp_bytes: u64,
    ) {
        let (net, port) = (self.clone(), port.clone());
        client.request(client.now(), move |at| {
            net.rpc_at(at, &port, req_bytes, server_ops, resp_bytes)
        });
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
        let arrival = self.send(at, port.id(), req_bytes, server_ops, resp_bytes);
        let done = port.serve(arrival, self.cost.cpu_cost(server_ops));
        self.stats.rpc_count.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(resp_bytes, Ordering::Relaxed);
        done + self.cost.net_cost(resp_bytes)
    }

    /// When `bytes` sent to `to` at `at` arrive: `net_cost(bytes)` plus
    /// the chaos delay drawn for the message, keyed by the call *shape*
    /// (callee, `bytes` and two more sizes of the call, `b` and `c`), not
    /// by a draw counter: the same logical call is perturbed identically
    /// on every run and under any thread interleaving, which keeps chaos
    /// runs replayable from the seed alone (determinism rule, DESIGN.md
    /// "Fault model"). Counts `bytes` in `bytes_sent`; the caller counts
    /// the RPC.
    fn send(&self, at: SimTime, to: NodeId, bytes: u64, b: u64, c: u64) -> SimTime {
        self.stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        let mut arrival = at + self.cost.net_cost(bytes);
        if let Some(chaos) = self.chaos_if_active() {
            arrival += chaos.delay(FaultSite::Rpc, to.as_key(), lane(bytes, b, c));
        }
        arrival
    }

    /// One request to every port of `ports` that the servers finish among
    /// themselves: it leaves the client at `at`, the servers run
    /// `rounds`, exchanging one message per ordered pair of them after
    /// each round, and the client resumes when the last response is back.
    /// No clock but the ports' moves (as with [`Network::rpc_at`]).
    ///
    /// Timeline: port `s`'s request travels `net_cost(req_bytes[s])`.
    /// Port `s` starts round `k` once its request (for `k = 0`) or its own
    /// round `k − 1` is done and every peer's round-`k − 1` message has
    /// arrived, and is served FIFO for `cpu_cost(rounds[k][s].ops)`
    /// (`ServicePort::serve`); it then sends each peer `t` a message of
    /// `rounds[k][s].bytes[t]` bytes, which travels `net_cost` of them.
    /// Once the last round's messages are in, port `s`'s response travels
    /// `net_cost(resp_bytes[s])` back. Every request and every message
    /// draws the [`FaultSite::Rpc`] delay an [`Network::rpc_at`] request
    /// draws; a request and its response count as one RPC, and so does
    /// each message.
    pub fn exchange_at(
        &self,
        at: SimTime,
        ports: &[ServicePort],
        req_bytes: &[u64],
        rounds: &[Vec<Step>],
        resp_bytes: &[u64],
    ) -> SimTime {
        let n_rounds = rounds.len() as u64;
        let mut ready: Vec<SimTime> = ports
            .iter()
            .zip(req_bytes.iter().zip(resp_bytes))
            .map(|(port, (&req, &resp))| self.send(at, port.id(), req, n_rounds, resp))
            .collect();
        for (k, round) in rounds.iter().enumerate() {
            let done: Vec<SimTime> = ports
                .iter()
                .zip(round.iter().zip(&ready))
                .map(|(port, (step, &start))| port.serve(start, self.cost.cpu_cost(step.ops)))
                .collect();
            ready.clone_from(&done);
            for (s, step) in round.iter().enumerate() {
                let from = ports[s].id().as_key();
                for (t, &bytes) in step.bytes.iter().enumerate().filter(|&(t, _)| t != s) {
                    let arrival = self.send(done[s], ports[t].id(), bytes, k as u64, from);
                    ready[t] = ready[t].max(arrival);
                    self.stats.rpc_count.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.stats.rpc_count.fetch_add(ports.len() as u64, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(resp_bytes.iter().sum(), Ordering::Relaxed);
        ready
            .iter()
            .zip(resp_bytes)
            .fold(at, |back, (&sent, &resp)| back.max(sent + self.cost.net_cost(resp)))
    }

    /// One leg of a block fetch that leaves its client at `at`; returns
    /// when the last byte is back. No clock but the port's moves, so the
    /// legs of one fetch all leave at the same `at` and the client resumes
    /// at the slowest of them (as with [`Network::rpc_at`]).
    ///
    /// Timeline: the request (`req_bytes`, the block ids) travels
    /// `net_cost(req_bytes)`, queues at the port (FIFO in sim time), is
    /// served for `service` — the source reading the blocks, a time rather
    /// than CPU ops — and the `resp_bytes` travel `net_cost(resp_bytes)`
    /// back. The leg counts one RPC and draws no chaos delay: the block
    /// transfer service is not a PS RPC, and no fault site covers it.
    pub fn fetch_at(
        &self,
        at: SimTime,
        port: &ServicePort,
        req_bytes: u64,
        service: SimTime,
        resp_bytes: u64,
    ) -> SimTime {
        self.stats.rpc_count.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_sent.fetch_add(req_bytes, Ordering::Relaxed);
        self.stats.bytes_received.fetch_add(resp_bytes, Ordering::Relaxed);
        port.serve(at + self.cost.net_cost(req_bytes), service) + self.cost.net_cost(resp_bytes)
    }

    /// Bulk point-to-point transfer (a broadcast's copy to one receiver):
    /// pipelined, so only wire time plus a single latency is charged to
    /// the receiver.
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
        n.rpc(&client, &port, 1000, 1000, 1000);
        let rtt = client.now();
        assert!(rtt > SimTime::ZERO);
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
            n.rpc(&c, &p, req, ops, resp);
            d.sync_to(m.rpc_at(d.now(), &q, req, ops, resp));
            assert_eq!(c.now(), d.now());
            assert_eq!(p.clock().now(), q.clock().now());
        }
    }

    #[test]
    fn in_a_stage_the_request_that_left_first_is_served_first() {
        // Client `a` computes for 1 s, then calls; client `b` calls at
        // once. The host calls `a` first. Each call is 10 B each way
        // (net 25 009 ns) and 1 s of service at the one port.
        let ops = 2_000_000_000;
        let run = |staged: bool| {
            let n = net();
            let (a, b) = (NodeClock::new(), NodeClock::new());
            let port = ServicePort::new(NodeId::Server(0));
            let calls = || {
                a.advance(SimTime::from_secs(1));
                n.rpc(&a, &port, 10, ops, 10);
                n.rpc(&b, &port, 10, ops, 10);
            };
            if staged {
                psgraph_sim::stage(&[&a, &b], calls);
            } else {
                calls();
            }
            (a.now().as_nanos(), b.now().as_nanos(), port.clock().now().as_nanos())
        };
        // Sim order: `b` arrives at 25 009, is served until 1 000 025 009 and
        // is back at 1 000 050 018; `a` arrives at 1 000 025 009, finds the
        // port just free, and is back at 2 000 050 018.
        assert_eq!(run(true), (2_000_050_018, 1_000_050_018, 2_000_025_009));
        // Host order: `b` queues behind `a`, which left a second later.
        assert_eq!(run(false), (2_000_050_018, 3_000_050_018, 3_000_025_009));
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
            n.rpc(&c, &port, 1000, 1000, 1000);
            c.now()
        };
        // A blocking RPC, then two legs of one fan-out leaving at its return.
        let run = || {
            let n = net();
            n.attach_chaos(FaultSchedule::new(cfg));
            let c = NodeClock::new();
            let port = ServicePort::new(NodeId::Server(0));
            n.rpc(&c, &port, 1000, 1000, 1000);
            (c.now(), [0, 1].map(|_| n.rpc_at(c.now(), &port, 300, 300, 300)))
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
        n.rpc(&c, &port, 1000, 1000, 1000);
        assert_eq!(c.now(), plain);
    }

    /// Two ports, two rounds. Every message is an 8 B header (25 007 ns
    /// on the wire). Round 0: port 0 computes 1 ms, port 1 0.1 ms; round
    /// 1: port 0 nothing, port 1 1 ms. Port 1 answers with 16 B.
    fn two_port_exchange(n: &Network, ports: &[ServicePort]) -> SimTime {
        let step = |ops, to: usize| {
            let mut bytes = vec![0, 0];
            bytes[to] = 8;
            Step { ops, bytes }
        };
        let rounds = [
            vec![step(2_000_000, 1), step(200_000, 0)],
            vec![step(0, 1), step(2_000_000, 0)],
        ];
        n.exchange_at(SimTime(1_000_000), ports, &[0, 0], &rounds, &[0, 16])
    }

    fn two_ports() -> [ServicePort; 2] {
        [ServicePort::new(NodeId::Server(0)), ServicePort::new(NodeId::Server(1))]
    }

    fn port_clocks(ports: &[ServicePort]) -> Vec<u64> {
        ports.iter().map(|p| p.clock().now().as_nanos()).collect()
    }

    #[test]
    fn an_exchange_runs_each_round_when_its_inputs_are_in() {
        let n = net();
        let cost = n.cost_model();
        assert_eq!(
            [0, 8, 16].map(|b| cost.net_cost(b).as_nanos()),
            [25_000, 25_007, 25_014]
        );
        let ports = two_ports();
        // Both requests arrive at 1 025 000. Round 0: port 0 is done at
        // 2 025 000, port 1 at 1 125 000; their messages arrive at
        // 2 050 007 (at 1) and 1 150 007 (at 0). Round 1: port 0 starts
        // at 2 025 000 (its own round is the later input) and is done at
        // once; port 1 starts at 2 050 007 (port 0's message) and is done
        // at 3 050 007. Port 1's message reaches port 0 at 3 075 014, so
        // the responses are back at 3 100 014 and 3 075 021.
        assert_eq!(two_port_exchange(&n, &ports).as_nanos(), 3_100_014);
        assert_eq!(port_clocks(&ports), [2_025_000, 3_050_007]);
        // Two requests with their responses, and four messages of 8 B.
        assert_eq!(n.stats().rpcs(), 6);
        assert_eq!((n.stats().bytes_sent(), n.stats().bytes_received()), (32, 16));

        // Port 1 busy until 2 500 000: its round 0 runs 2 500 000 –
        // 2 600 000 and its message holds port 0's round 1 until
        // 2 625 007. Port 0's round-1 message (2 650 014) now waits for
        // port 1's own round, done at 3 600 000; port 1's reaches port 0
        // at 3 625 007, and port 0's empty response is back at 3 650 007.
        let (n, ports) = (net(), two_ports());
        ports[1].serve(SimTime::ZERO, SimTime(2_500_000));
        assert_eq!(two_port_exchange(&n, &ports).as_nanos(), 3_650_007);
        assert_eq!(port_clocks(&ports), [2_625_007, 3_600_000]);
    }

    #[test]
    fn a_delayed_message_moves_only_what_waits_for_it() {
        use psgraph_sim::ChaosConfig;
        // Every draw of `two_port_exchange`: its two requests, then the
        // messages of rounds 0 and 1 as (from, to).
        let key = |s: usize| NodeId::Server(s).as_key();
        let mut draws = vec![(key(0), lane(0, 2, 0)), (key(1), lane(0, 2, 16))];
        for k in 0..2 {
            draws.extend([(0, 1), (1, 0)].map(|(s, t)| (key(t), lane(8, k, key(s)))));
        }
        let cfg = |seed| ChaosConfig {
            seed,
            p_delay: 0.2,
            max_delay: SimTime(500_000),
            ..ChaosConfig::off()
        };
        // The first seed that delays draw `i` alone, and by how much.
        let only = |i: usize| {
            (0..10_000)
                .find_map(|seed| {
                    let sched = FaultSchedule::new(cfg(seed));
                    let delays: Vec<SimTime> =
                        draws.iter().map(|&(k, l)| sched.delay(FaultSite::Rpc, k, l)).collect();
                    let fired: Vec<usize> =
                        (0..delays.len()).filter(|&j| delays[j] > SimTime::ZERO).collect();
                    (fired == [i]).then_some((seed, delays[i]))
                })
                .expect("a seed delays one draw alone")
        };
        let run = |seed| {
            let (n, ports) = (net(), two_ports());
            n.attach_chaos(FaultSchedule::new(cfg(seed)));
            (two_port_exchange(&n, &ports).as_nanos(), port_clocks(&ports))
        };
        let plain = (3_100_014, vec![2_025_000, 3_050_007]);
        // Port 1's round-0 message reaches port 0 well before port 0's
        // own round is done (≈ 0.875 ms): up to 0.5 ms late, it moves nothing.
        let (seed, _) = only(3);
        assert_eq!(run(seed), plain);
        // Port 0's round-0 message starts port 1's round 1, which ends the
        // exchange: it moves port 1's clock and the end, not port 0.
        let (seed, late) = only(2);
        let late = late.as_nanos();
        assert_eq!(run(seed), (3_100_014 + late, vec![2_025_000, 3_050_007 + late]));
    }

    #[test]
    fn a_fetch_leg_queues_its_service_time_between_two_transfers() {
        use psgraph_sim::ChaosConfig;
        let n = net();
        let cost = n.cost_model();
        let at = SimTime::from_secs(1);
        let port = ServicePort::new(NodeId::Executor(2));
        let read = SimTime::from_millis(3);
        let back = at + cost.net_cost(16) + read + cost.net_cost(40_000);
        assert_eq!(n.fetch_at(at, &port, 16, read, 40_000), back);
        assert_eq!(port.clock().now(), back - cost.net_cost(40_000));
        // A second leg arriving at once waits for the first one's read.
        assert_eq!(n.fetch_at(at, &port, 16, read, 40_000), back + read);
        assert_eq!(n.stats().rpcs(), 2);
        assert_eq!((n.stats().bytes_sent(), n.stats().bytes_received()), (32, 80_000));
        // No chaos delay: an attached schedule leaves the leg as it was.
        let cfg = ChaosConfig {
            seed: 7,
            p_delay: 1.0,
            max_delay: SimTime(1_000_000),
            ..ChaosConfig::off()
        };
        let chaotic = net();
        chaotic.attach_chaos(FaultSchedule::new(cfg));
        let fresh = ServicePort::new(NodeId::Executor(2));
        assert_eq!(chaotic.fetch_at(at, &fresh, 16, read, 40_000), back);
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
        for _ in 0..100 {
            n.rpc(&b, &port, 10_000, 0, 0);
        }
        let rpc_total = b.now();
        assert!(bulk < rpc_total, "bulk {bulk} vs rpcs {rpc_total}");
    }
}
