//! Simulated time: [`SimTime`] durations/instants, per-node clocks, a
//! cluster-wide clock with BSP barrier semantics, and the [`stage`] rule
//! that charges a stage's requests in sim order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::Mutex;

/// A simulated instant or duration, in nanoseconds.
///
/// `SimTime` is used both as a point on a node's timeline and as a length of
/// time; the arithmetic is identical and keeping one type avoids a large
/// amount of conversion noise in the cost-charging call sites.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    pub fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Scale by a floating factor (used by the cost model's global knob).
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime((self.0 as f64 * factor) as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering: picks the largest sensible unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 3600.0 {
            write!(f, "{:.2}h", secs / 3600.0)
        } else if secs >= 60.0 {
            write!(f, "{:.2}min", secs / 60.0)
        } else if secs >= 1.0 {
            write!(f, "{secs:.2}s")
        } else if secs >= 1e-3 {
            write!(f, "{:.2}ms", secs * 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// What a request costs once its departure is known: it charges its legs
/// from that departure and returns when the slowest response is back.
type Charge = Box<dyn FnOnce(SimTime) -> SimTime + Send>;

/// The simulated clock of one logical node (executor, PS server, datanode).
///
/// Thread-safe: tasks running on a shared thread pool can charge costs to
/// the node they logically execute on.
#[derive(Default)]
pub struct NodeClock {
    nanos: AtomicU64,
    /// Set while the clock is a client of an open [`stage`].
    staged: AtomicBool,
    /// The requests the clock made inside its stage, in the order made, each
    /// with its departure on the clock's own (wait-free) timeline.
    recorded: Mutex<Vec<(SimTime, Charge)>>,
}

impl fmt::Debug for NodeClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeClock")
            .field("now", &self.now())
            .field("staged", &self.staged.load(Ordering::Relaxed))
            .finish()
    }
}

impl NodeClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current local time.
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Relaxed))
    }

    /// Charge `cost` to this node's timeline.
    pub fn advance(&self, cost: SimTime) {
        self.nanos.fetch_add(cost.0, Ordering::Relaxed);
    }

    /// Move the clock forward to `t` if it is currently behind (models a
    /// node waiting at a barrier or for an RPC response issued at `t`).
    /// Never inside a [`stage`]: there a client's waits are not known
    /// until the stage ends.
    pub fn sync_to(&self, t: SimTime) {
        self.assert_unstaged("wait");
        self.nanos.fetch_max(t.0, Ordering::Relaxed);
    }

    /// Reset to a given time (used when restarting a failed node: the
    /// replacement starts at the failure-detection time). Never inside a
    /// [`stage`].
    pub fn reset_to(&self, t: SimTime) {
        self.assert_unstaged("be reset");
        self.nanos.store(t.0, Ordering::Relaxed);
    }

    /// One request from this node that leaves at `departs`; `charge`
    /// charges its legs from a departure and returns when the slowest
    /// response is back. Outside a [`stage`] that happens now and the node
    /// waits for it. Inside one the request is recorded and charged when
    /// the stage ends, in sim order with every other client's.
    pub fn request(
        &self,
        departs: SimTime,
        charge: impl FnOnce(SimTime) -> SimTime + Send + 'static,
    ) {
        if self.staged.load(Ordering::Acquire) {
            self.recorded.lock().push((departs, Box::new(charge)));
        } else {
            self.sync_to(charge(departs));
        }
    }

    fn assert_unstaged(&self, what: &str) {
        assert!(
            !self.staged.load(Ordering::Relaxed),
            "a clock inside a stage cannot {what}: its requests are charged when the stage ends"
        );
    }
}

/// Run `body` as one stage whose clients are `clients`, and charge the
/// requests they made in it ([`NodeClock::request`]) in sim order rather
/// than in the order the host happened to run them.
///
/// While `body` runs, a client's requests are recorded, not charged: the
/// client's clock moves only by what it computes, and a request's server
/// side runs at once, as it always does. When `body` returns, the
/// recorded requests of all clients are charged in ascending (departure,
/// client index) order, the order in which a conservative discrete-event
/// simulation of the clients would admit them: a client's next request
/// departs at its recorded departure plus the time its earlier requests
/// of the stage kept it waiting, so it is ordered only once those are
/// charged. Each client then ends at its recorded end plus those waits.
/// A request is charged iff it was made; if `body` unwinds, the clients
/// leave the stage and nothing they recorded is charged.
///
/// A clock is a client of one stage at a time.
pub fn stage<R>(clients: &[&NodeClock], body: impl FnOnce() -> R) -> R {
    let open = OpenStage::new(clients);
    let out = body();
    open.replay();
    out
}

/// A [`stage`] in progress. Dropping it takes its clients out of the stage.
struct OpenStage<'a> {
    clients: &'a [&'a NodeClock],
}

impl<'a> OpenStage<'a> {
    fn new(clients: &'a [&'a NodeClock]) -> Self {
        let mut open = OpenStage { clients: &[] };
        for (i, c) in clients.iter().enumerate() {
            let nested = c.staged.swap(true, Ordering::AcqRel);
            assert!(!nested, "a clock is a client of one stage at a time");
            open.clients = &clients[..=i];
        }
        open
    }

    /// Take every client out of the stage: what each recorded, in order.
    fn leave(&self) -> Vec<Vec<(SimTime, Charge)>> {
        self.clients
            .iter()
            .map(|c| {
                c.staged.store(false, Ordering::Release);
                std::mem::take(&mut *c.recorded.lock())
            })
            .collect()
    }

    /// Charge what the clients recorded, by (departure, client index).
    fn replay(self) {
        let mut queues: Vec<_> =
            self.leave().into_iter().map(|q| q.into_iter().peekable()).collect();
        let mut waited = vec![SimTime::ZERO; queues.len()];
        let mut next: BinaryHeap<Reverse<(SimTime, usize)>> = queues
            .iter_mut()
            .enumerate()
            .filter_map(|(i, q)| q.peek().map(|&(departs, _)| Reverse((departs, i))))
            .collect();
        while let Some(Reverse((departs, i))) = next.pop() {
            let (_, charge) = queues[i].next().expect("a queued client has a request");
            waited[i] += charge(departs).saturating_sub(departs);
            if let Some(&(later, _)) = queues[i].peek() {
                next.push(Reverse((later + waited[i], i)));
            }
        }
        for (c, w) in self.clients.iter().zip(waited) {
            c.advance(w);
        }
    }
}

impl Drop for OpenStage<'_> {
    fn drop(&mut self) {
        self.leave();
    }
}

/// Cluster-wide simulated clock implementing BSP barrier semantics.
///
/// Nodes run their supersteps concurrently (in real threads) but on
/// independent simulated timelines; [`ClusterClock::barrier`] advances the
/// global time to the maximum of the participants and re-synchronizes all
/// of them, exactly like a synchronization barrier in the paper's BSP mode.
#[derive(Debug, Default)]
pub struct ClusterClock {
    global: NodeClock,
}

impl ClusterClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> SimTime {
        self.global.now()
    }

    /// Advance global time directly (driver-side sequential work).
    pub fn advance(&self, cost: SimTime) {
        self.global.advance(cost);
    }

    /// BSP barrier over `nodes`: global time jumps to the slowest
    /// participant, and every participant is synchronized to that time.
    pub fn barrier<'a, I>(&self, nodes: I) -> SimTime
    where
        I: IntoIterator<Item = &'a NodeClock> + Clone,
    {
        let mut max = self.global.now();
        for n in nodes.clone() {
            max = max.max(n.now());
        }
        self.global.sync_to(max);
        for n in nodes {
            n.sync_to(max);
        }
        max
    }

    /// Start a node at the current global time (fresh nodes join "now").
    pub fn register(&self, node: &NodeClock) {
        node.sync_to(self.global.now());
    }
}

/// Event-time watermark: the monotonically advancing frontier of event
/// timestamps a streaming consumer has fully ingested. Producers stamp
/// events with event time; the ingestor calls [`Watermark::observe`] as it
/// applies them, and freshness is `processing_time - watermark` — how far
/// the serving state lags behind the newest event it has absorbed.
#[derive(Debug, Default)]
pub struct Watermark {
    frontier: AtomicU64,
}

impl Watermark {
    /// A watermark at event time zero (nothing ingested yet).
    pub fn new() -> Self {
        Watermark { frontier: AtomicU64::new(0) }
    }

    /// Advance the frontier to `t` if it is ahead of the current frontier.
    /// Late (out-of-order) events never move the watermark backwards.
    pub fn observe(&self, t: SimTime) {
        self.frontier.fetch_max(t.as_nanos(), Ordering::SeqCst);
    }

    /// The newest event time observed so far.
    pub fn now(&self) -> SimTime {
        SimTime(self.frontier.load(Ordering::SeqCst))
    }

    /// Freshness lag at processing time `at`: how far behind the newest
    /// ingested event the given processing-time instant is. Zero when the
    /// watermark is ahead of `at` (the consumer has caught up).
    pub fn lag(&self, at: SimTime) -> SimTime {
        at.saturating_sub(self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn simtime_constructors_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn simtime_arithmetic_saturates() {
        let a = SimTime(u64::MAX - 1);
        assert_eq!((a + SimTime(10)).0, u64::MAX);
        assert_eq!((SimTime(5) - SimTime(10)).0, 0);
        assert_eq!(SimTime(5).saturating_sub(SimTime(10)), SimTime::ZERO);
        let total: SimTime = [SimTime(1), SimTime(2), SimTime(3)].into_iter().sum();
        assert_eq!(total, SimTime(6));
    }

    #[test]
    fn simtime_display_units() {
        assert_eq!(SimTime::from_secs(7200).to_string(), "2.00h");
        assert_eq!(SimTime::from_secs(120).to_string(), "2.00min");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.00s");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.00ms");
        assert_eq!(SimTime(42).to_string(), "42ns");
    }

    #[test]
    fn node_clock_advance_and_sync() {
        let c = NodeClock::new();
        c.advance(SimTime(100));
        assert_eq!(c.now(), SimTime(100));
        c.sync_to(SimTime(50)); // behind: no-op
        assert_eq!(c.now(), SimTime(100));
        c.sync_to(SimTime(200));
        assert_eq!(c.now(), SimTime(200));
        c.reset_to(SimTime(10));
        assert_eq!(c.now(), SimTime(10));
    }

    #[test]
    fn cluster_barrier_takes_max_and_syncs() {
        let cc = ClusterClock::new();
        let a = NodeClock::new();
        let b = NodeClock::new();
        a.advance(SimTime(100));
        b.advance(SimTime(300));
        let t = cc.barrier([&a, &b]);
        assert_eq!(t, SimTime(300));
        assert_eq!(cc.now(), SimTime(300));
        assert_eq!(a.now(), SimTime(300));
        assert_eq!(b.now(), SimTime(300));
    }

    #[test]
    fn cluster_barrier_never_goes_backwards() {
        let cc = ClusterClock::new();
        cc.advance(SimTime(500));
        let a = NodeClock::new();
        a.advance(SimTime(100));
        let t = cc.barrier([&a]);
        assert_eq!(t, SimTime(500));
        assert_eq!(a.now(), SimTime(500));
    }

    #[test]
    fn watermark_is_monotone_and_measures_lag() {
        let w = Watermark::new();
        assert_eq!(w.now(), SimTime::ZERO);
        w.observe(SimTime(100));
        assert_eq!(w.now(), SimTime(100));
        w.observe(SimTime(40)); // late event: frontier holds
        assert_eq!(w.now(), SimTime(100));
        w.observe(SimTime(250));
        assert_eq!(w.lag(SimTime(400)), SimTime(150));
        assert_eq!(w.lag(SimTime(200)), SimTime::ZERO); // caught up
    }

    /// A request to a FIFO server shared through `free`: 10 ns each way,
    /// `service` ns at the server.
    fn fifo(free: &Arc<Mutex<SimTime>>, service: u64) -> impl FnOnce(SimTime) -> SimTime + Send {
        let free = Arc::clone(free);
        move |at| {
            let mut free = free.lock();
            *free = (*free).max(at + SimTime(10)) + SimTime(service);
            *free + SimTime(10)
        }
    }

    #[test]
    fn a_stage_charges_by_departure_and_delays_each_clients_later_requests() {
        let free = Arc::new(Mutex::new(SimTime::ZERO));
        let (a, b) = (NodeClock::new(), NodeClock::new());
        stage(&[&a, &b], || {
            // The host runs `a` to the end first: two requests, leaving at
            // its local 50 and, after 100 ns more of compute, 150.
            a.advance(SimTime(50));
            a.request(a.now(), fifo(&free, 40));
            a.advance(SimTime(100));
            a.request(a.now(), fifo(&free, 40));
            assert_eq!(a.now(), SimTime(150), "nothing is charged inside the stage");
            // `b` leaves at 0 and at 60.
            b.request(b.now(), fifo(&free, 40));
            b.advance(SimTime(60));
            b.request(b.now(), fifo(&free, 40));
        });
        // b₁ (0): served 10–50, back 60. a₁ (50): served 60–100, back 110.
        // b₂ (60 + b's 60 of waiting = 120): served 130–170, back 180.
        // a₂ (150 + a's 60 = 210): served 220–260, back 270.
        assert_eq!((a.now(), b.now()), (SimTime(270), SimTime(180)));
        assert_eq!(*free.lock(), SimTime(260));
        // Ties go to the lower client index, whatever the host order.
        let (c, d) = (NodeClock::new(), NodeClock::new());
        stage(&[&c, &d], || {
            d.request(SimTime::ZERO, fifo(&free, 40));
            c.request(SimTime::ZERO, fifo(&free, 1_000));
        });
        assert_eq!((c.now(), d.now()), (SimTime(1_270), SimTime(1_310)));
    }

    #[test]
    fn a_stage_that_unwinds_releases_its_clients() {
        let free = Arc::new(Mutex::new(SimTime::ZERO));
        let (c, d) = (NodeClock::new(), NodeClock::new());
        let out = std::panic::catch_unwind(|| {
            stage(&[&c], || {
                c.request(SimTime::ZERO, fifo(&free, 5));
                panic!("a task failed");
            })
        });
        assert!(out.is_err());
        // A nested stage that fails to open releases the clients it took
        // (`c`), and the outer one, unwinding, releases its own (`d`).
        let out = std::panic::catch_unwind(|| stage(&[&d], || stage(&[&c, &d], || ())));
        assert!(out.is_err());
        assert_eq!(*free.lock(), SimTime::ZERO, "nothing recorded was charged");
        for clock in [&c, &d] {
            assert_eq!(clock.now(), SimTime::ZERO);
            clock.sync_to(SimTime(30));
            let free = Arc::new(Mutex::new(SimTime::ZERO));
            stage(&[clock], || clock.request(clock.now(), fifo(&free, 5)));
            assert_eq!(clock.now(), SimTime(55));
        }
    }

    #[test]
    #[should_panic(expected = "cannot wait")]
    fn a_staged_clock_cannot_wait() {
        let c = NodeClock::new();
        stage(&[&c], || c.sync_to(SimTime(1)));
    }

    #[test]
    #[should_panic(expected = "cannot be reset")]
    fn a_staged_clock_cannot_be_reset() {
        let c = NodeClock::new();
        stage(&[&c], || c.reset_to(SimTime(1)));
    }

    #[test]
    fn register_joins_at_global_now() {
        let cc = ClusterClock::new();
        cc.advance(SimTime::from_secs(3));
        let n = NodeClock::new();
        cc.register(&n);
        assert_eq!(n.now(), SimTime::from_secs(3));
    }
}
