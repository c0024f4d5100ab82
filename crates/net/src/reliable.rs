//! Reliable keyed delivery over the lossy (chaos-injected) network:
//! at-least-once retry with exponential backoff and a per-delivery
//! deadline, paired with an [`IdempotencyFilter`] that turns at-least-once
//! transport into exactly-once *effects*.
//!
//! The failure model distinguishes the two legs of an RPC:
//!
//! * **request loss** — the server never saw it; retrying is harmless.
//! * **response loss** — the server applied the effect but the client
//!   cannot know, so it retries and the effect is offered *again*. Without
//!   idempotency keys a duplicated PS increment would be double-applied;
//!   the filter absorbs the second application.
//!
//! Duplication by the network itself (the receiver sees one send twice) is
//! handled the same way. All fault draws are keyed by
//! `(site, key, attempt)` so a chaos run replays bit-identically from its
//! seed (see `sim::chaos`).

use crate::rpc::{Network, ServicePort};
use psgraph_sim::sync::Mutex;
use psgraph_sim::{FaultSite, FxHashSet, NodeClock, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Retry/backoff/deadline knobs for one reliable delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up after this many send attempts.
    pub max_attempts: u32,
    /// Wait after the first failed attempt; doubles per retry.
    pub base_backoff: SimTime,
    /// Total simulated-time budget from first send to success.
    pub deadline: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            base_backoff: SimTime(1_000_000), // 1 ms
            deadline: SimTime::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based failed attempt):
    /// `base << attempt`, capped at 1024x base to keep the doubling from
    /// overflowing pathological configurations.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        SimTime(self.base_backoff.as_nanos().saturating_mul(1u64 << attempt.min(10)))
    }
}

/// Why a reliable delivery gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryError {
    /// The per-delivery deadline elapsed before any attempt succeeded.
    DeadlineExceeded { key: u64, attempts: u32, waited: SimTime },
    /// Every allowed attempt was lost.
    AttemptsExhausted { key: u64, attempts: u32 },
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryError::DeadlineExceeded { key, attempts, waited } => write!(
                f,
                "delivery of key {key} missed its deadline after {attempts} attempts ({waited} waited)"
            ),
            DeliveryError::AttemptsExhausted { key, attempts } => {
                write!(f, "delivery of key {key} lost on all {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for DeliveryError {}

/// What happened while delivering one keyed message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryReceipt {
    /// Send attempts made (1 on the fault-free path).
    pub attempts: u32,
    /// Times the receiver-side effect closure ran (>1 means the
    /// idempotency filter had work to do).
    pub applications: u32,
    /// Request legs lost in transit.
    pub lost_requests: u32,
    /// Responses lost after the server applied the effect.
    pub lost_responses: u32,
    /// Network-duplicated deliveries.
    pub duplicates: u32,
    /// First-send to acknowledged-response, in simulated time.
    pub rtt: SimTime,
}

/// Exactly-once gate over at-least-once delivery: the first caller of
/// [`IdempotencyFilter::first_time`] for a key wins; replays and network
/// duplicates are counted and suppressed.
#[derive(Debug, Default)]
pub struct IdempotencyFilter {
    seen: Mutex<FxHashSet<u64>>,
    suppressed: AtomicU64,
}

impl IdempotencyFilter {
    pub fn new() -> Self {
        Self::default()
    }

    /// True exactly once per key.
    pub fn first_time(&self, key: u64) -> bool {
        let fresh = self.seen.lock().insert(key);
        if !fresh {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Run `effect` only on the first sighting of `key`; report whether it
    /// ran.
    pub fn apply_once(&self, key: u64, effect: impl FnOnce()) -> bool {
        let fresh = self.first_time(key);
        if fresh {
            effect();
        }
        fresh
    }

    /// Distinct keys seen.
    pub fn len(&self) -> usize {
        self.seen.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.seen.lock().is_empty()
    }

    /// Duplicate applications absorbed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }
}

impl Network {
    /// Deliver one keyed message to `port`, retrying through injected
    /// loss/duplication/delay until acknowledged or the policy gives up.
    ///
    /// `deliver` is the receiver-side effect; it runs once per time the
    /// server *sees* the request — possibly more than once under response
    /// loss or duplication — so non-idempotent effects must be gated with
    /// an [`IdempotencyFilter`] keyed by `key`. Timing: each attempt
    /// charges the request wire time (+ injected delay), queues on the
    /// port, and returns the response; failed attempts charge an
    /// exponential-backoff timeout to the client clock. Without an active
    /// chaos schedule this is exactly one [`Network::rpc`]. The client
    /// waits on its own clock and the receipt reads the round trip, so a
    /// delivery never runs inside a stage (`sim::stage`).
    #[allow(clippy::too_many_arguments)]
    pub fn send_reliable(
        &self,
        client: &NodeClock,
        port: &ServicePort,
        req_bytes: u64,
        server_ops: u64,
        resp_bytes: u64,
        policy: &RetryPolicy,
        site: FaultSite,
        key: u64,
        deliver: &mut dyn FnMut(),
    ) -> Result<DeliveryReceipt, DeliveryError> {
        let Some(chaos) = self.chaos_if_active() else {
            let sent = client.now();
            client.sync_to(self.rpc_at(sent, port, req_bytes, server_ops, resp_bytes));
            deliver();
            let rtt = client.now() - sent;
            return Ok(DeliveryReceipt { attempts: 1, applications: 1, rtt, ..Default::default() });
        };

        let first_sent = client.now();
        let mut receipt = DeliveryReceipt::default();
        for attempt in 0..policy.max_attempts {
            let waited = client.now().saturating_sub(first_sent);
            if waited > policy.deadline {
                return Err(DeliveryError::DeadlineExceeded {
                    key,
                    attempts: receipt.attempts,
                    waited,
                });
            }
            receipt.attempts += 1;
            let lane = attempt as u64;
            if chaos.lose_request(site, key, lane) {
                receipt.lost_requests += 1;
                client.advance(policy.backoff(attempt));
                continue;
            }
            // The request reached the server: its effect happens exactly
            // here, whether or not the client ever learns of it.
            let arrival =
                client.now() + self.cost_model().net_cost(req_bytes) + chaos.delay(site, key, lane);
            let done = port.serve(arrival, self.cost_model().cpu_cost(server_ops));
            deliver();
            receipt.applications += 1;
            if chaos.duplicate(site, key, lane) {
                receipt.duplicates += 1;
                deliver();
                receipt.applications += 1;
            }
            self.stats().rpc_count.fetch_add(1, Ordering::Relaxed);
            self.stats().bytes_sent.fetch_add(req_bytes, Ordering::Relaxed);
            if chaos.lose_response(site, key, lane) {
                receipt.lost_responses += 1;
                client.advance(policy.backoff(attempt));
                continue;
            }
            let back = done + self.cost_model().net_cost(resp_bytes);
            client.sync_to(back);
            self.stats().bytes_received.fetch_add(resp_bytes, Ordering::Relaxed);
            receipt.rtt = client.now().saturating_sub(first_sent);
            return Ok(receipt);
        }
        Err(DeliveryError::AttemptsExhausted { key, attempts: receipt.attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::NodeId;
    use psgraph_sim::{ChaosConfig, CostModel, FaultSchedule};
    use std::sync::atomic::AtomicU32;

    fn net_with(cfg: ChaosConfig) -> Network {
        let n = Network::new(CostModel::default());
        n.attach_chaos(FaultSchedule::new(cfg));
        n
    }

    #[test]
    fn fault_free_path_is_one_plain_rpc() {
        let plain = Network::new(CostModel::default());
        let c0 = NodeClock::new();
        let p0 = ServicePort::new(NodeId::Server(0));
        plain.rpc(&c0, &p0, 100, 50, 100);

        let n = Network::new(CostModel::default());
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let mut hits = 0;
        let r = n
            .send_reliable(
                &c,
                &p,
                100,
                50,
                100,
                &RetryPolicy::default(),
                FaultSite::Delivery,
                9,
                &mut || hits += 1,
            )
            .unwrap();
        assert_eq!((r.attempts, r.applications, hits), (1, 1, 1));
        assert_eq!(r.rtt, c0.now());
        assert_eq!(c.now(), c0.now());
    }

    #[test]
    fn request_loss_retries_and_charges_backoff() {
        // p_loss = 0.5: scan for a key whose first request leg is lost.
        let cfg = ChaosConfig { seed: 11, p_loss: 0.5, ..ChaosConfig::off() };
        let sched = FaultSchedule::new(cfg);
        let key = (0..10_000u64)
            .find(|&k| {
                sched.lose_request(FaultSite::Delivery, k, 0)
                    && !sched.lose_request(FaultSite::Delivery, k, 1)
                    && !sched.lose_response(FaultSite::Delivery, k, 1)
            })
            .expect("must exist at p=0.5");
        let n = net_with(cfg);
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let policy = RetryPolicy::default();
        let mut hits = 0;
        let r = n
            .send_reliable(&c, &p, 10, 10, 10, &policy, FaultSite::Delivery, key, &mut || {
                hits += 1
            })
            .unwrap();
        assert_eq!(r.attempts, 2);
        assert_eq!(r.lost_requests, 1);
        assert_eq!(hits, 1, "a lost request never reached the server");
        assert!(c.now() >= policy.backoff(0), "backoff was not charged");
    }

    #[test]
    fn response_loss_reapplies_but_filter_makes_it_exactly_once() {
        let cfg = ChaosConfig { seed: 21, p_loss: 0.5, ..ChaosConfig::off() };
        let sched = FaultSchedule::new(cfg);
        // First attempt: request arrives, response lost. Second attempt clean.
        let key = (0..20_000u64)
            .find(|&k| {
                !sched.lose_request(FaultSite::Delivery, k, 0)
                    && sched.lose_response(FaultSite::Delivery, k, 0)
                    && !sched.lose_request(FaultSite::Delivery, k, 1)
                    && !sched.lose_response(FaultSite::Delivery, k, 1)
            })
            .expect("must exist at p=0.5");
        let n = net_with(cfg);
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let filter = IdempotencyFilter::new();
        let effects = AtomicU32::new(0);
        let r = n
            .send_reliable(
                &c,
                &p,
                10,
                10,
                10,
                &RetryPolicy::default(),
                FaultSite::Delivery,
                key,
                &mut || {
                    filter.apply_once(key, || {
                        effects.fetch_add(1, Ordering::Relaxed);
                    });
                },
            )
            .unwrap();
        assert_eq!(r.lost_responses, 1);
        assert!(r.applications >= 2, "server saw the request twice");
        assert_eq!(effects.load(Ordering::Relaxed), 1, "double-applied despite filter");
        assert_eq!(filter.suppressed(), (r.applications - 1) as u64);
    }

    #[test]
    fn total_loss_exhausts_attempts() {
        let cfg = ChaosConfig { seed: 1, p_loss: 1.0, ..ChaosConfig::off() };
        let n = net_with(cfg);
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut hits = 0;
        let err = n
            .send_reliable(&c, &p, 10, 10, 10, &policy, FaultSite::Delivery, 5, &mut || hits += 1)
            .unwrap_err();
        assert_eq!(err, DeliveryError::AttemptsExhausted { key: 5, attempts: 3 });
        assert_eq!(hits, 0);
    }

    #[test]
    fn deadline_cuts_off_long_retry_chains() {
        let cfg = ChaosConfig { seed: 1, p_loss: 1.0, ..ChaosConfig::off() };
        let n = net_with(cfg);
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let policy = RetryPolicy {
            max_attempts: 64,
            base_backoff: SimTime::from_secs(1),
            deadline: SimTime::from_secs(3),
        };
        let err = n
            .send_reliable(&c, &p, 10, 10, 10, &policy, FaultSite::Delivery, 5, &mut || {})
            .unwrap_err();
        assert!(
            matches!(err, DeliveryError::DeadlineExceeded { key: 5, .. }),
            "expected deadline, got {err}"
        );
    }

    #[test]
    fn duplication_is_visible_and_absorbable() {
        let cfg = ChaosConfig { seed: 2, p_duplicate: 1.0, ..ChaosConfig::off() };
        let n = net_with(cfg);
        let c = NodeClock::new();
        let p = ServicePort::new(NodeId::Server(0));
        let filter = IdempotencyFilter::new();
        let effects = AtomicU32::new(0);
        let r = n
            .send_reliable(
                &c,
                &p,
                10,
                10,
                10,
                &RetryPolicy::default(),
                FaultSite::Delivery,
                3,
                &mut || {
                    filter.apply_once(3, || {
                        effects.fetch_add(1, Ordering::Relaxed);
                    });
                },
            )
            .unwrap();
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.applications, 2);
        assert_eq!(effects.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reliable_delivery_replays_bit_identically_from_the_seed() {
        let cfg = ChaosConfig { p_loss: 0.3, p_duplicate: 0.2, ..ChaosConfig::soak(77) };
        let run = || {
            let n = net_with(cfg);
            let c = NodeClock::new();
            let p = ServicePort::new(NodeId::Server(0));
            let mut receipts = Vec::new();
            for key in 0..200u64 {
                let r = n
                    .send_reliable(
                        &c,
                        &p,
                        64,
                        32,
                        64,
                        &RetryPolicy::default(),
                        FaultSite::Delivery,
                        key,
                        &mut || {},
                    )
                    .unwrap();
                receipts.push(r);
            }
            (receipts, c.now())
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
        assert!(ra.iter().any(|r| r.attempts > 1), "chaos never fired at p=0.3");
    }

    #[test]
    fn idempotency_filter_basics() {
        let f = IdempotencyFilter::new();
        assert!(f.is_empty());
        assert!(f.first_time(1));
        assert!(!f.first_time(1));
        assert!(f.first_time(2));
        assert_eq!(f.len(), 2);
        assert_eq!(f.suppressed(), 1);
    }
}
