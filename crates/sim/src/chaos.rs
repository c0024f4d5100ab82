//! Deterministic, seeded fault injection: the single source of
//! nondeterminism for chaos runs, fully replayable from one `u64` seed.
//!
//! A [`FaultSchedule`] answers questions of the form "does fault F fire at
//! site S for key K (attempt A)?" as a **pure function** of
//! `(seed, site, key, lane)` — no internal draw counter, no shared mutable
//! RNG state. That is the determinism rule that makes chaos compatible
//! with the thread pool: the answer cannot depend on which thread
//! asks first or how calls interleave, so a run is bit-replayable from the
//! seed alone regardless of `POOL_THREADS` or claim order (DESIGN.md
//! "Fault model"). Callers supply stable keys (event index, batch number,
//! heartbeat round, block id); retries pass a fresh `lane` so a lost
//! message is not lost identically forever.
//!
//! A scripted kill — "kill executor 1 at superstep 2", Table II's
//! experiment — is a crash point of a [`FaultSchedule::scripted`]
//! schedule: `crash(site, key, lane)` answers yes at each listed point,
//! whatever the seed. Like every decision it fires each time its point is
//! asked, not once.
//!
//! The hash chain is the same SplitMix64 used by the harness RNG, so
//! per-site streams inherit its mixing quality. Injection counters are
//! atomics — observability only, never consulted by decisions.

use crate::clock::SimTime;
use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where in the system a fault is being drawn. Each site salts the hash
/// chain differently so e.g. heartbeat delays are independent of ingest
/// losses under the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The generic RPC data plane (`Network::rpc` latency perturbation).
    Rpc,
    /// Reliable keyed delivery (`Network::send_reliable`): loss/dup/delay.
    Delivery,
    /// Serve-tier heartbeat responses (monitor pings).
    Heartbeat,
    /// Ingest mailbox posts.
    Ingest,
    /// DFS block writes (replica corruption).
    DfsWrite,
    /// Parameter-server process crash points.
    PsCrash,
    /// Serve replica process crash points.
    ReplicaCrash,
    /// Spark executor process crash points.
    ExecutorCrash,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::Rpc => 0x5250_435F_5349_5445,
            FaultSite::Delivery => 0x4445_4C49_5645_5259,
            FaultSite::Heartbeat => 0x4845_4152_5442_4541,
            FaultSite::Ingest => 0x494E_4745_5354_5F5F,
            FaultSite::DfsWrite => 0x4446_535F_5752_4954,
            FaultSite::PsCrash => 0x5053_5F43_5241_5348,
            FaultSite::ReplicaCrash => 0x5245_504C_4943_415F,
            FaultSite::ExecutorCrash => 0x4558_4543_5F43_5241,
        }
    }
}

/// Per-class fault probabilities. All zero (`off`) means the schedule
/// never fires and every hook short-circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed — the only nondeterminism input of a chaos run.
    pub seed: u64,
    /// P(a keyed message delivery attempt is lost) — applied independently
    /// to the request and response legs.
    pub p_loss: f64,
    /// P(a delivered message is duplicated by the network).
    pub p_duplicate: f64,
    /// P(a message/heartbeat is delayed), by up to `max_delay`.
    pub p_delay: f64,
    /// Upper bound for injected delay (uniform in `(0, max_delay]`).
    pub max_delay: SimTime,
    /// P(a crash point fires) — drawn once per (site, key, lane).
    pub p_crash: f64,
    /// P(a freshly written DFS block has one replica corrupted).
    pub p_corrupt: f64,
}

impl ChaosConfig {
    /// No faults at all; every decision short-circuits to "no".
    pub fn off() -> Self {
        ChaosConfig {
            seed: 0,
            p_loss: 0.0,
            p_duplicate: 0.0,
            p_delay: 0.0,
            max_delay: SimTime::ZERO,
            p_crash: 0.0,
            p_corrupt: 0.0,
        }
    }

    /// The standard chaos-soak mix: every fault class enabled at rates
    /// that make each one fire multiple times per soak run.
    pub fn soak(seed: u64) -> Self {
        ChaosConfig {
            seed,
            p_loss: 0.05,
            p_duplicate: 0.05,
            p_delay: 0.10,
            max_delay: SimTime(5_000_000), // 5 ms
            p_crash: 0.06,
            p_corrupt: 0.08,
        }
    }

    fn any_enabled(&self) -> bool {
        self.p_loss > 0.0
            || self.p_duplicate > 0.0
            || self.p_delay > 0.0
            || self.p_crash > 0.0
            || self.p_corrupt > 0.0
    }
}

/// Snapshot of how many faults a schedule has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub losses: u64,
    pub duplicates: u64,
    pub delays: u64,
    pub crashes: u64,
    pub corruptions: u64,
}

#[derive(Debug, Default)]
struct Counters {
    losses: AtomicU64,
    duplicates: AtomicU64,
    delays: AtomicU64,
    crashes: AtomicU64,
    corruptions: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    cfg: ChaosConfig,
    active: bool,
    /// Crash points `(site, key, lane)` that fire whatever the seed.
    scripted: Vec<(FaultSite, u64, u64)>,
    counters: Counters,
}

/// Cheap-to-clone handle on a seeded fault schedule (see module docs for
/// the determinism rule). Attach one to `Network`, `Dfs`, a `Mailbox`, the
/// serve `Monitor` or a `PsGraphContext`, or hand one to the serve load
/// generator; the default everywhere is [`FaultSchedule::off`].
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    inner: Arc<Inner>,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::off()
    }
}

impl FaultSchedule {
    pub fn new(cfg: ChaosConfig) -> Self {
        FaultSchedule::build(cfg, Vec::new())
    }

    /// A schedule whose only faults are the listed crash points
    /// `(site, key, lane)`: [`FaultSchedule::crash`] answers yes at each of
    /// them and no anywhere else. No probabilistic class is enabled, so
    /// [`FaultSchedule::is_active`] stays false and every other hook keeps
    /// its short-circuit path.
    pub fn scripted(points: impl IntoIterator<Item = (FaultSite, u64, u64)>) -> Self {
        FaultSchedule::build(ChaosConfig::off(), points.into_iter().collect())
    }

    fn build(cfg: ChaosConfig, scripted: Vec<(FaultSite, u64, u64)>) -> Self {
        let active = cfg.any_enabled();
        FaultSchedule {
            inner: Arc::new(Inner { cfg, active, scripted, counters: Counters::default() }),
        }
    }

    /// A schedule that never injects anything (the production default).
    pub fn off() -> Self {
        FaultSchedule::new(ChaosConfig::off())
    }

    /// Whether any fault class has nonzero probability. Hooks use this to
    /// short-circuit so fault-free paths stay bit-identical to a build
    /// without chaos attached.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.active
    }

    pub fn config(&self) -> &ChaosConfig {
        &self.inner.cfg
    }

    pub fn seed(&self) -> u64 {
        self.inner.cfg.seed
    }

    /// The pure decision stream for `(seed, site, key, lane)`. Two chained
    /// SplitMix64 finalizer steps decorrelate the inputs; the returned
    /// generator yields the draw(s) for this one decision point.
    #[inline]
    fn stream(&self, site: FaultSite, key: u64, lane: u64) -> SplitMix64 {
        let mut h = SplitMix64::new(self.inner.cfg.seed ^ site.salt());
        let s1 = h.next() ^ key.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut h2 = SplitMix64::new(s1);
        let s2 = h2.next() ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SplitMix64::new(s2)
    }

    /// Is the *request* leg of delivery attempt `lane` for `key` lost?
    pub fn lose_request(&self, site: FaultSite, key: u64, lane: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let hit = self.stream(site, key, lane.wrapping_mul(2)).next_bool(self.inner.cfg.p_loss);
        if hit {
            self.inner.counters.losses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Is the *response* leg lost (the server saw the request — its effect
    /// applied — but the client never hears back and will retry)?
    pub fn lose_response(&self, site: FaultSite, key: u64, lane: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let hit = self
            .stream(site, key, lane.wrapping_mul(2).wrapping_add(1))
            .next_bool(self.inner.cfg.p_loss);
        if hit {
            self.inner.counters.losses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Does the network duplicate this delivery (the receiver sees it
    /// twice — idempotency keys must absorb the second copy)?
    pub fn duplicate(&self, site: FaultSite, key: u64, lane: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let mut s = self.stream(site, key, lane);
        s.next(); // skip the loss draw position
        let hit = s.next_bool(self.inner.cfg.p_duplicate);
        if hit {
            self.inner.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Injected extra latency for this decision point (ZERO when the delay
    /// class does not fire).
    pub fn delay(&self, site: FaultSite, key: u64, lane: u64) -> SimTime {
        if !self.inner.active {
            return SimTime::ZERO;
        }
        let mut s = self.stream(site, key, lane);
        s.next();
        s.next(); // skip loss + duplicate draw positions
        if !s.next_bool(self.inner.cfg.p_delay) {
            return SimTime::ZERO;
        }
        self.inner.counters.delays.fetch_add(1, Ordering::Relaxed);
        let max = self.inner.cfg.max_delay.as_nanos().max(1);
        SimTime(1 + s.next_below(max))
    }

    /// Does a crash point fire here? A scripted point always does.
    pub fn crash(&self, site: FaultSite, key: u64, lane: u64) -> bool {
        let hit = if self.inner.scripted.contains(&(site, key, lane)) {
            true
        } else if self.inner.active {
            let mut s = self.stream(site, key, lane);
            s.next();
            s.next();
            s.next(); // independent draw position from loss/dup/delay
            s.next_bool(self.inner.cfg.p_crash)
        } else {
            false
        };
        if hit {
            self.inner.counters.crashes.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Is one replica of a freshly written DFS block corrupted?
    pub fn corrupt(&self, site: FaultSite, key: u64, lane: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let mut s = self.stream(site, key, lane);
        for _ in 0..4 {
            s.next();
        }
        let hit = s.next_bool(self.inner.cfg.p_corrupt);
        if hit {
            self.inner.counters.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Deterministic victim choice in `[0, n)` — which server to crash,
    /// which replica to corrupt. Not a fault by itself; not counted.
    pub fn pick(&self, site: FaultSite, key: u64, lane: u64, n: usize) -> usize {
        debug_assert!(n > 0);
        let mut s = self.stream(site, key, lane.wrapping_add(0x5049_434B));
        s.next_below(n as u64) as usize
    }

    /// Injection counts so far (observability only — decisions never read
    /// these).
    pub fn stats(&self) -> FaultStats {
        let c = &self.inner.counters;
        FaultStats {
            losses: c.losses.load(Ordering::Relaxed),
            duplicates: c.duplicates.load(Ordering::Relaxed),
            delays: c.delays.load(Ordering::Relaxed),
            crashes: c.crashes.load(Ordering::Relaxed),
            corruptions: c.corruptions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_site_key_lane() {
        let a = FaultSchedule::new(ChaosConfig::soak(42));
        let b = FaultSchedule::new(ChaosConfig::soak(42));
        for key in 0..500u64 {
            for lane in 0..3u64 {
                assert_eq!(
                    a.lose_request(FaultSite::Delivery, key, lane),
                    b.lose_request(FaultSite::Delivery, key, lane)
                );
                assert_eq!(
                    a.delay(FaultSite::Heartbeat, key, lane),
                    b.delay(FaultSite::Heartbeat, key, lane)
                );
                assert_eq!(
                    a.crash(FaultSite::PsCrash, key, lane),
                    b.crash(FaultSite::PsCrash, key, lane)
                );
            }
        }
        // Asking twice gives the same answer: no hidden draw counter.
        assert_eq!(
            a.duplicate(FaultSite::Delivery, 7, 0),
            a.duplicate(FaultSite::Delivery, 7, 0)
        );
    }

    #[test]
    fn different_seeds_differ_and_sites_are_independent() {
        let a = FaultSchedule::new(ChaosConfig::soak(1));
        let b = FaultSchedule::new(ChaosConfig::soak(2));
        let diverged = (0..2000u64)
            .any(|k| a.lose_request(FaultSite::Delivery, k, 0) != b.lose_request(FaultSite::Delivery, k, 0));
        assert!(diverged, "seeds 1 and 2 produced identical loss schedules");
        // Same seed, different sites: streams must not be copies.
        let cross_diverged = (0..2000u64)
            .any(|k| a.lose_request(FaultSite::Delivery, k, 0) != a.lose_request(FaultSite::Ingest, k, 0));
        assert!(cross_diverged, "Delivery and Ingest sites share a stream");
    }

    #[test]
    fn off_schedule_never_fires() {
        let s = FaultSchedule::off();
        assert!(!s.is_active());
        for k in 0..1000u64 {
            assert!(!s.lose_request(FaultSite::Delivery, k, 0));
            assert!(!s.duplicate(FaultSite::Delivery, k, 0));
            assert_eq!(s.delay(FaultSite::Heartbeat, k, 0), SimTime::ZERO);
            assert!(!s.crash(FaultSite::PsCrash, k, 0));
            assert!(!s.corrupt(FaultSite::DfsWrite, k, 0));
        }
        assert_eq!(s.stats(), FaultStats::default());
    }

    #[test]
    fn scripted_points_fire_whenever_asked_and_nothing_else_does() {
        let s = FaultSchedule::scripted([
            (FaultSite::ExecutorCrash, 5, 2),
            (FaultSite::PsCrash, 5, 1),
        ]);
        assert!(!s.is_active());
        assert!(s.crash(FaultSite::ExecutorCrash, 5, 2));
        // A pure function: asking again gives the same answer.
        assert!(s.crash(FaultSite::ExecutorCrash, 5, 2));
        assert!(s.crash(FaultSite::PsCrash, 5, 1));
        for k in 0..100u64 {
            for lane in 0..4u64 {
                assert!(!s.crash(FaultSite::ExecutorCrash, k, lane) || (k, lane) == (5, 2));
                assert!(!s.crash(FaultSite::ReplicaCrash, k, lane));
                assert!(!s.lose_request(FaultSite::Delivery, k, lane));
            }
        }
        assert_eq!(s.stats(), FaultStats { crashes: 4, ..FaultStats::default() });
    }

    #[test]
    fn rates_calibrate_to_configured_probabilities() {
        let s = FaultSchedule::new(ChaosConfig {
            seed: 99,
            p_loss: 0.2,
            p_duplicate: 0.1,
            p_delay: 0.3,
            max_delay: SimTime(1000),
            p_crash: 0.05,
            p_corrupt: 0.15,
        });
        let n = 20_000u64;
        let losses = (0..n).filter(|&k| s.lose_request(FaultSite::Delivery, k, 0)).count();
        let dups = (0..n).filter(|&k| s.duplicate(FaultSite::Delivery, k, 0)).count();
        let delays = (0..n)
            .filter(|&k| s.delay(FaultSite::Delivery, k, 0) > SimTime::ZERO)
            .count();
        let crashes = (0..n).filter(|&k| s.crash(FaultSite::PsCrash, k, 0)).count();
        assert!((losses as f64 / n as f64 - 0.2).abs() < 0.02, "loss rate {losses}");
        assert!((dups as f64 / n as f64 - 0.1).abs() < 0.02, "dup rate {dups}");
        assert!((delays as f64 / n as f64 - 0.3).abs() < 0.02, "delay rate {delays}");
        assert!((crashes as f64 / n as f64 - 0.05).abs() < 0.01, "crash rate {crashes}");
    }

    #[test]
    fn delays_are_bounded_and_nonzero_when_fired() {
        let cfg = ChaosConfig { p_delay: 1.0, max_delay: SimTime(777), ..ChaosConfig::soak(5) };
        let s = FaultSchedule::new(cfg);
        for k in 0..5000u64 {
            let d = s.delay(FaultSite::Heartbeat, k, 0);
            assert!(d > SimTime::ZERO && d <= SimTime(777), "delay {d:?}");
        }
    }

    #[test]
    fn lanes_decorrelate_retries() {
        // A key whose first attempt is lost must not be lost on every lane.
        let s = FaultSchedule::new(ChaosConfig { p_loss: 0.5, ..ChaosConfig::soak(3) });
        let k = (0..10_000u64)
            .find(|&k| s.lose_request(FaultSite::Delivery, k, 0))
            .expect("p=0.5 must hit");
        let recovered = (1..64u64).any(|lane| !s.lose_request(FaultSite::Delivery, k, lane));
        assert!(recovered, "key {k} lost on all 64 lanes at p=0.5");
    }

    #[test]
    fn counters_track_injections() {
        let s = FaultSchedule::new(ChaosConfig { p_loss: 1.0, ..ChaosConfig::soak(8) });
        for k in 0..10u64 {
            assert!(s.lose_request(FaultSite::Delivery, k, 0));
        }
        assert_eq!(s.stats().losses, 10);
    }

    #[test]
    fn pick_is_deterministic_and_in_range() {
        let s = FaultSchedule::new(ChaosConfig::soak(13));
        for k in 0..1000u64 {
            let p = s.pick(FaultSite::PsCrash, k, 0, 4);
            assert!(p < 4);
            assert_eq!(p, s.pick(FaultSite::PsCrash, k, 0, 4));
        }
        // All choices reachable.
        let mut seen = [false; 4];
        for k in 0..100u64 {
            seen[s.pick(FaultSite::PsCrash, k, 0, 4)] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
