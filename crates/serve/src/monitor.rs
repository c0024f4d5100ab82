//! Serve-tier self-healing: heartbeat health checks and replica
//! auto-restart.
//!
//! The serving analogue of the `ps::master` health-check loop. A
//! [`Monitor`] pings every replica once per `failure_detect` period and
//! tracks *when each replica was last heard from* — the response-arrival
//! bookkeeping a real watchdog has, rather than an oracle view of
//! liveness. A replica is declared dead only when nothing has been heard
//! from it for a full **grace window** (two ping intervals), which costs
//! two RPC timeouts on top; then a container restart is scheduled
//! `container_restart` later, after which the replica
//! [rejoins](crate::cluster::ServeCluster::revive_replica) the router's
//! rotation.
//!
//! The grace window is what makes the monitor safe under fault
//! injection: a heartbeat response that is merely *delayed* (the
//! [`psgraph_sim::FaultSite::Heartbeat`] chaos site) does not trigger a
//! restart as long as it arrives within the grace window, and a response
//! delayed even longer cancels the pending spurious restart when it
//! lands. Only sustained silence — an actually dead replica — survives
//! to a completed restart.
//!
//! The monitor is driven from the load generator's simulated timeline:
//! [`Monitor::tick`] is called between queries and performs every
//! heartbeat round that became due, so detection latency is quantized to
//! the heartbeat period exactly as a real watchdog's would be.

use psgraph_sim::chaos::FaultSite;
use psgraph_sim::sync::Mutex;
use psgraph_sim::{CostModel, FxHashMap, NodeClock, SimTime};

use crate::cluster::ServeCluster;

/// One completed kill → detect → restart → rejoin cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Global id of the replica that died.
    pub replica: usize,
    /// When the heartbeat round declared it dead (grace window expired,
    /// plus the two RPC timeouts).
    pub detected_at: SimTime,
    /// When the restarted replica rejoined the rotation.
    pub rejoined_at: SimTime,
}

#[derive(Debug, Default)]
struct State {
    /// Next heartbeat round fires at this simulated time.
    next_check: SimTime,
    /// Heartbeat responses still in flight: `(replica id, arrival time)`.
    inflight: Vec<(usize, SimTime)>,
    /// Last response arrival per replica. Absence means never heard from
    /// (treated as last heard at `SimTime::ZERO`, when the monitor was
    /// installed alongside a presumed-healthy cluster).
    last_heard: FxHashMap<usize, SimTime>,
    /// Replicas declared dead, awaiting restart: `(id, detected_at,
    /// rejoin_at)`.
    pending: Vec<(usize, SimTime, SimTime)>,
    events: Vec<RecoveryEvent>,
    checks_run: u64,
    restarts: u64,
}

impl State {
    /// Absorb every response that has arrived by `now`: advance
    /// `last_heard` and cancel pending restarts for replicas that turned
    /// out to be alive (their delayed heartbeat outran the restart).
    fn absorb_arrivals(&mut self, now: SimTime) {
        let mut arrived = Vec::new();
        self.inflight.retain(|&(id, at)| {
            if at <= now {
                arrived.push((id, at));
                false
            } else {
                true
            }
        });
        for (id, at) in arrived {
            let heard = self.last_heard.entry(id).or_insert(SimTime::ZERO);
            *heard = (*heard).max(at);
            if let Some(i) = self.pending.iter().position(|&(pid, _, _)| pid == id) {
                self.pending.remove(i);
            }
        }
    }
}

/// Heartbeat monitor over a [`ServeCluster`]'s replicas.
#[derive(Debug)]
pub struct Monitor {
    cost: CostModel,
    /// Silence longer than this declares a replica dead — two ping
    /// intervals, so one delayed (or lost) heartbeat is never enough.
    grace: SimTime,
    /// The monitor's own clock — heartbeat RPCs charge it, not the
    /// query path.
    clock: NodeClock,
    state: Mutex<State>,
}

impl Monitor {
    pub fn new(cost: CostModel) -> Self {
        let state = State { next_check: cost.failure_detect, ..State::default() };
        Monitor {
            grace: cost.failure_detect.scale(2.0),
            cost,
            clock: NodeClock::new(),
            state: Mutex::new(state),
        }
    }

    /// Heartbeat rounds completed so far.
    pub fn checks_run(&self) -> u64 {
        self.state.lock().checks_run
    }

    /// Restarts scheduled so far (including cancelled and not-yet-rejoined
    /// ones).
    pub fn restarts(&self) -> u64 {
        self.state.lock().restarts
    }

    /// Every completed recovery, in rejoin order.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.state.lock().events.clone()
    }

    /// Advance the monitor to `now`: run every heartbeat round that came
    /// due (absorbing response arrivals first), declare replicas silent
    /// past the grace window dead, schedule their restarts, and rejoin
    /// replicas whose restart completed. Returns the recoveries that
    /// finished during this tick.
    pub fn tick(&self, cluster: &ServeCluster, now: SimTime) -> Vec<RecoveryEvent> {
        let mut st = self.state.lock();
        let st = &mut *st;
        let chaos = cluster.network().chaos();
        while st.next_check <= now {
            let t = st.next_check;
            self.clock.sync_to(t);
            st.checks_run += 1;
            st.absorb_arrivals(t);
            for rep in cluster.replicas() {
                let id = rep.global_id();
                if rep.is_alive() {
                    // The ping round-trips; chaos may hold the response
                    // up. The monitor learns of the reply only when it
                    // arrives (`absorb_arrivals` at a later round), never
                    // from `is_alive` directly.
                    cluster.network().rpc(&self.clock, rep.port(), 16, 8, 16);
                    let mut arrival = t + self.cost.net_latency + self.cost.net_latency;
                    if chaos.is_active() {
                        arrival += chaos.delay(FaultSite::Heartbeat, id as u64, st.checks_run);
                    }
                    st.inflight.push((id, arrival));
                }
                let heard = st.last_heard.get(&id).copied().unwrap_or(SimTime::ZERO);
                let suspect = t.saturating_sub(heard) >= self.grace;
                if suspect && !st.pending.iter().any(|&(pid, _, _)| pid == id) {
                    // Silence past the grace window: two timed-out pings
                    // confirm, then the restart is scheduled — the same
                    // charges as the PS master's recovery path. Detection
                    // is computed from `t`, not the monitor's clock, so
                    // accounting drift from the healthy pings never
                    // delays recovery.
                    let detected = t + self.cost.net_latency + self.cost.net_latency;
                    st.pending.push((
                        id,
                        detected,
                        detected + self.cost.container_restart,
                    ));
                    st.restarts += 1;
                }
            }
            st.next_check = t + self.cost.failure_detect;
        }
        st.absorb_arrivals(now);

        let mut due = Vec::new();
        st.pending.retain(|&(id, detected_at, rejoin_at)| {
            if rejoin_at <= now {
                due.push((id, detected_at, rejoin_at));
                false
            } else {
                true
            }
        });
        let mut completed = Vec::new();
        for (id, detected_at, rejoin_at) in due {
            // The container runtime finds the process already healthy
            // when a very late heartbeat straggles in after the restart
            // was dispatched: a no-op, not a bounce.
            if cluster.replicas()[id].is_alive() {
                continue;
            }
            cluster.revive_replica(id);
            // The restart process itself heard from the fresh replica —
            // without this the revived replica looks grace-window silent
            // at the very next round and is re-suspected forever.
            let heard = st.last_heard.entry(id).or_insert(SimTime::ZERO);
            *heard = (*heard).max(rejoin_at);
            completed.push(RecoveryEvent { replica: id, detected_at, rejoined_at: rejoin_at });
        }
        st.events.extend(completed.iter().copied());
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ServeCluster, ServeConfig};
    use psgraph_sim::chaos::{ChaosConfig, FaultSchedule};

    fn cluster() -> ServeCluster {
        ServeCluster::demo(24, 4, &ServeConfig::default()).unwrap().0
    }

    #[test]
    fn healthy_cluster_just_heartbeats() {
        let c = cluster();
        let m = Monitor::new(c.network().cost_model().clone());
        let period = c.network().cost_model().failure_detect;
        assert!(m.tick(&c, period.scale(0.5)).is_empty(), "nothing due yet");
        assert_eq!(m.checks_run(), 0);
        m.tick(&c, period.scale(6.5));
        assert_eq!(m.checks_run(), 6, "one round per elapsed period");
        assert_eq!(m.restarts(), 0, "responsive replicas are never suspected");
        assert!(m.events().is_empty());
    }

    #[test]
    fn dead_replica_is_detected_and_rejoined() {
        let c = cluster();
        let cost = c.network().cost_model().clone();
        let m = Monitor::new(cost.clone());
        assert!(c.kill_replica(1));
        assert_eq!(c.live_replicas(), 3);

        // One silent round is within grace — no restart yet.
        assert!(m.tick(&c, cost.failure_detect).is_empty());
        assert_eq!(m.restarts(), 0, "grace window absorbs one silent round");

        // A full grace window of silence declares it dead; the restart is
        // still in flight.
        assert!(m.tick(&c, m.grace).is_empty());
        assert_eq!(m.restarts(), 1);
        assert_eq!(c.live_replicas(), 3, "not back until the restart lands");

        // Once grace + detection + restart has elapsed, it rejoins.
        let done = m.grace + cost.restart_overhead();
        let events = m.tick(&c, done);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].replica, 1);
        let detected = m.grace + cost.net_latency + cost.net_latency;
        assert_eq!(events[0].detected_at, detected);
        assert_eq!(events[0].rejoined_at, detected + cost.container_restart);
        assert_eq!(c.live_replicas(), 4);

        // Detection is not re-reported, and the replica can die again.
        m.tick(&c, done + m.grace);
        assert_eq!(m.restarts(), 1);
        assert!(c.kill_replica(1));
        m.tick(
            &c,
            done + m.grace.scale(2.0) + cost.restart_overhead() + cost.failure_detect,
        );
        assert_eq!(m.restarts(), 2);
        assert_eq!(m.events().len(), 2);
        assert_eq!(c.live_replicas(), 4);
    }

    /// Satellite regression: a heartbeat response that is delayed — even
    /// past the grace window — must never bounce an alive replica. Delays
    /// within grace never schedule a restart at all; longer ones are
    /// cancelled when the straggler arrives.
    #[test]
    fn delayed_but_alive_replica_is_never_restarted() {
        let c = cluster();
        let cost = c.network().cost_model().clone();
        let fd = cost.failure_detect;

        // Every response delayed, but by less than one ping interval:
        // gaps stay under the grace window, nothing is even suspected.
        let mild = FaultSchedule::new(ChaosConfig {
            seed: 0xD1A7,
            p_delay: 1.0,
            max_delay: fd,
            ..ChaosConfig::off()
        });
        c.network().attach_chaos(mild);
        let m = Monitor::new(cost.clone());
        m.tick(&c, fd.scale(30.0));
        assert_eq!(m.restarts(), 0, "delays within grace never suspect");
        assert!(m.events().is_empty());
        assert_eq!(c.live_replicas(), 4);

        // Savage delays (up to 4 ping intervals): silences can exceed the
        // grace window and schedule restarts, but the late responses (or
        // the healthy process found at restart time) cancel every one —
        // no alive replica is ever bounced, and the run is deterministic.
        let run = |seed: u64| {
            let c = cluster();
            let savage = FaultSchedule::new(ChaosConfig {
                seed,
                p_delay: 1.0,
                max_delay: fd.scale(4.0),
                ..ChaosConfig::off()
            });
            c.network().attach_chaos(savage);
            let m = Monitor::new(cost.clone());
            for k in 1..=60u32 {
                m.tick(&c, fd.scale(k as f64));
            }
            m.tick(&c, fd.scale(60.0) + cost.restart_overhead().scale(2.0));
            assert!(
                m.events().is_empty(),
                "an alive replica was bounced despite only delayed heartbeats"
            );
            assert_eq!(c.live_replicas(), 4);
            let pending = m.state.lock().pending.clone();
            (m.restarts(), pending, m.checks_run())
        };
        let a = run(0xBEEF);
        assert_eq!(a, run(0xBEEF), "chaos-delayed monitoring is deterministic");
    }
}
