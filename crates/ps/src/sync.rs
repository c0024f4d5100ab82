//! Synchronization protocols (paper §II-D, §III-A): BSP and ASP.
//!
//! In BSP every superstep ends with a barrier: the global clock jumps to
//! the slowest participant and all participants re-synchronize. In ASP the
//! barrier is skipped — executor timelines drift, and the superstep's
//! *makespan* contribution is only what the caller later observes via the
//! slowest node. The controller also implements the blocking behaviour
//! used during failure recovery ("the other executors are blocked by the
//! synchronization controller of PS", §III-C).

use psgraph_sim::{ClusterClock, NodeClock, SimTime};

/// The synchronization protocol for a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Bulk-synchronous: barrier after every superstep.
    #[default]
    Bsp,
    /// Asynchronous: no barrier; stragglers don't block peers.
    Asp,
}

/// Superstep synchronization controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncController {
    pub mode: SyncMode,
}

impl SyncController {
    pub fn new(mode: SyncMode) -> Self {
        SyncController { mode }
    }

    /// Close a superstep over `workers`. BSP barriers (returns the barrier
    /// time); ASP leaves clocks untouched and returns the current max so
    /// callers can still report progress.
    pub fn end_superstep<'a, I>(&self, clock: &ClusterClock, workers: I) -> SimTime
    where
        I: IntoIterator<Item = &'a NodeClock> + Clone,
    {
        match self.mode {
            SyncMode::Bsp => clock.barrier(workers),
            SyncMode::Asp => {
                let mut max = clock.now();
                for w in workers {
                    max = max.max(w.now());
                }
                max
            }
        }
    }

    /// Block `workers` until simulated time `until` (failure recovery:
    /// healthy executors wait at the barrier while a peer restarts). The
    /// same under either mode.
    pub fn block_until<'a, I>(clock: &ClusterClock, workers: I, until: SimTime)
    where
        I: IntoIterator<Item = &'a NodeClock>,
    {
        clock.advance(until.saturating_sub(clock.now()));
        for w in workers {
            w.sync_to(until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_barriers_workers() {
        let ctrl = SyncController::new(SyncMode::Bsp);
        let clock = ClusterClock::new();
        let a = NodeClock::new();
        let b = NodeClock::new();
        a.advance(SimTime::from_secs(1));
        b.advance(SimTime::from_secs(5));
        let t = ctrl.end_superstep(&clock, [&a, &b]);
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(a.now(), SimTime::from_secs(5));
        assert_eq!(clock.now(), SimTime::from_secs(5));
    }

    #[test]
    fn asp_leaves_clocks_drifting() {
        let ctrl = SyncController::new(SyncMode::Asp);
        let clock = ClusterClock::new();
        let a = NodeClock::new();
        let b = NodeClock::new();
        a.advance(SimTime::from_secs(1));
        b.advance(SimTime::from_secs(5));
        let t = ctrl.end_superstep(&clock, [&a, &b]);
        assert_eq!(t, SimTime::from_secs(5), "reports the max");
        assert_eq!(a.now(), SimTime::from_secs(1), "but does not block a");
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn asp_faster_than_bsp_with_straggler() {
        // Three supersteps where worker b is a straggler in step 0 only.
        // Under BSP, a inherits b's delay at every barrier; under ASP, a
        // finishes on its own timeline.
        let run = |mode: SyncMode| {
            let ctrl = SyncController::new(mode);
            let clock = ClusterClock::new();
            let a = NodeClock::new();
            let b = NodeClock::new();
            for step in 0..3 {
                a.advance(SimTime::from_secs(1));
                b.advance(SimTime::from_secs(if step == 0 { 10 } else { 1 }));
                ctrl.end_superstep(&clock, [&a, &b]);
            }
            a.now()
        };
        assert!(run(SyncMode::Asp) < run(SyncMode::Bsp));
    }

    #[test]
    fn block_until_holds_everyone() {
        let clock = ClusterClock::new();
        let a = NodeClock::new();
        a.advance(SimTime::from_secs(2));
        SyncController::block_until(&clock, [&a], SimTime::from_secs(30));
        assert_eq!(a.now(), SimTime::from_secs(30));
        assert_eq!(clock.now(), SimTime::from_secs(30));
        // Blocking to the past is a no-op.
        SyncController::block_until(&clock, [&a], SimTime::from_secs(1));
        assert_eq!(a.now(), SimTime::from_secs(30));
    }

    #[test]
    fn default_mode_is_bsp() {
        assert_eq!(SyncMode::default(), SyncMode::Bsp);
    }
}
