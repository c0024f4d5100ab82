//! Timestamped edge events: a drift-parameterized RMAT source for
//! synthetic streams and a DFS-backed event log for exact replay.

use psgraph_dfs::Dfs;
use psgraph_sim::bytes::BufMut;
use psgraph_sim::{Corrupt, FxHashSet, NodeClock, Reader, SimTime, SplitMix64};

use crate::error::{Result, StreamError};

/// What happened to an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    Add,
    Remove,
}

/// One timestamped mutation of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEvent {
    pub op: EdgeOp,
    pub src: u64,
    pub dst: u64,
    /// Event time (when the edge changed in the source system), distinct
    /// from the processing time at which a micro-batch applies it.
    pub at: SimTime,
}

impl EdgeEvent {
    /// Which of `shards` ingestor shards owns this event: the shard whose
    /// contiguous source range (the same `query::part` range tiling the
    /// serving tier uses) contains `src`. Every mutation of a source
    /// vertex lands in exactly one mailbox, so per-source arrival order
    /// is preserved end to end.
    pub fn owner(&self, num_vertices: u64, shards: usize) -> usize {
        psgraph_query::part::owner_of(self.src, num_vertices, shards)
    }
}

/// A synthetic edge-event source: RMAT-skewed adds whose quadrant
/// probabilities *drift* over the stream (hot regions move, like a real
/// social graph's activity migrating), interleaved with removals of
/// random live edges. Inter-arrival times are exponential, so event time
/// advances like a Poisson process.
///
/// Adds are at-least-once: the generator may emit an edge that is
/// already live (real change-capture logs do) — downstream appliers must
/// dedup. Removals always name a currently-live edge.
#[derive(Debug, Clone)]
pub struct DriftRmat {
    pub num_vertices: u64,
    /// Quadrant probabilities `(a, b, c)` at the start of the stream.
    pub from: (f64, f64, f64),
    /// Quadrant probabilities once `drift_horizon` events have passed.
    pub to: (f64, f64, f64),
    /// Events over which `from` linearly morphs into `to`.
    pub drift_horizon: u64,
    /// Fraction of events that remove a live edge (when any exist).
    pub remove_fraction: f64,
    /// Mean events per simulated second.
    pub events_per_sec: f64,
    pub seed: u64,
}

impl Default for DriftRmat {
    fn default() -> Self {
        DriftRmat {
            num_vertices: 1 << 10,
            from: (0.57, 0.19, 0.19),
            to: (0.19, 0.19, 0.57),
            drift_horizon: 100_000,
            remove_fraction: 0.25,
            events_per_sec: 50_000.0,
            seed: 1,
        }
    }
}

/// The running state of one [`DriftRmat`] stream.
pub struct DriftRmatSource {
    cfg: DriftRmat,
    rng: SplitMix64,
    now: SimTime,
    emitted: u64,
    live: Vec<(u64, u64)>,
    live_set: FxHashSet<(u64, u64)>,
}

impl DriftRmat {
    /// Start the stream at `t = 0`, seeded with `base_edges` already
    /// live (the snapshot the serving tier was loaded from).
    pub fn start(&self, base_edges: &[(u64, u64)]) -> DriftRmatSource {
        let live: Vec<(u64, u64)> = base_edges.to_vec();
        let live_set = live.iter().copied().collect();
        DriftRmatSource {
            cfg: self.clone(),
            rng: SplitMix64::new(self.seed),
            now: SimTime::ZERO,
            emitted: 0,
            live,
            live_set,
        }
    }
}

impl DriftRmatSource {
    /// Quadrant probabilities after `emitted` events.
    fn probs(&self) -> (f64, f64, f64) {
        let f = (self.emitted as f64 / self.cfg.drift_horizon.max(1) as f64).min(1.0);
        let lerp = |a: f64, b: f64| a + (b - a) * f;
        (
            lerp(self.cfg.from.0, self.cfg.to.0),
            lerp(self.cfg.from.1, self.cfg.to.1),
            lerp(self.cfg.from.2, self.cfg.to.2),
        )
    }

    fn sample_edge(&mut self) -> (u64, u64) {
        let n = self.cfg.num_vertices;
        let levels = 64 - (n - 1).leading_zeros();
        let (a, b, c) = self.probs();
        let (ab, abc) = (a + b, a + b + c);
        loop {
            let (mut src, mut dst) = (0u64, 0u64);
            for _ in 0..levels {
                let r = self.rng.next_f64();
                let (sbit, dbit) = if r < a {
                    (0, 0)
                } else if r < ab {
                    (0, 1)
                } else if r < abc {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src = (src << 1) | sbit;
                dst = (dst << 1) | dbit;
            }
            src %= n;
            dst %= n;
            if src != dst {
                return (src, dst);
            }
        }
    }

    /// Produce the next event. Never exhausts.
    pub fn next_event(&mut self) -> EdgeEvent {
        self.now += SimTime::from_secs_f64(self.rng.next_exp(self.cfg.events_per_sec));
        self.emitted += 1;
        let remove = !self.live.is_empty() && self.rng.next_bool(self.cfg.remove_fraction);
        if remove {
            let i = self.rng.next_below(self.live.len() as u64) as usize;
            let (src, dst) = self.live.swap_remove(i);
            self.live_set.remove(&(src, dst));
            return EdgeEvent { op: EdgeOp::Remove, src, dst, at: self.now };
        }
        let (src, dst) = self.sample_edge();
        // Track live edges once; the duplicate *event* still goes out
        // (at-least-once delivery).
        if self.live_set.insert((src, dst)) {
            self.live.push((src, dst));
        }
        EdgeEvent { op: EdgeOp::Add, src, dst, at: self.now }
    }

    /// Edges currently live according to the source's own bookkeeping.
    pub fn live_edges(&self) -> &[(u64, u64)] {
        &self.live
    }

    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

const LOG_MAGIC: &[u8; 8] = b"PSGEVT01";

/// A replayable event log on the DFS — the durable form of a stream, so
/// a crashed ingestor (or a test) can re-run the exact same events.
pub struct EventLog;

impl EventLog {
    /// Serialize `events` to `path`, overwriting.
    pub fn write(
        dfs: &Dfs,
        path: &str,
        events: &[EdgeEvent],
        client: &NodeClock,
    ) -> Result<()> {
        let mut buf = Vec::with_capacity(16 + events.len() * 25);
        buf.put_slice(LOG_MAGIC);
        buf.put_u64_le(events.len() as u64);
        for ev in events {
            buf.put_u8(match ev.op {
                EdgeOp::Add => 0,
                EdgeOp::Remove => 1,
            });
            buf.put_u64_le(ev.src);
            buf.put_u64_le(ev.dst);
            buf.put_u64_le(ev.at.as_nanos());
        }
        dfs.write(path, &buf, client)?;
        Ok(())
    }

    /// Read the log back, bit-exact.
    pub fn replay(dfs: &Dfs, path: &str, client: &NodeClock) -> Result<Vec<EdgeEvent>> {
        let bytes = dfs.read(path, client)?;
        Reader::decode(&bytes, "event log", |r| {
            r.magic(LOG_MAGIC)?;
            let count = r.count::<u64>(25)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let op = match r.get::<u8>()? {
                    0 => EdgeOp::Add,
                    1 => EdgeOp::Remove,
                    t => return Err(r.corrupt(format!("unknown event tag {t}"))),
                };
                let (src, dst, at) = (r.get()?, r.get()?, r.get()?);
                events.push(EdgeEvent { op, src, dst, at: SimTime::from_nanos(at) });
            }
            Ok(events)
        })
        .map_err(|e: Corrupt| StreamError::Corrupt(format!("{path}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_source_is_deterministic_and_monotone() {
        let cfg = DriftRmat { num_vertices: 64, seed: 9, ..DriftRmat::default() };
        let mut a = cfg.start(&[]);
        let mut b = cfg.start(&[]);
        let mut last = SimTime::ZERO;
        for _ in 0..500 {
            let ea = a.next_event();
            assert_eq!(ea, b.next_event(), "same seed, same stream");
            assert!(ea.at >= last, "event time is monotone");
            assert!(ea.src < 64 && ea.dst < 64 && ea.src != ea.dst);
            last = ea.at;
        }
        assert_eq!(a.emitted(), 500);
    }

    #[test]
    fn removals_only_name_live_edges() {
        let cfg = DriftRmat {
            num_vertices: 32,
            remove_fraction: 0.5,
            seed: 3,
            ..DriftRmat::default()
        };
        let mut src = cfg.start(&[(0, 1), (1, 2)]);
        let mut live: FxHashSet<(u64, u64)> = [(0, 1), (1, 2)].into_iter().collect();
        for _ in 0..400 {
            let ev = src.next_event();
            match ev.op {
                EdgeOp::Add => {
                    live.insert((ev.src, ev.dst));
                }
                EdgeOp::Remove => {
                    assert!(live.remove(&(ev.src, ev.dst)), "removed a dead edge");
                }
            }
        }
        let from_src: FxHashSet<(u64, u64)> = src.live_edges().iter().copied().collect();
        assert_eq!(from_src, live);
    }

    #[test]
    fn drift_moves_the_hot_quadrant() {
        // With probabilities fully drifted from a-heavy to c-heavy, early
        // adds should skew to low src ids and late adds to high ones.
        let cfg = DriftRmat {
            num_vertices: 1 << 8,
            drift_horizon: 2_000,
            remove_fraction: 0.0,
            seed: 5,
            ..DriftRmat::default()
        };
        let mut src = cfg.start(&[]);
        let early: Vec<u64> = (0..500).map(|_| src.next_event().src).collect();
        for _ in 0..2_000 {
            src.next_event();
        }
        let late: Vec<u64> = (0..500).map(|_| src.next_event().src).collect();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&late) > mean(&early) + 20.0,
            "drift should move mass to high ids: early {} late {}",
            mean(&early),
            mean(&late)
        );
    }

    #[test]
    fn owner_keying_matches_range_tiling() {
        let ev = |src| EdgeEvent { op: EdgeOp::Add, src, dst: 0, at: SimTime::ZERO };
        for n in [1u64, 7, 100] {
            for shards in [1usize, 2, 3, 8] {
                for v in 0..n {
                    let s = ev(v).owner(n, shards);
                    let (lo, hi) = psgraph_query::part::vertex_range(s, n, shards);
                    assert!((lo..hi).contains(&v), "v={v} n={n} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn event_log_roundtrips_through_dfs() {
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let cfg = DriftRmat { num_vertices: 128, seed: 11, ..DriftRmat::default() };
        let mut src = cfg.start(&[]);
        let events: Vec<EdgeEvent> = (0..300).map(|_| src.next_event()).collect();
        EventLog::write(&dfs, "/stream/events", &events, &client).unwrap();
        let back = EventLog::replay(&dfs, "/stream/events", &client).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn replay_rejects_garbage() {
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        dfs.write("/stream/bad", b"not an event log", &client).unwrap();
        assert!(EventLog::replay(&dfs, "/stream/bad", &client).is_err());
    }
}
