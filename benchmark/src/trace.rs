//! Spans recorded from the benchmark's own files, around the calls into
//! each layer of the program. A span carries its layer, wall interval,
//! parent and pass id, and — when the call site can read a simulated
//! clock — the simulated time the call consumed. Spans stay in memory;
//! the runner writes them out at exit. With tracing off a span is just
//! the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    /// Simulated nanoseconds consumed, when a sim clock was readable.
    pub sim_ns: Option<u64>,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    pass: Cell<u32>,
}

/// Wall and sim totals of the spans sharing one name within a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub wall_s: f64,
    pub sim_s: f64,
}

impl SpanTotals {
    /// Mean wall time per call in `unit`s of a second (1e6 = µs).
    pub fn wall_per_call(&self, unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_s * unit / self.calls as f64
        }
    }

    pub fn sim_per_call(&self, unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.sim_s * unit / self.calls as f64
        }
    }
}

/// What one traced pass looked like: totals by span name, self time by
/// layer, and how much of the root span its children account for.
#[derive(Debug, Clone, Default)]
pub struct PassSummary {
    pub by_name: BTreeMap<&'static str, SpanTotals>,
    pub self_s_by_layer: BTreeMap<&'static str, f64>,
    /// Sum of every span's self time ÷ sum of root span durations; 1.0
    /// when spans nest properly.
    pub accounted: f64,
    pub root_wall_s: f64,
}

impl PassSummary {
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            pass: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start attributing spans to a new pass; returns its id.
    pub fn next_pass(&self) -> u32 {
        self.pass.set(self.pass.get() + 1);
        self.pass.get()
    }

    /// Summary of the pass being recorded; `None` with tracing off.
    pub fn current(&self) -> Option<PassSummary> {
        self.on.then(|| self.summarize(self.pass.get()))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_sim(name, layer, || None, f)
    }

    /// A span that also records the simulated time the call consumed,
    /// read from `sim_now` (nanoseconds) before and after.
    pub fn span_sim<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        sim_now: impl Fn() -> Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                pass: self.pass.get(),
                sim_ns: None,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let sim0 = sim_now();
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let sim1 = sim_now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        spans[id].sim_ns = sim0.zip(sim1).map(|(a, b)| b.saturating_sub(a));
        out
    }

    /// Rename the span that closed last (a serve lookup is a hit or a
    /// miss only once it has returned).
    pub fn rename_last(&self, name: &'static str) {
        if let Some(s) = self.spans.borrow_mut().last_mut() {
            s.name = name;
        }
    }

    pub fn summarize(&self, pass: u32) -> PassSummary {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.pass == pass) {
            if let Some(p) = s.parent {
                child_ns[p] += s.wall_ns();
            }
        }
        let mut out = PassSummary::default();
        let (mut self_total, mut root_total) = (0u64, 0u64);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.pass == pass) {
            let t = out.by_name.entry(s.name).or_default();
            t.calls += 1;
            t.wall_s += s.wall_ns() as f64 / 1e9;
            t.sim_s += s.sim_ns.unwrap_or(0) as f64 / 1e9;
            let own = s.wall_ns().saturating_sub(child_ns[i]);
            *out.self_s_by_layer.entry(s.layer).or_default() += own as f64 / 1e9;
            self_total += own;
            if s.parent.is_none() {
                root_total += s.wall_ns();
            }
        }
        out.root_wall_s = root_total as f64 / 1e9;
        out.accounted = if root_total == 0 {
            1.0
        } else {
            self_total as f64 / root_total as f64
        };
        out
    }

    /// The trace file: per-pass summaries plus the first `max_raw` raw
    /// spans (a serve pass alone records tens of thousands).
    pub fn to_json(&self, max_raw: usize) -> Json {
        let spans = self.spans.borrow();
        let passes: Vec<Json> = (1..=self.pass.get())
            .map(|p| {
                let s = self.summarize(p);
                Json::obj([
                    ("pass", Json::Num(p as f64)),
                    ("root_wall_s", Json::Num(s.root_wall_s)),
                    ("accounted", Json::Num(s.accounted)),
                    (
                        "self_s_by_layer",
                        Json::obj(s.self_s_by_layer.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                    ),
                    (
                        "by_name",
                        Json::obj(s.by_name.iter().map(|(k, t)| {
                            (
                                *k,
                                Json::obj([
                                    ("calls", Json::Num(t.calls as f64)),
                                    ("wall_s", Json::Num(t.wall_s)),
                                    ("sim_s", Json::Num(t.sim_s)),
                                ]),
                            )
                        })),
                    ),
                ])
            })
            .collect();
        let raw: Vec<Json> = spans
            .iter()
            .take(max_raw)
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("pass", Json::Num(s.pass as f64)),
                    (
                        "sim_ns",
                        s.sim_ns.map_or(Json::Null, |n| Json::Num(n as f64)),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("spans_recorded", Json::Num(spans.len() as f64)),
            ("spans_written", Json::Num(raw.len() as f64)),
            ("passes", Json::Arr(passes)),
            ("spans", Json::Arr(raw)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root() {
        let t = Tracer::new(true);
        let p = t.next_pass();
        t.span("root", "bench", || {
            t.span("a", "core", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span_sim("b", "ps", || Some(5), || ());
        });
        let s = t.summarize(p);
        assert_eq!(s.get("a").calls, 1);
        assert!(s.get("a").wall_s >= 0.002);
        assert!((s.accounted - 1.0).abs() < 1e-9);
        let root = s.get("root").wall_s;
        let bench_self = s.self_s_by_layer["bench"];
        assert!(bench_self < root - 0.0019, "children must be subtracted");
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "core", || 3), 3);
        assert_eq!(t.summarize(0).by_name.len(), 0);
    }
}
