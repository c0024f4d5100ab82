//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` declares the
//! same names; `check-contract` (run by `ci.sh`) fails when they drift.
//!
//! Two clocks exist and every metric names its own: `Sim` is the modelled
//! cluster's time, `Wall` the host's. `Count` metrics are modelled work
//! (bytes, RPCs, rows) or ratios and repeat exactly in the serial pass.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Wall,
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer number is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The serial pass (pool of 1): the only place sim time and counters
    /// are bit-reproducible today.
    Serial,
    /// Median over the traced host passes (pool of `nproc`).
    Host,
    /// An isolated probe of one layer's public API.
    Probe,
    /// Computed by the runner across passes.
    Runner,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub src: Src,
}

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tg_batch",
        "Fig. 6 path: PageRank, CommonNeighbor, KCore on RMAT DS1'; core+ps+net+dataflow+pool do the work, PS use is vector pull/push and neighbor tables",
    ),
    (
        "gnn_epoch",
        "Table I path: GraphSage + LINE; same ps layer used through matrix rows and server-side psFuncs; only workload where tensor and dfs reads matter",
    ),
    (
        "serve_ladder",
        "read-only online path: open-loop Zipf query mix over a rate ladder; serve+query+net do the work, working set larger than the cache",
    ),
    (
        "stream_refresh",
        "writes beside reads: sharded ingest, incremental PageRank/CC, delta hot-swap and verified lookups; swap invalidation competes with cache hits",
    ),
];

/// The user-visible numbers. Every workload reports all five; what each
/// means per workload is in `README.md` ("End-to-end metrics").
///
/// Bounds follow what this host can resolve, measured over ten seeds per
/// workload (README "Baseline observations"): host time on the shared
/// 2-core VM drifts by tens of per cent over tens of seconds, so the wall
/// metrics get the widest bound the contract allows; the sim metrics move
/// only with the seed (at most 6.5 %, on `serve_ladder`). A run with the
/// same seed repeats every sim metric exactly, whatever the bound.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Wall,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_wall_s",
        unit: "s",
        clock: Clock::Wall,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_sim_s",
        unit: "s",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "wait_p99_sim_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: Clock::Wall,
        better: Better::Lower,
        bound: 0.15,
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $clock:ident, $better:ident, $src:ident) => {
        PerLayer {
            name: $name,
            unit: $unit,
            clock: Clock::$clock,
            better: Better::$better,
            src: Src::$src,
        }
    };
}

/// Layer = crate or module of the program. A metric a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: &[PerLayer] = &[
    // harness (pool)
    layer!("harness.pool_tasks", "count", Count, Lower, Host),
    layer!("harness.pool_speedup", "x", Wall, Higher, Runner),
    layer!("harness.pool_map_ns_per_task", "ns", Wall, Lower, Probe),
    layer!("harness.pool_sim_skew", "share", Sim, Lower, Runner),
    // net
    layer!("net.ps_rpcs", "count", Count, Lower, Serial),
    layer!("net.ps_bytes", "bytes", Count, Lower, Serial),
    layer!("net.spark_bytes", "bytes", Count, Lower, Serial),
    layer!("net.serve_rpcs", "count", Count, Lower, Serial),
    layer!("net.serve_bytes", "bytes", Count, Lower, Serial),
    layer!("net.rpc_wall_ns", "ns", Wall, Lower, Probe),
    // dfs
    layer!("dfs.write_wall_mb_s", "MiB/s", Wall, Higher, Probe),
    layer!("dfs.read_wall_mb_s", "MiB/s", Wall, Higher, Probe),
    layer!("dfs.write_sim_s", "s", Sim, Lower, Probe),
    layer!("dfs.read_sim_s", "s", Sim, Lower, Probe),
    layer!("dfs.bytes_stored", "bytes", Count, Lower, Serial),
    // dataflow
    layer!("dataflow.distribute_wall_s", "s", Wall, Lower, Host),
    layer!("dataflow.distribute_sim_s", "s", Sim, Lower, Serial),
    layer!(
        "dataflow.groupby_wall_ns_per_record",
        "ns",
        Wall,
        Lower,
        Probe
    ),
    layer!(
        "dataflow.groupby_sim_ns_per_record",
        "ns",
        Sim,
        Lower,
        Probe
    ),
    layer!("dataflow.groupby_net_bytes", "bytes", Count, Lower, Probe),
    layer!("sim.exec_mem_peak_mb", "MiB", Count, Lower, Serial),
    // ps
    layer!("ps.pull_wall_ns_per_key", "ns", Wall, Lower, Probe),
    layer!("ps.push_wall_ns_per_key", "ns", Wall, Lower, Probe),
    layer!("ps.pull_sim_ns_per_key", "ns", Sim, Lower, Probe),
    layer!("ps.push_sim_ns_per_key", "ns", Sim, Lower, Probe),
    layer!("ps.psfunc_wall_ns_per_pair", "ns", Wall, Lower, Probe),
    layer!("ps.psfunc_sim_ns_per_pair", "ns", Sim, Lower, Probe),
    layer!("ps.adj_update_wall_ns_per_edge", "ns", Wall, Lower, Probe),
    layer!("ps.adj_update_sim_ns_per_edge", "ns", Sim, Lower, Probe),
    layer!("ps.resident_mb", "MiB", Count, Lower, Serial),
    // tensor
    layer!("tensor.fwd_bwd_wall_us_per_batch", "us", Wall, Lower, Probe),
    // graph
    layer!("graph.gen_wall_s", "s", Wall, Lower, Runner),
    layer!("graph.io_read_wall_s", "s", Wall, Lower, Host),
    layer!("graph.io_read_sim_s", "s", Sim, Lower, Serial),
    // core
    layer!("core.pagerank_wall_s", "s", Wall, Lower, Host),
    layer!("core.pagerank_sim_s", "s", Sim, Lower, Serial),
    layer!("core.pagerank_iters", "count", Count, Lower, Serial),
    layer!("core.common_neighbor_wall_s", "s", Wall, Lower, Host),
    layer!("core.common_neighbor_sim_s", "s", Sim, Lower, Serial),
    layer!("core.kcore_wall_s", "s", Wall, Lower, Host),
    layer!("core.kcore_sim_s", "s", Sim, Lower, Serial),
    layer!("core.graphsage_wall_s", "s", Wall, Lower, Host),
    layer!("core.graphsage_epoch_sim_s", "s", Sim, Lower, Serial),
    layer!("core.graphsage_prep_sim_s", "s", Sim, Lower, Serial),
    layer!("core.line_wall_s", "s", Wall, Lower, Host),
    layer!("core.line_epoch_sim_s", "s", Sim, Lower, Serial),
    layer!(
        "core.incr_pagerank_wall_us_per_batch",
        "us",
        Wall,
        Lower,
        Host
    ),
    layer!(
        "core.incr_pagerank_sim_us_per_batch",
        "us",
        Sim,
        Lower,
        Serial
    ),
    layer!("core.incr_cc_wall_us_per_batch", "us", Wall, Lower, Host),
    layer!("core.incr_cc_sim_us_per_batch", "us", Sim, Lower, Serial),
    // graphx (baseline leg, excluded from work_*)
    layer!("graphx.pagerank_wall_s", "s", Wall, Lower, Host),
    layer!("graphx.pagerank_sim_s", "s", Sim, Lower, Serial),
    layer!("graphx.sim_ratio_vs_psgraph", "x", Sim, Higher, Serial),
    // query
    layer!("query.plan_wall_us", "us", Wall, Lower, Host),
    layer!("query.decide_wall_ns", "ns", Wall, Lower, Probe),
    layer!("query.pushed_share", "share", Count, Higher, Serial),
    layer!("query.shard_bytes_per_plan", "bytes", Count, Lower, Serial),
    layer!("query.rows_pruned_per_plan", "count", Count, Higher, Serial),
    // serve
    layer!("serve.knee_qps", "1/s", Sim, Higher, Serial),
    layer!("serve.p50_sim_us", "us", Sim, Lower, Serial),
    layer!("serve.p99_sim_us", "us", Sim, Lower, Serial),
    layer!("serve.wall_us_per_query", "us", Wall, Lower, Host),
    layer!("serve.point_hit_wall_us", "us", Wall, Lower, Host),
    layer!("serve.point_miss_wall_us", "us", Wall, Lower, Host),
    layer!("serve.cache_hit_rate", "share", Count, Higher, Serial),
    layer!("serve.cache_evictions", "count", Count, Lower, Serial),
    layer!("serve.shed_share", "share", Count, Lower, Serial),
    layer!("serve.failed_share", "share", Count, Lower, Serial),
    layer!("serve.backlog_sim_ms", "ms", Sim, Lower, Serial),
    layer!("serve.mailbox_dropped", "count", Count, Lower, Serial),
    layer!("serve.mailbox_retried", "count", Count, Lower, Serial),
    layer!("serve.load_wall_s", "s", Wall, Lower, Host),
    layer!("serve.load_sim_s", "s", Sim, Lower, Serial),
    layer!(
        "serve.keys_invalidated_per_swap",
        "count",
        Count,
        Lower,
        Serial
    ),
    // stream
    layer!("stream.events_per_wall_s", "1/s", Wall, Higher, Host),
    layer!("stream.freshness_p50_sim_ms", "ms", Sim, Lower, Serial),
    layer!("stream.offer_wall_ns_per_event", "ns", Wall, Lower, Host),
    layer!("stream.drain_wall_us_per_batch", "us", Wall, Lower, Host),
    layer!(
        "stream.drain_ps_rpcs_per_batch",
        "count",
        Count,
        Lower,
        Serial
    ),
    layer!("stream.applied_share", "share", Count, Higher, Serial),
    layer!("stream.refresh_wall_ms", "ms", Wall, Lower, Host),
    layer!("stream.refresh_sim_ms", "ms", Sim, Lower, Serial),
    layer!(
        "stream.dirty_partitions_per_swap",
        "count",
        Count,
        Lower,
        Serial
    ),
    layer!(
        "stream.batches_to_publish_max",
        "count",
        Count,
        Lower,
        Serial
    ),
    layer!("stream.backlog_sim_ms", "ms", Sim, Lower, Serial),
    // the benchmark itself
    layer!("bench.trace_overhead_share", "share", Wall, Lower, Runner),
    layer!("bench.generator_wall_share", "share", Wall, Lower, Host),
    layer!("bench.trace_accounted_share", "share", Wall, Higher, Host),
    layer!("bench.fail_share", "share", Count, Lower, Runner),
    layer!("bench.host_speed", "x", Wall, Higher, Runner),
    layer!("bench.work_wall_raw_s", "s", Wall, Lower, Runner),
];

pub fn per_layer_decl(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Per-layer readings of one pass or probe. Setting an undeclared name is
/// a bug in the benchmark, not in the program, so it panics.
#[derive(Debug, Clone, Default)]
pub struct Layer(pub BTreeMap<&'static str, f64>);

impl Layer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            per_layer_decl(name).is_some(),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median, quartiles and count of a sample. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// benchmark contract is judged by, except that they are clamped to the
/// sample's range (Python extrapolates on very small samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let q = |k: usize| -> f64 {
            match n {
                0 => 0.0,
                1 => v[0],
                _ => {
                    // Position k*(n+1)/4, 1-based, clamped to the sample.
                    let pos = k * (n + 1);
                    let j = (pos / 4).clamp(1, n - 1);
                    let delta = pos as f64 / 4.0 - j as f64;
                    (v[j - 1] + (v[j] - v[j - 1]) * delta).clamp(v[0], v[n - 1])
                }
            }
        };
        Summary {
            median: q(2),
            q1: q(1),
            q3: q(3),
            n,
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 1`).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|d| unit_ok(d.unit)));
        assert!(PER_LAYER.iter().all(|d| unit_ok(d.unit)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        assert_eq!(Summary::of(&[3.0]).median, 3.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&[7u64], 0.99), 7);
    }
}
