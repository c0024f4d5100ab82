//! `repro -- ablations`: the design choices DESIGN.md §4 calls out, each
//! measured against the alternative it replaced — on the **simulated**
//! clock (or in bytes moved), because every one of them is a claim about
//! cluster cost, not about how fast this host runs the simulator. Only
//! the PageRank leg scales with `--scale`; the other three are fixed-size
//! probes of one mechanism each. The LINE psFunc ablation (§IV-D) is its
//! own section, `repro -- line`.

use psgraph_core::algos::PageRank;
use psgraph_core::runner::distribute_edges;
use psgraph_core::CoreError;
use psgraph_dataflow::{Cluster, Rdd};
use psgraph_graph::Dataset;
use psgraph_ps::sync::SyncController;
use psgraph_ps::{Partitioner, Ps, PsConfig, RecoveryMode, SyncMode, VectorHandle};
use psgraph_sim::{ClusterClock, NodeClock, SimTime};

use crate::deploy::{psgraph_context, PaperAlloc, ScaleRule, SIM_SERVERS};
use crate::report::{Cell, Row, Table};

/// One design choice against its baseline; the claim is `design < baseline`.
pub struct Ablation {
    pub what: &'static str,
    pub design: u64,
    pub baseline: u64,
    /// Renders a measurement (nanoseconds of simulated time, or bytes).
    show: fn(u64) -> String,
}

impl Ablation {
    pub fn holds(&self) -> bool {
        self.design < self.baseline
    }

    fn sim(what: &'static str, design: SimTime, baseline: SimTime) -> Ablation {
        let show = |ns| SimTime::from_nanos(ns).to_string();
        Ablation { what, design: design.as_nanos(), baseline: baseline.as_nanos(), show }
    }
}

/// §IV-A: 80 PageRank iterations on DS1′, with increments + sparse pulls
/// (`delta_threshold` 1e-4) or exact and dense (0).
fn pagerank(scale: f64, delta_threshold: f64) -> Result<SimTime, CoreError> {
    let g = Dataset::Ds1.generate(scale);
    let ctx = psgraph_context(ScaleRule::new(Dataset::Ds1, scale), PaperAlloc::PSGRAPH_DS1);
    let edges = distribute_edges(&ctx, &g, ctx.cluster().default_partitions())?;
    PageRank { max_iterations: 80, delta_threshold, ..Default::default() }
        .run(&ctx, &edges, g.num_vertices())?;
    Ok(ctx.now())
}

/// §III-A: eight clients pull the same narrow hot id range. Range
/// placement funnels every pull into one server's queue (port queueing is
/// modeled), hash spreads it; the metric is the slowest client's finish.
fn slowest_hot_pull(partitioner: Partitioner) -> Result<SimTime, CoreError> {
    let ps = Ps::new(PsConfig { servers: SIM_SERVERS, ..PsConfig::default() });
    let v = VectorHandle::<f64>::create(
        &ps,
        "ablation.hot",
        100_000,
        partitioner,
        RecoveryMode::Inconsistent,
    )?;
    let hot: Vec<u64> = (0..100_000).map(|i| i % 500).collect();
    let clients: Vec<NodeClock> = (0..8).map(|_| NodeClock::new()).collect();
    for c in &clients {
        v.pull(c, &hot)?;
    }
    Ok(clients.iter().map(NodeClock::now).max().expect("eight clients"))
}

/// The GraphX Common Neighbor fix: `(simulated time, network bytes)` of
/// joining against a table already partitioned by key, and of the join
/// that re-shuffles both sides, on one cluster.
fn joins() -> Result<[(SimTime, u64); 2], CoreError> {
    let cluster = Cluster::local();
    // Scrambled keys: `i % 10_000` keys are modularly aligned with
    // round-robin placement, making every shuffle chunk local; taking the
    // *high* bits of a multiplicative scramble restores realistic
    // cross-executor traffic.
    let scramble = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 10_000;
    let big: Vec<(u64, u64)> = (0..50_000u64).map(|i| (scramble(i), i)).collect();
    let small: Vec<(u64, u64)> = (0..500u64).map(|i| (scramble(i * 31 + 7), i)).collect();
    let parts = cluster.default_partitions();
    let big_rdd = Rdd::from_vec(&cluster, big, parts)?;
    let big_parted = big_rdd.partition_by_key(parts)?;

    let measure = |join: &dyn Fn(Rdd<(u64, u64)>) -> Result<usize, CoreError>| {
        let (t0, bytes0) = (cluster.now(), cluster.network().stats().total_bytes());
        let rows = join(Rdd::from_vec(&cluster, small.clone(), parts)?)?;
        let cost = (
            cluster.now().saturating_sub(t0),
            cluster.network().stats().total_bytes() - bytes0,
        );
        Ok::<_, CoreError>((rows, cost))
    };
    let (n_copart, copart) =
        measure(&|s| Ok(big_parted.join_copartitioned(&s.partition_by_key(parts)?)?.count()?))?;
    let (n_reshuffle, reshuffle) = measure(&|s| Ok(s.join(&big_rdd, parts)?.count()?))?;
    assert_eq!(n_copart, n_reshuffle, "both plans must produce the same join");
    Ok([copart, reshuffle])
}

/// §II-D: ten supersteps with one straggler. A BSP barrier hands its delay
/// to everyone, ASP lets a fast worker run ahead; the metric is a fast
/// worker's finish time.
fn fast_worker_finish(mode: SyncMode) -> SimTime {
    let ctrl = SyncController::new(mode);
    let clock = ClusterClock::new();
    let workers: Vec<NodeClock> = (0..8).map(|_| NodeClock::new()).collect();
    for step in 0..10 {
        for (i, w) in workers.iter().enumerate() {
            let straggling = i == 0 && step % 3 == 0;
            w.advance(SimTime::from_millis(if straggling { 50 } else { 5 }));
        }
        ctrl.end_superstep(&clock, workers.iter());
    }
    workers[7].now()
}

/// Run every ablation; each row's claim is [`Ablation::holds`].
pub fn run(scale: f64) -> Result<Vec<Ablation>, CoreError> {
    let [copart, reshuffle] = joins()?;
    Ok(vec![
        Ablation::sim(
            "PageRank, 80 iterations: delta-sparse vs exact-dense",
            pagerank(scale, 1e-4)?,
            pagerank(scale, 0.0)?,
        ),
        Ablation::sim(
            "8 clients pull a hot id range, slowest client: hash vs range",
            slowest_hot_pull(Partitioner::Hash)?,
            slowest_hot_pull(Partitioner::Range)?,
        ),
        Ablation::sim("join, simulated time: co-partitioned vs re-shuffled", copart.0, reshuffle.0),
        Ablation {
            what: "join, network bytes: co-partitioned vs re-shuffled",
            design: copart.1,
            baseline: reshuffle.1,
            show: |b| format!("{b} B"),
        },
        Ablation::sim(
            "straggler, fast worker's finish: ASP vs BSP",
            fast_worker_finish(SyncMode::Asp),
            fast_worker_finish(SyncMode::Bsp),
        ),
    ])
}

/// Render the ablation table.
pub fn table(rows: &[Ablation]) -> Table {
    let mut t = Table::new(
        "Ablations — design choice vs the baseline it replaced (simulated clock)",
        &["design", "baseline", "baseline / design"],
    );
    for a in rows {
        let ratio = a.baseline as f64 / a.design.max(1) as f64;
        let cells = [(a.show)(a.design), (a.show)(a.baseline), format!("{ratio:.2}×")];
        t.push(Row::new(a.what, cells.into_iter().map(Cell::Text).collect()));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_direction_holds() {
        let rows = run(0.002).expect("ablations must run");
        assert_eq!(rows.len(), 5);
        for a in &rows {
            assert!(a.holds(), "{}: design {} vs baseline {}", a.what, a.design, a.baseline);
        }
        assert!(table(&rows).to_string().contains("ASP vs BSP"));
    }
}
