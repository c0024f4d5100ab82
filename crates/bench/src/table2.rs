//! Table II reproduction: failure recovery on Common Neighbor / DS1.
//!
//! Three runs: no failure, one executor killed mid-run, one PS server
//! killed mid-run. The killed server restores its neighbor-table
//! partitions from the HDFS checkpoint; the killed executor reloads its
//! edge partitions through lineage; healthy executors block at the
//! synchronization barrier meanwhile (paper §III-B/C).
//!
//! Recovery overhead is dominated by failure *detection* and container
//! restart — wall-clock constants that do not shrink with the dataset —
//! so the measured overhead is compared against the paper's +5/+6 minutes
//! as an absolute, while the base runtime is simulated-scale.

use psgraph_core::algos::CommonNeighbor;
use psgraph_core::runner::distribute_edges;
use psgraph_core::CoreError;
use psgraph_graph::Dataset;
use psgraph_sim::{FaultSchedule, FaultSite, SimTime};

use crate::deploy::{psgraph_context, PaperAlloc, ScaleRule};
use crate::report::{Cell, Row, Table};

/// Which failure a run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    None,
    Executor,
    Server,
}

/// Measured Table II results.
#[derive(Debug, Clone)]
pub struct Table2Result {
    pub without: SimTime,
    pub executor_failure: SimTime,
    pub server_failure: SimTime,
    /// All three runs produced identical counts (paper: "ensure the
    /// correctness of the algorithm output").
    pub outputs_match: bool,
}

type RunOutput = (SimTime, Vec<(u64, u64, u64)>);

fn run_one(scale: f64, failure: Failure) -> Result<RunOutput, CoreError> {
    let g = Dataset::Ds1.generate(scale);
    let rule = ScaleRule::new(Dataset::Ds1, scale);
    let ctx = psgraph_context(rule, PaperAlloc::PSGRAPH_DS1);
    // Node 1 dies at the top of superstep 2.
    let site = match failure {
        Failure::None => None,
        Failure::Executor => Some(FaultSite::ExecutorCrash),
        Failure::Server => Some(FaultSite::PsCrash),
    };
    ctx.attach_chaos(FaultSchedule::scripted(site.map(|site| (site, 2, 1))));
    let edges = distribute_edges(&ctx, &g, ctx.cluster().default_partitions())?;
    let out = CommonNeighbor { checkpoint: true, ..Default::default() }
        .run(&ctx, &edges, g.num_vertices())?;
    let mut counts = out.counts;
    counts.sort_unstable();
    Ok((ctx.now(), counts))
}

/// Run all three Table II configurations at `scale`.
pub fn run_table2(scale: f64) -> Result<Table2Result, CoreError> {
    let (without, base) = run_one(scale, Failure::None)?;
    let (executor_failure, a) = run_one(scale, Failure::Executor)?;
    let (server_failure, b) = run_one(scale, Failure::Server)?;
    Ok(Table2Result {
        without,
        executor_failure,
        server_failure,
        outputs_match: base == a && base == b,
    })
}

/// Render paper-vs-measured.
pub fn table(r: &Table2Result) -> Table {
    let mut t = Table::new(
        "Table II — failure recovery (Common Neighbor, DS1)",
        &["paper", "measured", "overhead"],
    );
    t.push(Row::new(
        "without failure",
        vec![
            Cell::Minutes(30.0),
            Cell::Text(r.without.to_string()),
            Cell::Na,
        ],
    ));
    t.push(Row::new(
        "executor failure",
        vec![
            Cell::Minutes(35.0),
            Cell::Text(r.executor_failure.to_string()),
            Cell::Text(r.executor_failure.saturating_sub(r.without).to_string()),
        ],
    ));
    t.push(Row::new(
        "PS failure",
        vec![
            Cell::Minutes(36.0),
            Cell::Text(r.server_failure.to_string()),
            Cell::Text(r.server_failure.saturating_sub(r.without).to_string()),
        ],
    ));
    t.push(Row::new(
        "outputs identical",
        vec![
            Cell::Text("yes".into()),
            Cell::Text(if r.outputs_match { "yes" } else { "NO" }.into()),
            Cell::Na,
        ],
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run_table2(0.02).expect("table2 must run");
        // Shape: both failures recover and cost roughly one
        // detection+restart overhead extra (paper: +5/+6 minutes on a
        // 30-minute run). The paper's slight PS-vs-executor ordering is
        // driven by checkpoint-read volume, which shrinks with the scaled
        // dataset — at simulation scale the two overheads are within
        // noise of each other, so we assert near-equality, not order.
        let overhead_exec = r.executor_failure.saturating_sub(r.without);
        let overhead_srv = r.server_failure.saturating_sub(r.without);
        // Queueing order differs slightly between the paired runs (real
        // thread interleaving), so allow a small tolerance around the
        // 30-second detection+restart constant.
        let restart = psgraph_sim::CostModel::default().restart_overhead();
        let floor = restart.scale(0.95);
        assert!(overhead_exec >= floor, "exec overhead {overhead_exec}");
        assert!(overhead_srv >= floor, "server overhead {overhead_srv}");
        let ratio = overhead_srv.as_secs_f64() / overhead_exec.as_secs_f64();
        assert!(
            (0.8..1.5).contains(&ratio),
            "overheads should be comparable: server {overhead_srv} vs exec {overhead_exec}"
        );
        assert!(r.outputs_match, "failures must not change results");
    }
}
