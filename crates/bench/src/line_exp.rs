//! §V-B2 reproduction: LINE (graph embedding) on DS1.
//!
//! The paper reports 40 minutes/epoch and 4 hours total (embedding size
//! 128) as a reference point — no open-source distributed baseline ran at
//! that scale. We additionally report the psFunc ablation (server-side
//! partial dot products vs pulling whole embedding rows), which is the
//! §IV-D design claim behind those numbers.

use psgraph_core::algos::{Line, LineConfig};
use psgraph_core::runner::distribute_edges;
use psgraph_core::CoreError;
use psgraph_graph::Dataset;
use psgraph_sim::SimTime;

use crate::deploy::{psgraph_context, PaperAlloc, ScaleRule};
use crate::report::{Cell, Row, Table};

/// Measured LINE results.
#[derive(Debug, Clone)]
pub struct LineResult {
    pub per_epoch: SimTime,
    pub total: SimTime,
    pub final_loss: f64,
    /// Same run with `use_psfunc = false` (pull whole rows) — the
    /// communication pattern the paper's column partitioning avoids.
    pub per_epoch_no_psfunc: SimTime,
}

/// Run LINE on DS1 at `scale` with the paper's dim-128 second-order setup.
pub fn run_line(scale: f64) -> Result<LineResult, CoreError> {
    let g = Dataset::Ds1.generate(scale);
    let rule = ScaleRule::new(Dataset::Ds1, scale);
    let epochs = 6; // paper: 4 h total at 40 min/epoch

    let run = |use_psfunc: bool| -> Result<(SimTime, f64), CoreError> {
        // §V-B2 claims "the same resources as TG", but a dim-128 embedding
        // plus context table is ~820 GB at DS1 scale — more than the TG
        // experiments' 300 GB server pool. We size the PS pool as in the
        // DS2 runs (200 × 30 GB), which the embedding tables fit.
        let ctx = psgraph_context(rule, PaperAlloc::PSGRAPH_DS2);
        let edges = distribute_edges(&ctx, &g, ctx.cluster().default_partitions())?;
        let out = Line::new(LineConfig {
            dim: 128,
            epochs,
            use_psfunc,
            ..Default::default()
        })
        .run(&ctx, &edges, g.num_vertices())?;
        Ok((out.stats.elapsed, *out.loss_per_epoch.last().unwrap()))
    };

    let (total, final_loss) = run(true)?;
    let (total_rows, _) = run(false)?;
    Ok(LineResult {
        per_epoch: SimTime::from_nanos(total.as_nanos() / epochs),
        total,
        final_loss,
        per_epoch_no_psfunc: SimTime::from_nanos(total_rows.as_nanos() / epochs),
    })
}

/// Render paper-vs-measured.
pub fn table(r: &LineResult) -> Table {
    let mut t = Table::new(
        "§V-B2 — LINE on DS1 (dim 128, second order)",
        &["paper", "measured"],
    );
    t.push(Row::new(
        "per epoch",
        vec![Cell::Minutes(40.0), Cell::Text(r.per_epoch.to_string())],
    ));
    t.push(Row::new(
        "total",
        vec![Cell::Hours(4.0), Cell::Text(r.total.to_string())],
    ));
    t.push(Row::new(
        "per epoch (no psFunc ablation)",
        vec![Cell::Na, Cell::Text(r.per_epoch_no_psfunc.to_string())],
    ));
    t.push(Row::new(
        "final loss",
        vec![Cell::Na, Cell::Text(format!("{:.4}", r.final_loss))],
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_runs_and_psfunc_wins() {
        let r = run_line(0.005).expect("line must run");
        assert!(r.per_epoch > SimTime::ZERO);
        assert!(
            r.per_epoch < r.per_epoch_no_psfunc,
            "psFunc ({}) must beat row pulls ({})",
            r.per_epoch,
            r.per_epoch_no_psfunc
        );
        assert!(r.final_loss.is_finite());
        assert!(table(&r).to_string().contains("per epoch"));
    }
}
