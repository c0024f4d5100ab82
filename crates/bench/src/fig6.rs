//! Fig. 6 reproduction: PSGraph vs GraphX on the traditional graph
//! algorithms, with the paper's resource allocations scaled per
//! `deploy::ScaleRule`. OOMs are *emergent*: a run reports OOM iff an
//! executor's memory meter rejects an allocation.

use std::sync::Arc;

use psgraph_core::algos::{CommonNeighbor, FastUnfolding, KCore, PageRank, TriangleCount};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{CoreError, PsGraphContext};
use psgraph_dataflow::DataflowError;
use psgraph_graph::{Dataset, EdgeList};
use psgraph_graphx::{
    gx_common_neighbor, gx_fast_unfolding, gx_kcore, gx_pagerank, gx_triangle_count, GxGraph,
};
use psgraph_sim::SimTime;

use crate::deploy::{graphx_cluster, psgraph_context, PaperAlloc, ScaleRule, SIM_EXECUTORS};
use crate::report::{fnv, Cell, Row, Table};

/// Iterations used for PageRank on both systems (the paper runs to
/// convergence; ~30 damped iterations reach machine-precision ranks).
const PR_ITERATIONS: u64 = 30;

/// One Fig. 6 cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Time(SimTime),
    Oom,
}

impl Outcome {
    pub fn is_oom(&self) -> bool {
        matches!(self, Outcome::Oom)
    }

    /// The sim nanoseconds a sim digest hashes, an OOM as `u64::MAX`.
    fn sim_nanos(&self) -> u64 {
        match self {
            Outcome::Time(t) => t.as_nanos(),
            Outcome::Oom => u64::MAX,
        }
    }

    fn to_cell(&self) -> Cell {
        match self {
            Outcome::Time(t) => Cell::Text(t.to_string()),
            Outcome::Oom => Cell::Oom,
        }
    }
}

/// One measured Fig. 6 row.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    pub label: &'static str,
    /// Paper's PSGraph hours.
    pub paper_ps_hours: f64,
    /// Paper's GraphX hours (`None` = the paper reports OOM).
    pub paper_gx_hours: Option<f64>,
    pub psgraph: Outcome,
    pub graphx: Outcome,
    /// FNV digest of the PSGraph job's output, for the jobs whose output
    /// must not depend on the pool's schedule (all but Fast Unfolding).
    pub digest: Option<u64>,
}

impl Fig6Cell {
    fn new(
        label: &'static str,
        paper_ps_hours: f64,
        paper_gx_hours: Option<f64>,
        (psgraph, digest): (Outcome, Option<u64>),
        graphx: Outcome,
    ) -> Self {
        Fig6Cell { label, paper_ps_hours, paper_gx_hours, psgraph, graphx, digest }
    }
}

fn ps_outcome(r: std::result::Result<SimTime, CoreError>) -> Result<Outcome, CoreError> {
    match r {
        Ok(t) => Ok(Outcome::Time(t)),
        Err(e) if e.is_oom() => Ok(Outcome::Oom),
        Err(e) => Err(e),
    }
}

fn gx_outcome(r: std::result::Result<SimTime, DataflowError>) -> Result<Outcome, CoreError> {
    match r {
        Ok(t) => Ok(Outcome::Time(t)),
        Err(DataflowError::Oom(_)) => Ok(Outcome::Oom),
        Err(e) => Err(CoreError::Dataflow(e)),
    }
}

/// A PSGraph job; returns the digest of its output (see [`Fig6Cell::digest`]).
type PsJob<'a> = Box<
    dyn FnOnce(
            &Arc<PsGraphContext>,
            &psgraph_dataflow::Rdd<(u64, u64)>,
            u64,
        ) -> Result<Option<u64>, CoreError>
        + 'a,
>;

fn ps_run(
    rule: ScaleRule,
    alloc: PaperAlloc,
    g: &EdgeList,
    f: PsJob<'_>,
) -> Result<(Outcome, Option<u64>), CoreError> {
    let ctx = psgraph_context(rule, alloc);
    let mut digest = None;
    let run = || -> Result<SimTime, CoreError> {
        let edges = distribute_edges(&ctx, g, ctx.cluster().default_partitions())?;
        digest = f(&ctx, &edges, g.num_vertices())?;
        Ok(ctx.now())
    };
    Ok((ps_outcome(run())?, digest))
}

fn gx_run(
    rule: ScaleRule,
    alloc: PaperAlloc,
    g: &EdgeList,
    f: impl FnOnce(&GxGraph) -> Result<(), DataflowError>,
) -> Result<Outcome, CoreError> {
    let cluster = graphx_cluster(rule, alloc);
    let run = || -> Result<SimTime, DataflowError> {
        let gx = GxGraph::from_edgelist(&cluster, g, SIM_EXECUTORS * 6)?;
        f(&gx)?;
        Ok(cluster.now())
    };
    gx_outcome(run())
}

/// Run the full Fig. 6 grid at `scale`.
pub fn run_fig6(scale: f64) -> Result<Vec<Fig6Cell>, CoreError> {
    let ds1 = Dataset::Ds1.generate(scale);
    let ds2 = Dataset::Ds2.generate(scale);
    let r1 = ScaleRule::new(Dataset::Ds1, scale);
    let r2 = ScaleRule::new(Dataset::Ds2, scale);
    let mut out = Vec::new();

    out.push(Fig6Cell::new(
        "PageRank (DS1)",
        0.5,
        Some(4.0),
        ps_run(r1, PaperAlloc::PSGRAPH_DS1, &ds1, Box::new(|ctx, e, n| {
            PageRank {
                max_iterations: PR_ITERATIONS,
                delta_threshold: 1e-6,
                ..Default::default()
            }
            .run(ctx, e, n)
            .map(|out| Some(fnv(out.ranks.iter().map(|r| r.to_bits()))))
        }))?,
        gx_run(r1, PaperAlloc::GRAPHX_DS1, &ds1, |gx| {
            gx_pagerank(gx, 0.85, PR_ITERATIONS).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "PageRank (DS2)",
        7.0,
        None,
        ps_run(r2, PaperAlloc::PSGRAPH_DS2, &ds2, Box::new(|ctx, e, n| {
            PageRank {
                max_iterations: PR_ITERATIONS,
                delta_threshold: 1e-6,
                ..Default::default()
            }
            .run(ctx, e, n)
            .map(|out| Some(fnv(out.ranks.iter().map(|r| r.to_bits()))))
        }))?,
        gx_run(r2, PaperAlloc::GRAPHX_DS2, &ds2, |gx| {
            gx_pagerank(gx, 0.85, PR_ITERATIONS).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "Common Neighbor (DS1)",
        0.5,
        Some(1.5),
        ps_run(r1, PaperAlloc::PSGRAPH_DS1, &ds1, Box::new(|ctx, e, n| {
            CommonNeighbor::default().run(ctx, e, n).map(|out| {
                Some(fnv(out.counts.into_iter().flat_map(|(a, b, c)| [a, b, c])))
            })
        }))?,
        gx_run(r1, PaperAlloc::GRAPHX_DS1, &ds1, |gx| {
            gx_common_neighbor(gx).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "Common Neighbor (DS2)",
        3.5,
        None,
        ps_run(r2, PaperAlloc::PSGRAPH_DS2, &ds2, Box::new(|ctx, e, n| {
            CommonNeighbor::default().run(ctx, e, n).map(|out| {
                Some(fnv(out.counts.into_iter().flat_map(|(a, b, c)| [a, b, c])))
            })
        }))?,
        gx_run(r2, PaperAlloc::GRAPHX_DS2, &ds2, |gx| {
            gx_common_neighbor(gx).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "Fast Unfolding (DS1)",
        3.5,
        Some(10.3),
        ps_run(r1, PaperAlloc::PSGRAPH_DS1, &ds1, Box::new(|ctx, e, n| {
            FastUnfolding { max_passes: 3, max_sweeps: 5, ..Default::default() }
                .run_unweighted(ctx, e, n)
                .map(|_| None)
        }))?,
        gx_run(r1, PaperAlloc::GRAPHX_DS1, &ds1, |gx| {
            gx_fast_unfolding(gx, 3, 5).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "K-Core (DS1)",
        2.0,
        None,
        ps_run(r1, PaperAlloc::PSGRAPH_DS1, &ds1, Box::new(|ctx, e, n| {
            KCore::default().run(ctx, e, n).map(|out| Some(fnv(out.coreness)))
        }))?,
        gx_run(r1, PaperAlloc::GRAPHX_DS1, &ds1, |gx| {
            gx_kcore(gx, 100).map(|_| ())
        })?,
    ));

    out.push(Fig6Cell::new(
        "Triangle Count (DS1)",
        0.7,
        None,
        ps_run(r1, PaperAlloc::PSGRAPH_DS1, &ds1, Box::new(|ctx, e, n| {
            TriangleCount::default().run(ctx, e, n).map(|out| Some(out.triangles))
        }))?,
        gx_run(r1, PaperAlloc::GRAPHX_DS1, &ds1, |gx| {
            gx_triangle_count(gx).map(|_| ())
        })?,
    ));

    Ok(out)
}

/// Render the grid as a paper-vs-measured table.
pub fn table(cells: &[Fig6Cell]) -> Table {
    let mut t = Table::new(
        "Fig. 6 — traditional graph algorithms (simulated time)",
        &["paper PSGraph", "paper GraphX", "PSGraph", "GraphX", "shape"],
    );
    for c in cells {
        let paper_gx = match c.paper_gx_hours {
            Some(h) => Cell::Hours(h),
            None => Cell::Oom,
        };
        let shape_ok = match (&c.paper_gx_hours, &c.graphx, &c.psgraph) {
            (None, Outcome::Oom, Outcome::Time(_)) => "ok: OOM reproduced",
            (Some(_), Outcome::Time(gx), Outcome::Time(ps)) if gx > ps => "ok: PSGraph wins",
            _ => "MISMATCH",
        };
        t.push(Row::new(
            c.label,
            vec![
                Cell::Hours(c.paper_ps_hours),
                paper_gx,
                c.psgraph.to_cell(),
                c.graphx.to_cell(),
                Cell::Text(shape_ok.to_string()),
            ],
        ));
    }
    t
}

/// One line naming every PSGraph output digest — what CI compares across
/// claim schedules.
pub fn digest_line(cells: &[Fig6Cell]) -> String {
    let digests: Vec<String> = cells
        .iter()
        .filter_map(|c| Some(format!("{} {:016x}", c.label, c.digest?)))
        .collect();
    format!("PSGraph output digests: {}", digests.join(", "))
}

/// The rows whose PSGraph sim time must not depend on the claim schedule:
/// no stage of these jobs reads what the same stage writes on the PS.
/// K-Core's and Fast Unfolding's stages do, so which push a read sees —
/// and K-Core's superstep count with it — still follows the schedule.
const SIM_SCHEDULE_FREE: [&str; 5] = [
    "PageRank (DS1)",
    "PageRank (DS2)",
    "Common Neighbor (DS1)",
    "Common Neighbor (DS2)",
    "Triangle Count (DS1)",
];

/// One line digesting the PSGraph sim times of the schedule-free rows —
/// what CI compares across claim schedules next to [`digest_line`].
pub fn sim_digest_line(cells: &[Fig6Cell]) -> String {
    let rows = cells.iter().filter(|c| SIM_SCHEDULE_FREE.contains(&c.label));
    let nanos = rows.map(|c| c.psgraph.sim_nanos());
    format!("PSGraph sim digest ({}): {:016x}", SIM_SCHEDULE_FREE.join(", "), fnv(nanos))
}

/// One line digesting every row's GraphX sim time (or OOM): the GraphX
/// jobs never touch a PS, so no row depends on the claim schedule, and CI
/// compares this line across schedules too.
pub fn graphx_sim_digest_line(cells: &[Fig6Cell]) -> String {
    let nanos = cells.iter().map(|c| c.graphx.sim_nanos());
    format!("GraphX sim digest (every row): {:016x}", fnv(nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline reproduction test: the whole Fig. 6 pattern must hold.
    /// Small scale keeps it test-suite friendly.
    #[test]
    fn fig6_shape_holds() {
        let cells = run_fig6(0.05).expect("fig6 must run");
        for c in &cells {
            assert!(
                !c.psgraph.is_oom(),
                "{}: PSGraph must never OOM (paper)",
                c.label
            );
            match c.paper_gx_hours {
                None => assert!(
                    c.graphx.is_oom(),
                    "{}: GraphX must OOM as in the paper",
                    c.label
                ),
                Some(_) => {
                    let (Outcome::Time(gx), Outcome::Time(ps)) = (&c.graphx, &c.psgraph)
                    else {
                        panic!("{}: expected both to finish", c.label);
                    };
                    assert!(
                        gx > ps,
                        "{}: GraphX ({gx}) must be slower than PSGraph ({ps})",
                        c.label
                    );
                }
            }
        }
        let t = table(&cells);
        assert!(t.to_string().contains("PageRank (DS1)"));
    }
}
