//! The superstep loop of the iterative vector jobs, and the neighbourhood
//! vertex program K-Core, Connected Components and Label Propagation are
//! folds of — PSGraph's `graphx::pregel` (DESIGN.md §8, mechanism 8).
//! [`supersteps`] is the loop, and the one owner of failure maintenance
//! and RDD recovery; PageRank's supersteps, Fast Unfolding's sweeps, Common
//! Neighbor's and Triangle Count's pair rounds and GraphSage's and LINE's
//! epochs use it alone.
//! [`run_program`] runs a [`NeighborhoodProgram`] on it. Neither knows
//! which job it serves.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{Partitioner, PullResponse, RecoveryMode, VectorHandle};

use super::PsObjects;
use crate::agent::PsAgent;
use crate::context::{PsGraphContext, RunStats};
use crate::error::{PsResultExt, Result};
use crate::runner::{pull_neighbor_tables, table_on_ps, undirected};

/// Run `step` at supersteps `first, first + 1, …` until one changes
/// nothing (returns 0) or `max` have run; returns how many ran. Each
/// starts with the failure maintenance due at its number, then `recover`
/// if that restarted an executor.
pub(crate) fn supersteps(
    ctx: &PsGraphContext,
    first: u64,
    max: u64,
    recover: impl Fn() -> Result<()>,
    mut step: impl FnMut() -> Result<u64>,
) -> Result<u64> {
    let mut ran = 0;
    while ran < max {
        let (killed_execs, _) = ctx.superstep_maintenance(first + ran)?;
        if !killed_execs.is_empty() {
            recover()?;
        }
        ran += 1;
        if step()? == 0 {
            break;
        }
    }
    Ok(ran)
}

/// A job whose state is one `u64` per vertex, updated from the values of
/// the vertex's undirected neighbours until none changes.
pub(crate) trait NeighborhoodProgram {
    /// The job's name, as `GraphAlgorithm::name` reports it.
    const NAME: &'static str;
    /// The name of the PS vector holding the values.
    const VECTOR: &'static str;
    /// The name of the PS neighbor table the job's adjacency is built in.
    const ADJ: &'static str;
    /// Reusable per-task buffer for [`NeighborhoodProgram::update`].
    type Scratch: Default;

    fn max_iterations(&self) -> u64;

    /// Write the initial values into `values` (created zero). By default
    /// every vertex's own id, pushed from the cluster's driver.
    fn init(
        &self,
        ctx: &PsGraphContext,
        _tables: &Rdd<(u64, Vec<u64>)>,
        values: &VectorHandle<u64>,
    ) -> Result<()> {
        let ids: Vec<u64> = (0..values.size()).collect();
        Ok(values.push_set(ctx.cluster().driver(), &ids, &ids)?)
    }

    /// The new value of a vertex holding `own` whose neighbours hold
    /// `nbrs` (table order), or `None` if it keeps `own`.
    fn update(own: u64, nbrs: &[u64], scratch: &mut Self::Scratch) -> Option<u64>;

    /// CPU ops an executor is charged per step for folding `vertices`
    /// vertices over `neighbors` neighbour values in all.
    fn cpu_ops(vertices: u64, neighbors: u64) -> u64;
}

/// Run `program` on an edge RDD (treated as undirected) over
/// `[0, num_vertices)`: every vertex's final value, and the run's stats.
/// The adjacency is built on the servers in a hash table of `edges`'
/// partition count (`runner::table_on_ps` with `runner::undirected`), and
/// each partition is read back whole onto the executor hosting it
/// (`runner::pull_neighbor_tables`) — no shuffle; the table stays on the
/// servers, where a restarted executor reads its partitions again.
/// Each step every executor reads `[v, N(v)…]` of all its partitions with
/// one planned pull, folds each vertex, charges the declared CPU and
/// pushes the changed values with one `push_set`.
pub(crate) fn run_program<P: NeighborhoodProgram>(
    program: &P,
    ctx: &PsGraphContext,
    edges: &Rdd<(u64, u64)>,
    num_vertices: u64,
) -> Result<(Vec<u64>, RunStats)> {
    let start = ctx.now();
    let snap = ctx.net_snapshot();

    let _objects = PsObjects::new(ctx, &[P::ADJ, P::VECTOR]);
    let adj = table_on_ps(ctx, edges, P::ADJ, num_vertices, undirected)?;
    let tables = pull_neighbor_tables(ctx, &adj)?;

    let values = VectorHandle::<u64>::create(
        ctx.ps(), P::VECTOR, num_vertices, Partitioner::Range, RecoveryMode::Consistent,
    )?;
    program.init(ctx, &tables, &values)?;

    let agent = PsAgent::new(ctx.cluster(), PullResponse::Dense);
    let step = || -> Result<u64> {
        let changes = ctx.cluster().run_executors(tables.num_partitions(), |exec, parts| {
            let local = tables.partitions(parts)?;
            let got = agent.pull(exec, &values, || neighborhood_keys(&local))?;
            let (mut idx, mut val) = (Vec::new(), Vec::new());
            let mut scratch = P::Scratch::default();
            let mut cursor = 0;
            for (v, ns) in local.iter().flat_map(|part| part.iter()) {
                let nbrs = &got[cursor + 1..cursor + 1 + ns.len()];
                if let Some(new) = P::update(got[cursor], nbrs, &mut scratch) {
                    idx.push(*v);
                    val.push(new);
                }
                cursor += 1 + ns.len();
            }
            let vertices = local.iter().map(|part| part.len() as u64).sum::<u64>();
            let ops = P::cpu_ops(vertices, got.len() as u64 - vertices);
            exec.charge_cpu(ctx.cluster().cost(), ops);
            if !idx.is_empty() {
                values.push_set(exec.clock(), &idx, &val).df()?;
            }
            Ok(idx.len() as u64)
        })?;
        Ok(changes.iter().sum())
    };
    let steps = supersteps(ctx, 0, program.max_iterations(), || Ok(tables.recover()?), step)?;

    let out = values.pull_all(ctx.cluster().driver())?;
    ctx.cluster().clock().barrier([ctx.cluster().driver()]);
    Ok((out, ctx.stats_since(start, snap, steps)))
}

/// One partition of a neighbor-table RDD: `(vertex, neighbors)` rows.
type NeighborTable = Arc<Vec<(u64, Vec<u64>)>>;

/// The per-step read of [`run_program`]: `[v, N(v)…]` for every vertex of
/// `tables` (an executor's partitions), in table order — the keys its
/// [`PsAgent`] plan is built from on its first read.
fn neighborhood_keys(tables: &[NeighborTable]) -> Vec<u64> {
    let rows = || tables.iter().flat_map(|part| part.iter());
    let mut keys = Vec::with_capacity(rows().map(|(_, ns)| 1 + ns.len()).sum());
    for (v, ns) in rows() {
        keys.push(*v);
        keys.extend_from_slice(ns);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_sim::{FaultSchedule, FaultSite};
    use std::cell::Cell;

    #[test]
    fn the_loop_numbers_on_from_first_stops_when_quiet_and_at_max() {
        let ctx = PsGraphContext::local();
        // Executor 0 dies at step 6: the third step of a loop from 4.
        let chaos = FaultSchedule::scripted([(FaultSite::ExecutorCrash, 6, 0)]);
        ctx.attach_chaos(chaos.clone());
        let (recovered, ran) = (Cell::new(0), Cell::new(0));
        let recover = || {
            recovered.set(recovered.get() + 1);
            Ok(())
        };
        let changes = [5, 1, 3, 0, 7];
        let step = || {
            ran.set(ran.get() + 1);
            Ok(changes[ran.get() - 1])
        };
        assert_eq!(supersteps(&ctx, 4, 10, recover, step).unwrap(), 4, "the quiet step is the last");
        assert_eq!((ran.get(), recovered.get(), chaos.stats().crashes), (4, 1, 1));
        ran.set(0);
        assert_eq!(supersteps(&ctx, 0, 2, || Ok(()), step).unwrap(), 2, "max bounds it");
        assert_eq!(ran.get(), 2);
        assert_eq!(supersteps(&ctx, 0, 0, || Ok(()), step).unwrap(), 0);
    }
}
