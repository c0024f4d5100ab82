//! The seven evaluated algorithms (paper §IV / §V).

pub mod common_neighbor;
pub mod connected_components;
pub mod fast_unfolding;
pub mod graphsage;
pub mod incremental;
pub mod kcore;
pub mod label_propagation;
pub mod line;
pub mod pagerank;
pub(crate) mod superstep;
pub mod triangle;

pub use common_neighbor::CommonNeighbor;
pub use connected_components::ConnectedComponents;
pub use fast_unfolding::FastUnfolding;
pub use graphsage::{GraphSage, GraphSageConfig};
pub use incremental::{CcStats, IncrementalCc, IncrementalPageRank, PrState};
pub use kcore::KCore;
pub use label_propagation::LabelPropagation;
pub use line::{Line, LineConfig, LineOrder};
pub use pagerank::PageRank;
pub use triangle::TriangleCount;

/// The PS objects a job creates under fixed names. Dropping it unregisters
/// them, so a job releases its server memory on every exit — a `?` on a
/// dead server or an executor OOM included — and the next job on the same
/// context starts from an empty budget.
pub(crate) struct PsObjects<'a> {
    ctx: &'a crate::PsGraphContext,
    names: &'a [&'a str],
}

impl<'a> PsObjects<'a> {
    /// Declare `names` before creating them: a creation that fails half
    /// way is cleaned up too.
    pub(crate) fn new(ctx: &'a crate::PsGraphContext, names: &'a [&'a str]) -> Self {
        PsObjects { ctx, names }
    }
}

impl Drop for PsObjects<'_> {
    fn drop(&mut self) {
        for name in self.names {
            self.ctx.ps().unregister(name);
        }
    }
}
