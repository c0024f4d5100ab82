//! The refresh driver closes the loop: every `swap_every_batches`
//! micro-batches it exports a [`psgraph_ps::snapshot::DeltaWriter`] delta
//! of the dirtied partitions and hot-swaps it into the live
//! [`psgraph_serve::ServeCluster`], then rebases its manifest so the next
//! delta is relative to what the tier now serves.

use psgraph_dfs::Dfs;
use psgraph_ps::snapshot::{DeltaWriter, SnapshotManifest};
use psgraph_ps::{NeighborTableHandle, VectorHandle};
use psgraph_serve::{ServeCluster, SwapStats};
use psgraph_sim::{NodeClock, SimTime};

use crate::error::Result;

/// Cadence policy for refreshes.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Swap after this many applied micro-batches.
    pub swap_every_batches: usize,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig { swap_every_batches: 8 }
    }
}

/// One completed hot-swap.
#[derive(Debug, Clone, Copy)]
pub struct SwapRecord {
    /// Simulated time the swap ran (the caller's clock position).
    pub at: SimTime,
    pub stats: SwapStats,
    /// Dirty partitions exported across all three objects.
    pub dirty_partitions: usize,
}

/// Periodically publishes PS mutations to the serving tier.
pub struct RefreshDriver {
    dir: String,
    manifest: SnapshotManifest,
    cfg: RefreshConfig,
    batches_since_swap: usize,
    swaps: Vec<SwapRecord>,
}

impl RefreshDriver {
    /// `manifest` is the snapshot the tier was loaded from; `dir` its DFS
    /// directory (deltas are written beside the snapshot file, never over
    /// it).
    pub fn new(dir: impl Into<String>, manifest: SnapshotManifest, cfg: RefreshConfig) -> Self {
        RefreshDriver {
            dir: dir.into(),
            manifest,
            cfg,
            batches_since_swap: 0,
            swaps: Vec::new(),
        }
    }

    /// Record one drained micro-batch; `true` means a refresh is due.
    /// `effective` says whether the batch changed any state
    /// (`!BatchEffect::effects.is_empty()`) — no-op batches (every event
    /// dedup-skipped) do not advance the swap cadence, so a quiet stream
    /// of redelivered duplicates never schedules an empty hot-swap.
    pub fn tick(&mut self, effective: bool) -> bool {
        if effective {
            self.batches_since_swap += 1;
        }
        self.batches_since_swap >= self.cfg.swap_every_batches
    }

    /// Micro-batches applied since the last swap.
    pub fn batches_since_swap(&self) -> usize {
        self.batches_since_swap
    }

    /// Export a delta of everything dirtied since the last swap (ranks,
    /// labels, adjacency) and install it on the live tier. Returns the
    /// swap statistics; the internal manifest is rebased so subsequent
    /// deltas are incremental. When *nothing* is dirty — the cadence
    /// elapsed on batches whose every mutation was elsewhere absorbed —
    /// the swap is skipped entirely (`None`): the unfinished
    /// [`DeltaWriter`] buffers in memory, so dropping it writes nothing
    /// to the DFS and the tier keeps serving the manifest it already has.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        dfs: &Dfs,
        client: &NodeClock,
        cluster: &mut ServeCluster,
        ranks: &VectorHandle<f64>,
        labels: &VectorHandle<u64>,
        adjacency: &NeighborTableHandle,
        at: SimTime,
    ) -> Result<Option<SwapRecord>> {
        let mut dw = DeltaWriter::new(dfs, &self.dir, &self.manifest, client);
        let mut dirty = dw.vector_f64(ranks)?;
        dirty += dw.vector_u64(labels)?;
        dirty += dw.neighbor_table(adjacency)?;
        if dirty == 0 {
            self.batches_since_swap = 0;
            return Ok(None);
        }
        let delta = dw.finish()?;
        let stats = cluster.swap_in(&delta)?;
        self.manifest = delta.rebase(&self.manifest);
        self.batches_since_swap = 0;
        let record = SwapRecord { at, stats, dirty_partitions: dirty };
        self.swaps.push(record);
        Ok(Some(record))
    }

    /// Every swap so far, in order.
    pub fn swaps(&self) -> &[SwapRecord] {
        &self.swaps
    }

    /// The manifest the serving tier currently reflects.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_ps::{Partitioner, Ps, PsConfig, RecoveryMode, SnapshotWriter};
    use psgraph_serve::{ObjectMap, Outcome, Query, ServeConfig, Value};

    /// A refresh writes its delta beside the snapshot file, never over it:
    /// loading the directory afterwards still serves the base.
    #[test]
    fn load_after_a_refresh_still_reads_the_base() {
        let ps = Ps::new(PsConfig::default());
        let (dfs, client) = (Dfs::in_memory(), NodeClock::new());
        let (range, mode) = (Partitioner::Range, RecoveryMode::Consistent);
        let ranks = VectorHandle::<f64>::create(&ps, "r", 8, range, mode).unwrap();
        ranks.push_set(&client, &(0..8).collect::<Vec<_>>(), &[0.5; 8]).unwrap();
        let labels = VectorHandle::<u64>::create(&ps, "l", 8, range, mode).unwrap();
        let adjacency = NeighborTableHandle::create(&ps, "a", 8, range, mode).unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s", &client);
        w.vector_f64(&ranks).unwrap();
        w.vector_u64(&labels).unwrap();
        w.neighbor_table(&adjacency).unwrap();
        let manifest = w.finish().unwrap();
        let objects = ObjectMap {
            ranks: Some("r".into()),
            communities: Some("l".into()),
            adjacency: Some("a".into()),
            embeddings: None,
        };
        let cfg = ServeConfig::default();
        let load = || ServeCluster::load(&dfs, "/s", &objects, &cfg, &client).unwrap();
        let mut cluster = load();

        ranks.push_set(&client, &[3], &[9.0]).unwrap();
        let mut driver = RefreshDriver::new("/s", manifest, RefreshConfig::default());
        let at = client.now();
        let swap = driver
            .refresh(&dfs, &client, &mut cluster, &ranks, &labels, &adjacency, at)
            .unwrap();
        assert_eq!(swap.map(|s| s.dirty_partitions), Some(1));

        let rank3 = |tier: &mut ServeCluster| {
            match &tier.frontend_mut().execute_now(0, SimTime::ZERO, Query::Rank(3))[0].1 {
                Outcome::Answered { value: Value::Rank(r), .. } => *r,
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        assert_eq!(rank3(&mut cluster), 9.0, "the live tier serves the refresh");
        assert_eq!(rank3(&mut load()), 0.5, "a load reads the base snapshot");
    }
}
