//! Ingestor crash recovery: a durable stream checkpoint on the DFS
//! (paired with a PS checkpoint generation) plus event-log replay from
//! the last watermark.
//!
//! The protocol mirrors the paper's failure handling for
//! consistency-critical state: the driver periodically calls
//! `Ps::checkpoint_all_generation` and, once that returns `Ok`, publishes
//! a [`StreamCheckpoint`] recording *where in the event log* that
//! generation corresponds to. After a crash at an arbitrary point —
//! mid-batch, mid-checkpoint, mid-refresh — recovery rolls every
//! `Consistent` object back to the last *published* generation, rewinds
//! the ingestor ([`ShardedIngestor::reset_for_replay`]), and re-drives the event
//! log suffix through [`replay_from_log`]. Replay is idempotent: slot
//! application skips duplicate adds and missing removes, so events the
//! crashed run had already absorbed past the checkpoint re-apply to the
//! same state.

use psgraph_dfs::Dfs;
use psgraph_net::rpc::NodeId;
use psgraph_sim::bytes::BufMut;
use psgraph_sim::{Corrupt, NodeClock, Reader, SimTime};

use crate::error::{Result, StreamError};
use crate::events::EventLog;
use crate::ingest::BatchEffect;
use crate::shard::ShardedIngestor;

const CKPT_MAGIC: &[u8; 8] = b"PSGSCK01";

/// Where a crashed ingestor resumes. Published to the DFS *after* the PS
/// checkpoint generation it names is fully written, so the pair is
/// consistent: a crash between the two leaves the previous checkpoint
/// pointing at its own (intact) generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// PS checkpoint generation (see `Ps::checkpoint_all_generation`).
    pub generation: u64,
    /// Micro-batches fully applied before the checkpoint was taken.
    pub batches_done: u64,
    /// Events (absolute event-log index) fully applied before it.
    pub events_done: u64,
    /// Ingestor watermark at checkpoint time.
    pub watermark: SimTime,
}

impl StreamCheckpoint {
    /// Serialize to `path`, overwriting the previous checkpoint. The DFS
    /// write is all-or-nothing per block, standing in for HDFS
    /// write-then-rename.
    pub fn write(&self, dfs: &Dfs, path: &str, client: &NodeClock) -> Result<()> {
        let mut buf = Vec::with_capacity(40);
        buf.put_slice(CKPT_MAGIC);
        buf.put_u64_le(self.generation);
        buf.put_u64_le(self.batches_done);
        buf.put_u64_le(self.events_done);
        buf.put_u64_le(self.watermark.as_nanos());
        dfs.write(path, &buf, client)?;
        Ok(())
    }

    /// Read the checkpoint back, bit-exact.
    pub fn read(dfs: &Dfs, path: &str, client: &NodeClock) -> Result<StreamCheckpoint> {
        let bytes = dfs.read(path, client)?;
        Reader::decode(&bytes, "stream checkpoint", |r| {
            r.magic(CKPT_MAGIC)?;
            let (generation, batches_done, events_done) = (r.get()?, r.get()?, r.get()?);
            let watermark = SimTime::from_nanos(r.get()?);
            Ok(StreamCheckpoint { generation, batches_done, events_done, watermark })
        })
        .map_err(|e: Corrupt| StreamError::Corrupt(format!("{path}: {e}")))
    }
}

/// Re-drive events `[from_event, to_event)` of the log at `path` through
/// `ingestor` in fixed `batch_size` batches, calling `on_batch(batch_idx,
/// effect)` after each drain so the caller can re-run its incremental
/// maintainers and re-take checkpoints. `batch_idx` is the *absolute*
/// batch number (`from_event / batch_size + local index`), so a replayed
/// run regroups events exactly as the fault-free run did — the
/// precondition for bit-identical final PS state. The log is read on
/// `client`'s clock; the batches drain on the ingestor's lane clocks.
///
/// The ingestor must hold no undrained events (a crashed run's are
/// dropped by [`ShardedIngestor::reset_for_replay`]): they would fold
/// into the first replayed batch and crowd its events out of the
/// mailboxes.
///
/// Returns the number of batches replayed.
pub fn replay_from_log(
    dfs: &Dfs,
    path: &str,
    client: &NodeClock,
    ingestor: &mut ShardedIngestor,
    from_event: usize,
    to_event: usize,
    batch_size: usize,
    mut on_batch: impl FnMut(u64, &BatchEffect) -> Result<()>,
) -> Result<usize> {
    if batch_size == 0 || batch_size > ingestor.capacity() {
        return Err(StreamError::Invalid(format!(
            "replay batch size {batch_size} outside 1..={}",
            ingestor.capacity()
        )));
    }
    if from_event % batch_size != 0 {
        return Err(StreamError::Invalid(format!(
            "replay start {from_event} is not a batch boundary (batch {batch_size})"
        )));
    }
    if ingestor.pending() != 0 {
        return Err(StreamError::Invalid(format!(
            "replay into an ingestor still holding {} undrained events",
            ingestor.pending()
        )));
    }
    let events = EventLog::replay(dfs, path, client)?;
    let to = to_event.min(events.len());
    if from_event >= to {
        return Ok(0);
    }
    let first_batch = (from_event / batch_size) as u64;
    let mut batches = 0usize;
    for chunk in events[from_event..to].chunks(batch_size) {
        for (i, ev) in chunk.iter().enumerate() {
            if !ingestor.offer(NodeId::Driver, *ev) {
                return Err(StreamError::Invalid(format!(
                    "replay event {} refused by a full mailbox",
                    from_event + batches * batch_size + i
                )));
            }
        }
        let fx = ingestor.drain_all()?;
        on_batch(first_batch + batches as u64, &fx)?;
        batches += 1;
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{DriftRmat, EdgeEvent, EdgeOp};
    use crate::ingest::IngestConfig;
    use psgraph_ps::{Ps, PsConfig};

    #[test]
    fn checkpoint_roundtrips_through_dfs() {
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let ck = StreamCheckpoint {
            generation: 7,
            batches_done: 21,
            events_done: 21 * 64,
            watermark: SimTime::from_millis(1234),
        };
        ck.write(&dfs, "/stream/ckpt", &client).unwrap();
        assert_eq!(StreamCheckpoint::read(&dfs, "/stream/ckpt", &client).unwrap(), ck);
        dfs.write("/stream/bad", b"junk", &client).unwrap();
        assert!(StreamCheckpoint::read(&dfs, "/stream/bad", &client).is_err());
    }

    #[test]
    fn replay_rejects_misaligned_or_oversized_requests() {
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let ps = Ps::new(PsConfig::default());
        let cfg = IngestConfig { mailbox_cap: 8, ..IngestConfig::default() };
        let mut ing = ShardedIngestor::create(&ps, &cfg, 16, 1).unwrap();
        EventLog::write(&dfs, "/stream/log", &[], &client).unwrap();
        let nop = |_b: u64, _fx: &BatchEffect| Ok(());
        assert!(replay_from_log(&dfs, "/stream/log", &client, &mut ing, 0, 0, 0, nop).is_err());
        assert!(replay_from_log(&dfs, "/stream/log", &client, &mut ing, 0, 0, 16, nop).is_err());
        assert!(replay_from_log(&dfs, "/stream/log", &client, &mut ing, 3, 9, 4, nop).is_err());
        assert_eq!(
            replay_from_log(&dfs, "/stream/log", &client, &mut ing, 0, 0, 4, nop).unwrap(),
            0
        );
    }

    /// Undrained events would fold into the first replayed batch and
    /// crowd its events out of the mailbox (a cap-8 mailbox holding 5,
    /// then batches of 4: one log event refused and lost). Replay refuses
    /// to start instead, and leaves the ingestor as it was.
    #[test]
    fn replay_refuses_an_ingestor_with_undrained_events() {
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let ps = Ps::new(PsConfig::default());
        let cfg = IngestConfig { mailbox_cap: 8, ..IngestConfig::default() };
        let mut ing = ShardedIngestor::create(&ps, &cfg, 16, 1).unwrap();
        let ev =
            |src, ms| EdgeEvent { op: EdgeOp::Add, src, dst: 15, at: SimTime::from_millis(ms) };
        let log: Vec<EdgeEvent> = (0..8).map(|i| ev(i, 100 + i)).collect();
        EventLog::write(&dfs, "/stream/log", &log, &client).unwrap();
        for i in 0..5 {
            assert!(ing.offer(NodeId::Driver, ev(i, i)));
        }

        let mut batches = 0;
        let replayed = replay_from_log(&dfs, "/stream/log", &client, &mut ing, 0, 8, 4, |_, _| {
            batches += 1;
            Ok(())
        });
        assert!(matches!(replayed, Err(StreamError::Invalid(_))), "got {replayed:?}");
        assert_eq!(batches, 0);
        assert_eq!(ing.pending(), 5);
        assert_eq!((ing.stats().accepted, ing.stats().rejected), (5, 0));

        // Once the crashed run's events are dropped, the log replays whole.
        ing.reset_for_replay(SimTime::ZERO);
        let mut drained = Vec::new();
        let replayed = replay_from_log(&dfs, "/stream/log", &client, &mut ing, 0, 8, 4, |_, fx| {
            drained.push(fx.drained);
            Ok(())
        });
        assert_eq!(replayed.unwrap(), 2);
        assert_eq!(drained, vec![4, 4]);
        assert_eq!(ing.stats().rejected, 0);
    }

    /// The full recovery protocol end-to-end: run fault-free, then run a
    /// copy that crashes mid-stream (dirty un-checkpointed batches, dead
    /// servers), recovers from the last published generation, and
    /// replays the log suffix. Final adjacency + degree content must be
    /// bit-identical to the fault-free run.
    #[test]
    fn crash_recover_replay_matches_fault_free_run() {
        const N: u64 = 256;
        const BATCH: usize = 32;
        const BATCHES: usize = 12;
        const CKPT_EVERY: u64 = 4;

        let gen_events = || -> Vec<EdgeEvent> {
            let cfg = DriftRmat { num_vertices: N, seed: 40, ..DriftRmat::default() };
            let mut src = cfg.start(&[]);
            (0..BATCH * BATCHES).map(|_| src.next_event()).collect()
        };
        let events = gen_events();

        let content = |ing: &ShardedIngestor, client: &NodeClock| -> (Vec<Vec<u64>>, Vec<u64>) {
            let ids: Vec<u64> = (0..N).collect();
            let adj: Vec<Vec<u64>> =
                ing.adjacency().pull(client, &ids).unwrap().iter().map(|l| l.to_vec()).collect();
            let deg: Vec<u64> =
                ing.degrees().pull(client, &ids).unwrap().iter().map(|d| d.to_bits()).collect();
            (adj, deg)
        };

        let setup = || {
            let ps = Ps::new(PsConfig { servers: 2, ..PsConfig::default() });
            let dfs = Dfs::in_memory();
            let client = NodeClock::new();
            let cfg = IngestConfig { mailbox_cap: BATCH, ..IngestConfig::default() };
            let ing = ShardedIngestor::create(&ps, &cfg, N, 2).unwrap();
            EventLog::write(&dfs, "/stream/log", &events, &client).unwrap();
            (ps, dfs, client, ing)
        };

        // Fault-free reference.
        let (_ps_a, dfs_a, client_a, mut ing_a) = setup();
        let done = replay_from_log(
            &dfs_a, "/stream/log", &client_a, &mut ing_a, 0,
            events.len(), BATCH, |_b, _fx| Ok(()),
        )
        .unwrap();
        assert_eq!(done, BATCHES);
        let reference = content(&ing_a, &client_a);

        // Crashing run: checkpoint every CKPT_EVERY batches, crash after
        // batch 9 (one un-checkpointed batch beyond generation 2's
        // coverage of batches 0..8).
        let (ps_b, dfs_b, client_b, mut ing_b) = setup();
        let crash_after = 9usize;
        let mut generation = 0u64;
        let mut did = 0usize;
        replay_from_log(
            &dfs_b, "/stream/log", &client_b, &mut ing_b, 0,
            crash_after * BATCH + BATCH, BATCH,
            |b, fx| {
                did += 1;
                if (b + 1) % CKPT_EVERY == 0 {
                    generation += 1;
                    ps_b.checkpoint_all_generation(&dfs_b, generation)?;
                    StreamCheckpoint {
                        generation,
                        batches_done: b + 1,
                        events_done: (b + 1) * BATCH as u64,
                        watermark: fx.watermark,
                    }
                    .write(&dfs_b, "/stream/ckpt", &client_b)?;
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(did, crash_after + 1);

        // Crash: both servers die, losing the un-checkpointed tail.
        ps_b.kill_server(0);
        ps_b.kill_server(1);
        let t_crash = client_b.now();
        ps_b.restart_server(0, t_crash);
        ps_b.restart_server(1, t_crash);
        let ck = StreamCheckpoint::read(&dfs_b, "/stream/ckpt", &client_b).unwrap();
        assert_eq!(ck.batches_done, 8);
        ps_b.recover_server_from_generation(0, &dfs_b, &client_b, ck.generation).unwrap();
        ing_b.reset_for_replay(ck.watermark);
        assert_eq!(ing_b.watermark(), ck.watermark);

        // Replay the suffix the crash wiped out (batches 8..12).
        let replayed = replay_from_log(
            &dfs_b, "/stream/log", &client_b, &mut ing_b,
            ck.events_done as usize, events.len(), BATCH, |_b, _fx| Ok(()),
        )
        .unwrap();
        assert_eq!(replayed, BATCHES - ck.batches_done as usize);
        assert_eq!(content(&ing_b, &client_b), reference, "recovered state diverged");
    }
}
