//! The DFS cluster: namenode metadata, datanodes, and the client API.

use psgraph_sim::bytes::Bytes;
use psgraph_sim::sync::{Mutex, RwLock};
use psgraph_net::Network;
use psgraph_sim::{FaultSite, FxHashMap, NodeClock};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::block::{Block, BlockId};
use crate::error::DfsError;

/// DFS configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Block size in bytes (HDFS default is 128 MiB; scaled down so small
    /// simulated files still exercise multi-block paths).
    pub block_size: usize,
    /// Replication factor.
    pub replication: usize,
    /// Number of datanodes.
    pub datanodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { block_size: 4 << 20, replication: 3, datanodes: 4 }
    }
}

/// One datanode: an in-memory block store that can be killed.
#[derive(Debug, Default)]
struct Datanode {
    blocks: RwLock<FxHashMap<BlockId, Block>>,
    alive: psgraph_sim::sync::Mutex<bool>,
}

impl Datanode {
    fn new() -> Self {
        Datanode { blocks: RwLock::default(), alive: Mutex::new(true) }
    }

    fn is_alive(&self) -> bool {
        *self.alive.lock()
    }

    fn store(&self, block: Block) {
        self.blocks.write().insert(block.id, block);
    }

    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.blocks.read().get(&id).cloned()
    }

    fn kill(&self) {
        *self.alive.lock() = false;
        // A dead container loses its (in-memory) block store.
        self.blocks.write().clear();
    }

    /// Flip one byte of a stored replica without updating its checksum.
    fn corrupt(&self, id: BlockId) -> bool {
        let mut map = self.blocks.write();
        if let Some(b) = map.get_mut(&id) {
            if b.data.is_empty() {
                return false;
            }
            let mut v = b.data.to_vec();
            v[0] ^= 0xFF;
            b.data = Bytes::from(v);
            true
        } else {
            false
        }
    }
}

/// Namenode metadata for one file.
#[derive(Debug, Clone)]
struct FileMeta {
    len: u64,
    blocks: Vec<BlockId>,
    /// Replica placement per block (datanode indices).
    placement: Vec<Vec<usize>>,
}

/// Public file status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub path: String,
    pub len: u64,
    pub blocks: usize,
}

/// The distributed file system handle.
///
/// Cloneable-by-`Arc` by design: construct once per simulated cluster and
/// share. All timing flows through the caller's [`NodeClock`].
#[derive(Debug)]
pub struct Dfs {
    config: DfsConfig,
    network: Network,
    files: RwLock<FxHashMap<String, FileMeta>>,
    datanodes: Vec<Datanode>,
    next_block: Mutex<u64>,
    /// Reads that detected a corrupt replica (checksum mismatch) and fell
    /// back to a good one — the observable half of corruption injection.
    corrupt_fallbacks: AtomicU64,
}

impl Dfs {
    pub fn new(config: DfsConfig, network: Network) -> Self {
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        assert!(config.datanodes > 0, "need at least one datanode");
        let datanodes = (0..config.datanodes).map(|_| Datanode::new()).collect();
        Dfs {
            config,
            network,
            files: RwLock::default(),
            datanodes,
            next_block: Mutex::new(0),
            corrupt_fallbacks: AtomicU64::new(0),
        }
    }

    /// A DFS with default config on a default network (tests, examples).
    pub fn in_memory() -> Self {
        Dfs::new(DfsConfig::default(), Network::new(Default::default()))
    }

    fn live_datanodes(&self) -> Vec<usize> {
        (0..self.datanodes.len())
            .filter(|&i| self.datanodes[i].is_alive())
            .collect()
    }

    fn alloc_block_id(&self) -> BlockId {
        let mut n = self.next_block.lock();
        let id = BlockId(*n);
        *n += 1;
        id
    }

    /// Write (create or overwrite) a file. Charges the client network cost
    /// for shipping the bytes and the pipeline's disk cost (HDFS writes
    /// stream through the replica pipeline; the client observes one wire
    /// pass plus the slowest replica's disk write per block).
    pub fn write(&self, path: &str, data: &[u8], client: &NodeClock) -> Result<(), DfsError> {
        let live = self.live_datanodes();
        let repl = self.config.replication.min(self.datanodes.len());
        if live.len() < repl {
            return Err(DfsError::InsufficientDatanodes { live: live.len(), needed: repl });
        }

        let cost = self.network.cost_model();
        let mut blocks = Vec::new();
        let mut placement = Vec::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]]
        } else {
            data.chunks(self.config.block_size).collect()
        };
        for (bi, chunk) in chunks.into_iter().enumerate() {
            let id = self.alloc_block_id();
            // Rack-unaware round-robin placement over live datanodes.
            let replicas: Vec<usize> =
                (0..repl).map(|r| live[(bi + r) % live.len()]).collect();
            let block = Block::new(id, Bytes::copy_from_slice(chunk));
            for &dn in &replicas {
                self.datanodes[dn].store(block.clone());
            }
            // Chaos: silently corrupt one replica of the fresh block (stale
            // checksum), keyed by the block id so the injection replays
            // bit-identically from the seed. Reads detect the mismatch and
            // fall back to a healthy replica.
            if !chunk.is_empty() {
                let chaos = self.network.chaos();
                if chaos.is_active() && chaos.corrupt(FaultSite::DfsWrite, id.0, 0) {
                    let victim = chaos.pick(FaultSite::DfsWrite, id.0, 0, replicas.len());
                    self.datanodes[replicas[victim]].corrupt(id);
                }
            }
            // Client: one wire pass; pipeline hides replica fan-out.
            client.advance(cost.net_bulk_cost(chunk.len() as u64));
            // Slowest stage of the pipeline: one disk write.
            client.advance(cost.disk_cost(chunk.len() as u64));
            blocks.push(id);
            placement.push(replicas);
        }

        let meta = FileMeta { len: data.len() as u64, blocks, placement };
        self.files.write().insert(path.to_string(), meta);
        Ok(())
    }

    /// Read a whole file. Falls back across replicas if datanodes are dead
    /// or replicas corrupt; charges disk + network per block read.
    pub fn read(&self, path: &str, client: &NodeClock) -> Result<Bytes, DfsError> {
        let meta = self
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;

        let cost = self.network.cost_model();
        let mut out = Vec::with_capacity(meta.len as usize);
        for (i, (&bid, replicas)) in meta.blocks.iter().zip(&meta.placement).enumerate() {
            let mut found = None;
            let mut saw_corrupt = false;
            for &dn in replicas {
                if !self.datanodes[dn].is_alive() {
                    continue;
                }
                match self.datanodes[dn].fetch(bid) {
                    Some(b) if b.is_valid() => {
                        found = Some(b);
                        break;
                    }
                    Some(_) => saw_corrupt = true,
                    None => {}
                }
            }
            if found.is_some() && saw_corrupt {
                self.corrupt_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            let block = match found {
                Some(b) => b,
                None if saw_corrupt => {
                    return Err(DfsError::Corrupt { path: path.to_string(), block: i as u64 })
                }
                None => {
                    return Err(DfsError::AllReplicasDead {
                        path: path.to_string(),
                        block: i as u64,
                    })
                }
            };
            client.advance(cost.disk_cost(block.len() as u64));
            client.advance(cost.net_bulk_cost(block.len() as u64));
            out.extend_from_slice(&block.data);
        }
        Ok(Bytes::from(out))
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// File status, if present.
    pub fn status(&self, path: &str) -> Option<FileStatus> {
        self.files.read().get(path).map(|m| FileStatus {
            path: path.to_string(),
            len: m.len,
            blocks: m.blocks.len(),
        })
    }

    /// Delete a file (metadata + replicas). Returns whether it existed.
    pub fn delete(&self, path: &str) -> bool {
        if let Some(meta) = self.files.write().remove(path) {
            for (bid, replicas) in meta.blocks.iter().zip(&meta.placement) {
                for &dn in replicas {
                    self.datanodes[dn].blocks.write().remove(bid);
                }
            }
            true
        } else {
            false
        }
    }

    /// All paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Kill a datanode (drops its replicas, as a dead container would).
    pub fn kill_datanode(&self, i: usize) -> Result<(), DfsError> {
        self.datanodes
            .get(i)
            .ok_or(DfsError::NoSuchDatanode(i))?
            .kill();
        Ok(())
    }

    /// Total bytes of user data stored (not counting replication).
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|m| m.len).sum()
    }

    /// The network this DFS charges costs to (chaos attaches here).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// How many reads checksum-detected a corrupt replica and recovered
    /// from a healthy one.
    pub fn corrupt_fallbacks(&self) -> u64 {
        self.corrupt_fallbacks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_sim::SimTime;

    fn small_dfs() -> Dfs {
        Dfs::new(
            DfsConfig { block_size: 8, replication: 2, datanodes: 3 },
            Network::new(Default::default()),
        )
    }

    #[test]
    fn write_read_roundtrip_multi_block() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        let data = b"the quick brown fox jumps over the lazy dog";
        dfs.write("/data/fox.txt", data, &clk).unwrap();
        let st = dfs.status("/data/fox.txt").unwrap();
        assert_eq!(st.len, data.len() as u64);
        assert_eq!(st.blocks, data.len().div_ceil(8));
        let back = dfs.read("/data/fox.txt", &clk).unwrap();
        assert_eq!(&back[..], data);
        assert!(clk.now() > SimTime::ZERO, "I/O must cost simulated time");
    }

    #[test]
    fn empty_file_roundtrip() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/empty", b"", &clk).unwrap();
        assert_eq!(dfs.read("/empty", &clk).unwrap().len(), 0);
        assert_eq!(dfs.status("/empty").unwrap().blocks, 1);
    }

    #[test]
    fn overwrite_replaces_content() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/f", b"old content", &clk).unwrap();
        dfs.write("/f", b"new", &clk).unwrap();
        assert_eq!(&dfs.read("/f", &clk).unwrap()[..], b"new");
    }

    #[test]
    fn read_missing_is_not_found() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        assert_eq!(
            dfs.read("/nope", &clk).unwrap_err(),
            DfsError::NotFound("/nope".into())
        );
    }

    #[test]
    fn survives_single_datanode_failure() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        let data: Vec<u8> = (0..100u8).collect();
        dfs.write("/d", &data, &clk).unwrap();
        dfs.kill_datanode(0).unwrap();
        let back = dfs.read("/d", &clk).unwrap();
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn all_replicas_dead_errors() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/d", b"abcdefgh", &clk).unwrap();
        for i in 0..3 {
            dfs.kill_datanode(i).unwrap();
        }
        match dfs.read("/d", &clk).unwrap_err() {
            DfsError::AllReplicasDead { path, .. } => assert_eq!(path, "/d"),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn write_fails_without_enough_live_datanodes() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.kill_datanode(0).unwrap();
        dfs.kill_datanode(1).unwrap();
        assert_eq!(
            dfs.write("/d", b"x", &clk).unwrap_err(),
            DfsError::InsufficientDatanodes { live: 1, needed: 2 }
        );
    }

    #[test]
    fn corrupt_replica_falls_back_to_good_one() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/d", b"abcdefgh", &clk).unwrap();
        // Corrupt the replica on whichever datanode holds block 0 first.
        let mut corrupted = false;
        for i in 0..3 {
            if dfs.datanodes[i].corrupt(BlockId(0)) {
                corrupted = true;
                break;
            }
        }
        assert!(corrupted);
        assert_eq!(&dfs.read("/d", &clk).unwrap()[..], b"abcdefgh");
    }

    #[test]
    fn chaos_corruption_is_injected_detected_and_survived() {
        use psgraph_sim::{ChaosConfig, FaultSchedule, SimTime};
        let dfs = Dfs::new(
            DfsConfig { block_size: 8, replication: 3, datanodes: 3 },
            Network::new(Default::default()),
        );
        dfs.network()
            .attach_chaos(FaultSchedule::new(ChaosConfig {
                seed: 5,
                p_corrupt: 1.0,
                ..ChaosConfig::off()
            }));
        let clk = NodeClock::new();
        let data: Vec<u8> = (0..64u8).collect();
        dfs.write("/chaos/blob", &data, &clk).unwrap();
        // Every block had one replica corrupted; reads still succeed by
        // falling back, and each fallback is counted.
        let back = dfs.read("/chaos/blob", &clk).unwrap();
        assert_eq!(&back[..], &data[..]);
        // Fallbacks fire only when the corrupt replica is tried before a
        // good one, so the count is ≤ blocks — but with every block
        // corrupted some must be detected.
        assert!(dfs.corrupt_fallbacks() >= 1, "no corruption was ever detected");
        // Same seed corrupts the same replicas: a second identical cluster
        // produces the same observable history.
        let dfs2 = Dfs::new(
            DfsConfig { block_size: 8, replication: 3, datanodes: 3 },
            Network::new(Default::default()),
        );
        dfs2.network()
            .attach_chaos(FaultSchedule::new(ChaosConfig {
                seed: 5,
                p_corrupt: 1.0,
                ..ChaosConfig::off()
            }));
        let clk2 = NodeClock::new();
        dfs2.write("/chaos/blob", &data, &clk2).unwrap();
        dfs2.read("/chaos/blob", &clk2).unwrap();
        assert_eq!(dfs2.corrupt_fallbacks(), dfs.corrupt_fallbacks());
        assert_eq!(clk2.now(), clk.now());
        let _ = SimTime::ZERO;
    }

    #[test]
    fn all_replicas_corrupt_is_reported() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/d", b"abcdefgh", &clk).unwrap();
        for i in 0..3 {
            dfs.datanodes[i].corrupt(BlockId(0));
        }
        match dfs.read("/d", &clk).unwrap_err() {
            DfsError::Corrupt { block, .. } => assert_eq!(block, 0),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn delete_removes_metadata_and_replicas() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/d", b"abcdefgh12345678", &clk).unwrap();
        let held: usize = dfs.datanodes.iter().map(|dn| dn.blocks.read().len()).sum();
        assert!(held > 0);
        assert!(dfs.delete("/d"));
        assert!(!dfs.exists("/d"));
        assert!(!dfs.delete("/d"));
        let held: usize = dfs.datanodes.iter().map(|dn| dn.blocks.read().len()).sum();
        assert_eq!(held, 0);
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let dfs = small_dfs();
        let clk = NodeClock::new();
        dfs.write("/ckpt/b", b"1", &clk).unwrap();
        dfs.write("/ckpt/a", b"2", &clk).unwrap();
        dfs.write("/data/x", b"3", &clk).unwrap();
        assert_eq!(dfs.list("/ckpt/"), vec!["/ckpt/a", "/ckpt/b"]);
        assert_eq!(dfs.total_bytes(), 3);
    }

    #[test]
    fn larger_files_cost_more_simulated_time() {
        let dfs = Dfs::in_memory();
        let a = NodeClock::new();
        let b = NodeClock::new();
        dfs.write("/small", &vec![0u8; 1 << 10], &a).unwrap();
        dfs.write("/big", &vec![0u8; 1 << 22], &b).unwrap();
        assert!(b.now() > a.now());
    }
}
