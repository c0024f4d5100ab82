//! The four workloads. Names are fixed by `BENCHMARK.json`.

pub mod gnn_epoch;
pub mod serve_ladder;
pub mod stream_refresh;
pub mod tg_batch;

use crate::metrics::Layer;
use crate::sut::{self, Pool, Res};

/// Probes cheap enough to run on every workload: pool dispatch and the
/// modelled RPC itself.
fn common_probes(pool: &Pool, l: &mut Layer) {
    const ITEMS: usize = 10_000;
    l.set(
        "harness.pool_map_ns_per_task",
        sut::probe_pool_map(pool, ITEMS) * 1e9 / ITEMS as f64,
    );
    l.set(
        "net.rpc_wall_ns",
        sut::probe_net_rpc(ITEMS) * 1e9 / ITEMS as f64,
    );
}

/// Write and read back one blob of `bytes` on a fresh in-memory DFS.
fn dfs_probe(bytes: usize, l: &mut Layer) -> Res<()> {
    let (ww, ws, rw, rs) = sut::probe_dfs(bytes)?;
    let mib = bytes as f64 / (1 << 20) as f64;
    l.set("dfs.write_wall_mb_s", mib / ww);
    l.set("dfs.read_wall_mb_s", mib / rw);
    l.set("dfs.write_sim_s", ws);
    l.set("dfs.read_sim_s", rs);
    Ok(())
}
