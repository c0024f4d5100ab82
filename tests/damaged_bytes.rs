//! Every byte format the system reads back off the DFS, fed damaged bytes
//! through its public reader: an error or a value that can be used, never
//! a panic or an allocation sized by a corrupt count.

use std::sync::Arc;

use psgraph_harness::prop::{self, check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_stream::recovery::StreamCheckpoint;
use psgraph_stream::{EdgeEvent, EdgeOp, EventLog};

use psgraph::core::{runner, PsGraphContext};
use psgraph::dfs::Dfs;
use psgraph::graph::{io, EdgeList};
use psgraph::ps::snapshot::{load_object, DeltaWriter, PatchRegion, SnapshotDelta};
use psgraph::ps::{
    ColMatrixHandle, MatrixHandle, NeighborTableHandle, Partitioner, Ps, RecoveryMode,
    SnapshotEntry, SnapshotKind, SnapshotManifest, SnapshotWriter, VectorHandle,
};
use psgraph::serve::{ObjectMap, ServeCluster, ServeConfig};
use psgraph::sim::{NodeClock, SimTime};

/// The little-endian encoding of `fields`, back to back.
fn le(fields: &[u64]) -> Vec<u8> {
    fields.iter().flat_map(|f| f.to_le_bytes()).collect()
}

#[test]
fn counts_that_overflow_and_trailing_bytes_are_errors() {
    let ctx = PsGraphContext::local();
    let (dfs, c) = (ctx.dfs(), ctx.cluster().driver());
    let object = SnapshotEntry {
        name: "v".into(),
        kind: SnapshotKind::VecF64,
        rows: 1 << 61,
        cols: 1,
        part_versions: vec![],
    };
    let mut log = Vec::new();
    EventLog::write(dfs, "/log", &[], c).unwrap();
    log.extend_from_slice(&dfs.read("/log", c).unwrap());
    log.push(0);
    let mut delta = b"1ATLDGSP\x01\x00\x00\x00\x01\x00\x00\x00v\x00".to_vec();
    delta.extend(le(&[8]));
    delta.extend([1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]);
    delta.extend(le(&[0, 1 << 61]));
    type Fails<'a> = Box<dyn Fn() -> bool + 'a>;
    let table: [(&str, &str, Vec<u8>, Fails); 7] = [
        (
            "event log, count u64::MAX",
            "/log",
            [b"PSGEVT01".as_slice(), &le(&[u64::MAX])].concat(),
            Box::new(|| EventLog::replay(dfs, "/log", c).is_err()),
        ),
        (
            "event log, trailing byte",
            "/log",
            log,
            Box::new(|| EventLog::replay(dfs, "/log", c).is_err()),
        ),
        (
            "edge list, m = 2^60",
            "/edges",
            le(&[10, 1 << 60]),
            Box::new(|| io::read_binary(dfs, "/edges", c).is_err()),
        ),
        (
            "features, n = 2^62 of dim 0",
            "/features",
            le(&[1 << 62, 0]),
            Box::new(|| io::read_features(dfs, "/features", c).is_err()),
        ),
        (
            "snapshot object, rows = 2^61",
            "/snap/v.snap",
            [&[0][..], &le(&[1 << 61]), &[1, 0, 0, 0]].concat(),
            Box::new(|| load_object(dfs, "/snap", &object, c).is_err()),
        ),
        (
            "snapshot delta, region of 2^61 values",
            "/snap/DELTA",
            delta,
            Box::new(|| SnapshotDelta::load(dfs, "/snap", c).is_err()),
        ),
        (
            "vertex table, n = 2^60",
            "/table",
            le(&[1 << 60]),
            Box::new(|| runner::load_vertex_values(&ctx, "/table").is_err()),
        ),
    ];
    for (what, path, bytes, fails) in table {
        dfs.write(path, &bytes, c).unwrap();
        assert!(fails(), "{what}: decoded");
    }
}

/// A range-partitioned neighbor table `adj` over `n` vertices holding
/// `tables`, pushed by `c` — the PS object an adjacency snapshot is
/// exported from.
fn adjacency(
    ps: &Arc<Ps>,
    c: &NodeClock,
    n: u64,
    tables: &[(u64, Vec<u64>)],
) -> NeighborTableHandle {
    let (range, mode) = (Partitioner::Range, RecoveryMode::Inconsistent);
    let adj = NeighborTableHandle::create(ps, "adj", n, range, mode).unwrap();
    adj.push(c, tables).unwrap();
    adj
}

#[test]
fn serve_load_rejects_adjacency_offsets_past_the_targets() {
    let ctx = PsGraphContext::local();
    let (dfs, c) = (ctx.dfs(), ctx.cluster().driver());
    let adj = adjacency(ctx.ps(), c, 4, &[(0, vec![1, 2]), (3, vec![0])]);
    let mut w = SnapshotWriter::new(dfs, "/snap", c);
    w.neighbor_table(&adj).unwrap();
    w.finish().unwrap();
    let objects = ObjectMap { adjacency: Some("adj".into()), ..ObjectMap::default() };
    let cfg = ServeConfig::default();
    ServeCluster::load(dfs, "/snap", &objects, &cfg, c).unwrap();

    // Kind, rows and cols, then 5 offsets: the last one, 3, becomes 9.
    let mut bytes = dfs.read("/snap/adj.snap", c).unwrap().to_vec();
    assert_eq!(bytes[13..], le(&[0, 2, 2, 2, 3, 3, 1, 2, 0]), "offsets, count, targets");
    bytes[13 + 4 * 8] = 9;
    dfs.write("/snap/adj.snap", &bytes, c).unwrap();
    assert!(ServeCluster::load(dfs, "/snap", &objects, &cfg, c).is_err());
}

/// An adjacency target names a vertex the next hop looks up: a target past
/// the last vertex is refused when a snapshot is loaded and when a delta is
/// swapped in, by the one check both share. Unchecked, a k-hop from such a
/// vertex sizes its visited bitmap by the target (2^40 ids: 128 GiB).
#[test]
fn serve_rejects_adjacency_targets_past_the_last_vertex() {
    let ctx = PsGraphContext::local();
    let (dfs, c) = (ctx.dfs(), ctx.cluster().driver());
    let adj = adjacency(ctx.ps(), c, 4, &[(0, vec![1, 2]), (3, vec![0])]);
    let mut w = SnapshotWriter::new(dfs, "/snap", c);
    w.neighbor_table(&adj).unwrap();
    let base = w.finish().unwrap();
    let objects = ObjectMap { adjacency: Some("adj".into()), ..ObjectMap::default() };
    let cfg = ServeConfig::default();
    // Both files end with their last adjacency target: vertex 3's last
    // neighbour, `last`.
    let retarget = |path: &str, last: u64| {
        let mut bytes = dfs.read(path, c).unwrap().to_vec();
        let at = bytes.len() - 8;
        assert_eq!(bytes[at..], le(&[last]), "{path} ends with vertex 3's last neighbour");
        bytes[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
        dfs.write(path, &bytes, c).unwrap();
    };

    let good = dfs.read("/snap/adj.snap", c).unwrap().to_vec();
    retarget("/snap/adj.snap", 0);
    assert!(ServeCluster::load(dfs, "/snap", &objects, &cfg, c).is_err(), "snapshot object");
    dfs.write("/snap/adj.snap", &good, c).unwrap();
    let mut cluster = ServeCluster::load(dfs, "/snap", &objects, &cfg, c).unwrap();

    // Vertex 3's list becomes [2]: the delta's one region is the last
    // partition, which ends with vertex 3.
    adj.update_edges(c, &[(3, 0, false), (3, 2, true)]).unwrap();
    let mut dw = DeltaWriter::new(dfs, "/snap", &base, c);
    assert_eq!(dw.neighbor_table(&adj).unwrap(), 1);
    let intact = dw.finish().unwrap();
    let mut control = ServeCluster::load(dfs, "/snap", &objects, &cfg, c).unwrap();
    control.swap_in(&intact).unwrap();
    retarget("/snap/DELTA", 2);
    let delta = SnapshotDelta::load(dfs, "/snap", c).unwrap();
    assert!(cluster.swap_in(&delta).is_err(), "delta");
}

/// A snapshot under `dir` with every object kind, and a delta of it with
/// every region kind.
fn snapshot(ctx: &PsGraphContext, dir: &str) -> (SnapshotManifest, SnapshotDelta) {
    let (ps, dfs, c) = (ctx.ps(), ctx.dfs(), ctx.cluster().driver());
    let ids: Vec<u64> = (0..6).collect();
    let (range, consistent) = (Partitioner::Range, RecoveryMode::Consistent);
    let rank = VectorHandle::<f64>::create(ps, "rank", 6, range, consistent).unwrap();
    rank.push_set(c, &ids, &[0.5, 1.5, -2.0, 0.0, 7.25, 3.0]).unwrap();
    let label = VectorHandle::<u64>::create(ps, "label", 6, range, consistent).unwrap();
    label.push_set(c, &ids, &[0, 1, 1, 2, 0, 2]).unwrap();
    let embed = ColMatrixHandle::create(ps, "embed", 6, 2, RecoveryMode::Inconsistent).unwrap();
    embed.init_uniform(c, 3, 1.0).unwrap();
    let feat = MatrixHandle::<f32>::create(ps, "feat", 6, 2, range, consistent).unwrap();
    feat.init_uniform(c, 5, 1.0).unwrap();
    let adj = adjacency(ps, c, 6, &[(0, vec![1, 2]), (4, vec![5])]);
    let mut w = SnapshotWriter::new(dfs, dir, c);
    w.vector_f64(&rank).unwrap();
    w.vector_u64(&label).unwrap();
    w.colmatrix(&embed).unwrap();
    w.matrix_f32(&feat).unwrap();
    w.neighbor_table(&adj).unwrap();
    let base = w.finish().unwrap();

    rank.push_set(c, &[1], &[9.0]).unwrap();
    label.push_set(c, &[5], &[7]).unwrap();
    embed.push_add_rows(c, &[2], &[vec![1.0; 2]]).unwrap();
    feat.push_set_rows(c, &[0], &[vec![0.25, -1.0]]).unwrap();
    adj.update_edges(c, &[(0, 1, false), (0, 2, false), (0, 3, true)]).unwrap();
    let mut dw = DeltaWriter::new(dfs, dir, &base, c);
    dw.vector_f64(&rank).unwrap();
    dw.vector_u64(&label).unwrap();
    dw.colmatrix(&embed).unwrap();
    dw.matrix_f32(&feat).unwrap();
    dw.neighbor_table(&adj).unwrap();
    let delta = dw.finish().unwrap();
    (base, delta)
}

/// The damage property for the file at `path`, which `read` decodes: the
/// file is damaged in place, then put back.
fn file_survives_damage<T, E>(
    dfs: &Dfs,
    c: &NodeClock,
    path: &str,
    flips: &[(u64, u32)],
    read: impl Fn() -> Result<T, E>,
    usable: impl FnOnce(T, &[u8]) -> prop::PropResult,
) -> prop::PropResult {
    let bytes = dfs.read(path, c).unwrap().to_vec();
    let damage = |damaged: &[u8]| {
        dfs.write(path, damaged, c).unwrap();
        read()
    };
    let outcome = prop::survives_damage(&bytes, flips, damage, usable);
    dfs.write(path, &bytes, c).unwrap();
    outcome
}

#[test]
fn no_reader_panics_on_damaged_bytes() {
    let ctx = PsGraphContext::local();
    let (dfs, c) = (ctx.dfs(), ctx.cluster().driver());
    let (manifest, delta) = snapshot(&ctx, "/snap");
    // A value read from damaged bytes is usable when its writer encodes it
    // back to exactly those bytes.
    let reencodes = |write: &dyn Fn(&str), damaged: &[u8]| {
        write("/rewritten");
        prop_assert_eq!(&dfs.read("/rewritten", c).unwrap()[..], damaged);
        Ok(())
    };
    check(
        "no_reader_panics_on_damaged_bytes",
        |src: &mut Source| {
            let events = src.vec_with(0, 5, |s| EdgeEvent {
                op: if s.bool() { EdgeOp::Add } else { EdgeOp::Remove },
                src: s.any_u64(),
                dst: s.any_u64(),
                at: SimTime::from_nanos(s.any_u64()),
            });
            let checkpoint = StreamCheckpoint {
                generation: src.any_u64(),
                batches_done: src.any_u64(),
                events_done: src.any_u64(),
                watermark: SimTime::from_nanos(src.any_u64()),
            };
            let n = src.u64_range(1, 20);
            let edges = src.vec_with(0, 6, |s| (s.u64_range(0, n), s.u64_range(0, n)));
            let edges = EdgeList::new(n, edges);
            let dim = src.usize_range(0, 3);
            let rows = src.vec_with(0, 4, |s| {
                let row: Vec<f32> = (0..dim).map(|_| s.f64_range(-8.0, 8.0) as f32).collect();
                (row, s.usize_range(0, 10))
            });
            let table = src.vec_with(0, 5, |s| (s.any_u64(), s.f64_range(-8.0, 8.0)));
            let flips = src.vec_with(1, 4, |s| (s.any_u64(), s.choice(8) as u32));
            (events, checkpoint, edges, rows, table, flips)
        },
        |(events, checkpoint, edges, rows, table, flips)| {
            EventLog::write(dfs, "/log", events, c).unwrap();
            prop_assert_eq!(&EventLog::replay(dfs, "/log", c).unwrap(), events);
            let read = || EventLog::replay(dfs, "/log", c);
            file_survives_damage(dfs, c, "/log", flips, read, |events, damaged| {
                reencodes(&|path| EventLog::write(dfs, path, &events, c).unwrap(), damaged)
            })?;

            checkpoint.write(dfs, "/ckpt", c).unwrap();
            prop_assert_eq!(&StreamCheckpoint::read(dfs, "/ckpt", c).unwrap(), checkpoint);
            let read = || StreamCheckpoint::read(dfs, "/ckpt", c);
            file_survives_damage(dfs, c, "/ckpt", flips, read, |ck, damaged| {
                reencodes(&|path| ck.write(dfs, path, c).unwrap(), damaged)
            })?;

            io::write_binary(dfs, "/edges", edges, c).unwrap();
            prop_assert_eq!(&io::read_binary(dfs, "/edges", c).unwrap(), edges);
            let read = || io::read_binary(dfs, "/edges", c);
            file_survives_damage(dfs, c, "/edges", flips, read, |g, damaged| {
                prop_assert!(g.edges().iter().all(|&(s, d)| s.max(d) < g.num_vertices()));
                reencodes(&|path| io::write_binary(dfs, path, &g, c).unwrap(), damaged)
            })?;

            let (features, labels): (Vec<Vec<f32>>, Vec<usize>) = rows.iter().cloned().unzip();
            io::write_features(dfs, "/features", &features, &labels, c).unwrap();
            let back = io::read_features(dfs, "/features", c).unwrap();
            prop_assert_eq!(back, (features, labels));
            // Zero rows of a nonzero width decode, and write back as width 0.
            let read = || io::read_features(dfs, "/features", c);
            file_survives_damage(dfs, c, "/features", flips, read, |(f, l), _| {
                prop_assert!(f.len() == l.len() && f.iter().all(|row| row.len() == f[0].len()));
                Ok(())
            })?;

            runner::save_vertex_values(&ctx, "/table", table).unwrap();
            prop_assert_eq!(&runner::load_vertex_values(&ctx, "/table").unwrap(), table);
            let read = || runner::load_vertex_values(&ctx, "/table");
            file_survives_damage(dfs, c, "/table", flips, read, |t, damaged| {
                reencodes(&|path| runner::save_vertex_values(&ctx, path, &t).unwrap(), damaged)
            })?;

            // The snapshot files: the manifest, each object and the delta.
            prop_assert_eq!(&SnapshotManifest::load(dfs, "/snap", c).unwrap(), &manifest);
            let read = || SnapshotManifest::load(dfs, "/snap", c);
            file_survives_damage(dfs, c, "/snap/MANIFEST", flips, read, |_, _| Ok(()))?;
            for entry in &manifest.entries {
                let (path, rows) = (format!("/snap/{}.snap", entry.name), entry.rows as usize);
                let read = || load_object(dfs, "/snap", entry, c);
                file_survives_damage(dfs, c, &path, flips, read, |region, _| {
                    match region {
                        PatchRegion::RowsF64 { row_lo: 0, values } => {
                            prop_assert_eq!(values.len(), rows)
                        }
                        PatchRegion::RowsU64 { row_lo: 0, values } => {
                            prop_assert_eq!(values.len(), rows)
                        }
                        PatchRegion::RowsF32 { row_lo: 0, data } => {
                            prop_assert_eq!(data.len(), rows * entry.cols as usize)
                        }
                        PatchRegion::Adj { row_lo: 0, offsets, targets } => {
                            prop_assert_eq!(offsets.len(), rows + 1);
                            prop_assert_eq!(offsets.first(), Some(&0));
                            prop_assert_eq!(offsets.last(), Some(&(targets.len() as u64)));
                            prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
                        }
                        other => return Err(format!("not a whole object: {other:?}")),
                    }
                    Ok(())
                })?;
            }
            prop_assert_eq!(&SnapshotDelta::load(dfs, "/snap", c).unwrap(), &delta);
            let read = || SnapshotDelta::load(dfs, "/snap", c);
            file_survives_damage(dfs, c, "/snap/DELTA", flips, read, |_, _| Ok(()))
        },
    );
}
