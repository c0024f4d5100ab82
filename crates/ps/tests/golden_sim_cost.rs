//! Golden sim-cost test for the PS client tier: pins what "same bytes,
//! same RPC order, same sim clock" means for the four handles.
//!
//! One fixed script drives every public operation of `VectorHandle`,
//! `MatrixHandle`, `ColMatrixHandle` and `NeighborTableHandle` — plus the
//! snapshot / delta writers, checkpoint + recovery and the fused
//! residual-push round that sit on top of them — on a
//! 4-server PS (the benchmark's `SIM_SERVERS`) and on a 7-server PS (where,
//! until PR 21, the order a request visited its servers could depend on
//! which key it named first), under the Range and the Hash partitioner. Requests include
//! repeated keys, keys owned by one server only, and the empty request.
//! Every line records the operation's result, the `Network::stats` deltas
//! (RPCs, bytes sent, bytes received), the client clock, and **every
//! server's port clock** — a port is FIFO in sim time, so the port clocks
//! pin when every leg was served. The script ends with server 1 killed:
//! one keyed operation per handle records the `PsError` and the charges
//! already made to the servers visited before the dead one. A second,
//! shorter script (`run_plans`) does the same for the planned reads.
//!
//! Recorded at f10724d, before the handles' hand-rolled `(server,
//! partition)` fan-outs became one `PsObject::scatter`. A refactor of the
//! client tier must leave every line unchanged; a deliberate cost-model or
//! visit-order change re-records them (the failure message prints the
//! actual lines).
//!
//! Re-recorded once since, when `ColMatrixHandle::axpy_pairs` gave way to
//! the fused `update_pairs`: the three `colmatrix.axpy_pairs*` lines became
//! the `colmatrix.update_pairs*` lines and a `dead1` line was added for it.
//! The fused operator does twice the server arithmetic per call and writes
//! both matrices, and every line records absolute clocks, so the lines
//! *after* them moved too — by clock readings, and by what `cm` / `cm2`
//! hold wherever a result or a file digest shows it. Checked at that
//! change: with the old operator kept beside the new `PsServer` accessors
//! all 966 recorded lines passed unchanged (`colmatrix.dot_pairs*`
//! included); after the swap the 90 lines before `colmatrix.update_pairs`
//! and all `plan.` lines are byte-identical, and no other line's RPC or
//! byte counts moved.
//!
//! Re-recorded twice more in PR 21. First when the legs of one request
//! started to leave together (`PsObject::fan_out`: one departure time, the
//! client resumes at the slowest leg): a script checked that every
//! `client=` / `ports=` value — and the clock some results embed — is at
//! most the parent's and every other byte is equal, on all 970 lines.
//! Then when `PsObject::group` started to return its legs by ascending
//! (server, partition): only the `dead1` lines moved — which legs ran
//! before the dead server, and the port clocks that leaves behind — plus
//! the rendered digest of the ten `plan.build` lines whose plan lists its
//! ids in the new order (`results/PERF_pr21_gnn_epoch.txt` lists them).
//!
//! Re-recorded once more when the PS-resident CSR store was deleted and
//! the neighbor table became the one PS adjacency object: the script lost
//! its CSR operations — `csr.*`, `snapshot.adjacency`,
//! `delta.rebuild csr`, `delta.adjacency`, `recovered csr.pull` and the two
//! `dead1 csr.*` lines, 23 per configuration, 92 in all (970 → 878 lines).
//! A script compared the 878 survivors with the parent's lines, label by
//! label: 818 are byte-identical once `client=` / `ports=` are stripped; 40
//! differ only in the sim clock the snapshot / delta export lines embed in
//! their result; the other 20 are the `snapshot.finish`, `snapshot.files`,
//! `delta.finish`, `delta.files` and `checkpoint.files` digests, whose
//! listings no longer hold the `csr` object. No line's `rpcs`, `sent` or
//! `recv` moved (`results/SIMPLICITY_pr29.txt` holds the script and its
//! output).
//!
//! Re-recorded once more when the full export became the delta writer run
//! with no base (one `SNAPSHOT` file in the delta encoding, every partition
//! dirty) and the row-matrix export went: the `snapshot.matrix_f32` and
//! `delta.matrix_f32` lines are gone (878 → 870 lines). Of the 870, 834 are
//! equal once clocks are masked. The other 36: the seven `snapshot.*`
//! lines of each configuration (per-partition requests, one file written
//! at `finish`, no pulls before a refused duplicate, a typed error for a
//! hash-partitioned vector or table), `delta.files` (the listing holds
//! the one `SNAPSHOT` file), `delta.finish` on range layouts (4 objects,
//! not 5) and `delta.unknown object` on hash layouts (the range check now
//! comes before the base lookup). No `delta.` export line's `rpcs`,
//! `sent` or `recv` moved; the `results/` simplicity ledger of this
//! re-recording holds the comparing script and its output.

use std::fmt::Debug;
use std::sync::Arc;

use psgraph_dfs::Dfs;
use psgraph_ps::snapshot::{snapshot_path, DeltaWriter, SnapshotDelta};
use psgraph_ps::{
    ColMatrixHandle, MatrixHandle, NeighborTableHandle, PartitionLayout,
    PartitionViewMut, Partitioner, Ps, PsConfig, PushFrontier, RecoveryMode, SnapshotManifest,
    SnapshotWriter, VectorHandle,
};
use psgraph_sim::NodeClock;

/// Key space of every keyed object.
const N: u64 = 70;
const COLS: usize = 6;
const ROWS: u64 = 20;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Results print whole when short, as length + digest otherwise.
fn render(r: &impl Debug) -> String {
    let s = format!("{r:?}");
    if s.len() <= 160 {
        s
    } else {
        format!("<{} chars fnv={:016x}>", s.len(), fnv(s.as_bytes()))
    }
}

struct Probe {
    ps: Arc<Ps>,
    client: NodeClock,
    tag: String,
    lines: Vec<String>,
}

impl Probe {
    /// Run `f`, then record what it returned and what it charged.
    fn op<R: Debug>(&mut self, label: &str, f: impl FnOnce(&NodeClock) -> R) {
        self.op_ret(label, f);
    }

    /// [`Probe::op`] for the few results the script goes on to use.
    fn op_ret<R: Debug>(&mut self, label: &str, f: impl FnOnce(&NodeClock) -> R) -> R {
        let stats = self.ps.network().stats();
        let (rpcs, sent, recv) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
        let result = f(&self.client);
        let ports: Vec<u64> = (0..self.ps.num_servers())
            .map(|s| self.ps.server(s).port().clock().now().as_nanos())
            .collect();
        self.lines.push(format!(
            "{} {label}: rpcs={} sent={} recv={} client={}ns ports={ports:?} -> {}",
            self.tag,
            stats.rpcs() - rpcs,
            stats.bytes_sent() - sent,
            stats.bytes_received() - recv,
            self.client.now().as_nanos(),
            render(&result),
        ));
        result
    }
}

/// The request shapes of a keyed operation: all servers with repeats, the
/// same keys reversed, one server's keys only, nothing — and one key each
/// on servers 0 and 4 (0 and 3 of four) in both orders: with seven servers
/// that pair was visited in the order the request named it until legs were
/// grouped by ascending server.
fn requests(layout: &PartitionLayout) -> Vec<(&'static str, Vec<u64>)> {
    let mixed: Vec<u64> = vec![69, 3, 40, 3, 17, 55, 69, 22, 8, 61, 33];
    let mut rev = mixed.clone();
    rev.reverse();
    let owned_by = |s: usize| (0..N).filter(move |&k| layout.server_of(k) == s);
    let mut one: Vec<u64> = owned_by(2).take(3).collect();
    one.push(one[0]);
    let far = 4.min(layout.num_servers - 1);
    let (a, b) = (owned_by(0).next().unwrap(), owned_by(far).next().unwrap());
    vec![
        ("mixed", mixed),
        ("rev", rev),
        ("one", one),
        ("empty", Vec::new()),
        ("pair", vec![a, b]),
        ("pair-rev", vec![b, a]),
    ]
}

fn f64s(keys: &[u64]) -> Vec<f64> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (i as f64 + 1.0) * 0.25 - k as f64 * 0.125)
        .collect()
}

fn rows3(keys: &[u64]) -> Vec<Vec<f32>> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            (0..3)
                .map(|j| k as f32 * 0.5 - i as f32 + j as f32 * 0.25)
                .collect()
        })
        .collect()
}

fn file_digests(dfs: &Dfs, prefix: &str) -> Vec<(String, usize, String)> {
    let reader = NodeClock::new();
    let mut paths = dfs.list(prefix);
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let bytes = dfs.read(&p, &reader).unwrap();
            let digest = format!("{:016x}", fnv(&bytes));
            (p, bytes.len(), digest)
        })
        .collect()
}

fn run(servers: usize, partitioner: Partitioner) -> Vec<String> {
    let ps = Ps::new(PsConfig {
        servers,
        ..Default::default()
    });
    let tag = format!(
        "s{servers}/{}",
        if partitioner == Partitioner::Range {
            "range"
        } else {
            "hash"
        }
    );
    let mut t = Probe {
        ps: Arc::clone(&ps),
        client: NodeClock::new(),
        tag,
        lines: Vec::new(),
    };
    let rec = RecoveryMode::Inconsistent;
    let layout = PartitionLayout::new(partitioner, N, servers, servers);
    let reqs = requests(&layout);
    let mixed = reqs[0].1.clone();

    // ---- vector ----
    let v = VectorHandle::<f64>::create(&ps, "v", N, partitioner, rec).unwrap();
    let d = VectorHandle::<f64>::create(&ps, "d", N, partitioner, rec).unwrap();
    let u = VectorHandle::<u64>::create(&ps, "u", N, partitioner, rec).unwrap();
    for (name, keys) in &reqs {
        t.op(&format!("vector.push_set {name}"), |c| {
            v.push_set(c, keys, &f64s(keys))
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("vector.push_add {name}"), |c| {
            v.push_add(c, keys, &f64s(keys))
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("vector.pull {name}"), |c| v.pull(c, keys));
    }
    for (name, keys) in &reqs {
        t.op(&format!("vector.pull_sparse {name}"), |c| {
            v.pull_sparse(c, keys)
        });
    }
    let labels: Vec<u64> = mixed.iter().map(|k| k % 5).collect();
    t.op("vector<u64>.push_set mixed", |c| {
        u.push_set(c, &mixed, &labels)
    });
    t.op("vector<u64>.push_add mixed", |c| {
        u.push_add(c, &mixed, &labels)
    });
    t.op("vector<u64>.pull rev", |c| u.pull(c, &reqs[1].1));
    t.op("vector.accumulate_and_reset (empty delta)", |c| {
        v.accumulate_and_reset(c, &d)
    });
    t.op("vector.push_set delta", |c| {
        d.push_set(c, &reqs[1].1, &f64s(&reqs[1].1))
    });
    t.op("vector.accumulate_and_reset", |c| {
        v.accumulate_and_reset(c, &d)
    });
    t.op("vector.aggregate", |c| v.aggregate(c, |x| x.abs()));
    t.op("vector.pull_all", |c| v.pull_all(c));
    t.op("vector.pull_all delta", |c| d.pull_all(c));
    t.op("vector.fill delta 1.5", |c| d.fill(c, 1.5));
    t.op("vector.fill delta 0", |c| d.fill(c, 0.0));
    t.op("vector.pull delta after fill", |c| d.pull(c, &mixed));
    t.op("vector.ps_func", |c| {
        v.ps_func(
            c,
            24,
            16,
            |view| match view {
                PartitionViewMut::Dense { data, .. } => {
                    data.iter().filter(|x| **x != 0.0).count() as u64
                }
                PartitionViewMut::Sparse(map) => map.len() as u64,
            },
            |a, b| a + b,
        )
    });
    t.op("vector.scale", |c| v.scale(c, 0.5));
    t.op("vector.pull after scale", |c| v.pull(c, &mixed));
    t.op("vector.out_of_bounds", |c| v.pull(c, &[1, N]));
    t.op("vector.mismatched", |c| v.push_add(c, &[1, 2], &[1.0]));
    t.op("vector.partition_versions", |_| v.partition_versions());
    t.op("vector.resident_bytes", |_| v.resident_bytes());

    // ---- row-partitioned matrix ----
    let m = MatrixHandle::<f32>::create(&ps, "m", N, 3, partitioner, rec).unwrap();
    t.op("matrix.init_uniform", |c| m.init_uniform(c, 7, 0.5));
    for (name, keys) in &reqs {
        t.op(&format!("matrix.push_set_rows {name}"), |c| {
            m.push_set_rows(c, keys, &rows3(keys))
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("matrix.push_add_rows {name}"), |c| {
            m.push_add_rows(c, keys, &rows3(keys))
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("matrix.sgd_step {name}"), |c| {
            m.sgd_step(c, keys, &rows3(keys), 0.1)
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("matrix.adagrad_step {name}"), |c| {
            m.adagrad_step(c, keys, &rows3(keys), 0.1, 1e-8)
        });
    }
    for (step, (name, keys)) in reqs.iter().enumerate() {
        t.op(&format!("matrix.adam_step {name}"), |c| {
            m.adam_step(
                c,
                keys,
                &rows3(keys),
                0.01,
                0.9,
                0.999,
                1e-8,
                step as u64 + 1,
            )
        });
    }
    for (name, keys) in &reqs {
        t.op(&format!("matrix.pull_rows {name}"), |c| {
            m.pull_rows(c, keys)
        });
    }
    t.op("matrix.pull_all", |c| m.pull_all(c));
    t.op("matrix.out_of_bounds", |c| m.pull_rows(c, &[N]));
    t.op("matrix.bad_width", |c| {
        m.push_add_rows(c, &[0], &[vec![1.0; 2]])
    });
    t.op("matrix.partition_versions", |_| m.partition_versions());
    t.op("matrix.resident_bytes", |_| m.resident_bytes());

    // ---- column-partitioned matrix ----
    let cm = ColMatrixHandle::create(&ps, "cm", ROWS, COLS, rec).unwrap();
    let cm2 = ColMatrixHandle::create(&ps, "cm2", ROWS, COLS, rec).unwrap();
    t.op("colmatrix.init_uniform", |c| cm.init_uniform(c, 3, 1.0));
    t.op("colmatrix.init_uniform 2", |c| cm2.init_uniform(c, 4, 1.0));
    let pairs: Vec<(u64, u64)> = vec![(19, 0), (3, 3), (7, 12), (3, 3), (0, 19)];
    t.op("colmatrix.dot_pairs", |c| cm.dot_pairs(c, &cm2, &pairs));
    t.op("colmatrix.dot_pairs self", |c| cm.dot_pairs(c, &cm, &pairs));
    t.op("colmatrix.dot_pairs empty", |c| cm.dot_pairs(c, &cm2, &[]));
    let updates: Vec<(u64, u64, f64)> =
        vec![(19, 0, 0.5), (3, 3, -0.25), (7, 12, 0.125), (19, 1, 1.0)];
    t.op("colmatrix.update_pairs", |c| {
        cm.update_pairs(c, &cm2, &updates)
    });
    t.op("colmatrix.update_pairs self", |c| {
        cm.update_pairs(c, &cm, &updates)
    });
    t.op("colmatrix.update_pairs empty", |c| {
        cm.update_pairs(c, &cm2, &[])
    });
    let crow: Vec<u64> = vec![19, 3, 7, 3];
    let cdelta: Vec<Vec<f32>> = crow
        .iter()
        .map(|&r| (0..COLS).map(|j| r as f32 * 0.1 + j as f32).collect())
        .collect();
    t.op("colmatrix.push_add_rows", |c| {
        cm.push_add_rows(c, &crow, &cdelta)
    });
    t.op("colmatrix.push_add_rows empty", |c| {
        cm.push_add_rows(c, &[], &[])
    });
    t.op("colmatrix.pull_rows", |c| cm.pull_rows(c, &crow));
    t.op("colmatrix.pull_rows empty", |c| cm.pull_rows(c, &[]));
    t.op("colmatrix.out_of_bounds", |c| cm.pull_rows(c, &[ROWS]));
    t.op("colmatrix.partition_versions", |_| cm.partition_versions());
    t.op("colmatrix.resident_bytes", |_| cm.resident_bytes());

    // ---- neighbor table ----
    let nt = NeighborTableHandle::create(&ps, "nt", N, partitioner, rec).unwrap();
    for (name, keys) in &reqs {
        let mut seen = Vec::new();
        let entries: Vec<(u64, Vec<u64>)> = keys
            .iter()
            .filter(|k| {
                !seen.contains(*k) && {
                    seen.push(**k);
                    true
                }
            })
            .map(|&k| (k, (1..=(k % 4 + 1)).map(|i| (k + i * 7) % N).collect()))
            .collect();
        t.op(&format!("neighbor.push {name}"), |c| nt.push(c, &entries));
    }
    let ops: Vec<(u64, u64, bool)> = vec![
        (3, 10, false),
        (69, 1, true),
        (3, 10, true),
        (40, 2, true),
        (3, 11, true),
        (17, 24, false),
        (3, 10, false),
        (3, 10, true),
        (50, 51, true),
        (22, 29, false),
    ];
    t.op("neighbor.update_edges", |c| nt.update_edges(c, &ops));
    t.op("neighbor.update_edges empty", |c| nt.update_edges(c, &[]));
    t.op("neighbor.add_edges", |c| {
        nt.add_edges(c, &[(8, 9), (61, 9), (8, 9)])
    });
    t.op("neighbor.remove_edges", |c| {
        nt.remove_edges(c, &[(8, 9), (33, 40), (8, 15)])
    });
    let lane0: Vec<(u64, u64, bool)> = vec![
        (3, 12, true),
        (17, 0, true),
        (22, 36, false),
        (3, 12, false),
    ];
    let lane1: Vec<(u64, u64, bool)> = vec![
        (69, 2, true),
        (40, 47, false),
        (55, 5, true),
        (40, 47, true),
    ];
    let lane_clock = NodeClock::new();
    t.op("neighbor.update_edges_sharded", |c| {
        let r = nt.update_edges_sharded(&[(c, &lane0), (&lane_clock, &lane1)]);
        (r, lane_clock.now().as_nanos())
    });
    for (name, keys) in &reqs {
        t.op(&format!("neighbor.pull {name}"), |c| nt.pull(c, keys));
    }
    for (name, keys) in &reqs {
        t.op(&format!("neighbor.degrees {name}"), |c| nt.degrees(c, keys));
    }
    for (name, keys) in &reqs {
        t.op(&format!("neighbor.sample_neighbors {name}"), |c| {
            nt.sample_neighbors(c, keys, 2, 11)
        });
    }
    t.op("neighbor.out_of_bounds", |c| {
        nt.update_edges(c, &[(1, N, true)])
    });
    t.op("neighbor.len", |_| nt.len());
    t.op("neighbor.is_empty", |_| nt.is_empty());
    t.op("neighbor.tombstones", |_| nt.tombstones());
    t.op("neighbor.partition_versions", |_| nt.partition_versions());
    t.op("neighbor.resident_bytes", |_| nt.resident_bytes());

    // ---- fused residual push (needs one range layout) ----
    if partitioner == Partitioner::Range {
        let ranks = VectorHandle::<f64>::create(&ps, "pr.ranks", N, partitioner, rec).unwrap();
        let res = VectorHandle::<f64>::create(&ps, "pr.res", N, partitioner, rec).unwrap();
        t.op("residual_push.seed", |c| {
            res.push_set(c, &mixed, &f64s(&mixed))
        });
        let mut front = PushFrontier::default();
        front.extend(mixed.iter().copied());
        for round in 0..3 {
            t.op(&format!("residual_push.round {round}"), |c| {
                let r = ranks.residual_push(c, &res, &nt, 0.85, 1e-3, &mut front);
                (r, front.len())
            });
        }
        t.op("residual_push.ranks", |c| ranks.pull(c, &mixed));
    }

    // ---- snapshot + delta export ----
    let dfs = Dfs::in_memory();
    let base = {
        let client = NodeClock::new();
        client.sync_to(t.client.now());
        let mut w = SnapshotWriter::new(&dfs, "/snap", &client);
        t.op("snapshot.vector_f64", |_| {
            (w.vector_f64(&v), client.now().as_nanos())
        });
        t.op("snapshot.vector_u64", |_| {
            (w.vector_u64(&u), client.now().as_nanos())
        });
        t.op("snapshot.colmatrix", |_| {
            (w.colmatrix(&cm), client.now().as_nanos())
        });
        t.op("snapshot.neighbor_table", |_| {
            (w.neighbor_table(&nt), client.now().as_nanos())
        });
        t.op("snapshot.duplicate", |_| w.vector_f64(&v));
        let base = t.op_ret("snapshot.finish", |_| w.finish()).unwrap();
        t.client.sync_to(client.now());
        base
    };
    t.op("snapshot.files", |_| file_digests(&dfs, "/snap"));
    t.op("delta.dirty vector", |c| {
        v.push_add(c, &[3, 69], &[1.0, 2.0])
    });
    t.op("delta.dirty vector<u64>", |c| u.push_set(c, &[40], &[9]));
    t.op("delta.dirty matrix", |c| {
        m.push_add_rows(c, &[17], &[vec![1.0; 3]])
    });
    t.op("delta.dirty colmatrix", |c| {
        cm.update_pairs(c, &cm2, &[(2, 3, 0.5)])
    });
    t.op("delta.dirty neighbor", |c| {
        nt.update_edges(c, &[(55, 6, true), (3, 11, false)])
    });
    {
        let client = NodeClock::new();
        client.sync_to(t.client.now());
        let mut w = DeltaWriter::new(&dfs, "/snap", &base, &client);
        t.op("delta.vector_f64", |_| {
            (w.vector_f64(&v), client.now().as_nanos())
        });
        t.op("delta.vector_u64", |_| {
            (w.vector_u64(&u), client.now().as_nanos())
        });
        t.op("delta.colmatrix", |_| {
            (w.colmatrix(&cm), client.now().as_nanos())
        });
        t.op("delta.neighbor_table", |_| {
            (w.neighbor_table(&nt), client.now().as_nanos())
        });
        t.op("delta.unknown object", |_| w.vector_f64(&d));
        t.op("delta.finish", |_| w.finish().map(|d| d.entries.len()));
        t.client.sync_to(client.now());
    }
    t.op("delta.files", |_| file_digests(&dfs, "/snap"));
    t.op("delta.manifest reload", |c| {
        let file = SnapshotDelta::load(&dfs, &snapshot_path("/snap"), c);
        file.map(|f| f.rebase(&SnapshotManifest::default()) == base)
    });

    // ---- checkpoint, crash, recovery ----
    t.op("checkpoint_all", |_| ps.checkpoint_all(&dfs));
    t.op("checkpoint.files", |_| file_digests(&dfs, "/ckpt"));
    t.op("checkpoint.later write", |c| {
        v.push_add(c, &mixed, &f64s(&mixed))
    });
    ps.kill_server(2);
    ps.restart_server(2, t.client.now());
    t.op("recover_server 2", |c| ps.recover_server(2, &dfs, c));
    t.op("recovered vector.pull", |c| v.pull(c, &mixed));
    t.op("recovered matrix.pull_rows", |c| m.pull_rows(c, &reqs[2].1));
    t.op("recovered colmatrix.pull_rows", |c| cm.pull_rows(c, &crow));
    t.op("recovered neighbor.pull", |c| nt.pull(c, &mixed));
    t.op("recovered neighbor.tombstones", |_| nt.tombstones());
    t.op("recovered partition_versions", |_| {
        (
            v.partition_versions(),
            m.partition_versions(),
            nt.partition_versions(),
        )
    });

    // ---- server 1 down: the error, and what was charged before it ----
    ps.kill_server(1);
    t.op("dead1 vector.pull", |c| v.pull(c, &mixed));
    t.op("dead1 vector.pull_sparse", |c| v.pull_sparse(c, &reqs[1].1));
    t.op("dead1 vector.push_add", |c| {
        v.push_add(c, &mixed, &f64s(&mixed))
    });
    t.op("dead1 vector.pull_all", |c| v.pull_all(c));
    t.op("dead1 vector.ps_func", |c| {
        v.ps_func(c, 8, 8, |_| 1u64, |a, b| a + b)
    });
    t.op("dead1 matrix.pull_rows", |c| m.pull_rows(c, &mixed));
    t.op("dead1 matrix.adam_step", |c| {
        m.adam_step(c, &mixed, &rows3(&mixed), 0.01, 0.9, 0.999, 1e-8, 9)
    });
    t.op("dead1 colmatrix.pull_rows", |c| cm.pull_rows(c, &crow));
    t.op("dead1 colmatrix.dot_pairs", |c| {
        cm.dot_pairs(c, &cm2, &pairs)
    });
    t.op("dead1 colmatrix.update_pairs", |c| {
        cm.update_pairs(c, &cm2, &updates)
    });
    t.op("dead1 neighbor.pull", |c| nt.pull(c, &mixed));
    t.op("dead1 neighbor.update_edges", |c| nt.update_edges(c, &ops));
    t.op("dead1 neighbor.update_edges_sharded", |c| {
        nt.update_edges_sharded(&[(c, &lane0), (&lane_clock, &lane1)])
    });
    t.op("dead1 partition_versions", |_| v.partition_versions());
    t.op("dead1 resident_bytes", |_| m.resident_bytes());
    t.op("dead1 checkpoint", |_| ps.checkpoint(&dfs, "v"));
    t.lines
}

/// The planned reads, on a PS of their own so that every line above stays
/// where it was recorded: each request shape is routed once
/// (`VectorHandle::plan` charges nothing) and replayed through
/// `pull_planned` / `pull_sparse_planned`, again after a write, on a second
/// vector of the same layout, against a vector of another layout, and with
/// server 1 down.
fn run_plans(servers: usize, partitioner: Partitioner) -> Vec<String> {
    let ps = Ps::new(PsConfig {
        servers,
        ..Default::default()
    });
    let tag = format!(
        "s{servers}/{}",
        if partitioner == Partitioner::Range {
            "range"
        } else {
            "hash"
        }
    );
    let mut t = Probe {
        ps: Arc::clone(&ps),
        client: NodeClock::new(),
        tag,
        lines: Vec::new(),
    };
    let rec = RecoveryMode::Inconsistent;
    let layout = PartitionLayout::new(partitioner, N, servers, servers);
    let reqs = requests(&layout);
    let mixed = reqs[0].1.clone();
    let v = VectorHandle::<f64>::create(&ps, "v", N, partitioner, rec).unwrap();
    let u = VectorHandle::<u64>::create(&ps, "u", N, partitioner, rec).unwrap();
    let wide = VectorHandle::<f64>::create(&ps, "wide", 2 * N, partitioner, rec).unwrap();
    t.op("plan.seed", |c| v.push_set(c, &mixed[..6], &f64s(&mixed[..6])));
    let mut plans = Vec::new();
    for (name, keys) in &reqs {
        let plan = t.op_ret(&format!("plan.build {name}"), |_| v.plan(keys)).unwrap();
        t.op(&format!("plan.shape {name}"), |_| {
            (plan.positions(), plan.distinct(), plan.approx_bytes())
        });
        plans.push(plan);
    }
    for ((name, _), plan) in reqs.iter().zip(&plans) {
        t.op(&format!("plan.pull_planned {name}"), |c| {
            v.pull_planned(c, plan)
        });
    }
    for ((name, _), plan) in reqs.iter().zip(&plans) {
        t.op(&format!("plan.pull_sparse_planned {name}"), |c| {
            v.pull_sparse_planned(c, plan)
        });
    }
    t.op("plan.write", |c| v.push_add(c, &mixed, &f64s(&mixed)));
    t.op("plan.pull_planned mixed after write", |c| {
        v.pull_planned(c, &plans[0])
    });
    t.op("plan.pull_sparse_planned rev after write", |c| {
        v.pull_sparse_planned(c, &plans[1])
    });
    t.op("plan.pull_planned same layout", |c| {
        u.pull_planned(c, &plans[0])
    });
    t.op("plan.pull_planned other layout", |c| {
        wide.pull_planned(c, &plans[0])
    });
    t.op("plan.build out_of_bounds", |_| {
        v.plan(&[1, N]).map(|p| p.distinct())
    });
    ps.kill_server(1);
    t.op("dead1 plan.pull_planned", |c| v.pull_planned(c, &plans[0]));
    t.op("dead1 plan.pull_sparse_planned", |c| {
        v.pull_sparse_planned(c, &plans[1])
    });
    t.op("dead1 plan.build", |_| v.plan(&mixed).map(|p| p.distinct()));
    t.lines
}

/// Recorded at f10724d (see the module docs); the `plan.` lines were added
/// with `PullPlan`, the `update_pairs` lines replaced the `axpy_pairs` ones.
const EXPECTED: &str = include_str!("golden_sim_cost.expected");

#[test]
fn every_ps_operation_costs_exactly_what_it_did() {
    let mut actual = Vec::new();
    for servers in [4, 7] {
        for partitioner in [Partitioner::Range, Partitioner::Hash] {
            actual.extend(run(servers, partitioner));
        }
    }
    for servers in [4, 7] {
        for partitioner in [Partitioner::Range, Partitioner::Hash] {
            actual.extend(run_plans(servers, partitioner));
        }
    }
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let first_diff = actual
        .iter()
        .map(String::as_str)
        .zip(&expected)
        .position(|(a, e)| a != *e)
        .or((actual.len() != expected.len()).then_some(actual.len().min(expected.len())));
    if let Some(i) = first_diff {
        eprintln!("---- actual lines ----");
        for line in &actual {
            eprintln!("{line}");
        }
        eprintln!("---- end of actual lines ----");
        panic!(
            "PS sim cost moved ({} lines vs {} recorded); first difference at line {}:\n  actual:   {}\n  recorded: {}",
            actual.len(),
            expected.len(),
            i + 1,
            actual.get(i).map_or("<none>", String::as_str),
            expected.get(i).copied().unwrap_or("<none>"),
        );
    }
}
