//! Property tests for the serving tier: exact-LRU byte-budget semantics,
//! router liveness, and loads and hot-swaps that serve exactly the
//! snapshot's arrays.

use psgraph_harness::prop::{check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_serve::cache::LruCache;
use psgraph_serve::router::Router;
use psgraph_serve::shard::{Replica, ShardData, ShardSpec};
use psgraph_sim::{NodeClock, SimTime};
use std::sync::Arc;

/// Reference model: exact LRU with a byte budget, kept as a recency list
/// (front = least recently used).
struct ModelLru {
    budget: u64,
    entries: Vec<(u64, u64)>, // (key, bytes), LRU → MRU
}

impl ModelLru {
    fn bytes(&self) -> u64 {
        self.entries.iter().map(|(_, b)| *b).sum()
    }

    fn get(&mut self, key: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: u64, bytes: u64) {
        // An oversized value is rejected before the old entry is touched —
        // a rejected update keeps the previous value cached.
        if bytes > self.budget {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        while self.bytes() + bytes > self.budget {
            self.entries.remove(0);
        }
        self.entries.push((key, bytes));
    }
}

#[derive(Debug)]
enum Op {
    Get(u64),
    Insert(u64, u64),
}

#[test]
fn lru_matches_exact_model_and_never_exceeds_budget() {
    check(
        "lru_matches_exact_model_and_never_exceeds_budget",
        |src: &mut Source| {
            let budget = src.u64_range(1, 400);
            let ops = src.vec_with(1, 120, |s| {
                let key = s.u64_range(0, 12);
                if s.bool() {
                    Op::Get(key)
                } else {
                    Op::Insert(key, s.u64_range(1, 120))
                }
            });
            (budget, ops)
        },
        |(budget, ops)| {
            let mut real: LruCache<u64, u64> = LruCache::new(*budget);
            let mut model = ModelLru { budget: *budget, entries: Vec::new() };
            for op in ops {
                match *op {
                    Op::Get(k) => {
                        let hit = real.get(&k).is_some();
                        prop_assert_eq!(hit, model.get(k), "get({}) hit mismatch", k);
                    }
                    Op::Insert(k, bytes) => {
                        real.insert(k, k * 10, bytes);
                        model.insert(k, bytes);
                    }
                }
                prop_assert!(
                    real.bytes_used() <= *budget,
                    "cache holds {} bytes with budget {}",
                    real.bytes_used(),
                    budget
                );
                prop_assert_eq!(real.bytes_used(), model.bytes());
                // Same keys in the same least→most recent order, i.e. the
                // eviction order is exactly LRU.
                let model_keys: Vec<u64> = model.entries.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(real.keys_lru_order(), model_keys);
            }
            Ok(())
        },
    );
}

#[test]
fn shard_ranges_tile_and_agree_with_owner_of() {
    use psgraph_serve::shard::{owner_of, vertex_range};

    check(
        "shard_ranges_tile_and_agree_with_owner_of",
        |src: &mut Source| {
            let n = src.u64_range(1, 5000);
            // Deliberately allows more shards than vertices.
            let shards = src.usize_range(1, 20);
            (n, shards)
        },
        |(n, shards)| {
            let (n, shards) = (*n, *shards);
            // Ranges are monotone and tile [0, n) exactly; shards past the
            // end are empty.
            let mut covered = 0u64;
            for s in 0..shards {
                let (lo, hi) = vertex_range(s, n, shards);
                prop_assert_eq!(lo, covered.min(n), "shard {} starts at the previous end", s);
                prop_assert!(lo <= hi && hi <= n);
                covered = hi;
            }
            prop_assert_eq!(covered, n, "ranges must cover every vertex");
            // owner_of and vertex_range agree: every vertex's owner owns a
            // range containing it, and no other shard does.
            for v in (0..n).step_by((n as usize / 64).max(1)) {
                let s = owner_of(v, n, shards);
                prop_assert!(s < shards);
                let (lo, hi) = vertex_range(s, n, shards);
                prop_assert!(
                    (lo..hi).contains(&v),
                    "v={} assigned to shard {} with range [{},{})",
                    v,
                    s,
                    lo,
                    hi
                );
            }
            Ok(())
        },
    );
}

#[test]
fn router_never_routes_to_a_dead_replica() {
    check(
        "router_never_routes_to_a_dead_replica",
        |src: &mut Source| {
            let replicas = src.usize_range(1, 6);
            // Aliveness mask + some synthetic in-flight load per replica.
            let alive = (0..replicas).map(|_| src.bool()).collect::<Vec<_>>();
            let load = (0..replicas).map(|_| src.usize_range(0, 5)).collect::<Vec<_>>();
            let probes = src.usize_range(1, 30);
            (alive, load, probes)
        },
        |(alive, load, probes)| {
            let spec = ShardSpec {
                num_shards: 1,
                shard: 0,
                vertex_lo: 0,
                vertex_hi: 100,
                col_lo: 0,
                col_hi: 4,
            };
            let data = Arc::new(ShardData::empty(spec));
            let reps: Vec<Arc<Replica>> = (0..alive.len())
                .map(|i| Replica::new(0, i, i, Arc::clone(&data), 16))
                .collect();
            for (i, rep) in reps.iter().enumerate() {
                for _ in 0..load[i] {
                    let _ = rep.record_completion(SimTime::ZERO, SimTime::from_secs(100));
                }
                if !alive[i] {
                    rep.kill();
                }
            }
            let router = Router::new(vec![reps]);
            let any_alive = alive.iter().any(|a| *a);
            for _ in 0..*probes {
                match router.route(0, SimTime::from_secs(1)) {
                    Some(rep) => {
                        prop_assert!(any_alive);
                        prop_assert!(
                            alive[rep.index()],
                            "routed to dead replica {}",
                            rep.index()
                        );
                        prop_assert!(rep.is_alive());
                    }
                    None => prop_assert!(!any_alive, "no route despite a live replica"),
                }
            }
            Ok(())
        },
    );
}

/// The objects a tier serves, as plain arrays (`None` = not served).
struct Truth {
    ranks: Option<Vec<f64>>,
    communities: Option<Vec<u64>>,
    adjacency: Option<Vec<Vec<u64>>>,
    embeddings: Option<Vec<Vec<f32>>>,
}

/// The naive reference for shard `s` of `shards`: each truth array sliced
/// by the shard's vertex range (and, for the column-sliced embedding
/// copy, its column range).
fn naive_shard(t: &Truth, n: u64, dim: usize, s: usize, shards: usize) -> ShardData {
    use psgraph_serve::shard::{col_range, vertex_range, Adjacency, EmbedSlice};

    let (vertex_lo, vertex_hi) = vertex_range(s, n, shards);
    let (col_lo, col_hi) = col_range(s, dim, shards);
    let (lo, hi) = (vertex_lo as usize, vertex_hi as usize);
    let spec = ShardSpec { num_shards: shards, shard: s, vertex_lo, vertex_hi, col_lo, col_hi };
    ShardData {
        spec,
        ranks: t.ranks.as_ref().map(|r| r[lo..hi].to_vec()),
        communities: t.communities.as_ref().map(|c| c[lo..hi].to_vec()),
        adjacency: t.adjacency.as_ref().map(|lists| {
            let mut adj = Adjacency { offsets: vec![0], targets: Vec::new() };
            for list in &lists[lo..hi] {
                adj.targets.extend(list);
                adj.offsets.push(adj.targets.len() as u64);
            }
            adj
        }),
        embed: t.embeddings.as_ref().map(|rows| {
            let data = rows.iter().flat_map(|r| r[col_lo..col_hi].iter().copied()).collect();
            EmbedSlice { rows: n, width: col_hi - col_lo, data }
        }),
        embed_rows: t.embeddings.as_ref().map(|rows| EmbedSlice {
            rows: vertex_hi - vertex_lo,
            width: dim,
            data: rows[lo..hi].concat(),
        }),
    }
}

/// Whether every replica of `cluster` serves exactly `want(shard)`. Debug
/// text tells float bits apart (signed zeros included), so this is
/// bit-equality for the finite values these tests use.
fn replicas_serve(
    cluster: &psgraph_serve::ServeCluster,
    want: impl Fn(usize) -> ShardData,
) -> Result<(), String> {
    for rep in cluster.replicas() {
        let (got, want) = (format!("{:?}", rep.data()), format!("{:?}", want(rep.shard())));
        prop_assert_eq!(got, want, "replica {} of shard {}", rep.index(), rep.shard());
    }
    Ok(())
}

#[test]
fn load_slices_like_the_truth_and_swap_matches_a_full_reload() {
    use psgraph_dfs::Dfs;
    use psgraph_ps::snapshot::{DeltaWriter, SnapshotWriter};
    use psgraph_ps::{
        ColMatrixHandle, MatrixHandle, NeighborTableHandle, Partitioner, Ps, PsConfig,
        RecoveryMode, VectorHandle,
    };
    use psgraph_serve::{ObjectMap, ServeCluster, ServeConfig};

    /// The embedding matrix, row- or column-partitioned on the PS.
    enum Embed {
        Rows(MatrixHandle<f32>),
        Cols(ColMatrixHandle),
    }

    #[derive(Debug)]
    struct Case {
        n: u64,
        dim: usize,
        shards: usize,
        replicas: usize,
        servers: usize,
        /// Which of ranks / communities / adjacency / embeddings are served.
        roles: [bool; 4],
        row_matrix: bool,
        ranks: Vec<f64>,
        communities: Vec<u64>,
        adjacency: Vec<Vec<u64>>,
        embeddings: Vec<Vec<f32>>,
        // The writes between the base snapshot and the delta.
        set_ranks: Vec<(u64, f64)>,
        set_communities: Vec<(u64, u64)>,
        edge_ops: Vec<(u64, u64, bool)>,
        set_rows: Vec<(u64, Vec<f32>)>,
    }

    check(
        "load_slices_like_the_truth_and_swap_matches_a_full_reload",
        |src: &mut Source| {
            let n = src.u64_range(1, 40);
            let dim = src.usize_range(1, 10);
            let mask = src.usize_range(1, 16);
            let row =
                |s: &mut Source| (0..dim).map(|_| s.f64_range(-100.0, 100.0) as f32).collect();
            Case {
                n,
                dim,
                shards: src.usize_range(1, 7),
                replicas: src.usize_range(1, 3),
                servers: src.usize_range(1, 4),
                roles: [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0],
                row_matrix: src.bool(),
                ranks: (0..n).map(|_| src.f64_range(-1e6, 1e6)).collect(),
                communities: (0..n).map(|_| src.u64_range(0, 9)).collect(),
                adjacency: (0..n)
                    .map(|_| {
                        let mut ns = src.vec_with(0, 4, |s| s.u64_range(0, n));
                        ns.sort_unstable();
                        ns.dedup();
                        ns
                    })
                    .collect(),
                embeddings: (0..n).map(|_| row(src)).collect(),
                set_ranks: src.vec_with(0, 4, |s| (s.u64_range(0, n), s.f64_range(-1e6, 1e6))),
                set_communities: src.vec_with(0, 4, |s| (s.u64_range(0, n), s.u64_range(0, 9))),
                edge_ops: src.vec_with(0, 6, |s| (s.u64_range(0, n), s.u64_range(0, n), s.bool())),
                set_rows: src.vec_with(0, 3, |s| (s.u64_range(0, n), row(s))),
            }
        },
        |c| {
            let ps = Ps::new(PsConfig { servers: c.servers, ..Default::default() });
            let dfs = Dfs::in_memory();
            let client = NodeClock::new();
            let ids: Vec<u64> = (0..c.n).collect();
            let (range, mode) = (Partitioner::Range, RecoveryMode::Consistent);
            let [serve_ranks, serve_communities, serve_adjacency, serve_embeddings] = c.roles;

            let ranks = serve_ranks.then(|| {
                let h = VectorHandle::<f64>::create(&ps, "p.rank", c.n, range, mode).unwrap();
                h.push_set(&client, &ids, &c.ranks).unwrap();
                h
            });
            let communities = serve_communities.then(|| {
                let h = VectorHandle::<u64>::create(&ps, "p.community", c.n, range, mode).unwrap();
                h.push_set(&client, &ids, &c.communities).unwrap();
                h
            });
            let adjacency = serve_adjacency.then(|| {
                let h = NeighborTableHandle::create(&ps, "p.adj", c.n, range, mode).unwrap();
                let lists: Vec<(u64, Vec<u64>)> =
                    ids.iter().copied().zip(c.adjacency.clone()).collect();
                h.push(&client, &lists).unwrap();
                h
            });
            let embeddings = serve_embeddings.then(|| {
                if c.row_matrix {
                    let h = MatrixHandle::<f32>::create(&ps, "p.embed", c.n, c.dim, range, mode);
                    let h = h.unwrap();
                    h.push_set_rows(&client, &ids, &c.embeddings).unwrap();
                    Embed::Rows(h)
                } else {
                    let mode = RecoveryMode::Inconsistent;
                    let h = ColMatrixHandle::create(&ps, "p.embed", c.n, c.dim, mode).unwrap();
                    h.push_add_rows(&client, &ids, &c.embeddings).unwrap();
                    Embed::Cols(h)
                }
            });
            let objects = ObjectMap {
                ranks: serve_ranks.then(|| "p.rank".to_string()),
                communities: serve_communities.then(|| "p.community".to_string()),
                adjacency: serve_adjacency.then(|| "p.adj".to_string()),
                embeddings: serve_embeddings.then(|| "p.embed".to_string()),
            };
            let export = |dir: &str| {
                let mut w = SnapshotWriter::new(&dfs, dir, &client);
                if let Some(h) = &ranks {
                    w.vector_f64(h).unwrap();
                }
                if let Some(h) = &communities {
                    w.vector_u64(h).unwrap();
                }
                if let Some(h) = &adjacency {
                    w.neighbor_table(h).unwrap();
                }
                match &embeddings {
                    Some(Embed::Rows(h)) => w.matrix_f32(h).unwrap(),
                    Some(Embed::Cols(h)) => w.colmatrix(h).unwrap(),
                    None => {}
                }
                w.finish().unwrap()
            };
            // The served arrays, read back off the PS.
            let truth = || Truth {
                ranks: ranks.as_ref().map(|h| h.pull_all(&client).unwrap()),
                communities: communities.as_ref().map(|h| h.pull_all(&client).unwrap()),
                adjacency: adjacency
                    .as_ref()
                    .map(|h| h.pull(&client, &ids).unwrap().iter().map(|l| l.to_vec()).collect()),
                embeddings: embeddings.as_ref().map(|e| match e {
                    Embed::Rows(h) => h.pull_rows(&client, &ids).unwrap(),
                    Embed::Cols(h) => h.pull_rows(&client, &ids).unwrap(),
                }),
            };
            let cfg = ServeConfig {
                shards: c.shards,
                replicas_per_shard: c.replicas,
                ..ServeConfig::default()
            };
            let dim = if serve_embeddings { c.dim } else { 0 };

            // The base load is the truth, sliced.
            let base = export("/p/base");
            let mut cluster = ServeCluster::load(&dfs, "/p/base", &objects, &cfg, &client).unwrap();
            let t0 = Truth {
                ranks: serve_ranks.then(|| c.ranks.clone()),
                communities: serve_communities.then(|| c.communities.clone()),
                adjacency: serve_adjacency.then(|| c.adjacency.clone()),
                embeddings: serve_embeddings.then(|| c.embeddings.clone()),
            };
            replicas_serve(&cluster, |s| naive_shard(&t0, c.n, dim, s, c.shards))?;

            // Write, then swap the delta in: the tier equals a full reload.
            for &(v, x) in &c.set_ranks {
                if let Some(h) = &ranks {
                    h.push_set(&client, &[v], &[x]).unwrap();
                }
            }
            for &(v, x) in &c.set_communities {
                if let Some(h) = &communities {
                    h.push_set(&client, &[v], &[x]).unwrap();
                }
            }
            if let Some(h) = &adjacency {
                h.update_edges(&client, &c.edge_ops).unwrap();
            }
            for (v, row) in &c.set_rows {
                let (v, row) = (&[*v], std::slice::from_ref(row));
                match &embeddings {
                    Some(Embed::Rows(h)) => h.push_set_rows(&client, v, row).unwrap(),
                    Some(Embed::Cols(h)) => h.push_add_rows(&client, v, row).unwrap(),
                    None => {}
                }
            }
            let mut dw = DeltaWriter::new(&dfs, "/p/base", &base, &client);
            if let Some(h) = &ranks {
                dw.vector_f64(h).unwrap();
            }
            if let Some(h) = &communities {
                dw.vector_u64(h).unwrap();
            }
            if let Some(h) = &adjacency {
                dw.neighbor_table(h).unwrap();
            }
            match &embeddings {
                Some(Embed::Rows(h)) => dw.matrix_f32(h).unwrap(),
                Some(Embed::Cols(h)) => dw.colmatrix(h).unwrap(),
                None => 0,
            };
            cluster.swap_in(&dw.finish().unwrap()).unwrap();
            export("/p/full");
            let reload = ServeCluster::load(&dfs, "/p/full", &objects, &cfg, &client).unwrap();
            let fresh: Vec<ShardData> = (0..c.shards)
                .map(|s| (*reload.replicas()[s * c.replicas].data()).clone())
                .collect();
            replicas_serve(&cluster, |s| fresh[s].clone())?;
            let t1 = truth();
            replicas_serve(&reload, |s| naive_shard(&t1, c.n, dim, s, c.shards))
        },
    );
}
