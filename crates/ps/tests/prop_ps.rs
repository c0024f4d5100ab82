//! Property tests for the parameter server, using the in-tree harness.

use psgraph_harness::prop::{check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_ps::{
    ColMatrixHandle, NeighborTableHandle, PartitionLayout, Partitioner, Ps, PsConfig,
    PullResponse, PushFrontier, PushRun, RecoveryMode, VectorHandle,
};
use psgraph_sim::{NodeClock, SimTime};

/// Either partitioner.
fn arb_partitioner(src: &mut Source) -> Partitioner {
    if src.bool() {
        Partitioner::Hash
    } else {
        Partitioner::Range
    }
}

#[test]
fn partition_layout_is_total_and_stable() {
    check(
        "partition_layout_is_total_and_stable",
        |src: &mut Source| {
            let size = src.u64_range(1, 10_000);
            let parts = src.usize_range(1, 16);
            let servers = src.usize_range(1, 8);
            let partitioner = arb_partitioner(src);
            (size, parts, servers, partitioner)
        },
        |&(size, parts, servers, partitioner)| {
            let layout = PartitionLayout::new(partitioner, size, parts, servers);
            let layout2 = PartitionLayout::new(partitioner, size, parts, servers);
            for k in (0..size).step_by(1 + size as usize / 101) {
                let p = layout.partition_of(k);
                prop_assert!(p < parts, "key {} → partition {} of {}", k, p, parts);
                prop_assert_eq!(p, layout2.partition_of(k), "placement must be stable");
                prop_assert!(layout.server_of_partition(p) < servers);
            }
            Ok(())
        },
    );
}

#[test]
fn vector_push_set_overwrites_push_add_accumulates() {
    check(
        "vector_push_set_overwrites_push_add_accumulates",
        |src: &mut Source| {
            let size = src.u64_range(1, 100);
            let ops = src.vec_with(0, 40, |s| {
                (s.u64_range(0, size), s.i64_range(-50, 50), s.bool())
            });
            (size, ops, arb_partitioner(src))
        },
        |(size, ops, partitioner)| {
            let ps = Ps::new(PsConfig { servers: 3, ..Default::default() });
            let clock = NodeClock::new();
            let v = VectorHandle::<i64>::create(
                &ps,
                "prop.pv",
                *size,
                *partitioner,
                RecoveryMode::Inconsistent,
            )
            .unwrap();
            let mut model = vec![0i64; *size as usize];
            for &(idx, val, is_add) in ops {
                if is_add {
                    v.push_add(&clock, &[idx], &[val]).unwrap();
                    model[idx as usize] = model[idx as usize].saturating_add(val);
                } else {
                    v.push_set(&clock, &[idx], &[val]).unwrap();
                    model[idx as usize] = val;
                }
            }
            prop_assert_eq!(v.pull_all(&clock).unwrap(), model);
            Ok(())
        },
    );
}

#[test]
fn sparse_pull_matches_dense_pull_under_any_partitioner() {
    check(
        "sparse_pull_matches_dense_pull_under_any_partitioner",
        |src: &mut Source| {
            let size = src.u64_range(1, 200);
            let vals = src.vec_with(1, 50, |s| s.i64_range(-1000, 1000));
            let queries = src.vec_with(0, 60, |s| s.u64_range(0, size));
            (size, vals, queries, arb_partitioner(src))
        },
        |(size, vals, queries, partitioner)| {
            let ps = Ps::new(PsConfig { servers: 2, ..Default::default() });
            let clock = NodeClock::new();
            let v = VectorHandle::<i64>::create(
                &ps,
                "prop.sp",
                *size,
                *partitioner,
                RecoveryMode::Inconsistent,
            )
            .unwrap();
            let idx: Vec<u64> =
                (0..vals.len()).map(|i| i as u64 % size).collect();
            v.push_add(&clock, &idx, vals).unwrap();
            let dense = v.pull_all(&clock).unwrap();
            let plan = v.plan(queries, PullResponse::Sparse).unwrap();
            let sparse = v.pull_planned(&clock, &plan).unwrap();
            for (q, got) in queries.iter().zip(&sparse) {
                prop_assert_eq!(*got, dense[*q as usize], "query {}", q);
            }
            Ok(())
        },
    );
}

/// What `read` returns and charges on a freshly built vector holding
/// `writes`: (values, RPCs, request bytes, response bytes, client clock,
/// every server's port clock).
type Charged = (Vec<f64>, u64, u64, u64, SimTime, Vec<SimTime>);

fn vector_read_on_fresh_ps(
    servers: usize,
    partitioner: Partitioner,
    size: u64,
    writes: &[(u64, f64)],
    read: impl FnOnce(&VectorHandle<f64>, &NodeClock) -> Vec<f64>,
) -> Charged {
    let ps = Ps::new(PsConfig { servers, ..Default::default() });
    let client = NodeClock::new();
    let v =
        VectorHandle::<f64>::create(&ps, "prop.plan", size, partitioner, RecoveryMode::Inconsistent)
            .unwrap();
    let (idx, vals): (Vec<u64>, Vec<f64>) = writes.iter().copied().unzip();
    v.push_set(&client, &idx, &vals).unwrap();
    let stats = ps.network().stats();
    let (rpcs, sent, recv) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
    let values = read(&v, &client);
    (
        values,
        stats.rpcs() - rpcs,
        stats.bytes_sent() - sent,
        stats.bytes_received() - recv,
        client.now(),
        (0..servers).map(|s| ps.server(s).port().clock().now()).collect(),
    )
}

#[test]
fn planned_pull_replays_the_one_shot_pull_and_charges_distinct_ids_only() {
    check(
        "planned_pull_replays_the_one_shot_pull_and_charges_distinct_ids_only",
        |src: &mut Source| {
            let size = src.u64_range(1, 150);
            // Zeros among the values, so the sparse response size matters.
            let writes = src.vec_with(0, 60, |s| {
                (s.u64_range(0, size), s.i64_range(-3, 4) as f64 * 0.5)
            });
            // A small id range makes repeats the common case.
            let hot = src.u64_range(1, size + 1);
            let ids = src.vec_with(0, 90, |s| s.u64_range(0, hot));
            let later = src.vec_with(1, 20, |s| (s.u64_range(0, hot), s.i64_range(1, 9) as f64));
            let servers = if src.bool() { 4 } else { 7 };
            let partitioner = if src.bool() { Partitioner::Range } else { Partitioner::Hash };
            (size, writes, ids, later, servers, partitioner)
        },
        |(size, writes, ids, later, servers, partitioner)| {
            let fresh = |read: &dyn Fn(&VectorHandle<f64>, &NodeClock) -> Vec<f64>| {
                vector_read_on_fresh_ps(*servers, *partitioner, *size, writes, read)
            };
            let mut distinct: Vec<u64> = Vec::new();
            for &k in ids {
                if !distinct.contains(&k) {
                    distinct.push(k);
                }
            }
            type Read = fn(&VectorHandle<f64>, &NodeClock, &[u64]) -> Vec<f64>;
            let one_shot: Read = |v, c, ids| v.pull(c, ids).unwrap();
            let dense: Read =
                |v, c, ids| v.pull_planned(c, &v.plan(ids, PullResponse::Dense).unwrap()).unwrap();
            let sparse: Read =
                |v, c, ids| v.pull_planned(c, &v.plan(ids, PullResponse::Sparse).unwrap()).unwrap();
            for planned in [dense, sparse] {
                // Same values as the one-shot request, repeats included.
                let want = fresh(&|v, c| one_shot(v, c, ids));
                let got = fresh(&|v, c| planned(v, c, ids));
                prop_assert_eq!(&got.0, &want.0);
                // Repeats are free: the plan charges what the plan over its
                // distinct ids charges …
                let got_distinct = fresh(&|v, c| planned(v, c, &distinct));
                prop_assert_eq!(&got.1, &got_distinct.1);
                prop_assert_eq!((got.2, got.3, got.4), (got_distinct.2, got_distinct.3, got_distinct.4));
                prop_assert_eq!(&got.5, &got_distinct.5);
            }
            // … and a duplicate-free dense plan charges exactly what `pull`
            // does: RPCs, bytes each way, client clock, port clocks.
            prop_assert_eq!(fresh(&|v, c| dense(v, c, &distinct)), fresh(&|v, c| one_shot(v, c, &distinct)));
            // A sparse plan makes one RPC per server that owns any id, sends
            // each 8 bytes per distinct id it owns (n), and gets back its
            // nonzero values and a presence bitmap: nonzero·8 + n/8 + 8.
            let layout = PartitionLayout::new(*partitioner, *size, *servers, *servers);
            let value = |k: u64| writes.iter().rev().find(|(w, _)| *w == k).map_or(0.0, |&(_, x)| x);
            let mut shares: std::collections::BTreeMap<usize, (u64, u64)> = Default::default();
            for &k in &distinct {
                let (n, nonzero) = shares.entry(layout.server_of(k)).or_default();
                *n += 1;
                *nonzero += (value(k) != 0.0) as u64;
            }
            let got = fresh(&|v, c| sparse(v, c, ids));
            prop_assert_eq!(got.1, shares.len() as u64);
            prop_assert_eq!(got.2, shares.values().map(|(n, _)| 8 * n).sum::<u64>());
            prop_assert_eq!(got.3, shares.values().map(|(n, nonzero)| nonzero * 8 + n / 8 + 8).sum::<u64>());
            // A plan holds routing, not values: a replay after a write sees it.
            let (replayed, ..) = fresh(&|v, c| {
                let plan = v.plan(ids, PullResponse::Dense).unwrap();
                assert_eq!((plan.positions(), plan.distinct()), (ids.len(), distinct.len()));
                v.pull_planned(c, &plan).unwrap();
                let (idx, vals): (Vec<u64>, Vec<f64>) = later.iter().copied().unzip();
                v.push_set(c, &idx, &vals).unwrap();
                let second = v.pull_planned(c, &plan).unwrap();
                assert_eq!(second, v.pull(c, ids).unwrap());
                let sparse = v.plan(ids, PullResponse::Sparse).unwrap();
                assert_eq!(v.pull_planned(c, &sparse).unwrap(), second);
                second
            });
            for (pos, k) in ids.iter().enumerate() {
                if let Some((_, val)) = later.iter().rev().find(|(w, _)| w == k) {
                    prop_assert_eq!(replayed[pos], *val, "position {} (key {})", pos, k);
                }
            }
            Ok(())
        },
    );
}

/// What one `pull(ids)` on a freshly built copy of `table` returns and
/// charges: (lists, request bytes, response bytes, RPCs, client time).
fn neighbor_pull_on_fresh_ps(
    table: &[(u64, Vec<u64>)],
    size: u64,
    partitioner: Partitioner,
    ids: &[u64],
) -> (Vec<Vec<u64>>, u64, u64, u64, SimTime) {
    let ps = Ps::new(PsConfig { servers: 3, ..Default::default() });
    let loader = NodeClock::new();
    let adj =
        NeighborTableHandle::create(&ps, "prop.adj", size, partitioner, RecoveryMode::Inconsistent)
            .unwrap();
    adj.push(&loader, table).unwrap();
    let stats = ps.network().stats();
    let (sent, recv, rpcs) = (stats.bytes_sent(), stats.bytes_received(), stats.rpcs());
    // Arrive after the load has drained, so only this pull occupies a port.
    let client = NodeClock::new();
    client.sync_to(loader.now());
    let lists = adj.pull(&client, ids).unwrap().iter().map(|l| l.to_vec()).collect();
    (
        lists,
        stats.bytes_sent() - sent,
        stats.bytes_received() - recv,
        stats.rpcs() - rpcs,
        client.now() - loader.now(),
    )
}

#[test]
fn neighbor_pull_ships_each_distinct_id_once() {
    check(
        "neighbor_pull_ships_each_distinct_id_once",
        |src: &mut Source| {
            let size = src.u64_range(1, 120);
            // Sparse table: some vertices have no entry and read as empty.
            let mut table: Vec<(u64, Vec<u64>)> = Vec::new();
            for v in 0..size {
                if src.choice(4) != 0 {
                    table.push((v, src.vec_with(0, 12, |s| s.u64_range(0, size))));
                }
            }
            // A small id range makes repeats the common case, as around a hub.
            let hot = src.u64_range(1, size + 1);
            let ids = src.vec_with(0, 80, |s| s.u64_range(0, hot));
            (size, table, ids, arb_partitioner(src))
        },
        |(size, table, ids, partitioner)| {
            let mut distinct: Vec<u64> = Vec::new();
            for &v in ids {
                if !distinct.contains(&v) {
                    distinct.push(v);
                }
            }
            let (with_dups, sent, recv, rpcs, time) =
                neighbor_pull_on_fresh_ps(table, *size, *partitioner, ids);
            let (once, sent1, recv1, rpcs1, time1) =
                neighbor_pull_on_fresh_ps(table, *size, *partitioner, &distinct);

            // Position-wise the fan-out of the distinct pull.
            for (pos, v) in ids.iter().enumerate() {
                let d = distinct.iter().position(|x| x == v).unwrap();
                prop_assert_eq!(&with_dups[pos], &once[d], "position {} (vertex {})", pos, v);
            }
            // Repeats are free: same bytes, RPCs and server time.
            prop_assert_eq!((sent, recv, rpcs, time), (sent1, recv1, rpcs1, time1));

            // And a duplicate-free request costs what it always did: 8 bytes
            // per id out, `len·8 + 16` per stored entry back, one RPC per
            // server that owns any of the ids.
            let layout = PartitionLayout::new(*partitioner, *size, 3, 3);
            let mut servers: Vec<usize> = distinct
                .iter()
                .map(|&v| layout.server_of_partition(layout.partition_of(v)))
                .collect();
            servers.sort_unstable();
            servers.dedup();
            let stored = |v: &u64| table.iter().find(|(k, _)| k == v).map(|(_, ns)| ns.len());
            let want_recv: u64 =
                distinct.iter().filter_map(stored).map(|len| len as u64 * 8 + 16).sum();
            prop_assert_eq!(sent1, distinct.len() as u64 * 8);
            prop_assert_eq!(recv1, want_recv);
            prop_assert_eq!(rpcs1, servers.len() as u64);
            Ok(())
        },
    );
}

/// The naive table: a `Vec` per source, "append if absent, remove the
/// first occurrence". Applies `ops` and returns what the table's report
/// must say — each op's outcome, and each source the ops name, ascending,
/// with its list before and after.
fn naive_update(
    lists: &mut [Vec<u64>],
    ops: &[(u64, u64, bool)],
) -> (Vec<bool>, Vec<(u64, Vec<u64>, Vec<u64>)>) {
    let mut srcs: Vec<u64> = ops.iter().map(|op| op.0).collect();
    srcs.sort_unstable();
    srcs.dedup();
    let before: Vec<Vec<u64>> = srcs.iter().map(|&v| lists[v as usize].clone()).collect();
    let took = ops
        .iter()
        .map(|&(src, dst, add)| {
            let list = &mut lists[src as usize];
            match list.iter().position(|&x| x == dst) {
                None if add => {
                    list.push(dst);
                    true
                }
                Some(i) if !add => {
                    list.remove(i);
                    true
                }
                _ => false,
            }
        })
        .collect();
    let after = srcs.iter().zip(before).map(|(&v, b)| (v, b, lists[v as usize].clone()));
    (took, after.collect())
}

#[test]
fn update_edges_sharded_reports_what_the_naive_table_does() {
    check(
        "update_edges_sharded_reports_what_the_naive_table_does",
        |src: &mut Source| {
            let size = src.u64_range(2, 40);
            let mut base: Vec<(u64, Vec<u64>)> = Vec::new();
            for v in 0..size {
                if src.bool() {
                    base.push((v, (0..src.u64_range(0, 4)).map(|i| (v + i + 1) % size).collect()));
                }
            }
            let mut ops = src.vec_with(0, 40, |s| (s.u64_range(0, size), s.u64_range(0, size), s.bool()));
            // One source always sees add → remove → add of the same edge,
            // interleaved with whatever else the sequence holds.
            let (hot, dst) = (src.u64_range(0, size), src.u64_range(0, size));
            for add in [true, false, true] {
                let at = src.usize_range(0, ops.len() + 1);
                ops.insert(at, (hot, dst, add));
            }
            // Each source's lane: any split, sources disjoint across lanes.
            let lanes = src.usize_range(1, 5);
            let lane_of: Vec<usize> = (0..size).map(|_| src.usize_range(0, lanes)).collect();
            let servers = src.usize_range(1, 5);
            (size, base, ops, lanes, lane_of, servers, arb_partitioner(src))
        },
        |(size, base, ops, lanes, lane_of, servers, partitioner)| {
            let ps = Ps::new(PsConfig { servers: *servers, ..Default::default() });
            let clock = NodeClock::new();
            let adj = NeighborTableHandle::create(
                &ps, "prop.upd", *size, *partitioner, RecoveryMode::Inconsistent,
            )
            .unwrap();
            adj.push(&clock, base).unwrap();
            let mut model = vec![Vec::new(); *size as usize];
            for (v, list) in base {
                model[*v as usize] = list.clone();
            }
            let lane_ops: Vec<Vec<(u64, u64, bool)>> = (0..*lanes)
                .map(|l| ops.iter().copied().filter(|op| lane_of[op.0 as usize] == l).collect())
                .collect();
            let clocks: Vec<NodeClock> = (0..*lanes).map(|_| NodeClock::new()).collect();
            let writes: Vec<(&NodeClock, &[(u64, u64, bool)])> =
                clocks.iter().zip(&lane_ops).map(|(c, ops)| (c, ops.as_slice())).collect();
            let versions = adj.partition_versions().unwrap();
            let reports = adj.update_edges_sharded(&writes).unwrap();
            prop_assert_eq!(reports.len(), *lanes);
            let mut changed = vec![false; versions.len()];
            for (report, ops) in reports.iter().zip(&lane_ops) {
                let (took, lists) = naive_update(&mut model, ops);
                prop_assert_eq!(&report.took_effect, &took);
                prop_assert_eq!(&report.lists, &lists);
                for (op, took) in ops.iter().zip(took) {
                    changed[adj.layout().partition_of(op.0)] |= took;
                }
            }
            let all: Vec<u64> = (0..*size).collect();
            let got: Vec<Vec<u64>> = adj.pull(&clock, &all).unwrap().iter().map(|l| l.to_vec()).collect();
            prop_assert_eq!(got, model);
            // A partition's version moves iff one of its ops took effect.
            let after = adj.partition_versions().unwrap();
            for (p, ((b, a), changed)) in versions.iter().zip(&after).zip(changed).enumerate() {
                prop_assert_eq!(a > b, changed, "partition {}", p);
            }
            Ok(())
        },
    );
}

/// Two seeded `rows × cols` column matrices on a fresh PS, and the client
/// that initialised them. With `aliased`, the second is the first.
fn col_matrices(
    servers: usize,
    rows: u64,
    cols: usize,
    aliased: bool,
) -> (std::sync::Arc<Ps>, NodeClock, ColMatrixHandle, ColMatrixHandle) {
    let ps = Ps::new(PsConfig { servers, ..Default::default() });
    let client = NodeClock::new();
    let rec = RecoveryMode::Inconsistent;
    let a = ColMatrixHandle::create(&ps, "prop.a", rows, cols, rec).unwrap();
    a.init_uniform(&client, 11, 1.0).unwrap();
    let b = if aliased {
        a.clone()
    } else {
        let b = ColMatrixHandle::create(&ps, "prop.b", rows, cols, rec).unwrap();
        b.init_uniform(&client, 12, 1.0).unwrap();
        b
    };
    (ps, client, a, b)
}

fn row_bits(m: &ColMatrixHandle, client: &NodeClock) -> Vec<Vec<u32>> {
    let all: Vec<u64> = (0..m.rows()).collect();
    let rows = m.pull_rows(client, &all).unwrap();
    rows.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
}

#[test]
fn fused_pair_update_equals_the_two_client_side_passes_and_charges_one_rpc_per_server() {
    check(
        "fused_pair_update_equals_the_two_client_side_passes",
        |src: &mut Source| {
            let rows = src.u64_range(1, 12);
            let cols = src.usize_range(1, 10);
            // Few rows, many updates: repeated `i` and `t` are the rule.
            let updates = src.vec_with(0, 30, |s| {
                (s.u64_range(0, rows), s.u64_range(0, rows), s.i64_range(-8, 9) as f64 * 0.125)
            });
            (rows, cols, updates, if src.bool() { 3 } else { 4 }, src.bool())
        },
        |(rows, cols, updates, servers, aliased)| {
            let (is, ts): (Vec<u64>, Vec<u64>) = updates.iter().map(|&(i, t, _)| (i, t)).unzip();
            let scaled = |from: Vec<Vec<f32>>| -> Vec<Vec<f32>> {
                from.iter()
                    .zip(updates)
                    .map(|(row, &(_, _, coef))| row.iter().map(|x| coef as f32 * x).collect())
                    .collect()
            };

            // Reference: `a[i] += c·b[t]` for every update from `b` as it
            // was, then `b[t] += c·a[i]` for every update from `a` as the
            // first pass left it — two whole-row round trips.
            let (_, client, a, b) = col_matrices(*servers, *rows, *cols, *aliased);
            let from_b = scaled(b.pull_rows(&client, &ts).unwrap());
            a.push_add_rows(&client, &is, &from_b).unwrap();
            let from_a = scaled(a.pull_rows(&client, &is).unwrap());
            b.push_add_rows(&client, &ts, &from_a).unwrap();
            let want = (row_bits(&a, &client), row_bits(&b, &client));

            let (ps, client, a, b) = col_matrices(*servers, *rows, *cols, *aliased);
            let before = (row_bits(&a, &client), row_bits(&b, &client));
            let stats = ps.network().stats();
            let (rpcs, sent, recv) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
            let t0 = client.now();
            a.update_pairs(&client, &b, updates).unwrap();
            // One RPC per column slice, each `n·24` bytes out, `n·width·4`
            // ops, 8 bytes back, all leaving at once; a lone client never
            // queues at a port, so it waits for the widest slice only.
            let n = updates.len() as u64;
            let slices = (*servers).min(*cols) as u64;
            let cost = ps.network().cost_model();
            let layout = PartitionLayout::new(Partitioner::Range, *cols as u64, slices as usize, *servers);
            let elapsed = (0..slices as usize).fold(SimTime::ZERO, |t, p| {
                let (c0, c1) = layout.range_of(p).unwrap();
                t.max(cost.net_cost(n * 24) + cost.cpu_cost(n * (c1 - c0) * 4) + cost.net_cost(8))
            });
            prop_assert_eq!(stats.rpcs() - rpcs, slices);
            prop_assert_eq!(stats.bytes_sent() - sent, slices * n * 24);
            prop_assert_eq!(stats.bytes_received() - recv, slices * 8);
            prop_assert_eq!(client.now().saturating_sub(t0), elapsed);

            let got = (row_bits(&a, &client), row_bits(&b, &client));
            prop_assert_eq!(&got, &want);
            if updates.is_empty() {
                prop_assert_eq!(&got, &before);
            }
            Ok(())
        },
    );
}

/// What `op` charges from `client` once every port is idle: (RPCs, bytes
/// sent, bytes received, the client's elapsed time).
fn charged(ps: &Ps, client: &NodeClock, op: impl FnOnce(&NodeClock)) -> (u64, u64, u64, SimTime) {
    let idle = (0..ps.num_servers()).map(|s| ps.server(s).port().clock().now()).max().unwrap();
    client.sync_to(idle);
    let (t0, stats) = (client.now(), ps.network().stats());
    let (rpcs, sent, recv) = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
    op(client);
    (stats.rpcs() - rpcs, stats.bytes_sent() - sent, stats.bytes_received() - recv, client.now() - t0)
}

#[test]
fn a_multi_server_request_costs_its_slowest_leg_and_ships_what_its_legs_ship() {
    check(
        "a_multi_server_request_costs_its_slowest_leg_and_ships_what_its_legs_ship",
        |src: &mut Source| {
            let size = src.u64_range(1, 120);
            let keys = src.vec_with(1, 60, |s| s.u64_range(0, size));
            let lists: Vec<Vec<u64>> =
                (0..size).map(|_| src.vec_with(0, 9, |s| s.u64_range(0, size))).collect();
            let (rows, cols) = (src.u64_range(1, 12), src.usize_range(1, 10));
            let pairs = src.vec_with(0, 20, |s| (s.u64_range(0, rows), s.u64_range(0, rows)));
            let servers = if src.bool() { 4 } else { 7 };
            let partitioner = if src.bool() { Partitioner::Range } else { Partitioner::Hash };
            (size, keys, lists, rows, cols, pairs, servers, partitioner)
        },
        |(size, keys, lists, rows, cols, pairs, servers, partitioner)| {
            let (size, servers, partitioner) = (*size, *servers, *partitioner);
            let ps = Ps::new(PsConfig { servers, ..Default::default() });
            let client = NodeClock::new();
            let rec = RecoveryMode::Inconsistent;
            let v = VectorHandle::<f64>::create(&ps, "prop.v", size, partitioner, rec).unwrap();
            let m = psgraph_ps::MatrixHandle::<f32>::create_row_split(&ps, "prop.m", size, 3, partitioner, rec)
                .unwrap();
            let adj = NeighborTableHandle::create(&ps, "prop.n", size, partitioner, rec).unwrap();
            let table: Vec<(u64, Vec<u64>)> =
                lists.iter().enumerate().map(|(k, ns)| (k as u64, ns.clone())).collect();
            adj.push(&client, &table).unwrap();
            let ones = vec![1.0; keys.len()];
            v.push_set(&client, keys, &ones).unwrap();
            let plan = v.plan(keys, PullResponse::Dense).unwrap();

            // Keyed requests: the legs are the one-server requests over each
            // server's keys, so the request must ship their sum and cost
            // their max — one RPC per server that owns a key, as before.
            let layout = PartitionLayout::new(partitioner, size, servers, servers);
            let mut owners: Vec<usize> = keys.iter().map(|&k| layout.server_of(k)).collect();
            owners.sort_unstable();
            owners.dedup();
            type Op<'a> = Box<dyn Fn(&NodeClock, &[u64]) + 'a>;
            let ops: [(&str, Op); 5] = [
                ("vector.pull", Box::new(|c, ks| drop(v.pull(c, ks).unwrap()))),
                ("vector.push_add", Box::new(|c, ks| v.push_add(c, ks, &ones[..ks.len()]).unwrap())),
                ("vector.pull_planned", Box::new(|c, ks| {
                    // The plan of the whole request replays; a restriction plans anew.
                    let own;
                    let p = if ks.len() == keys.len() { &plan } else { own = v.plan(ks, PullResponse::Dense).unwrap(); &own };
                    drop(v.pull_planned(c, p).unwrap())
                })),
                ("matrix.pull_rows", Box::new(|c, ks| drop(m.pull_rows(c, ks).unwrap()))),
                ("neighbor.pull", Box::new(|c, ks| drop(adj.pull(c, ks).unwrap()))),
            ];
            for (name, op) in &ops {
                let whole = charged(&ps, &client, |c| op(c, keys));
                let legs: Vec<_> = owners
                    .iter()
                    .map(|&s| {
                        let own: Vec<u64> =
                            keys.iter().copied().filter(|&k| layout.server_of(k) == s).collect();
                        charged(&ps, &client, |c| op(c, &own))
                    })
                    .collect();
                prop_assert!(legs.iter().all(|leg| leg.0 == 1), "{}: {:?}", name, legs);
                prop_assert_eq!(whole.0, owners.len() as u64, "{}", name);
                prop_assert_eq!(whole.1, legs.iter().map(|l| l.1).sum::<u64>(), "{}", name);
                prop_assert_eq!(whole.2, legs.iter().map(|l| l.2).sum::<u64>(), "{}", name);
                prop_assert_eq!(whole.3, legs.iter().map(|l| l.3).max().unwrap(), "{}", name);
            }

            // Whole-object requests: one leg per partition, each priced by its
            // declared formula on an idle port; the client waits for the max.
            let cost = ps.network().cost_model();
            let rtt = |req: u64, ops: u64, resp: u64| {
                cost.net_cost(req) + cost.cpu_cost(ops) + cost.net_cost(resp)
            };
            let slowest = |legs: &mut dyn Iterator<Item = SimTime>| legs.max().unwrap();
            // psFunc: the UDF reports each partition's length, which sets its ops.
            let mut lens = Vec::new();
            let got = charged(&ps, &client, |c| {
                lens = v.ps_func(c, 40, 24, |view| match view {
                    psgraph_ps::PartitionViewMut::Dense { data, .. } => vec![data.len() as u64],
                    psgraph_ps::PartitionViewMut::Sparse(map) => vec![map.len() as u64],
                }, |mut a, b| { a.extend(b); a }).unwrap();
            });
            let per_item = ps.config().ops_per_item;
            prop_assert_eq!((got.0, got.1, got.2), (servers as u64, servers as u64 * 40, servers as u64 * 24));
            prop_assert_eq!(got.3, slowest(&mut lens.iter().map(|&n| rtt(40, n * per_item, 24))));

            let a = ColMatrixHandle::create(&ps, "prop.a", *rows, *cols, rec).unwrap();
            let b = ColMatrixHandle::create(&ps, "prop.b", *rows, *cols, rec).unwrap();
            let slices = servers.min(*cols);
            let cl = PartitionLayout::new(Partitioner::Range, *cols as u64, slices, servers);
            let widths: Vec<u64> =
                (0..slices).map(|p| cl.range_of(p).map(|(c0, c1)| c1 - c0).unwrap()).collect();
            let n = pairs.len() as u64;
            let got = charged(&ps, &client, |c| drop(a.dot_pairs(c, &b, pairs).unwrap()));
            prop_assert_eq!((got.0, got.1, got.2), (slices as u64, slices as u64 * n * 16, slices as u64 * n * 8));
            prop_assert_eq!(got.3, slowest(&mut widths.iter().map(|&w| rtt(n * 16, n * w * 2, n * 8))));
            let updates: Vec<(u64, u64, f64)> = pairs.iter().map(|&(i, t)| (i, t, 0.5)).collect();
            let got = charged(&ps, &client, |c| a.update_pairs(c, &b, &updates).unwrap());
            prop_assert_eq!((got.0, got.1, got.2), (slices as u64, slices as u64 * n * 24, slices as u64 * 8));
            prop_assert_eq!(got.3, slowest(&mut widths.iter().map(|&w| rtt(n * 24, n * w * 4, 8))));
            Ok(())
        },
    );
}

#[derive(Debug)]
struct PushCase {
    n: u64,
    servers: usize,
    edges: Vec<(u64, u64)>,
    /// One or two phases, pushed after each.
    phases: Vec<Phase>,
}

#[derive(Debug)]
struct Phase {
    edits: Vec<(u64, u64, bool)>,
    /// Residual deltas, whose vertices join the frontier.
    seeds: Vec<(u64, f64)>,
}

fn arb_push_case(src: &mut Source) -> PushCase {
    let n = src.u64_range(2, 64);
    let servers = src.usize_range(1, 5);
    let edge = |s: &mut Source| (s.u64_range(0, n), s.u64_range(0, n));
    let edges = src.vec_with(0, 3 * n as usize, edge);
    let phases = src.vec_with(1, 3, |s| {
        let edits = s.vec_with(0, 12, |s| (s.u64_range(0, n), s.u64_range(0, n), s.bool()));
        let seeds = s.vec_with(1, 8, |s| (s.u64_range(0, n), s.f64_range(-2.0, 2.0)));
        Phase { edits, seeds }
    });
    PushCase { n, servers, edges, phases }
}

/// Ranks and residual bits after `case`'s phases, each pushed by calls
/// of at most `cap` rounds until the frontier is empty, the calls' summed
/// counters and the RPCs they cost.
fn pushed(case: &PushCase, cap: usize) -> (Vec<u64>, Vec<u64>, PushRun, u64) {
    let ps = Ps::new(PsConfig { servers: case.servers, ..PsConfig::default() });
    let client = NodeClock::new();
    let vector = |name: &str| {
        VectorHandle::<f64>::create(&ps, name, case.n, Partitioner::Range, RecoveryMode::Consistent)
            .unwrap()
    };
    let (ranks, res) = (vector("ranks"), vector("res"));
    let adj = NeighborTableHandle::create(
        &ps, "adj", case.n, Partitioner::Range, RecoveryMode::Consistent,
    )
    .unwrap();
    let mut lists = vec![Vec::new(); case.n as usize];
    for &(s, d) in &case.edges {
        lists[s as usize].push(d);
    }
    let base: Vec<(u64, Vec<u64>)> = (0..case.n).zip(lists).collect();
    adj.push(&client, &base).unwrap();
    let mut front = PushFrontier::default();
    let (mut total, mut rpcs) = (PushRun::default(), 0);
    for Phase { edits, seeds } in &case.phases {
        adj.update_edges(&client, edits).unwrap();
        for &(v, r) in seeds {
            res.push_add(&client, &[v], &[r]).unwrap();
        }
        front.extend(seeds.iter().map(|&(v, _)| v));
        let rpcs0 = ps.network().stats().rpcs();
        while !front.is_empty() {
            let run = ranks.residual_push(&client, &res, &adj, 0.85, 1e-6, cap, &mut front);
            let run = run.unwrap();
            total.rounds += run.rounds;
            total.absorbed += run.absorbed;
            total.remote += run.remote;
        }
        rpcs += ps.network().stats().rpcs() - rpcs0;
    }
    let bits = |v: &VectorHandle<f64>| -> Vec<u64> {
        v.pull_all(&client).unwrap().iter().map(|x| x.to_bits()).collect()
    };
    (bits(&ranks), bits(&res), total, rpcs)
}

#[test]
fn a_run_to_quiescence_equals_its_rounds_one_call_at_a_time() {
    check("a_run_to_quiescence_equals_its_rounds_one_call_at_a_time", arb_push_case, |case| {
        let (ranks, res, run, rpcs) = pushed(case, usize::MAX);
        let (step_ranks, step_res, step_run, step_rpcs) = pushed(case, 1);
        prop_assert_eq!(ranks, step_ranks, "rank bits");
        prop_assert_eq!(res, step_res, "residual bits");
        prop_assert_eq!(run, step_run, "rounds, absorbed and remote");
        // One request per server per call, and one message per ordered
        // pair of servers per round: one call per phase, or per round.
        let (s, rounds) = (case.servers as u64, run.rounds as u64);
        let phases = case.phases.len() as u64;
        prop_assert_eq!(rpcs, s * phases + s * (s - 1) * rounds);
        prop_assert_eq!(step_rpcs, s * rounds + s * (s - 1) * rounds);
        Ok(())
    });
}
