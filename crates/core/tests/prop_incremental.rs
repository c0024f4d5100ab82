//! The streaming maintainers against their oracles: incremental CC versus
//! the reference labelling through adversarial batches, the fused
//! residual-push PageRank versus an in-test power iteration, and the
//! exact PS RPC budget of both (sim counts repeat exactly, so the budgets
//! are equality-grade regression gates, not timings).

use std::sync::Arc;

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank, PrState};
use psgraph_core::CoreError;
use psgraph_dfs::Dfs;
use psgraph_graph::{gen, metrics, EdgeList};
use psgraph_harness::pool::Pool;
use psgraph_harness::prop::{check_with, Config, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, PsConfig, PsError, RecoveryMode};
use psgraph_sim::{NodeClock, SplitMix64};

type Op = (u64, u64, bool);

fn build_table(ps: &Arc<Ps>, name: &str, client: &NodeClock, g: &EdgeList) -> NeighborTableHandle {
    let n = g.num_vertices();
    let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for &(s, d) in g.edges() {
        lists[s as usize].push(d);
    }
    let entries: Vec<(u64, Vec<u64>)> =
        lists.into_iter().enumerate().map(|(v, l)| (v as u64, l)).collect();
    let h = NeighborTableHandle::create(ps, name, n, Partitioner::Range, RecoveryMode::Consistent)
        .unwrap();
    h.push(client, &entries).unwrap();
    h
}

/// Replay `ops` over `live` the way the neighbor table does (duplicate
/// adds and removes of absent edges are no-ops) and return the ones that
/// took effect, in order — what `BatchEffect.applied` carries.
fn apply_to_live(live: &mut Vec<(u64, u64)>, ops: &[Op]) -> Vec<Op> {
    let mut applied = Vec::new();
    for &(s, d, add) in ops {
        let at = live.iter().position(|&e| e == (s, d));
        match (add, at) {
            (true, None) => live.push((s, d)),
            (false, Some(i)) => {
                live.swap_remove(i);
            }
            _ => continue,
        }
        applied.push((s, d, add));
    }
    applied
}

// ------------------------------------------------------------------ CC

#[derive(Debug)]
struct CcCase {
    n: u64,
    base: Vec<(u64, u64)>,
    /// Raw op codes `(kind, a, b)`, resolved against the live edge set
    /// when the batch is built.
    batches: Vec<Vec<(u64, u64, u64)>>,
}

fn arb_cc_case(src: &mut Source) -> CcCase {
    let n = src.u64_range(3, 24);
    // About n edges: sparse enough that most live edges are bridges.
    let base = src.vec_with(0, n as usize + 4, |s| (s.u64_range(0, n), s.u64_range(0, n)));
    let batches = src.vec_with(1, 5, |s| {
        s.vec_with(1, 10, |s| (s.u64_range(0, 5), s.any_u64(), s.any_u64()))
    });
    CcCase { n, base: EdgeList::new(n, base).dedup().edges().to_vec(), batches }
}

/// Turn op codes into table ops: plain adds, removes of a live edge,
/// same-batch add→remove and remove→add of one edge, duplicate adds.
fn resolve(codes: &[(u64, u64, u64)], n: u64, live: &[(u64, u64)]) -> Vec<Op> {
    let mut shadow = live.to_vec();
    let mut ops = Vec::new();
    for &(kind, a, b) in codes {
        let fresh = (a % n, b % n);
        let victim = (!shadow.is_empty()).then(|| shadow[(a % shadow.len().max(1) as u64) as usize]);
        let step: Vec<Op> = match (kind, victim) {
            (1, Some((s, d))) => vec![(s, d, false)],
            (2, _) => vec![(fresh.0, fresh.1, true), (fresh.0, fresh.1, false)],
            (3, Some((s, d))) => vec![(s, d, false), (s, d, true)],
            (4, _) => vec![(fresh.0, fresh.1, true), (fresh.0, fresh.1, true)],
            _ => vec![(fresh.0, fresh.1, true)],
        };
        apply_to_live(&mut shadow, &step);
        ops.extend(step);
    }
    ops
}

#[test]
fn cc_matches_reference_through_adversarial_batches() {
    check_with(
        "cc_matches_reference_through_adversarial_batches",
        &Config::with_cases(40),
        arb_cc_case,
        |case| {
            let ps = Ps::new(PsConfig::default());
            assert_eq!(ps.num_servers(), 2, "the RPC budget below assumes two servers");
            let client = NodeClock::new();
            let g = EdgeList::new(case.n, case.base.clone());
            let adj = build_table(&ps, "p.adj", &client, &g);
            let mut cc = IncrementalCc::create(&ps, "p.cc", case.n).unwrap();
            cc.bootstrap(&client, &adj).unwrap();
            prop_assert_eq!(cc.labels().to_vec(), metrics::connected_components(&g));

            let mut live = case.base.clone();
            for (bi, codes) in case.batches.iter().enumerate() {
                let ops = resolve(codes, case.n, &live);
                let applied = apply_to_live(&mut live, &ops);
                adj.update_edges(&client, &ops).unwrap();

                // Components before any split: the old edges plus every
                // add of the batch. A remove can touch at most one each.
                let mut coarse = live.clone();
                coarse.extend(applied.iter().map(|&(s, d, _)| (s, d)));
                let pre_split = metrics::connected_components(&EdgeList::new(case.n, coarse));
                let mut touched: Vec<u64> = applied
                    .iter()
                    .filter(|op| !op.2)
                    .map(|op| pre_split[op.0 as usize])
                    .collect();
                touched.sort_unstable();
                touched.dedup();

                let rpcs0 = ps.network().stats().rpcs();
                let stats = cc.on_batch(&client, &applied, &adj).unwrap();
                let rpcs = ps.network().stats().rpcs() - rpcs0;

                let truth = metrics::connected_components(&EdgeList::new(case.n, live.clone()));
                prop_assert_eq!(cc.labels().to_vec(), truth, "batch {} ({:?})", bi, stats);
                prop_assert_eq!(cc.labels.pull_all(&client).unwrap(), truth, "PS copy, batch {}", bi);
                prop_assert!(
                    stats.recomputes <= touched.len(),
                    "batch {}: {} recomputes for {} touched components",
                    bi,
                    stats.recomputes,
                    touched.len()
                );
                prop_assert!(
                    rpcs <= 2 * stats.recomputes as u64 + 2,
                    "batch {}: {} RPCs for {} recomputes",
                    bi,
                    rpcs,
                    stats.recomputes
                );
            }
            Ok(())
        },
    );
}

#[test]
fn cc_rejects_out_of_range_ids_without_panicking() {
    let ps = Ps::new(PsConfig::default());
    let client = NodeClock::new();
    let g = EdgeList::new(6, vec![(0, 1), (2, 3)]);
    let adj = build_table(&ps, "o.adj", &client, &g);
    let mut cc = IncrementalCc::create(&ps, "o.cc", 6).unwrap();
    cc.bootstrap(&client, &adj).unwrap();
    let before = cc.labels().to_vec();
    for bad in [(6, 0, true), (0, 6, true), (0, u64::MAX, false), (9, 9, false)] {
        let err = cc.on_batch(&client, &[(1, 2, true), bad], &adj).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{bad:?}: {err:?}");
        assert_eq!(cc.labels(), before.as_slice(), "a rejected batch must change nothing");
    }
}

// ------------------------------------------------------------ PageRank

struct Rig {
    ps: Arc<Ps>,
    client: NodeClock,
    adj: NeighborTableHandle,
    pr: IncrementalPageRank,
    st: PrState,
    live: Vec<(u64, u64)>,
    n: u64,
}

impl Rig {
    /// Table + PageRank state over `g`, converged from scratch.
    fn new(cfg: PsConfig, g: &EdgeList) -> Rig {
        let ps = Ps::new(cfg);
        let client = NodeClock::new();
        let adj = build_table(&ps, "r.adj", &client, g);
        let pr = IncrementalPageRank::default();
        let mut st = pr.create_state(&ps, "r.pr", g.num_vertices()).unwrap();
        pr.init_full(&mut st, &client, &adj).unwrap();
        Rig { ps, client, adj, pr, st, live: g.edges().to_vec(), n: g.num_vertices() }
    }

    fn random_ops(&self, rng: &mut SplitMix64, count: usize) -> Vec<Op> {
        (0..count)
            .map(|_| {
                if !self.live.is_empty() && rng.next_below(3) == 0 {
                    let (s, d) = self.live[rng.next_below(self.live.len() as u64) as usize];
                    (s, d, false)
                } else {
                    (rng.next_below(self.n), rng.next_below(self.n), true)
                }
            })
            .collect()
    }

    /// Apply `ops` to the table and repair the residual invariant; the
    /// caller decides when to `propagate`.
    fn edit(&mut self, ops: &[Op]) {
        let mut srcs: Vec<u64> = ops.iter().map(|op| op.0).collect();
        srcs.sort_unstable();
        srcs.dedup();
        let lists = |adj: &NeighborTableHandle| -> Vec<Vec<u64>> {
            adj.pull(&self.client, &srcs).unwrap().iter().map(|l| l.to_vec()).collect()
        };
        let old = lists(&self.adj);
        self.adj.update_edges(&self.client, ops).unwrap();
        let new = lists(&self.adj);
        apply_to_live(&mut self.live, ops);
        let effects: Vec<(u64, Vec<u64>, Vec<u64>)> = srcs
            .iter()
            .zip(old.into_iter().zip(new))
            .map(|(&s, (o, nl))| (s, o, nl))
            .collect();
        self.pr.on_batch(&mut self.st, &self.client, &effects).unwrap();
    }

    fn propagate(&mut self) -> Result<usize, CoreError> {
        self.pr.propagate(&mut self.st, &self.client, &self.adj)
    }

    fn ranks(&self) -> Vec<f64> {
        self.pr.ranks(&self.st, &self.client).unwrap()
    }

    /// Driver-side power iteration of the same unnormalized,
    /// dangling-mass-dropping fixed point over the live edges.
    fn power_iteration(&self) -> Vec<f64> {
        let n = self.n as usize;
        let mut deg = vec![0usize; n];
        for &(s, _) in &self.live {
            deg[s as usize] += 1;
        }
        let mut ranks = vec![0.0f64; n];
        for _ in 0..300 {
            let mut next = vec![1.0 - self.pr.damping; n];
            for &(s, d) in &self.live {
                next[d as usize] += self.pr.damping * ranks[s as usize] / deg[s as usize] as f64;
            }
            ranks = next;
        }
        ranks
    }
}

fn linf(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ranks after the same seeded edit stream under `cfg`.
fn stream_ranks(cfg: PsConfig, check_oracle: bool) -> Vec<f64> {
    let g = gen::rmat(96, 500, Default::default(), 17).dedup();
    let mut rig = Rig::new(cfg, &g);
    let mut rng = SplitMix64::new(0x51AB);
    for batch in 0..6 {
        let ops = rig.random_ops(&mut rng, 24);
        rig.edit(&ops);
        rig.propagate().unwrap();
        if check_oracle {
            let err = linf(&rig.ranks(), &rig.power_iteration());
            assert!(err < 1e-6, "batch {batch}: L∞ {err} against the power iteration");
        }
    }
    rig.ranks()
}

#[test]
fn fused_round_tracks_power_iteration_at_any_server_count() {
    let at = |servers| stream_ranks(PsConfig { servers, ..PsConfig::default() }, true);
    let (one, two, three) = (at(1), at(2), at(3));
    assert!(linf(&one, &two) < 1e-9, "1 vs 2 servers: L∞ {}", linf(&one, &two));
    assert!(linf(&one, &three) < 1e-9, "1 vs 3 servers: L∞ {}", linf(&one, &three));
}

#[test]
fn fused_round_is_bit_identical_across_pool_sizes_and_schedules() {
    let with_pool = |pool: Pool| {
        bits(&stream_ranks(PsConfig { pool: Some(Arc::new(pool)), ..PsConfig::default() }, false))
    };
    let serial = with_pool(Pool::with_perturb(1, None));
    assert_eq!(with_pool(Pool::with_perturb(4, None)), serial, "pool of 4");
    for seed in [1, 7, 23] {
        assert_eq!(with_pool(Pool::with_perturb(4, Some(seed))), serial, "perturbation {seed}");
    }
}

#[test]
fn propagate_costs_a_request_per_server_and_a_message_per_peer_per_round() {
    let g = gen::rmat(96, 500, Default::default(), 29).dedup();
    let mut rig = Rig::new(PsConfig::default(), &g);
    let s = rig.ps.num_servers() as u64;
    assert_eq!(s, 2);
    let mut rng = SplitMix64::new(0xB0D6);
    for _ in 0..4 {
        let ops = rig.random_ops(&mut rng, 24);
        rig.edit(&ops);
        let rpcs0 = rig.ps.network().stats().rpcs();
        let rounds = rig.propagate().unwrap() as u64;
        let rpcs = rig.ps.network().stats().rpcs() - rpcs0;
        assert!(rounds > 0, "an effective batch needs at least one round");
        assert_eq!(
            rpcs,
            s + s * (s - 1) * rounds,
            "{rounds} rounds: one request per server, then one message per peer per round"
        );
    }
}

#[test]
fn mismatched_adjacency_layout_is_an_error_not_a_panic() {
    let g = gen::rmat(32, 100, Default::default(), 3).dedup();
    let mut rig = Rig::new(PsConfig::default(), &g);
    let ops = rig.random_ops(&mut SplitMix64::new(5), 8);
    rig.edit(&ops);
    let frontier = rig.st.dirty_len();
    assert!(frontier > 0);
    for (name, n, partitioner) in
        [("m.bigger", rig.n + 1, Partitioner::Range), ("m.hashed", rig.n, Partitioner::Hash)]
    {
        let other =
            NeighborTableHandle::create(&rig.ps, name, n, partitioner, RecoveryMode::Consistent)
                .unwrap();
        let err = rig.pr.propagate(&mut rig.st, &rig.client, &other).unwrap_err();
        assert!(matches!(err, CoreError::Ps(PsError::DimensionMismatch(_))), "{name}: {err:?}");
        assert_eq!(rig.st.dirty_len(), frontier, "{name}: the frontier must survive the error");
    }
    rig.propagate().unwrap();
    assert!(linf(&rig.ranks(), &rig.power_iteration()) < 1e-6);
}

#[test]
fn frontier_survives_non_convergence_and_a_server_kill() {
    let g = gen::rmat(96, 500, Default::default(), 41).dedup();
    let mut rig = Rig::new(PsConfig::default(), &g);
    let mut twin = Rig::new(PsConfig::default(), &g);
    let ops = rig.random_ops(&mut SplitMix64::new(0xFA11), 32);
    rig.edit(&ops);
    twin.edit(&ops);
    let total = twin.propagate().unwrap();
    assert!(total > 6, "the edit must need more rounds than the valve below allows");

    // Stop mid-propagation: the round valve trips with work outstanding.
    let valve = IncrementalPageRank { max_rounds: 3, ..IncrementalPageRank::default() };
    let err = valve.propagate(&mut rig.st, &rig.client, &rig.adj).unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "{err:?}");
    let frontier = rig.st.dirty_len();
    assert!(frontier > 0, "an unconverged run must keep its frontier");

    // Checkpoint at that round boundary, then lose a server.
    let dfs = Dfs::in_memory();
    rig.ps.checkpoint_all(&dfs).unwrap();
    rig.ps.kill_server(1);
    let err = rig.propagate().unwrap_err();
    assert_eq!(err, CoreError::Ps(PsError::ServerDown { id: 1 }));
    assert_eq!(rig.st.dirty_len(), frontier, "a dead server must not eat the frontier");

    rig.ps.restart_server(1, rig.client.now());
    rig.ps.recover_server(1, &dfs, &rig.client).unwrap();
    let rest = rig.propagate().unwrap();
    assert_eq!(3 + rest, total, "resuming must finish the same rounds");
    assert_eq!(bits(&rig.ranks()), bits(&twin.ranks()), "resumed run diverged from its twin");

    // ... and that is the fixed point a from-scratch run reaches.
    let mut full = rig.pr.create_state(&rig.ps, "r.full", rig.n).unwrap();
    rig.pr.init_full(&mut full, &rig.client, &rig.adj).unwrap();
    let fresh = rig.pr.ranks(&full, &rig.client).unwrap();
    assert!(linf(&rig.ranks(), &fresh) < 1e-6, "L∞ {}", linf(&rig.ranks(), &fresh));
}
