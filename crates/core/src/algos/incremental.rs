//! Incremental maintenance of PageRank and connected components over a
//! mutating graph — the computation half of the streaming loop
//! (`psgraph-stream` feeds these from micro-batches of edge events).
//!
//! **PageRank** uses Gauss–Southwell residual pushing, run on the PS: one
//! [`VectorHandle::residual_push`] call pushes to convergence, rounds of
//! one fused server-side operator over the co-located rank, residual and
//! out-list partitions, with the servers sending each other their
//! cross-partition Δs between rounds. The driver sends the frontier once
//! and hears back once per server. Inside a partition a round is one
//! ascending Gauss–Seidel sweep: a contribution to a higher id on the same
//! server is absorbed in the round it is made, one to a lower id in the
//! next. The PS holds two vectors, `ranks` and `res`, with the
//! invariant
//!
//! ```text
//! res = (1-d)·1 + d·Aᵀ·ranks − ranks        A[u][x] = 1/out_deg(u)
//! ```
//!
//! so `ranks` converges to the unnormalized fixed point
//! `r = (1-d)·1 + d·Aᵀ·r` as residuals are pushed below a threshold.
//! When an out-list changes, the invariant is repaired *locally*: only
//! the changed row of `A` touches `res`, scaled by the vertex's current
//! rank — no global recompute. Re-pushing then spreads the correction
//! only as far as it matters (|res| > threshold).
//!
//! **Connected components** keeps the min-member-id labeling of
//! [`psgraph_graph::metrics::connected_components`] (weakly connected,
//! edges treated as undirected). Per batch: every add unions two labels
//! (a merge of two sorted member lists), then each *distinct* component a
//! remove touched is recomputed once from its members' live out-lists —
//! bounded by the component size, never the graph, and by the number of
//! touched components, never the number of remove events.

use std::sync::Arc;

use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, PushFrontier, RecoveryMode, VectorHandle};
use psgraph_sim::{FxHashMap, FxHashSet, NodeClock};

use crate::error::{CoreError, Result};

/// Tuning for the residual-push PageRank maintainer.
#[derive(Debug, Clone)]
pub struct IncrementalPageRank {
    pub damping: f64,
    /// Residuals at or below this magnitude are left in place instead of
    /// pushed. Accuracy is ~`threshold · n / (1-d)` in L∞, so the default
    /// keeps modest graphs far inside 1e-6.
    pub threshold: f64,
    /// Safety valve on push rounds per [`IncrementalPageRank::propagate`]
    /// (the servers stop there and send the frontier back).
    pub max_rounds: usize,
}

impl Default for IncrementalPageRank {
    fn default() -> Self {
        IncrementalPageRank { damping: 0.85, threshold: 1e-12, max_rounds: 100_000 }
    }
}

/// PS-resident state of one incrementally-maintained PageRank: the rank
/// and residual vectors plus the driver's dirty frontier.
pub struct PrState {
    pub ranks: VectorHandle<f64>,
    residuals: VectorHandle<f64>,
    /// Vertices whose residual may exceed the threshold, plus the
    /// cross-partition contributions still in flight, between calls.
    front: PushFrontier,
    /// Running totals over every round so far: vertices absorbed and
    /// contributions that crossed partitions.
    pushed: (u64, u64),
    n: u64,
}

impl PrState {
    /// Frontier vertices (and undelivered contributions) awaiting the
    /// next [`IncrementalPageRank::propagate`].
    pub fn dirty_len(&self) -> usize {
        self.front.len()
    }

    /// Running `(vertices absorbed, cross-partition contributions)` over
    /// every push round so far — per-batch telemetry is the difference.
    pub fn pushed(&self) -> (u64, u64) {
        self.pushed
    }

    /// Driver-side reset after PS crash recovery: the rank/residual
    /// vectors were rolled back to a checkpoint taken at a *converged*
    /// batch boundary (empty frontier), so the matching driver state is an
    /// empty dirty set. The event-log replay re-dirties exactly what the
    /// original run did.
    pub fn reset_after_recovery(&mut self) {
        self.front.clear();
    }
}

impl IncrementalPageRank {
    /// Allocate `{prefix}.ranks` and `{prefix}.res` on the PS.
    pub fn create_state(&self, ps: &Arc<Ps>, prefix: &str, n: u64) -> Result<PrState> {
        let ranks = VectorHandle::<f64>::create(
            ps,
            format!("{prefix}.ranks"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        let residuals = VectorHandle::<f64>::create(
            ps,
            format!("{prefix}.res"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        Ok(PrState { ranks, residuals, front: PushFrontier::default(), pushed: (0, 0), n })
    }

    /// Reset to the from-scratch initial condition (`ranks = 0`,
    /// `res = 1-d` everywhere) and push to convergence — a full
    /// recompute, and the baseline incremental runs are verified against.
    pub fn init_full(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        adj: &NeighborTableHandle,
    ) -> Result<usize> {
        st.ranks.fill(client, 0.0)?;
        st.residuals.fill(client, 1.0 - self.damping)?;
        st.front.clear();
        st.front.extend(0..st.n);
        self.propagate(st, client, adj)
    }

    /// Repair the residual invariant after out-list changes. Each effect
    /// is `(src, old_list, new_list)` — the live out-list before and
    /// after the micro-batch was applied to the neighbor table. Call
    /// [`IncrementalPageRank::propagate`] afterwards to re-converge.
    pub fn on_batch(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        effects: &[(u64, Vec<u64>, Vec<u64>)],
    ) -> Result<()> {
        if effects.is_empty() {
            return Ok(());
        }
        let srcs: Vec<u64> = effects.iter().map(|(s, _, _)| *s).collect();
        let ranks = st.ranks.pull(client, &srcs)?;
        let mut acc: FxHashMap<u64, f64> = FxHashMap::default();
        for ((_, old, new), r_u) in effects.iter().zip(ranks) {
            if r_u == 0.0 || old == new {
                continue;
            }
            let old_set: FxHashSet<u64> = old.iter().copied().collect();
            let new_set: FxHashSet<u64> = new.iter().copied().collect();
            let inv_old = if old.is_empty() { 0.0 } else { 1.0 / old.len() as f64 };
            let inv_new = if new.is_empty() { 0.0 } else { 1.0 / new.len() as f64 };
            // d·r_u·(row_new − row_old) of the transition matrix.
            for &x in new {
                let w = if old_set.contains(&x) { inv_new - inv_old } else { inv_new };
                if w != 0.0 {
                    *acc.entry(x).or_default() += self.damping * r_u * w;
                }
            }
            for &x in old {
                if !new_set.contains(&x) {
                    *acc.entry(x).or_default() -= self.damping * r_u * inv_old;
                }
            }
        }
        let mut upd: Vec<(u64, f64)> = acc.into_iter().filter(|&(_, w)| w != 0.0).collect();
        upd.sort_unstable_by_key(|&(v, _)| v);
        if !upd.is_empty() {
            let (idx, vals): (Vec<u64>, Vec<f64>) = upd.into_iter().unzip();
            st.residuals.push_add(client, &idx, &vals)?;
            st.front.extend(idx);
        }
        Ok(())
    }

    /// Push residuals until every vertex is at or below the threshold, in
    /// one server-side run. Returns the number of rounds. A dead server is
    /// an `Err` before anything moves, with the frontier as it was; on
    /// `max_rounds` the frontier holds the state the servers stopped at,
    /// so a later call resumes instead of mistaking it for converged.
    pub fn propagate(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        adj: &NeighborTableHandle,
    ) -> Result<usize> {
        let run = st.ranks.residual_push(
            client,
            &st.residuals,
            adj,
            self.damping,
            self.threshold,
            self.max_rounds,
            &mut st.front,
        )?;
        st.pushed.0 += run.absorbed as u64;
        st.pushed.1 += run.remote as u64;
        if !st.front.is_empty() {
            return Err(CoreError::Invalid(format!(
                "incremental pagerank did not converge within {} rounds",
                self.max_rounds
            )));
        }
        Ok(run.rounds)
    }

    /// Current ranks (unnormalized, like [`crate::algos::PageRank`]).
    pub fn ranks(&self, st: &PrState, client: &NodeClock) -> Result<Vec<f64>> {
        Ok(st.ranks.pull_all(client)?)
    }
}

/// Counters from one [`IncrementalCc::on_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Adds that merged two components.
    pub unions: usize,
    /// Distinct components a remove touched, each recomputed once.
    pub recomputes: usize,
    /// Vertices whose label differs after the batch (pushed to the PS).
    pub relabeled: usize,
}

/// Incrementally-maintained weakly-connected components with
/// min-member-id labels, mirroring
/// [`psgraph_graph::metrics::connected_components`].
pub struct IncrementalCc {
    pub labels: VectorHandle<u64>,
    /// Driver-side copy of every label (what the PS holds).
    mirror: Vec<u64>,
    /// Component label → sorted member list.
    members: FxHashMap<u64, Vec<u64>>,
    /// Vertex → position inside the component being recomputed, [`ABSENT`]
    /// everywhere between recomputes (reusable dense scratch).
    slot: Vec<usize>,
    n: u64,
}

const ABSENT: usize = usize::MAX;

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut v: usize) -> usize {
    while parent[v] != v {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    v
}

/// Join the sets of `a` and `b`, keeping the smaller root — so a set's
/// root is always its minimum element.
fn link(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

fn no_members(label: u64) -> CoreError {
    CoreError::Invalid(format!("cc invariant: label {label} has no member list"))
}

impl IncrementalCc {
    /// Allocate `{prefix}.labels` on the PS; every vertex starts in its
    /// own singleton component.
    pub fn create(ps: &Arc<Ps>, prefix: &str, n: u64) -> Result<Self> {
        let labels = VectorHandle::<u64>::create(
            ps,
            format!("{prefix}.labels"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        let ids: Vec<u64> = (0..n).collect();
        labels.push_set(&NodeClock::new(), &ids, &ids)?;
        let members = ids.iter().map(|&v| (v, vec![v])).collect();
        Ok(IncrementalCc { labels, mirror: ids, members, slot: vec![ABSENT; n as usize], n })
    }

    /// Union components from the full out-table (initial bootstrap after
    /// base training): one pull, a driver-side union-find over the pulled
    /// lists, one push of the labels that changed.
    pub fn bootstrap(&mut self, client: &NodeClock, adj: &NeighborTableHandle) -> Result<()> {
        let ids: Vec<u64> = (0..self.n).collect();
        let lists = adj.pull(client, &ids)?;
        // Labels are min-member ids, so the mirror is already a forest.
        let mut parent: Vec<usize> = self.mirror.iter().map(|&l| l as usize).collect();
        for (u, list) in lists.iter().enumerate() {
            for &w in list.iter() {
                self.check(w)?;
                link(&mut parent, u, w as usize);
            }
        }
        let labels: Vec<u64> =
            (0..parent.len()).map(|v| find(&mut parent, v) as u64).collect();
        let changed: Vec<u64> =
            ids.into_iter().filter(|&v| labels[v as usize] != self.mirror[v as usize]).collect();
        self.mirror = labels;
        self.rebuild_members();
        self.push_labels(client, &changed)
    }

    /// Labels as the serving tier and tests see them.
    pub fn labels(&self) -> &[u64] {
        &self.mirror
    }

    /// Rebuild the driver-side mirror and member index from the PS copy
    /// after crash recovery rolled `{prefix}.labels` back to a checkpoint.
    /// Membership lists are grouped in ascending vertex order — the same
    /// canonical order incremental maintenance preserves — so a restored
    /// maintainer replays batches bit-identically to one that never
    /// crashed.
    pub fn restore_from_ps(&mut self, client: &NodeClock) -> Result<()> {
        self.mirror = self.labels.pull_all(client)?;
        self.rebuild_members();
        Ok(())
    }

    fn rebuild_members(&mut self) {
        self.members.clear();
        for (v, &label) in self.mirror.iter().enumerate() {
            self.members.entry(label).or_default().push(v as u64);
        }
    }

    fn check(&self, v: u64) -> Result<()> {
        if v >= self.n {
            return Err(CoreError::Invalid(format!(
                "cc: vertex {v} out of range (n = {})",
                self.n
            )));
        }
        Ok(())
    }

    /// Apply one micro-batch of edge events that were *actually applied*
    /// to the out-table (`add == true` for insertions); `adj` already
    /// holds the post-batch table. All adds are unioned first, which makes
    /// the label partition a coarsening of the true one (removes only
    /// split), so recomputing each distinct component a remove touched
    /// *once*, from the final table, yields the canonical labels — at one
    /// adjacency pull per such component and one label push per batch.
    pub fn on_batch(
        &mut self,
        client: &NodeClock,
        events: &[(u64, u64, bool)],
        adj: &NeighborTableHandle,
    ) -> Result<CcStats> {
        for &(u, w, _) in events {
            self.check(u)?;
            self.check(w)?;
        }
        let mut stats = CcStats::default();
        // (vertex, label it had before the change), in change order.
        let mut changed: Vec<(u64, u64)> = Vec::new();
        for &(u, w, _) in events.iter().filter(|e| e.2) {
            self.union(u, w, &mut stats, &mut changed)?;
        }
        let mut split: Vec<u64> =
            events.iter().filter(|e| !e.2).map(|e| self.mirror[e.0 as usize]).collect();
        split.sort_unstable();
        split.dedup();
        for label in split {
            self.recompute_component(client, label, adj, &mut changed)?;
            stats.recomputes += 1;
        }
        // Keep each vertex's pre-batch label (stable sort, first entry)
        // and push only the vertices that ended somewhere else.
        changed.sort_by_key(|&(v, _)| v);
        changed.dedup_by_key(|c| c.0);
        changed.retain(|&(v, before)| self.mirror[v as usize] != before);
        let ids: Vec<u64> = changed.iter().map(|&(v, _)| v).collect();
        self.push_labels(client, &ids)?;
        stats.relabeled = ids.len();
        Ok(stats)
    }

    /// One `push_set` of the mirror's labels of `vertices`.
    fn push_labels(&self, client: &NodeClock, vertices: &[u64]) -> Result<()> {
        if vertices.is_empty() {
            return Ok(());
        }
        let vals: Vec<u64> = vertices.iter().map(|&v| self.mirror[v as usize]).collect();
        Ok(self.labels.push_set(client, vertices, &vals)?)
    }

    fn relabel(&mut self, vertices: &[u64], label: u64, changed: &mut Vec<(u64, u64)>) {
        for &v in vertices {
            changed.push((v, self.mirror[v as usize]));
            self.mirror[v as usize] = label;
        }
    }

    fn union(
        &mut self,
        u: u64,
        w: u64,
        stats: &mut CcStats,
        changed: &mut Vec<(u64, u64)>,
    ) -> Result<()> {
        let (lu, lw) = (self.mirror[u as usize], self.mirror[w as usize]);
        if lu == lw {
            return Ok(());
        }
        stats.unions += 1;
        let (winner, loser) = (lu.min(lw), lu.max(lw));
        let moved = self.members.remove(&loser).ok_or_else(|| no_members(loser))?;
        let into = self.members.get_mut(&winner).ok_or_else(|| no_members(winner))?;
        // Both lists are sorted: merge, do not re-sort.
        let mut merged = Vec::with_capacity(into.len() + moved.len());
        let (mut a, mut b) = (into.iter().peekable(), moved.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            merged.push(if x < y { a.next(); x } else { b.next(); y });
        }
        merged.extend(a);
        merged.extend(b);
        *into = merged;
        self.relabel(&moved, winner, changed);
        Ok(())
    }

    /// Re-derive the split of component `label` from its members' live
    /// out-lists. Sound because every live edge incident to a member has
    /// both endpoints inside the (coarsened) component, so member
    /// out-lists cover all surviving connectivity.
    fn recompute_component(
        &mut self,
        client: &NodeClock,
        label: u64,
        adj: &NeighborTableHandle,
        changed: &mut Vec<(u64, u64)>,
    ) -> Result<()> {
        let comp = self.members.get(&label).ok_or_else(|| no_members(label))?;
        let lists = adj.pull(client, comp)?;
        for (i, &v) in comp.iter().enumerate() {
            self.slot[v as usize] = i;
        }
        let mut parent: Vec<usize> = (0..comp.len()).collect();
        for (i, list) in lists.iter().enumerate() {
            for &t in list.iter() {
                // Targets outside the member set belong to other
                // components — skip defensively.
                match self.slot.get(t as usize) {
                    Some(&j) if j != ABSENT => link(&mut parent, i, j),
                    _ => {}
                }
            }
        }
        for &v in comp {
            self.slot[v as usize] = ABSENT;
        }
        // `comp` is sorted and a root is its set's minimum, so groups open
        // in ascending order of their first (= min-id) member.
        let mut group_of = vec![ABSENT; comp.len()];
        let mut groups: Vec<Vec<u64>> = Vec::new();
        for (i, &v) in comp.iter().enumerate() {
            let root = find(&mut parent, i);
            if group_of[root] == ABSENT {
                group_of[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[root]].push(v);
        }
        if groups.len() == 1 {
            return Ok(()); // still connected, labels unchanged
        }
        for group in groups {
            let new_label = group[0];
            if new_label != label {
                self.relabel(&group, new_label, changed);
            }
            self.members.insert(new_label, group);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_graph::{gen, metrics, EdgeList};
    use psgraph_ps::PsConfig;
    use psgraph_sim::SplitMix64;

    fn build_table(
        ps: &Arc<Ps>,
        name: &str,
        client: &NodeClock,
        g: &EdgeList,
    ) -> NeighborTableHandle {
        let n = g.num_vertices();
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
        for &(s, d) in g.edges() {
            lists[s as usize].push(d);
        }
        let entries: Vec<(u64, Vec<u64>)> =
            lists.into_iter().enumerate().map(|(v, l)| (v as u64, l)).collect();
        let h = NeighborTableHandle::create(ps, name, n, Partitioner::Range, RecoveryMode::Consistent).unwrap();
        h.push(client, &entries).unwrap();
        h
    }

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn full_init_matches_batch_pagerank_fixed_point() {
        let g = gen::rmat(48, 300, Default::default(), 5).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "t.adj", &client, &g);
        let pr = IncrementalPageRank::default();
        let mut st = pr.create_state(&ps, "t.pr", g.num_vertices()).unwrap();
        let rounds = pr.init_full(&mut st, &client, &adj).unwrap();
        assert!(rounds > 0);
        let got = pr.ranks(&st, &client).unwrap();
        // Independent driver-side power iteration of the same
        // (dangling-mass-dropping) unnormalized fixed point.
        let n = g.num_vertices() as usize;
        let out: Vec<Vec<u64>> = (0..n as u64)
            .map(|v| adj.pull(&client, &[v]).unwrap().remove(0).to_vec())
            .collect();
        let mut want = vec![0.0f64; n];
        for _ in 0..300 {
            let mut next = vec![1.0 - pr.damping; n];
            for (u, list) in out.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let c = pr.damping * want[u] / list.len() as f64;
                for &x in list {
                    next[x as usize] += c;
                }
            }
            want = next;
        }
        assert!(linf(&got, &want) < 1e-6, "L∞ {}", linf(&got, &want));
    }

    #[test]
    fn incremental_tracks_full_recompute_through_random_edits() {
        let g = gen::rmat(40, 200, Default::default(), 9).dedup();
        let n = g.num_vertices();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "e.adj", &client, &g);
        let pr = IncrementalPageRank::default();
        let mut st = pr.create_state(&ps, "e.pr", n).unwrap();
        pr.init_full(&mut st, &client, &adj).unwrap();

        let mut rng = SplitMix64::new(42);
        let mut live: Vec<(u64, u64)> = g.edges().to_vec();
        for round in 0..6 {
            // A micro-batch of random adds and removes.
            let mut ops: Vec<(u64, u64, bool)> = Vec::new();
            for _ in 0..10 {
                if !live.is_empty() && rng.next_below(3) == 0 {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (s, d) = live.swap_remove(i);
                    ops.push((s, d, false));
                } else {
                    let s = rng.next_below(n);
                    let d = rng.next_below(n);
                    if !live.contains(&(s, d)) {
                        live.push((s, d));
                        ops.push((s, d, true));
                    }
                }
            }
            // Capture old lists, apply, capture new lists.
            let mut srcs: Vec<u64> = ops.iter().map(|&(s, _, _)| s).collect();
            srcs.sort_unstable();
            srcs.dedup();
            let old: Vec<Vec<u64>> =
                adj.pull(&client, &srcs).unwrap().iter().map(|l| l.to_vec()).collect();
            adj.update_edges(&client, &ops).unwrap();
            let new: Vec<Vec<u64>> =
                adj.pull(&client, &srcs).unwrap().iter().map(|l| l.to_vec()).collect();
            let effects: Vec<(u64, Vec<u64>, Vec<u64>)> = srcs
                .iter()
                .zip(old.iter().zip(&new))
                .map(|(&s, (o, nl))| (s, o.clone(), nl.clone()))
                .collect();
            pr.on_batch(&mut st, &client, &effects).unwrap();
            pr.propagate(&mut st, &client, &adj).unwrap();

            // Full recompute on the current graph, fresh PS names.
            let mut full =
                pr.create_state(&ps, &format!("e.full{round}"), n).unwrap();
            pr.init_full(&mut full, &client, &adj).unwrap();
            let a = pr.ranks(&st, &client).unwrap();
            let b = pr.ranks(&full, &client).unwrap();
            assert!(linf(&a, &b) < 1e-6, "round {round}: L∞ {}", linf(&a, &b));
        }
    }

    #[test]
    fn cc_bootstrap_matches_reference_labels() {
        let g = gen::rmat(64, 150, Default::default(), 21).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "c.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "c.cc", g.num_vertices()).unwrap();
        cc.bootstrap(&client, &adj).unwrap();
        assert_eq!(cc.labels(), metrics::connected_components(&g).as_slice());
        // PS copy agrees with the mirror.
        assert_eq!(cc.labels.pull_all(&client).unwrap(), cc.labels());
    }

    #[test]
    fn cc_tracks_reference_through_adds_and_removes() {
        let n = 32u64;
        let g = gen::erdos_renyi(n, 50, 3).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "d.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "d.cc", n).unwrap();
        cc.bootstrap(&client, &adj).unwrap();

        let mut rng = SplitMix64::new(77);
        let mut live: Vec<(u64, u64)> = g.edges().to_vec();
        for round in 0..8 {
            let mut ops: Vec<(u64, u64, bool)> = Vec::new();
            for _ in 0..6 {
                if !live.is_empty() && rng.next_below(2) == 0 {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (s, d) = live.swap_remove(i);
                    ops.push((s, d, false));
                } else {
                    let s = rng.next_below(n);
                    let d = rng.next_below(n);
                    if s != d && !live.contains(&(s, d)) {
                        live.push((s, d));
                        ops.push((s, d, true));
                    }
                }
            }
            adj.update_edges(&client, &ops).unwrap();
            let stats = cc.on_batch(&client, &ops, &adj).unwrap();
            let reference =
                metrics::connected_components(&EdgeList::new(n, live.clone()));
            assert_eq!(cc.labels(), reference.as_slice(), "round {round} ({stats:?})");
            assert_eq!(cc.labels.pull_all(&client).unwrap(), cc.labels());
        }
    }

    #[test]
    fn cc_split_and_rejoin_one_bridge() {
        // Two triangles joined by a bridge; cutting the bridge splits
        // them, re-adding it merges them back.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let g = EdgeList::new(6, edges.clone());
        let adj = build_table(&ps, "b.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "b.cc", 6).unwrap();
        cc.bootstrap(&client, &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 0, 0, 0]);

        adj.update_edges(&client, &[(2, 3, false)]).unwrap();
        let stats = cc.on_batch(&client, &[(2, 3, false)], &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 3, 3, 3]);
        assert_eq!(stats.recomputes, 1);
        assert_eq!(stats.relabeled, 3);

        adj.update_edges(&client, &[(2, 3, true)]).unwrap();
        let stats = cc.on_batch(&client, &[(2, 3, true)], &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 0, 0, 0]);
        assert_eq!(stats.unions, 1);
    }
}
