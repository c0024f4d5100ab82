//! What the experiment drivers share. The rig both streaming drivers
//! (`repro -- stream`, `repro -- chaos`) drive — one PS trained on the
//! base graph, snapshotted, served, and refreshed by delta hot-swaps —
//! the verifier every driver checks served answers with, and the
//! bit-exact capture of the final PS state that runs are compared by.

use std::sync::Arc;

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank, PrState};
use psgraph_core::CoreError;
use psgraph_dfs::Dfs;
use psgraph_graph::EdgeList;
use psgraph_ps::{Ps, PsConfig, SnapshotWriter};
use psgraph_serve::{
    GraphTruth, Interpreter, ObjectMap, Outcome, Plan, PlanOutput, Query, ServeCluster,
    ServeConfig, Value,
};
use psgraph_sim::{FaultSchedule, NodeClock, SimTime};
use psgraph_stream::{
    BatchEffect, IngestConfig, RefreshConfig, RefreshDriver, ShardedIngestor,
};

use crate::report::Cell;

/// What was asked of a serving tier: a legacy query shape or a
/// caller-built plan.
#[derive(Clone, Copy)]
pub(crate) enum Asked<'a> {
    Query(&'a Query),
    Plan(&'a Plan),
}

/// Does `value` answer `asked` bit for bit over `truth`? Point shapes are
/// compared against the arrays; `KHop` / `TopK` / `TopKAll` and plans
/// against the single-node interpreter, whose dot-product association
/// `shards` pins to the tier's.
pub(crate) fn answers(truth: &GraphTruth, shards: usize, asked: Asked<'_>, value: &Value) -> bool {
    let plan = |plan: &Plan| match (Interpreter::new(truth, shards).run(plan), value) {
        (Ok(PlanOutput::Vertices(want)), Value::Vertices(got)) => *got == want,
        (Ok(PlanOutput::Ranked(want)), Value::Ranked(got)) => {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|((gv, gs), (wv, ws))| gv == wv && gs.to_bits() == ws.to_bits())
        }
        _ => false,
    };
    let query = match asked {
        Asked::Plan(p) => return plan(p),
        Asked::Query(q) => q,
    };
    let at = |v: &u64| *v as usize;
    match (query, value) {
        (Query::Rank(v), Value::Rank(r)) => {
            truth.ranks.as_ref().is_some_and(|a| a[at(v)].to_bits() == r.to_bits())
        }
        (Query::Community(v), Value::Community(c)) => {
            truth.communities.as_ref().is_some_and(|a| a[at(v)] == *c)
        }
        (Query::Embedding(v), Value::Embedding(e)) => truth.embeddings.as_ref().is_some_and(|a| {
            let row = &a[at(v)];
            e.len() == row.len() && e.iter().zip(row).all(|(g, w)| g.to_bits() == w.to_bits())
        }),
        (Query::Neighbors(v), Value::Neighbors(ns)) => {
            truth.adjacency.as_ref().is_some_and(|a| *ns == a[at(v)])
        }
        (Query::KHop { v, hops }, _) => plan(&Plan::khop(*v, *hops)),
        (Query::TopK { v, k }, _) => plan(&Plan::topk(*v, *k)),
        (Query::TopKAll { v, k }, _) => plan(&Plan::topk_all(*v, *k)),
        _ => false,
    }
}

fn se(e: impl std::fmt::Display) -> CoreError {
    CoreError::Invalid(format!("stream rig: {e}"))
}

/// Running totals of what [`Rig::ask`] submitted and got back.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) queries: usize,
    pub(crate) answered: usize,
    /// Shed or failed: degraded service, which faults may cause.
    pub(crate) unserved: usize,
    /// Answers diverging from the swap-time truth, which nothing may.
    pub(crate) wrong: usize,
}

/// The streaming loop's moving parts, built once: mutable ingest state
/// and incremental maintainers converged on the base graph, a serving
/// tier loaded from their snapshot, the refresh driver that publishes
/// deltas into it, and the truth the tier must answer with. The drivers
/// own what differs between them — how events arrive, when to publish,
/// what to do about a crash — and reach the parts through the fields.
pub(crate) struct Rig {
    pub(crate) ps: Arc<Ps>,
    pub(crate) dfs: Dfs,
    pub(crate) client: NodeClock,
    pub(crate) ingest: ShardedIngestor,
    pub(crate) pr: IncrementalPageRank,
    pub(crate) pr_state: PrState,
    pub(crate) cc: IncrementalCc,
    pub(crate) cluster: ServeCluster,
    pub(crate) driver: RefreshDriver,
    pub(crate) swap_every: usize,
    /// The PS state at the instant of the last publish — what the tier
    /// must answer with until the next swap (the stream publishes no
    /// embeddings, so compound plans score by rank).
    pub(crate) truth: GraphTruth,
    /// `(batch index, watermark)` of applied batches not yet published;
    /// the driver pushes, [`Rig::swap`] settles.
    pub(crate) pending: Vec<(usize, SimTime)>,
    /// Event-time lag from each published batch's watermark to the swap
    /// that published it.
    pub(crate) lags: Vec<SimTime>,
    pub(crate) tally: Tally,
    /// What the tier was loaded with, for a driver that loads a second one.
    pub(crate) objects: ObjectMap,
    pub(crate) serve: ServeConfig,
}

impl Rig {
    /// Train on `base` across `shards` ingestor shards, snapshot under
    /// `snapshot_dir` and serve it. A live `chaos` schedule is attached
    /// to the PS and DFS networks before training and to the serving
    /// network once the tier is loaded.
    pub(crate) fn build(
        base: &EdgeList,
        shards: usize,
        mailbox_cap: usize,
        snapshot_dir: &str,
        chaos: &FaultSchedule,
    ) -> Result<Rig, CoreError> {
        let n = base.num_vertices();
        let ps = Ps::new(PsConfig::default());
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        if chaos.is_active() {
            ps.network().attach_chaos(chaos.clone());
            dfs.network().attach_chaos(chaos.clone());
        }

        let icfg = IngestConfig { prefix: "stream".into(), mailbox_cap };
        let ingest = ShardedIngestor::create(&ps, &icfg, n, shards).map_err(se)?;
        ingest.bootstrap(&client, base.edges()).map_err(se)?;
        let pr = IncrementalPageRank::default();
        let mut pr_state = pr.create_state(&ps, "stream.pr", n)?;
        pr.init_full(&mut pr_state, &client, ingest.adjacency())?;
        let mut cc = IncrementalCc::create(&ps, "stream.cc", n)?;
        cc.bootstrap(&client, ingest.adjacency())?;

        let mut w = SnapshotWriter::new(&dfs, snapshot_dir, &client);
        w.vector_f64(&pr_state.ranks)?;
        w.vector_u64(&cc.labels)?;
        w.neighbor_table(ingest.adjacency())?;
        let manifest = w.finish()?;
        let objects = ObjectMap {
            ranks: Some("stream.pr.ranks".into()),
            communities: Some("stream.cc.labels".into()),
            embeddings: None,
            adjacency: Some("stream.adj".into()),
        };
        let serve = ServeConfig::default();
        let cluster =
            ServeCluster::load(&dfs, snapshot_dir, &objects, &serve, &client).map_err(se)?;
        if chaos.is_active() {
            cluster.network().attach_chaos(chaos.clone());
        }
        let rcfg = RefreshConfig::default();
        let mut rig = Rig {
            swap_every: rcfg.swap_every_batches,
            driver: RefreshDriver::new(snapshot_dir, manifest, rcfg),
            truth: GraphTruth::new(n),
            pending: Vec::new(),
            lags: Vec::new(),
            tally: Tally::default(),
            ps,
            dfs,
            client,
            ingest,
            pr,
            pr_state,
            cc,
            cluster,
            objects,
            serve,
        };
        rig.recapture()?;
        Ok(rig)
    }

    fn ids(&self) -> Vec<u64> {
        (0..self.truth.num_vertices).collect()
    }

    fn adjacency_lists(&self) -> Result<Vec<Vec<u64>>, CoreError> {
        let lists = self.ingest.adjacency().pull(&self.client, &self.ids())?;
        Ok(lists.into_iter().map(|l| l.to_vec()).collect())
    }

    /// Re-read the truth from the PS — after a swap, what the tier now
    /// serves.
    pub(crate) fn recapture(&mut self) -> Result<(), CoreError> {
        self.truth = GraphTruth {
            ranks: Some(self.pr.ranks(&self.pr_state, &self.client)?),
            communities: Some(self.cc.labels().to_vec()),
            adjacency: Some(self.adjacency_lists()?),
            ..GraphTruth::new(self.truth.num_vertices)
        };
        Ok(())
    }

    /// One logical micro-batch: drain every shard's mailbox, re-push
    /// PageRank residuals to convergence, maintain the components.
    /// Returns what the batch did and its maintainer telemetry row, read
    /// from the run's own counters (PS traffic is the network's, measured
    /// around `propagate` alone).
    pub(crate) fn apply(&mut self) -> Result<(BatchEffect, Vec<Cell>), CoreError> {
        let fx = self.ingest.drain_all().map_err(se)?;
        let net = self.ps.network().stats();
        let before = self.pr_state.pushed();
        self.pr.on_batch(&mut self.pr_state, &self.client, &fx.effects)?;
        let (rpcs0, bytes0) = (net.rpcs(), net.total_bytes());
        let rounds = self.pr.propagate(&mut self.pr_state, &self.client, self.ingest.adjacency())?;
        let per_round = |total: u64| total as f64 / rounds.max(1) as f64;
        let rpcs = per_round(net.rpcs() - rpcs0);
        let kb = per_round(net.total_bytes() - bytes0) / 1e3;
        let after = self.pr_state.pushed();
        let cs = self.cc.on_batch(&self.client, &fx.applied, self.ingest.adjacency())?;
        let row = [
            rounds.to_string(),
            (after.0 - before.0).to_string(),
            (after.1 - before.1).to_string(),
            format!("{rpcs:.2}"),
            format!("{kb:.1}"),
            cs.unions.to_string(),
            cs.recomputes.to_string(),
            cs.relabeled.to_string(),
        ];
        Ok((fx, row.into_iter().map(Cell::Text).collect()))
    }

    /// Export everything dirtied since the last swap, install it on the
    /// live tier and settle the freshness lag of the batches it
    /// published. `false` when the driver skipped the swap because nothing
    /// was dirty: the tier is unchanged and pending batches stay pending.
    /// The truth is left as captured: on its own this is the last swap of
    /// a run, after which nothing is asked (under chaos a capture's pulls
    /// would draw from the fault schedule for nothing).
    pub(crate) fn swap(&mut self) -> Result<bool, CoreError> {
        let rec = self
            .driver
            .refresh(
                &self.dfs,
                &self.client,
                &mut self.cluster,
                &self.pr_state.ranks,
                &self.cc.labels,
                self.ingest.adjacency(),
                self.ingest.watermark(),
            )
            .map_err(se)?;
        let Some(rec) = rec else { return Ok(false) };
        self.lags.extend(self.pending.drain(..).map(|(_, wmark)| rec.at.saturating_sub(wmark)));
        Ok(true)
    }

    /// [`Rig::swap`], then [`Rig::recapture`] if it swapped.
    pub(crate) fn publish(&mut self) -> Result<bool, CoreError> {
        let swapped = self.swap()?;
        if swapped {
            self.recapture()?;
        }
        Ok(swapped)
    }

    /// Submit one request at `at`, check whatever it completes against
    /// the swap-time truth and tally it; returns how many it answered.
    pub(crate) fn ask(&mut self, at: SimTime, asked: Asked<'_>) -> usize {
        let idx = self.tally.queries;
        let front = self.cluster.frontend_mut();
        let outcomes = match asked {
            Asked::Query(q) => front.execute_now(idx, at, *q),
            Asked::Plan(p) => front.submit_plan(idx, at, p),
        };
        let mut answered = 0;
        for (_, outcome) in outcomes {
            match outcome {
                Outcome::Answered { value, .. } => {
                    answered += 1;
                    if !answers(&self.truth, self.serve.shards, asked, &value) {
                        self.tally.wrong += 1;
                    }
                }
                Outcome::Shed { .. } | Outcome::Failed(_) => self.tally.unserved += 1,
            }
        }
        self.tally.queries += 1;
        self.tally.answered += answered;
        answered
    }

    /// Bit-exact capture of the PS-resident stream state as it is now.
    pub(crate) fn fingerprint(&self) -> Result<Fingerprint, CoreError> {
        let ranks = self.pr.ranks(&self.pr_state, &self.client)?;
        let degrees = self.ingest.degrees().pull(&self.client, &self.ids())?;
        Ok(Fingerprint {
            rank_bits: ranks.iter().map(|r| r.to_bits()).collect(),
            labels: self.cc.labels().to_vec(),
            degree_bits: degrees.iter().map(|d| d.to_bits()).collect(),
            adjacency: self.adjacency_lists()?,
            watermark: self.ingest.watermark(),
        })
    }
}

/// Two runs produced identical state iff their fingerprints are equal.
#[derive(PartialEq, Eq)]
pub(crate) struct Fingerprint {
    rank_bits: Vec<u64>,
    labels: Vec<u64>,
    degree_bits: Vec<u64>,
    adjacency: Vec<Vec<u64>>,
    watermark: SimTime,
}

impl Fingerprint {
    /// FNV-1a fold of the table content, for printing: adjacency lists
    /// (length + neighbors per source, in source order), degree bits,
    /// rank bits, component labels. The watermark is reported on its own
    /// row and is not folded in.
    pub(crate) fn digest(&self) -> u64 {
        let lists = self.adjacency.iter().flat_map(|l| {
            std::iter::once(l.len() as u64).chain(l.iter().copied())
        });
        crate::report::fnv(
            lists
                .chain(self.degree_bits.iter().copied())
                .chain(self.rank_bits.iter().copied())
                .chain(self.labels.iter().copied()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_graph::gen;
    use psgraph_net::rpc::NodeId;
    use psgraph_serve::{Pred, Scorer, Source, Stage};
    use psgraph_stream::DriftRmat;

    #[test]
    fn verifier_accepts_true_answers_and_rejects_near_misses() {
        let cfg = ServeConfig::default();
        let (mut cluster, demo) = ServeCluster::demo(64, 4, &cfg).expect("demo cluster");
        let truth = GraphTruth {
            num_vertices: 64,
            ranks: Some(demo.ranks),
            communities: Some(demo.communities),
            adjacency: Some(demo.adjacency),
            embeddings: Some(demo.embeddings),
        };
        let mut served = |asked: Asked<'_>| {
            let front = cluster.frontend_mut();
            let outcomes = match asked {
                Asked::Query(q) => front.execute_now(0, SimTime::ZERO, *q),
                Asked::Plan(p) => front.submit_plan(0, SimTime::ZERO, p),
            };
            match outcomes.into_iter().next() {
                Some((_, Outcome::Answered { value, .. })) => value,
                other => panic!("not answered: {other:?}"),
            }
        };
        let plan = Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(4),
            ],
        };
        let queries = [
            Query::Rank(9),
            Query::Community(9),
            Query::Embedding(9),
            Query::Neighbors(9),
            Query::KHop { v: 9, hops: 2 },
            Query::TopK { v: 9, k: 4 },
            Query::TopKAll { v: 9, k: 4 },
        ];
        let mut values: Vec<(Asked<'_>, Value)> =
            queries.iter().map(|q| (Asked::Query(q), served(Asked::Query(q)))).collect();
        values.push((Asked::Plan(&plan), served(Asked::Plan(&plan))));
        for (asked, value) in &values {
            assert!(answers(&truth, cfg.shards, *asked, value), "true answer rejected: {value:?}");
        }

        let nudge = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let Value::Rank(r) = values[0].1 else { panic!("rank answer") };
        assert!(!answers(&truth, cfg.shards, values[0].0, &Value::Rank(nudge(r))));
        assert!(
            !answers(&truth, cfg.shards, values[0].0, &values[1].1),
            "a community value must not answer a rank query"
        );
        for (asked, value) in &values[5..] {
            let Value::Ranked(ranked) = value else { panic!("ranked answer") };
            assert!(ranked.len() >= 2, "need two rows to permute");
            let mut off = ranked.clone();
            off[0].1 = nudge(off[0].1);
            assert!(!answers(&truth, cfg.shards, *asked, &Value::Ranked(off)), "score one bit off");
            let mut swapped = ranked.clone();
            swapped.swap(0, 1);
            assert!(!answers(&truth, cfg.shards, *asked, &Value::Ranked(swapped)), "permuted");
        }
    }

    #[test]
    fn rig_serves_the_published_state_and_fingerprints_equal_across_shards() {
        let base = gen::rmat(200, 1_200, Default::default(), 17).dedup();
        let drift = DriftRmat { num_vertices: 200, remove_fraction: 0.25, ..DriftRmat::default() };
        let run = |shards: usize| {
            let off = FaultSchedule::off();
            let mut rig = Rig::build(&base, shards, 128, "/rig/snapshot", &off).expect("rig");
            let before = rig.truth.clone();
            let mut source = drift.start(base.edges());
            for _ in 0..128 {
                assert!(rig.ingest.offer(NodeId::Driver, source.next_event()));
            }
            let (fx, telemetry) = rig.apply().expect("apply");
            assert!(!fx.effects.is_empty() && telemetry.len() == 8);
            rig.pending.push((0, fx.watermark));

            // Until the swap the tier serves — and the truth holds — the
            // base graph; after it, the post-batch state.
            assert!(rig.truth == before);
            assert!(rig.publish().expect("publish"), "the batch dirtied partitions");
            assert!(rig.truth != before, "the truth must move with the swap");
            assert!(rig.pending.is_empty() && rig.lags.len() == 1);
            for v in 0..200 {
                for q in [Query::Rank(v), Query::Community(v), Query::Neighbors(v)] {
                    // Spaced out, so admission control sheds none.
                    let at = rig.client.now() + SimTime::from_millis(rig.tally.queries as u64);
                    rig.ask(at, Asked::Query(&q));
                }
            }
            assert_eq!(rig.tally.queries, 600);
            assert_eq!((rig.tally.answered, rig.tally.wrong), (600, 0));
            rig.fingerprint().expect("fingerprint")
        };
        assert!(run(1) == run(3), "1 and 3 ingestor shards must leave the same PS state");
    }
}
