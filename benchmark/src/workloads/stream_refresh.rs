//! `stream_refresh` — the only workload with writes beside reads. DS3' is
//! bootstrapped into a `ShardedIngestor` (one shard per core), incremental
//! PageRank and connected components are converged, the state is
//! snapshotted and served. Then pre-generated drift-RMAT events flow in
//! micro-batches: offer → `drain_all` → incremental PageRank + CC →
//! `RefreshDriver` tick / delta hot-swap → Zipf point lookups against the
//! live tier, each verified against the state captured at the last swap.
//! An optimisation that helps `serve_ladder` by caching harder but costs
//! invalidation or swap time shows here, and this is the only workload
//! where `stream` and `core::algos::incremental` run.
//!
//! The pipeline has one clock: it waits for a batch's last event, then
//! pays the modelled cost of maintenance, refresh and lookups. Freshness
//! of an event is the clock after the swap that published it minus the
//! event's own time, so it includes processing cost and any backlog.

use std::sync::Arc;

use crate::gen::{Fnv, Rng, Zipf};
use crate::metrics::{percentile, Layer};
use crate::runner::{bench_layer, timed_setup, timed_work, Check, Pass, PassKind, Workload};
use crate::sut::{self, Ds, EdgeEvent, EdgeList, EdgeOp, Mirror, Pool, Query, Res, Value};
use crate::trace::Tracer;

/// DS3' scale: 3 k vertices, about 9.4 k distinct base edges.
const DS3_SCALE: f64 = 0.05;
const EVENTS: usize = 6_144;
const BATCH: usize = 512;
const REMOVE_FRACTION: f64 = 0.25;
/// Offered load, events per simulated second: about 60 % of what the
/// maintenance pipeline sustains on the sim clock (a 512-event batch costs
/// it roughly 120 ms), so freshness measures processing, not a backlog.
const EVENTS_PER_SIM_SEC: f64 = 2_500.0;
/// Swap after this many effective micro-batches.
const SWAP_EVERY_BATCHES: usize = 4;
const LOOKUPS_PER_BATCH: usize = 64;
const MAX_PAGERANK_LINF: f64 = 1e-6;

pub struct StreamRefresh;

pub struct Inputs {
    base: EdgeList,
    events: Vec<EdgeEvent>,
    lookups: Vec<Query>,
}

fn answer_matches(q: &Query, v: &Value, m: &Mirror) -> bool {
    match (q, v) {
        (Query::Rank(x), Value::Rank(r)) => r.to_bits() == m.ranks[*x as usize].to_bits(),
        (Query::Community(x), Value::Community(c)) => *c == m.labels[*x as usize],
        (Query::Neighbors(x), Value::Neighbors(ns)) => ns == &m.adjacency[*x as usize],
        _ => false,
    }
}

/// What the measured loop produced.
#[derive(Default)]
struct Loop {
    /// Per event: pipeline clock after its publishing swap − event time.
    freshness_ns: Vec<u64>,
    lookup_lat_ns: Vec<u64>,
    wrong: u64,
    unanswered: u64,
    refused: u64,
    batches: usize,
    swaps: Vec<sut::SwapRecord>,
    batches_to_publish_max: usize,
    busy_ns: u64,
    drained: usize,
    drain_ps_rpcs: u64,
}

fn run_loop(t: &Tracer, d: &mut sut::StreamDeploy, inp: &Inputs, mut mirror: Mirror) -> Res<Loop> {
    let mut out = Loop::default();
    // Oldest batch whose events no swap has published yet, and the index
    // of the first event not yet published.
    let mut oldest_pending: Option<usize> = None;
    let mut published_upto = 0usize;
    let mut issued: Vec<Query> = Vec::new();
    let start_ns = d.now_ns();
    let mut idle_ns = 0u64;

    let chunks: Vec<&[EdgeEvent]> = inp.events.chunks(BATCH).collect();
    for (bi, chunk) in chunks.iter().enumerate() {
        let before = d.now_ns();
        d.wait_until(chunk[chunk.len() - 1].at.as_nanos());
        idle_ns += d.now_ns() - before;

        out.refused += d.offer(t, chunk) as u64;
        let rpcs0 = d.ps_rpcs();
        let fx = d.drain(t)?;
        out.drain_ps_rpcs += d.ps_rpcs() - rpcs0;
        out.drained += fx.drained;
        d.maintain(t, &fx)?;
        out.batches += 1;
        oldest_pending.get_or_insert(bi);

        let last = bi + 1 == chunks.len();
        if let Some(rec) = d.refresh(t, !fx.effects.is_empty(), last)? {
            let now = d.now_ns();
            let upto = ((bi + 1) * BATCH).min(inp.events.len());
            for ev in &inp.events[published_upto..upto] {
                out.freshness_ns.push(now.saturating_sub(ev.at.as_nanos()));
            }
            published_upto = upto;
            let oldest = oldest_pending.take().unwrap_or(bi);
            out.batches_to_publish_max = out.batches_to_publish_max.max(bi - oldest + 1);
            out.swaps.push(rec);
            mirror = d.capture()?;
        }

        // Interleaved point lookups: a burst at the pipeline's clock,
        // drained before the next batch so every answer is checked
        // against the state published by the last swap.
        let base_idx = issued.len();
        let qs = &inp.lookups[bi * LOOKUPS_PER_BATCH..(bi + 1) * LOOKUPS_PER_BATCH];
        let mut outs = Vec::new();
        for (j, q) in qs.iter().enumerate() {
            outs.extend(d.lookup(t, base_idx + j, *q));
        }
        outs.extend(sut::drain(t, &mut d.cluster));
        issued.extend_from_slice(qs);
        let mut answered = 0usize;
        for (idx, o) in outs {
            if let sut::Outcome::Answered { value, latency, .. } = o {
                answered += 1;
                out.lookup_lat_ns.push(latency.as_nanos());
                if !answer_matches(&issued[idx], &value, &mirror) {
                    out.wrong += 1;
                }
            }
        }
        out.unanswered += (qs.len() - answered) as u64;
    }
    // Events in trailing batches that changed nothing are published by
    // definition: the tier already serves their outcome.
    let now = d.now_ns();
    for ev in &inp.events[published_upto..] {
        out.freshness_ns.push(now.saturating_sub(ev.at.as_nanos()));
    }
    out.busy_ns = (d.now_ns() - start_ns).saturating_sub(idle_ns);
    Ok(out)
}

impl Workload for StreamRefresh {
    const NAME: &'static str = "stream_refresh";
    type Inputs = Inputs;

    fn generate(seed: u64, smoke: bool) -> (Inputs, u64) {
        let shrink = if smoke { 10 } else { 1 };
        let base = sut::rmat(Ds::Ds3, DS3_SCALE / shrink as f64, seed).dedup();
        let count = (EVENTS / shrink).next_multiple_of(BATCH);
        let events = sut::drift_events(&base, count, EVENTS_PER_SIM_SEC, REMOVE_FRACTION, seed);
        let zipf = Zipf::new(base.num_vertices(), 1.0);
        let mut rng = Rng::new(seed, 5);
        let lookups: Vec<Query> = (0..count / BATCH * LOOKUPS_PER_BATCH)
            .map(|_| {
                let v = zipf.draw(&mut rng);
                match rng.below(3) {
                    0 => Query::Rank(v),
                    1 => Query::Community(v),
                    _ => Query::Neighbors(v),
                }
            })
            .collect();
        let mut h = Fnv::default();
        h.edges(base.edges());
        for ev in &events {
            h.u64s(&[
                matches!(ev.op, EdgeOp::Add) as u64,
                ev.src,
                ev.dst,
                ev.at.as_nanos(),
            ]);
        }
        for q in &lookups {
            h.u64(q.vertex());
        }
        (
            Inputs {
                base,
                events,
                lookups,
            },
            h.0,
        )
    }

    fn pass(inp: &Inputs, _kind: PassKind, pool: &Arc<Pool>, t: &Tracer) -> Res<Pass> {
        let (setup_s, (mut d, mirror)) = timed_setup(|| {
            // One ingest shard per core in every pass, the serial one too.
            let shards = crate::runner::nproc();
            let d = sut::stream_deploy(t, &inp.base, shards, BATCH, SWAP_EVERY_BATCHES, pool)?;
            let mirror = d.capture()?;
            Ok((d, mirror))
        })?;
        let (work_wall_s, lp) = timed_work(t, || run_loop(t, &mut d, inp, mirror))?;

        let mut fresh = lp.freshness_ns.clone();
        fresh.sort_unstable();
        let mut lat = lp.lookup_lat_ns.clone();
        lat.sort_unstable();
        let last_event_ns = inp.events.last().map_or(0, |e| e.at.as_nanos());

        // Final state: incremental results against from-scratch ones.
        let end = d.capture()?;
        let linf = d.pagerank_linf_vs_full()?;
        let live: Vec<(u64, u64)> = end
            .adjacency
            .iter()
            .enumerate()
            .flat_map(|(s, l)| l.iter().map(move |&x| (s as u64, x)))
            .collect();
        let truth = sut::connected_components(&EdgeList::new(inp.base.num_vertices(), live));
        let mut state = Fnv::default();
        end.adjacency.iter().for_each(|l| state.u64s(l));
        state.f64s(&d.degrees()?);
        state.f64s(&end.ranks);
        state.u64s(&end.labels);

        let (applied, accepted, rejected) = d.ingest_counts();
        let mut p = Pass {
            setup_s,
            work_wall_s,
            work_sim_s: lp.busy_ns as f64 / 1e9,
            wait_p99_sim_ms: percentile(&fresh, 0.99) as f64 / 1e6,
            attempted: (inp.events.len() + inp.lookups.len()) as u64,
            failed: lp.refused + lp.wrong + lp.unanswered,
            digests: vec![("final PS state", state.0)],
            sim_parts: vec![
                ("pipeline busy", lp.busy_ns as f64),
                ("freshness p99", percentile(&fresh, 0.99) as f64),
            ],
            ..Pass::default()
        };
        p.checks.push(Check::new(
            "every lookup answered with the last published state",
            lp.wrong == 0 && lp.unanswered == 0,
            format!(
                "{} wrong, {} unanswered of {}",
                lp.wrong,
                lp.unanswered,
                inp.lookups.len()
            ),
        ));
        p.checks.push(Check::new(
            "every offer accepted and every event drained",
            lp.refused == 0
                && rejected == 0
                && accepted as usize == inp.events.len()
                && lp.drained == inp.events.len(),
            format!(
                "{} refused, {accepted} accepted, {} drained of {}",
                lp.refused,
                lp.drained,
                inp.events.len()
            ),
        ));
        p.checks.push(Check::new(
            "incremental PageRank within 1e-6 L-inf of a full recompute",
            linf <= MAX_PAGERANK_LINF,
            format!("{linf:.3e}"),
        ));
        p.checks.push(Check::new(
            "incremental CC labels equal the reference",
            end.labels == truth,
            format!("{} vertices", truth.len()),
        ));
        p.checks.push(Check::new(
            "every event published",
            fresh.len() == inp.events.len() && !lp.swaps.is_empty(),
            format!(
                "{} of {} events, {} swaps",
                fresh.len(),
                inp.events.len(),
                lp.swaps.len()
            ),
        ));

        let l = &mut p.layer;
        d.counters(l);
        let serve = sut::serve_counters(&d.cluster);
        let batches = lp.batches.max(1) as f64;
        let swaps = lp.swaps.len().max(1) as f64;
        l.set("net.serve_rpcs", serve.rpcs as f64);
        l.set("net.serve_bytes", serve.bytes as f64);
        l.set(
            "serve.cache_hit_rate",
            serve.hits as f64 / (serve.hits + serve.misses).max(1) as f64,
        );
        l.set("serve.cache_evictions", serve.evictions as f64);
        l.set("serve.p50_sim_us", percentile(&lat, 0.50) as f64 / 1e3);
        l.set("serve.p99_sim_us", percentile(&lat, 0.99) as f64 / 1e3);
        l.set(
            "serve.failed_share",
            lp.unanswered as f64 / inp.lookups.len().max(1) as f64,
        );
        l.set(
            "serve.keys_invalidated_per_swap",
            lp.swaps
                .iter()
                .map(|s| s.stats.keys_invalidated)
                .sum::<usize>() as f64
                / swaps,
        );
        l.set(
            "stream.freshness_p50_sim_ms",
            percentile(&fresh, 0.50) as f64 / 1e6,
        );
        l.set(
            "stream.drain_ps_rpcs_per_batch",
            lp.drain_ps_rpcs as f64 / batches,
        );
        l.set(
            "stream.applied_share",
            applied as f64 / lp.drained.max(1) as f64,
        );
        l.set(
            "stream.dirty_partitions_per_swap",
            lp.swaps.iter().map(|s| s.dirty_partitions).sum::<usize>() as f64 / swaps,
        );
        l.set(
            "stream.batches_to_publish_max",
            lp.batches_to_publish_max as f64,
        );
        l.set(
            "stream.backlog_sim_ms",
            d.now_ns().saturating_sub(last_event_ns) as f64 / 1e6,
        );
        if let Some(s) = t.current() {
            l.set(
                "stream.events_per_wall_s",
                inp.events.len() as f64 / work_wall_s,
            );
            l.set(
                "stream.offer_wall_ns_per_event",
                s.get("stream.offer").wall_s * 1e9 / inp.events.len() as f64,
            );
            l.set(
                "stream.drain_wall_us_per_batch",
                s.get("stream.drain").wall_per_call(1e6),
            );
            l.set(
                "stream.refresh_wall_ms",
                s.get("stream.refresh").wall_per_call(1e3),
            );
            l.set(
                "stream.refresh_sim_ms",
                s.get("stream.refresh").sim_per_call(1e3),
            );
            l.set(
                "core.incr_pagerank_wall_us_per_batch",
                s.get("core.incr_pagerank").wall_per_call(1e6),
            );
            l.set(
                "core.incr_pagerank_sim_us_per_batch",
                s.get("core.incr_pagerank").sim_per_call(1e6),
            );
            l.set(
                "core.incr_cc_wall_us_per_batch",
                s.get("core.incr_cc").wall_per_call(1e6),
            );
            l.set(
                "core.incr_cc_sim_us_per_batch",
                s.get("core.incr_cc").sim_per_call(1e6),
            );
            l.set("serve.load_wall_s", s.get("serve.load").wall_s);
            l.set("serve.load_sim_s", s.get("serve.load").sim_s);
            bench_layer(&s, l);
        }
        Ok(p)
    }

    fn probes(inp: &Inputs, pool: &Arc<Pool>) -> Res<Layer> {
        let mut l = Layer::default();
        super::common_probes(pool, &mut l);
        // Edges a stream would add: the events' own adds, made distinct
        // from the base so every add and remove takes effect.
        let mut fresh: Vec<(u64, u64)> = inp
            .events
            .iter()
            .filter(|e| matches!(e.op, EdgeOp::Add))
            .map(|e| (e.src, e.dst))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let base: std::collections::BTreeSet<_> = inp.base.edges().iter().copied().collect();
        fresh.retain(|e| !base.contains(e));
        let (w, s) = sut::probe_adj_update(&inp.base, &fresh, pool)?;
        let updates = (2 * fresh.len()).max(1) as f64;
        l.set("ps.adj_update_wall_ns_per_edge", w * 1e9 / updates);
        l.set("ps.adj_update_sim_ns_per_edge", s * 1e9 / updates);
        // A delta export is of the order of the base snapshot's adjacency.
        super::dfs_probe(
            inp.base.num_edges() * 8 + inp.base.num_vertices() as usize * 24,
            &mut l,
        )?;
        Ok(l)
    }
}
