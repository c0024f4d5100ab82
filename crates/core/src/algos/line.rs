//! LINE graph embedding (paper §IV-D).
//!
//! Each vertex owns an embedding vector (and, for second-order proximity,
//! a context vector). Both matrices are stored on the PS **partitioned by
//! column**, so every server holds the same dimension slice of `u` and
//! `c`; executors then train in the two psFunc rounds of §IV-D — partial
//! dot products, then one fused server-side pair-update — moving only
//! `(id, id, coef)` triples and scalar partials over the wire. The
//! `use_psfunc = false` path is the ablation baseline the paper argues
//! against: pull whole embedding rows, compute on the executor, push whole
//! gradient rows back.
//!
//! Optimization uses skip-gram with negative sampling (unigram^{3/4}
//! noise distribution, as in the LINE paper). Updates against already-
//! updated sibling rows within a batch are accepted (Hogwild-style), as
//! in any asynchronous PS deployment.

use std::sync::Arc;

use psgraph_dataflow::Rdd;
use psgraph_ps::{ColMatrixHandle, RecoveryMode};
use psgraph_sim::SplitMix64;

use crate::context::{PsGraphContext, RunStats};
use crate::error::PsResultExt;
use crate::error::{CoreError, Result};

/// Which proximity LINE optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOrder {
    /// First-order: σ(uᵢ·uⱼ) on the single embedding matrix.
    First,
    /// Second-order: σ(uᵢ·cⱼ) against a separate context matrix.
    Second,
}

/// LINE job configuration.
#[derive(Debug, Clone)]
pub struct LineConfig {
    pub dim: usize,
    pub order: LineOrder,
    pub epochs: u64,
    /// Edges per training batch (per executor partition).
    pub batch_size: usize,
    /// Negative samples per positive edge.
    pub negative: usize,
    pub lr: f32,
    pub seed: u64,
    /// Server-side dot products + pair updates (the paper's psFunc
    /// optimization). `false` = pull/push whole rows (ablation baseline).
    pub use_psfunc: bool,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            dim: 32,
            order: LineOrder::Second,
            epochs: 3,
            batch_size: 512,
            negative: 5,
            lr: 0.05,
            seed: 42,
            use_psfunc: true,
        }
    }
}

/// LINE runner.
#[derive(Debug, Clone, Default)]
pub struct Line {
    pub config: LineConfig,
}

/// Result: final embeddings, loss per epoch, statistics.
#[derive(Debug, Clone)]
pub struct LineOutput {
    pub embeddings: Vec<Vec<f32>>,
    pub loss_per_epoch: Vec<f64>,
    pub stats: RunStats,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Cumulative unigram^{3/4} noise table for negative sampling.
fn noise_table(degrees: &[u64]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(degrees.len());
    let mut acc = 0.0;
    for &d in degrees {
        acc += (d as f64).powf(0.75);
        cum.push(acc);
    }
    cum
}

fn sample_noise(cum: &[f64], rng: &mut SplitMix64) -> u64 {
    let total = *cum.last().unwrap_or(&0.0);
    if total <= 0.0 {
        return rng.next_below(cum.len().max(1) as u64);
    }
    let x = rng.next_f64() * total;
    cum.partition_point(|&c| c < x) as u64
}

impl Line {
    pub fn new(config: LineConfig) -> Self {
        Line { config }
    }

    pub fn run(
        &self,
        ctx: &Arc<PsGraphContext>,
        edges: &Rdd<(u64, u64)>,
        num_vertices: u64,
    ) -> Result<LineOutput> {
        let cfg = &self.config;
        if cfg.dim == 0 || num_vertices == 0 {
            return Err(CoreError::Invalid("LINE needs dim > 0 and vertices > 0".into()));
        }
        let start = ctx.now();
        let snap = ctx.net_snapshot();
        let mut supersteps = 0u64;

        let _objects = super::PsObjects::new(ctx, &["line.embed", "line.ctx"]);
        let embed = ColMatrixHandle::create(
            ctx.ps(), "line.embed", num_vertices, cfg.dim, RecoveryMode::Inconsistent,
        )?;
        embed.init_uniform(ctx.cluster().driver(), cfg.seed, 0.5 / cfg.dim as f32)?;
        let context = match cfg.order {
            LineOrder::Second => {
                let c = ColMatrixHandle::create(
                    ctx.ps(), "line.ctx", num_vertices, cfg.dim, RecoveryMode::Inconsistent,
                )?;
                c.init_uniform(ctx.cluster().driver(), cfg.seed ^ 0xC0, 0.5 / cfg.dim as f32)?;
                Some(c)
            }
            LineOrder::First => None,
        };
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);
        // Second order scores against the context matrix, first order
        // against the embeddings themselves.
        let target_matrix = context.as_ref().unwrap_or(&embed);

        // Noise distribution from out-degrees (driver-side, shared).
        let degrees = {
            let mut d = vec![0u64; num_vertices as usize];
            for p in 0..edges.num_partitions() {
                for &(s, _) in edges.partition(p)?.iter() {
                    d[s as usize] += 1;
                }
            }
            d
        };
        let noise = Arc::new(noise_table(&degrees));

        let mut loss_per_epoch = Vec::with_capacity(cfg.epochs as usize);
        let recover = || Ok(edges.recover()?);
        let epochs = super::superstep::supersteps(ctx, supersteps, cfg.epochs, recover, || {
            let epoch = loss_per_epoch.len() as u64;

            let embed_ref = &embed;
            let noise_ref = &noise;
            let partition_losses: Vec<(f64, u64)> = ctx
                .cluster()
                .run_stage(edges.num_partitions(), move |p, exec| {
                    let part = edges.partition(p)?;
                    let mut rng = SplitMix64::new(
                        cfg.seed ^ (epoch << 32) ^ (p as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut loss = 0.0f64;
                    let mut samples_n = 0u64;
                    for chunk in part.chunks(cfg.batch_size.max(1)) {
                        // Build (src, target, label) samples.
                        let mut samples: Vec<(u64, u64, f64)> =
                            Vec::with_capacity(chunk.len() * (1 + cfg.negative));
                        for &(i, j) in chunk {
                            samples.push((i, j, 1.0));
                            for _ in 0..cfg.negative {
                                let mut neg = sample_noise(noise_ref, &mut rng);
                                if neg == j {
                                    neg = (neg + 1) % num_vertices;
                                }
                                samples.push((i, neg, 0.0));
                            }
                        }
                        samples_n += samples.len() as u64;
                        let pairs: Vec<(u64, u64)> =
                            samples.iter().map(|&(i, t, _)| (i, t)).collect();
                        if cfg.use_psfunc {
                            // Server-side dots, then server-side updates.
                            let dots =
                                embed_ref.dot_pairs(exec.clock(), target_matrix, &pairs).df()?;
                            let mut updates = Vec::with_capacity(samples.len());
                            for (&(i, t, label), &dot) in samples.iter().zip(&dots) {
                                let s = sigmoid(dot);
                                loss -= if label > 0.5 {
                                    s.max(1e-12).ln()
                                } else {
                                    (1.0 - s).max(1e-12).ln()
                                };
                                let coef = cfg.lr as f64 * (label - s);
                                updates.push((i, t, coef));
                            }
                            embed_ref.update_pairs(exec.clock(), target_matrix, &updates).df()?;
                        } else {
                            // Ablation baseline: move whole rows.
                            let srcs: Vec<u64> = samples.iter().map(|&(i, _, _)| i).collect();
                            let tgts: Vec<u64> = samples.iter().map(|&(_, t, _)| t).collect();
                            let urows = embed_ref.pull_rows(exec.clock(), &srcs).df()?;
                            let trows = target_matrix.pull_rows(exec.clock(), &tgts).df()?;
                            let mut emb_g = Vec::with_capacity(samples.len());
                            let mut tgt_g = Vec::with_capacity(samples.len());
                            for (k, &(_, _, label)) in samples.iter().enumerate() {
                                let dot: f64 = urows[k]
                                    .iter()
                                    .zip(&trows[k])
                                    .map(|(a, b)| *a as f64 * *b as f64)
                                    .sum();
                                let s = sigmoid(dot);
                                loss -= if label > 0.5 {
                                    s.max(1e-12).ln()
                                } else {
                                    (1.0 - s).max(1e-12).ln()
                                };
                                let coef = (cfg.lr as f64 * (label - s)) as f32;
                                emb_g.push(trows[k].iter().map(|x| coef * x).collect::<Vec<f32>>());
                                tgt_g.push(urows[k].iter().map(|x| coef * x).collect::<Vec<f32>>());
                            }
                            embed_ref.push_add_rows(exec.clock(), &srcs, &emb_g).df()?;
                            target_matrix.push_add_rows(exec.clock(), &tgts, &tgt_g).df()?;
                        }
                        exec.charge_cpu(
                            ctx.cluster().cost(),
                            samples.len() as u64 * cfg.dim as u64,
                        );
                    }
                    Ok((loss, samples_n))
                })
                .map_err(CoreError::from)?;

            let (loss_sum, n): (f64, u64) = partition_losses
                .into_iter()
                .fold((0.0, 0), |(l, n), (pl, pn)| (l + pl, n + pn));
            loss_per_epoch.push(if n == 0 { 0.0 } else { loss_sum / n as f64 });
            Ok(1) // every epoch runs
        })?;
        supersteps += epochs;

        // Final readout.
        let ids: Vec<u64> = (0..num_vertices).collect();
        let embeddings = embed.pull_rows(ctx.cluster().driver(), &ids)?;
        ctx.cluster().clock().barrier([ctx.cluster().driver()]);

        Ok(LineOutput {
            embeddings,
            loss_per_epoch,
            stats: ctx.stats_since(start, snap, supersteps),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::distribute_edges;
    use psgraph_graph::EdgeList;

    fn two_cliques() -> EdgeList {
        let mut edges = vec![];
        for s in 0..6u64 {
            for d in 0..6u64 {
                if s != d {
                    edges.push((s, d));
                }
            }
        }
        for s in 6..12u64 {
            for d in 6..12u64 {
                if s != d {
                    edges.push((s, d));
                }
            }
        }
        edges.push((0, 6));
        edges.push((6, 0));
        EdgeList::new(12, edges)
    }

    fn cosine(a: &[f32], b: &[f32]) -> f64 {
        let dot: f64 = a.iter().zip(b).map(|(x, y)| *x as f64 * *y as f64).sum();
        let na: f64 = a.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        dot / (na * nb + 1e-12)
    }

    fn run_line(cfg: LineConfig) -> LineOutput {
        let g = two_cliques();
        let ctx = PsGraphContext::local();
        let edges = distribute_edges(&ctx, &g, 4).unwrap();
        Line::new(cfg).run(&ctx, &edges, g.num_vertices()).unwrap()
    }

    #[test]
    fn loss_decreases_second_order() {
        let out = run_line(LineConfig { epochs: 6, dim: 16, ..Default::default() });
        assert_eq!(out.loss_per_epoch.len(), 6);
        let first = out.loss_per_epoch[0];
        let last = *out.loss_per_epoch.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn loss_decreases_first_order() {
        let out = run_line(LineConfig {
            epochs: 6,
            dim: 16,
            order: LineOrder::First,
            ..Default::default()
        });
        let first = out.loss_per_epoch[0];
        let last = *out.loss_per_epoch.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn clique_members_embed_closer_than_strangers() {
        let out = run_line(LineConfig {
            epochs: 12,
            dim: 16,
            order: LineOrder::First,
            lr: 0.1,
            ..Default::default()
        });
        // Average within-clique vs cross-clique cosine similarity.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut wn = 0;
        let mut cn = 0;
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    within += cosine(&out.embeddings[a], &out.embeddings[b]);
                    wn += 1;
                }
            }
            for b in 6..12 {
                cross += cosine(&out.embeddings[a], &out.embeddings[b]);
                cn += 1;
            }
        }
        let within = within / wn as f64;
        let cross = cross / cn as f64;
        assert!(
            within > cross + 0.1,
            "within {within} should exceed cross {cross}"
        );
    }

    #[test]
    fn reproducible_given_seed() {
        // Sampling is seeded per (epoch, partition), so two runs draw the
        // same positive/negative samples; only the *interleaving* of PS
        // updates across executor threads differs (Hogwild). Embeddings
        // must therefore agree to float-accumulation noise, and per-epoch
        // losses (computed from pre-update reads) should be very close.
        let a = run_line(LineConfig { epochs: 2, dim: 8, ..Default::default() });
        let b = run_line(LineConfig { epochs: 2, dim: 8, ..Default::default() });
        for (ra, rb) in a.embeddings.iter().zip(&b.embeddings) {
            for (x, y) in ra.iter().zip(rb) {
                assert!((x - y).abs() < 5e-3, "{x} vs {y}");
            }
        }
        for (la, lb) in a.loss_per_epoch.iter().zip(&b.loss_per_epoch) {
            assert!((la - lb).abs() < 1e-2, "{la} vs {lb}");
        }
    }

    #[test]
    fn psfunc_and_row_paths_both_learn() {
        let fast = run_line(LineConfig { epochs: 4, dim: 16, use_psfunc: true, ..Default::default() });
        let slow = run_line(LineConfig { epochs: 4, dim: 16, use_psfunc: false, ..Default::default() });
        assert!(fast.loss_per_epoch.last().unwrap() < &fast.loss_per_epoch[0]);
        assert!(slow.loss_per_epoch.last().unwrap() < &slow.loss_per_epoch[0]);
        // The psFunc path must be cheaper in simulated time (the §IV-D
        // optimization) — same work, less traffic.
        assert!(
            fast.stats.elapsed < slow.stats.elapsed,
            "psfunc {} vs rows {}",
            fast.stats.elapsed,
            slow.stats.elapsed
        );
        assert!(fast.stats.ps_net_bytes < slow.stats.ps_net_bytes);
    }

    #[test]
    fn invalid_config_rejected() {
        let ctx = PsGraphContext::local();
        let g = two_cliques();
        let edges = distribute_edges(&ctx, &g, 2).unwrap();
        let err = Line::new(LineConfig { dim: 0, ..Default::default() })
            .run(&ctx, &edges, 12)
            .unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
    }

    #[test]
    fn noise_table_and_sampling() {
        let cum = noise_table(&[0, 1, 16, 0]);
        assert_eq!(cum.len(), 4);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u64; 4];
        for _ in 0..2000 {
            counts[sample_noise(&cum, &mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0, "zero-degree vertex never sampled");
        assert_eq!(counts[3], 0);
        // 16^0.75 = 8 × weight of 1^0.75: vertex 2 ≈ 8× vertex 1.
        assert!(counts[2] > counts[1] * 4, "{counts:?}");
    }
}
