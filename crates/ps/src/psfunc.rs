//! The generic psFunc mechanism (paper §III-A: "users can customize their
//! operators via a user-defined function, called psFunc").
//!
//! A psFunc runs *on the server that owns a partition*: the client ships
//! only the function's (small) arguments and receives only its (small)
//! result, while the data never leaves the server. The built-in operators
//! (`accumulate_and_reset`, `dot_pairs`, `update_pairs`, `adam_step`, …)
//! are specializations of this pattern; this module exposes it directly
//! for user-defined computations over PS vectors.
//!
//! Cost model: one RPC per partition, all in flight together, with
//! caller-declared request/response byte volumes and per-item server CPU
//! — mirroring what a real UDF deployment must declare to its scheduler.

use psgraph_sim::NodeClock;

use crate::element::Element;
use crate::error::Result;
use crate::vector::{VecPart, VectorHandle};

/// A mutable server-side view of one vector partition.
pub enum PartitionViewMut<'a, E> {
    /// Contiguous slice starting at global index `start`.
    Dense { start: u64, data: &'a mut [E] },
    /// Sparse entries (absent keys read as default).
    Sparse(&'a mut psgraph_sim::FxHashMap<u64, E>),
}

impl<E: Element> VectorHandle<E> {
    /// Run a user-defined function on every partition of this vector,
    /// server-side, merging the per-partition results with `merge`.
    ///
    /// * `req_bytes`/`resp_bytes` — per-server wire volumes to charge
    ///   (the UDF's closure arguments and returned summary).
    /// * `f` — the UDF; it sees a mutable partition view and returns a
    ///   partition-local result. CPU is charged per touched element.
    ///
    /// The UDF is applied to the partitions concurrently on the PS's
    /// thread pool (each application holds its server's state lock, as a
    /// real server-side UDF would). The per-partition legs are then
    /// charged as one fan-out from `client` (they leave together; the
    /// client resumes at the slowest) and `merge` folds the results, both
    /// in canonical partition order — the deterministic reduction rule,
    /// so the result and the simulated-time accounting are identical for
    /// every pool size. On error, partitions owned by live servers may
    /// still have been mutated (as with a real fan-out whose legs fail
    /// independently).
    pub fn ps_func<R: Default + Send>(
        &self,
        client: &NodeClock,
        req_bytes: u64,
        resp_bytes: u64,
        f: impl Fn(PartitionViewMut<'_, E>) -> R + Send + Sync,
        merge: impl Fn(R, R) -> R,
    ) -> Result<R> {
        let (obj, f) = (&self.obj, &f);
        let computed: Vec<Result<(R, u64)>> = obj.ps.pool().map(
            (0..obj.layout.num_partitions).collect(),
            |p| {
                obj.write(obj.server(p), p, |part: &mut VecPart<E>| {
                    let n = part.len() as u64;
                    let view = match part {
                        VecPart::Dense { start, data } => {
                            PartitionViewMut::Dense { start: *start, data }
                        }
                        VecPart::Sparse { map } => PartitionViewMut::Sparse(map),
                    };
                    (f(view), n)
                })
            },
        );
        obj.fan_out(client, |fan| {
            let mut acc = R::default();
            for (p, res) in computed.into_iter().enumerate() {
                let (r, items) = res?;
                fan.leg(obj.server(p), (req_bytes, obj.item_ops(items), resp_bytes));
                acc = merge(acc, r);
            }
            Ok(acc)
        })
    }
}

impl<E: Element> VectorHandle<E> {
    /// Built-in scalar operator from the §III-A operator family
    /// ("addition, division, …"): multiply every stored entry by
    /// `factor`, entirely server-side. Division is `scale(1/x)`.
    pub fn scale(&self, client: &NodeClock, factor: f64) -> Result<()>
    where
        E: ScaleInPlace,
    {
        self.ps_func(
            client,
            16,
            8,
            |view| match view {
                PartitionViewMut::Dense { data, .. } => {
                    for x in data.iter_mut() {
                        x.scale_in_place(factor);
                    }
                }
                PartitionViewMut::Sparse(map) => {
                    for x in map.values_mut() {
                        x.scale_in_place(factor);
                    }
                }
            },
            |_, _| (),
        )
    }
}

/// Elements that support in-place scalar multiplication.
pub trait ScaleInPlace {
    fn scale_in_place(&mut self, factor: f64);
}

impl ScaleInPlace for f64 {
    fn scale_in_place(&mut self, factor: f64) {
        *self *= factor;
    }
}

impl ScaleInPlace for f32 {
    fn scale_in_place(&mut self, factor: f64) {
        *self = (*self as f64 * factor) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::ps::{Ps, PsConfig, RecoveryMode};
    use std::sync::Arc;

    fn setup(partitioner: Partitioner) -> (Arc<Ps>, VectorHandle<f64>, NodeClock) {
        let ps = Ps::new(PsConfig { servers: 3, ..Default::default() });
        let v = VectorHandle::<f64>::create(&ps, "udf", 90, partitioner, RecoveryMode::Inconsistent)
            .unwrap();
        (ps, v, NodeClock::new())
    }

    #[test]
    fn custom_scale_operator_dense() {
        let (_ps, v, c) = setup(Partitioner::Range);
        let idx: Vec<u64> = (0..90).collect();
        let vals: Vec<f64> = (0..90).map(|i| i as f64).collect();
        v.push_set(&c, &idx, &vals).unwrap();
        // UDF: x *= 2 server-side; returns per-partition max.
        let max = v
            .ps_func(
                &c,
                16,
                8,
                |view| match view {
                    PartitionViewMut::Dense { data, .. } => {
                        let mut m = f64::MIN;
                        for x in data.iter_mut() {
                            *x *= 2.0;
                            m = m.max(*x);
                        }
                        m
                    }
                    PartitionViewMut::Sparse(_) => unreachable!("range layout"),
                },
                f64::max,
            )
            .unwrap();
        assert_eq!(max, 178.0);
        assert_eq!(v.pull(&c, &[0, 89]).unwrap(), vec![0.0, 178.0]);
    }

    #[test]
    fn custom_operator_sparse_layout() {
        let (_ps, v, c) = setup(Partitioner::Hash);
        v.push_set(&c, &[3, 50, 77], &[1.0, 2.0, 3.0]).unwrap();
        // UDF: count stored entries and zero the odd-keyed ones.
        let count = v
            .ps_func(
                &c,
                8,
                8,
                |view| match view {
                    PartitionViewMut::Sparse(map) => {
                        let n = map.len() as u64;
                        for (k, x) in map.iter_mut() {
                            if k % 2 == 1 {
                                *x = 0.0;
                            }
                        }
                        n
                    }
                    PartitionViewMut::Dense { .. } => unreachable!("hash layout"),
                },
                |a, b| a + b,
            )
            .unwrap();
        assert_eq!(count, 3);
        assert_eq!(v.pull(&c, &[3, 50, 77]).unwrap(), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn scale_operator_both_layouts() {
        let (_ps, v, c) = setup(Partitioner::Range);
        v.push_set(&c, &[0, 89], &[4.0, 8.0]).unwrap();
        v.scale(&c, 0.5).unwrap();
        assert_eq!(v.pull(&c, &[0, 89]).unwrap(), vec![2.0, 4.0]);
        let (_ps2, vs, c2) = setup(Partitioner::Hash);
        vs.push_set(&c2, &[7], &[10.0]).unwrap();
        vs.scale(&c2, 0.1).unwrap();
        assert!((vs.pull(&c2, &[7]).unwrap()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn psfunc_charges_client_time() {
        let (_ps, v, c) = setup(Partitioner::Range);
        let before = c.now();
        v.ps_func(&c, 64, 64, |_| (), |_, _| ()).unwrap();
        assert!(c.now() > before);
    }

    #[test]
    fn psfunc_fails_on_dead_server() {
        let (ps, v, c) = setup(Partitioner::Range);
        ps.kill_server(0);
        assert!(v.ps_func(&c, 8, 8, |_| (), |_, _| ()).is_err());
    }
}
