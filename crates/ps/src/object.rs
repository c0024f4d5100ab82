//! The one client-side core every PS handle embeds (paper §III-A: one
//! `pull` / `push` / `psFunc` contract over vectors, matrices and neighbor
//! tables, routed by one partitioner).
//!
//! A handle is a [`PsObject`] — which cluster, which name, which layout —
//! plus its own shape. What every request has in common lives here and
//! nowhere else: which server and partition owns a key
//! ([`PsObject::group`]), the liveness check that precedes any leg
//! ([`PsObject::scatter`], [`PsObject::each_partition`]), that routing
//! kept for requests that repeat — across calls or within one
//! ([`PullPlan`], [`PsObject::replay`]), the charge — one departure time
//! per request, every leg that ran charged from it, the client resuming at
//! the slowest ([`PsObject::fan_out`]) — and what the cluster needs from a
//! partition type to checkpoint and restore it ([`Partition`], decoded
//! through the bounds-checked [`Reader`]). DESIGN.md §8.8 states the
//! contract.

use psgraph_sim::bytes::Buf;
use psgraph_sim::{FxHashMap, NodeClock, SimTime};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use crate::element::Element;
use crate::error::{PsError, Result};
use crate::partition::PartitionLayout;
use crate::ps::{ObjectOps, Ps, RecoveryMode};
use crate::server::PsServer;

/// What the cluster needs from a stored partition type.
pub(crate) trait Partition: Send + Sync + Sized + 'static {
    /// The checkpoint encoding.
    fn encode(&self) -> Vec<u8>;

    /// Inverse of [`Partition::encode`]. The buffer comes off the DFS, so
    /// nothing in it is trusted: a truncated or corrupt checkpoint is a
    /// [`PsError::Dfs`], never a panic or an allocation sized by a corrupt
    /// length ([`Reader`] enforces both).
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Bytes this partition occupies on its server.
    fn approx_bytes(&self) -> u64;
}

/// The checkpoint / recovery hooks of an object whose partitions are `P`s.
struct PartOps<P> {
    name: String,
    layout: PartitionLayout,
    recovery: RecoveryMode,
    _p: PhantomData<fn() -> P>,
}

impl<P: Partition> ObjectOps for PartOps<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    fn recovery_mode(&self) -> RecoveryMode {
        self.recovery
    }

    fn encode_partition(&self, server: &PsServer, partition: usize) -> Result<Vec<u8>> {
        server.get(&self.name, partition, P::encode)
    }

    fn decode_partition(&self, server: &PsServer, partition: usize, bytes: &[u8]) -> Result<()> {
        let part = P::decode(bytes)?;
        let size = part.approx_bytes();
        server.insert(&self.name, partition, part, size)
    }
}

/// One server's share of a request: positions of its keys, by partition,
/// partitions ascending.
pub(crate) type ServerGroup = Vec<(usize, Vec<usize>)>;

/// One partition's share of a [`PullPlan`]: the partition, and its run of
/// the plan's distinct ids.
pub(crate) type PlanRun = (usize, Range<usize>);

/// The routing of one keyed read, worked out once and replayed: the
/// request's *distinct* ids grouped by (server, partition) as the one-shot
/// request over them would group them, plus where every request position —
/// repeats included — finds its value among them.
///
/// A replay contacts the same servers as the one-shot request would and
/// charges over the distinct ids only, so a duplicate-free plan costs
/// exactly what the one-shot request costs. A plan is bound to the layout
/// it was built for, not to an object: any object with that layout can
/// replay it.
#[derive(Debug, Clone)]
pub struct PullPlan {
    layout: PartitionLayout,
    /// Distinct ids, one contiguous run per (server, partition) group.
    ids: Vec<u64>,
    /// One leg per server, ascending: the server, and its partitions with
    /// the run of `ids` each owns.
    legs: Vec<(usize, Vec<PlanRun>)>,
    /// `slots[pos]` indexes the id of request position `pos` in `ids`.
    slots: Vec<u32>,
}

impl PullPlan {
    /// Length of the request the plan was built from.
    pub fn positions(&self) -> usize {
        self.slots.len()
    }

    /// Distinct ids among them — what a replay ships.
    pub fn distinct(&self) -> usize {
        self.ids.len()
    }

    /// Bytes the plan occupies on the client that holds it.
    pub fn approx_bytes(&self) -> u64 {
        (self.ids.len() * 8 + self.slots.len() * 4 + self.legs.len() * 48) as u64
    }

    /// The distinct ids in replay order.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// One value per request position from one value per distinct id.
    pub(crate) fn fan_out<T: Clone>(&self, distinct: &[T]) -> Vec<T> {
        self.slots.iter().map(|&s| distinct[s as usize].clone()).collect()
    }
}

/// What one leg of a request declares it cost: request bytes, raw server
/// CPU ops, response bytes. The serve frontend's legs declare the same
/// triple.
pub(crate) type LegCost = (u64, u64, u64);

/// The legs of one request, in flight together: every leg leaves the
/// client at the same instant, and the client resumes when the slowest is
/// back (see [`PsObject::fan_out`]).
pub(crate) struct FanOut<'a> {
    ps: &'a Ps,
    departs: SimTime,
    back: SimTime,
}

impl FanOut<'_> {
    /// Charge one leg that ran, on `server`'s port.
    pub(crate) fn leg(&mut self, server: &PsServer, (req_bytes, ops, resp_bytes): LegCost) {
        let back = self.ps.network().rpc_at(self.departs, server.port(), req_bytes, ops, resp_bytes);
        self.back = self.back.max(back);
    }
}

/// Visit every partition of `layout` in partition order, failing at the
/// first one whose server is down — before `visit` sees it. Charges
/// nothing: the charged form is [`PsObject::each_partition`].
pub(crate) fn each_partition(
    ps: &Ps,
    layout: &PartitionLayout,
    mut visit: impl FnMut(usize, &PsServer) -> Result<()>,
) -> Result<()> {
    for p in 0..layout.num_partitions {
        let server = ps.server(layout.server_of_partition(p));
        server.ensure_alive()?;
        visit(p, server)?;
    }
    Ok(())
}

/// A named, partitioned object on a PS cluster — the part of every handle
/// that is not its shape.
#[derive(Debug, Clone)]
pub(crate) struct PsObject {
    pub(crate) ps: Arc<Ps>,
    pub(crate) name: String,
    pub(crate) layout: PartitionLayout,
}

impl PsObject {
    pub(crate) fn new(ps: &Arc<Ps>, name: impl Into<String>, layout: PartitionLayout) -> Self {
        PsObject {
            ps: Arc::clone(ps),
            name: name.into(),
            layout,
        }
    }

    /// Build every partition with `build`, place it on its server, and
    /// register the object for checkpoint / recovery.
    pub(crate) fn install<P: Partition>(
        &self,
        recovery: RecoveryMode,
        mut build: impl FnMut(usize) -> P,
    ) -> Result<()> {
        for p in 0..self.layout.num_partitions {
            let part = build(p);
            let bytes = part.approx_bytes();
            self.server(p).insert(&self.name, p, part, bytes)?;
        }
        self.ps.register(Arc::new(PartOps::<P> {
            name: self.name.clone(),
            layout: self.layout.clone(),
            recovery,
            _p: PhantomData,
        }));
        Ok(())
    }

    /// The server hosting partition `p`.
    pub(crate) fn server(&self, p: usize) -> &PsServer {
        self.ps.server(self.layout.server_of_partition(p))
    }

    /// Reject the first key outside `[0, size)`.
    pub(crate) fn check_below(&self, size: u64, keys: impl IntoIterator<Item = u64>) -> Result<()> {
        match keys.into_iter().find(|&k| k >= size) {
            Some(index) => Err(PsError::IndexOutOfBounds {
                name: self.name.clone(),
                index,
                size,
            }),
            None => Ok(()),
        }
    }

    /// Reject the first key outside the layout's key space.
    pub(crate) fn check(&self, keys: impl IntoIterator<Item = u64>) -> Result<()> {
        self.check_below(self.layout.size, keys)
    }

    /// Which server and partition owns each `(position, key)`: one group
    /// per server that owns any key, servers ascending, each listing its
    /// partitions ascending. Positions keep their input order within a
    /// partition. The order of the legs is not part of any cost — they
    /// leave together ([`PsObject::fan_out`]) and each port sees at most
    /// one of them — it only decides which legs ran before a dead server.
    pub(crate) fn group(
        &self,
        keys: impl IntoIterator<Item = (usize, u64)>,
    ) -> Vec<(usize, ServerGroup)> {
        let mut by_part: Vec<Vec<usize>> = vec![Vec::new(); self.layout.num_partitions];
        for (pos, key) in keys {
            by_part[self.layout.partition_of(key)].push(pos);
        }
        (0..self.layout.num_servers)
            .map(|s| {
                let owned = self.layout.partitions_of_server(s).into_iter();
                let parts: ServerGroup = owned
                    .map(|p| (p, std::mem::take(&mut by_part[p])))
                    .filter(|(_, positions)| !positions.is_empty())
                    .collect();
                (s, parts)
            })
            .filter(|(_, parts)| !parts.is_empty())
            .collect()
    }

    /// One request from `client`, its legs in flight together: every leg
    /// `body` charges ([`FanOut::leg`]) leaves at the client's current
    /// time, and the client resumes when the slowest is back — on an
    /// error too, having paid for the legs charged before it.
    pub(crate) fn fan_out<T>(
        &self,
        client: &NodeClock,
        body: impl FnOnce(&mut FanOut<'_>) -> Result<T>,
    ) -> Result<T> {
        let departs = client.now();
        let mut fan = FanOut { ps: &self.ps, departs, back: departs };
        let out = body(&mut fan);
        client.sync_to(fan.back);
        out
    }

    /// One leg per server that owns any of `keys`, as one
    /// [`fan_out`](PsObject::fan_out) from `client`: `visit` gets the
    /// server (checked alive first), how many keys it owns, and their
    /// positions by partition, and returns what the leg cost; a leg is
    /// charged iff its visit succeeded.
    pub(crate) fn scatter(
        &self,
        client: &NodeClock,
        keys: impl IntoIterator<Item = (usize, u64)>,
        mut visit: impl FnMut(&PsServer, u64, ServerGroup) -> Result<LegCost>,
    ) -> Result<()> {
        self.fan_out(client, |fan| {
            for (s, parts) in self.group(keys) {
                let server = self.ps.server(s);
                server.ensure_alive()?;
                let n = parts.iter().map(|(_, positions)| positions.len() as u64).sum();
                fan.leg(server, visit(server, n, parts)?);
            }
            Ok(())
        })
    }

    /// Route `keys` (any order, duplicates allowed) once: see [`PullPlan`].
    /// Only the first occurrence of each id is routed — through
    /// [`PsObject::group`], so a replay has the legs the one-shot request
    /// over the distinct ids would have.
    pub(crate) fn plan(&self, keys: &[u64]) -> Result<PullPlan> {
        self.check(keys.iter().copied())?;
        if u32::try_from(keys.len()).is_err() {
            return Err(PsError::DimensionMismatch(format!(
                "{}: a plan holds fewer than 2^32 ids, not {}",
                self.name,
                keys.len()
            )));
        }
        // `slots` first numbers the distinct ids by first occurrence …
        let mut firsts: Vec<u64> = Vec::new();
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        seen.reserve(keys.len());
        let mut slots: Vec<u32> = keys
            .iter()
            .map(|&key| {
                *seen.entry(key).or_insert_with(|| {
                    firsts.push(key);
                    firsts.len() as u32 - 1
                })
            })
            .collect();
        // … and then by where the grouping put them.
        let mut ids = Vec::with_capacity(firsts.len());
        let mut moved_to = vec![0u32; firsts.len()];
        let mut legs = Vec::new();
        for (s, parts) in self.group(firsts.iter().copied().enumerate()) {
            let mut runs = Vec::with_capacity(parts.len());
            for (p, positions) in parts {
                let start = ids.len();
                for first in positions {
                    moved_to[first] = ids.len() as u32;
                    ids.push(firsts[first]);
                }
                runs.push((p, start..ids.len()));
            }
            legs.push((s, runs));
        }
        for slot in &mut slots {
            *slot = moved_to[*slot as usize];
        }
        Ok(PullPlan { layout: self.layout.clone(), ids, legs, slots })
    }

    /// [`PsObject::scatter`] over a plan: one leg per server of the plan;
    /// `visit` gets the server (checked alive first), how many distinct
    /// ids it owns, and per partition the run of [`PullPlan::ids`] to
    /// read, and returns what the leg cost.
    pub(crate) fn replay(
        &self,
        client: &NodeClock,
        plan: &PullPlan,
        mut visit: impl FnMut(&PsServer, u64, &[PlanRun]) -> Result<LegCost>,
    ) -> Result<()> {
        if plan.layout != self.layout {
            return Err(PsError::DimensionMismatch(format!(
                "{}: plan was built for another layout",
                self.name
            )));
        }
        self.fan_out(client, |fan| {
            for (s, runs) in &plan.legs {
                let server = self.ps.server(*s);
                server.ensure_alive()?;
                let n = runs.iter().map(|(_, run)| run.len() as u64).sum();
                fan.leg(server, visit(server, n, runs)?);
            }
            Ok(())
        })
    }

    /// Whole-object operations, one leg per partition in partition order
    /// as one [`fan_out`](PsObject::fan_out) from `client` (the liveness
    /// rule of [`each_partition`]); `visit` returns what its leg cost.
    pub(crate) fn each_partition(
        &self,
        client: &NodeClock,
        mut visit: impl FnMut(usize, &PsServer) -> Result<LegCost>,
    ) -> Result<()> {
        self.fan_out(client, |fan| {
            each_partition(&self.ps, &self.layout, |p, server| {
                fan.leg(server, visit(p, server)?);
                Ok(())
            })
        })
    }

    /// Server CPU ops of touching `items` items.
    pub(crate) fn item_ops(&self, items: u64) -> u64 {
        items * self.ps.config().ops_per_item
    }

    /// Mutate partition `p` on `server`; its footprint is re-measured
    /// afterwards, so the server's memory meter follows every write.
    pub(crate) fn write<P: Partition, R>(
        &self,
        server: &PsServer,
        p: usize,
        f: impl FnOnce(&mut P) -> R,
    ) -> Result<R> {
        server.update_resize(&self.name, p, |part: &mut P, _old| {
            let r = f(part);
            (r, part.approx_bytes())
        })
    }

    /// Per-partition write versions (see [`PsServer::version`]) — the
    /// change detector snapshot delta export compares against.
    pub(crate) fn partition_versions(&self) -> Result<Vec<u64>> {
        let mut versions = Vec::with_capacity(self.layout.num_partitions);
        each_partition(&self.ps, &self.layout, |p, server| {
            versions.push(server.version(&self.name, p)?);
            Ok(())
        })?;
        Ok(versions)
    }

    /// Bytes resident on the servers for this object.
    pub(crate) fn resident_bytes<P: Partition>(&self) -> Result<u64> {
        let mut total = 0;
        each_partition(&self.ps, &self.layout, |p, server| {
            total += server.get(&self.name, p, P::approx_bytes)?;
            Ok(())
        })?;
        Ok(total)
    }
}

/// Bounds-checked cursor over an untrusted checkpoint buffer: every read
/// checks the bytes left first (the `sim::bytes` getters panic on a short
/// buffer by contract), and every on-disk length is bounded by the bytes
/// that are left before anything is allocated for it.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// `what` names the format in error messages.
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    pub(crate) fn corrupt(&self, why: &str) -> PsError {
        PsError::Dfs(format!("corrupt {} checkpoint: {why}", self.what))
    }

    fn need(&self, bytes: usize) -> Result<()> {
        if self.buf.len() < bytes {
            return Err(self.corrupt("truncated"));
        }
        Ok(())
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// A `u64` field used as an in-memory size or index.
    pub(crate) fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| self.corrupt("field exceeds the address space"))
    }

    /// An on-disk count of items that take at least `width` bytes each: no
    /// more than the bytes left can hold.
    pub(crate) fn count(&mut self, width: usize) -> Result<usize> {
        let n = self.u64()?;
        if n > (self.buf.len() / width) as u64 {
            return Err(self.corrupt("count exceeds the bytes present"));
        }
        Ok(n as usize)
    }

    pub(crate) fn elem<E: Element>(&mut self) -> Result<E> {
        self.need(E::WIDTH)?;
        Ok(E::decode(&mut self.buf))
    }

    pub(crate) fn elems<E: Element>(&mut self, n: usize) -> Result<Vec<E>> {
        self.need(
            n.checked_mul(E::WIDTH)
                .ok_or_else(|| self.corrupt("length overflows"))?,
        )?;
        Ok((0..n).map(|_| E::decode(&mut self.buf)).collect())
    }

    /// The encoding ends here: anything left over is corruption.
    pub(crate) fn finish(self) -> Result<()> {
        if !self.buf.is_empty() {
            return Err(self.corrupt("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colmatrix::ColPart;
    use crate::csr::CsrPart;
    use crate::matrix::MatPart;
    use crate::neighbor::{NeighborEntry, TablePart};
    use crate::partition::Partitioner;
    use crate::ps::PsConfig;
    use crate::vector::VecPart;
    use psgraph_harness::prop::{check, Source};
    use psgraph_harness::{prop_assert, prop_assert_eq};

    fn object(servers: usize, layout: PartitionLayout) -> PsObject {
        PsObject::new(
            &Ps::new(PsConfig {
                servers,
                ..Default::default()
            }),
            "obj",
            layout,
        )
    }

    #[test]
    fn group_orders_servers_and_partitions_and_omits_idle_servers() {
        // Eight range partitions of 12 keys on four servers (p → p % 4);
        // server 1 (partitions 1 and 5) owns none of the keys.
        let obj = object(4, PartitionLayout::new(Partitioner::Range, 100, 8, 4));
        let keys = [99u64, 50, 0, 1, 75, 0, 30];
        assert_eq!(
            obj.group(keys.iter().copied().enumerate()),
            vec![
                (0, vec![(0, vec![2, 3, 5]), (4, vec![1])]),
                (2, vec![(2, vec![6]), (6, vec![4])]),
                (3, vec![(7, vec![0])]),
            ]
        );
        assert!(obj.group(std::iter::empty()).is_empty());
    }

    #[test]
    fn scatter_checks_liveness_before_the_leg_and_counts_its_keys() {
        let obj = object(4, PartitionLayout::range(100, 4));
        let client = NodeClock::new();
        let keys = [0u64, 99, 50, 1, 75, 0];
        let mut legs = Vec::new();
        obj.scatter(&client, keys.iter().copied().enumerate(), |server, n, parts| {
            assert_eq!(n, parts.iter().map(|(_, v)| v.len() as u64).sum::<u64>());
            legs.push((server.id(), n));
            Ok((0, 0, 0))
        })
        .unwrap();
        assert_eq!(legs, vec![(0, 3), (2, 1), (3, 2)]);

        obj.ps.kill_server(3);
        let mut visited = Vec::new();
        let err = obj.scatter(&client, keys.iter().copied().enumerate(), |server, _, _| {
            visited.push(server.id());
            Ok((0, 0, 0))
        });
        assert_eq!(err, Err(PsError::ServerDown { id: 3 }));
        assert!(!visited.contains(&3), "a dead server's leg never runs");
        // An idle dead server does not fail a request that skips it.
        obj.scatter(&client, [(0, 10u64)], |_, _, _| Ok((0, 0, 0))).unwrap();
        // Whole-object visits stop at the first dead server, in partition order.
        let mut reached = Vec::new();
        let err = obj.each_partition(&client, |p, _| {
            reached.push(p);
            Ok((0, 0, 0))
        });
        assert_eq!(
            (err, reached),
            (Err(PsError::ServerDown { id: 3 }), vec![0, 1, 2])
        );
    }

    /// One leg's round trip on an idle port.
    fn rtt(obj: &PsObject, (req_bytes, ops, resp_bytes): LegCost) -> SimTime {
        let cost = obj.ps.network().cost_model();
        cost.net_cost(req_bytes) + cost.cpu_cost(ops) + cost.net_cost(resp_bytes)
    }

    #[test]
    fn a_request_resumes_at_its_slowest_leg_also_when_a_server_is_down() {
        let obj = object(4, PartitionLayout::range(100, 4));
        let keys = [0u64, 99, 50, 1, 75, 0, 30];
        // Legs of different sizes: the slowest is not the last one visited.
        let cost_of = |server: &PsServer, n: u64| (n * 8, n * 90_000 / (server.id() as u64 + 1), 64);
        let client = NodeClock::new();
        client.advance(SimTime::from_secs(1));
        let mut legs = Vec::new();
        let request = |legs: &mut Vec<LegCost>| {
            legs.clear();
            let t = client.now();
            let rpcs = obj.ps.network().stats().rpcs();
            let out = obj.scatter(&client, keys.iter().copied().enumerate(), |server, n, _| {
                legs.push(cost_of(server, n));
                Ok(cost_of(server, n))
            });
            assert_eq!(obj.ps.network().stats().rpcs() - rpcs, legs.len() as u64);
            (out, t)
        };
        let (out, t0) = request(&mut legs);
        out.unwrap();
        assert_eq!(legs.len(), 4);
        let slowest = legs.iter().map(|&leg| rtt(&obj, leg)).max().unwrap();
        assert_eq!(client.now(), t0 + slowest);

        // Server 3 down: `ServerDown`, the legs visited before it charged,
        // and the client waits for the slowest of them — not their sum.
        // (Every port is idle again by `t1`: each was free once its leg
        // was served, before its response was back.)
        obj.ps.kill_server(3);
        let (out, t1) = request(&mut legs);
        assert_eq!(out, Err(PsError::ServerDown { id: 3 }));
        assert!(legs.len() >= 2, "{legs:?}");
        let rtts: Vec<SimTime> = legs.iter().map(|&leg| rtt(&obj, leg)).collect();
        assert_eq!(client.now(), t1 + *rtts.iter().max().unwrap());
        assert!(client.now() < t1 + rtts.iter().fold(SimTime::ZERO, |a, &b| a + b));
    }

    #[test]
    fn plan_routes_each_distinct_id_once_and_places_every_position() {
        let obj = object(4, PartitionLayout::range(100, 4));
        let client = NodeClock::new();
        // Server 1 owns [25, 50): no key lands there.
        let keys = [0u64, 99, 50, 1, 75, 0, 99, 0];
        let plan = obj.plan(&keys).unwrap();
        assert_eq!((plan.positions(), plan.distinct()), (8, 5));
        // Replaying with "the value of id k is k" reads the request back.
        let mut values = vec![u64::MAX; plan.distinct()];
        let mut legs = Vec::new();
        obj.replay(&client, &plan, |server, n, runs| {
            assert_eq!(n, runs.iter().map(|(_, run)| run.len() as u64).sum::<u64>());
            legs.push((server.id(), n));
            for (p, run) in runs {
                assert_eq!(obj.layout.server_of_partition(*p), server.id());
                for i in run.clone() {
                    assert_eq!(obj.layout.partition_of(plan.ids()[i]), *p);
                    values[i] = plan.ids()[i];
                }
            }
            Ok((0, 0, 0))
        })
        .unwrap();
        assert_eq!(plan.fan_out(&values), keys);
        // The legs of the one-shot request over the distinct ids, in its order.
        let mut one_shot = Vec::new();
        obj.scatter(&client, [0u64, 99, 50, 1, 75].into_iter().enumerate(), |server, n, _| {
            one_shot.push((server.id(), n));
            Ok((0, 0, 0))
        })
        .unwrap();
        assert_eq!(legs, one_shot);

        // Same liveness rule as `scatter`, and a plan fits one layout only.
        obj.ps.kill_server(3);
        let mut visited = Vec::new();
        let err = obj.replay(&client, &plan, |server, _, _| {
            visited.push(server.id());
            Ok((0, 0, 0))
        });
        assert_eq!(err, Err(PsError::ServerDown { id: 3 }));
        assert!(!visited.contains(&3), "a dead server's leg never runs");
        let other = object(4, PartitionLayout::hash(100, 4));
        assert!(matches!(
            other.replay(&client, &plan, |_, _, _| Ok((0, 0, 0))),
            Err(PsError::DimensionMismatch(_))
        ));
        assert!(matches!(obj.plan(&[3, 100]), Err(PsError::IndexOutOfBounds { index: 100, .. })));
        let empty = obj.plan(&[]).unwrap();
        assert_eq!((empty.positions(), empty.distinct(), empty.approx_bytes()), (0, 0, 0));
    }

    #[test]
    fn check_names_the_first_key_out_of_range() {
        let obj = object(2, PartitionLayout::range(10, 2));
        assert_eq!(obj.check([3, 9, 0]), Ok(()));
        let out_of_bounds = |index, size| {
            Err(PsError::IndexOutOfBounds {
                name: "obj".into(),
                index,
                size,
            })
        };
        assert_eq!(obj.check([3, 12, 10]), out_of_bounds(12, 10));
        assert_eq!(obj.check_below(4, [3, 4]), out_of_bounds(4, 4));
    }

    /// What every [`Partition::decode`] owes a damaged checkpoint.
    fn survives_damage<P: Partition>(
        part: &P,
        flips: &[(u64, u32)],
    ) -> std::result::Result<(), String> {
        let bytes = part.encode();
        // Untouched: round-trips to an equal partition.
        let back = P::decode(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(back.encode(), bytes.clone());
        prop_assert_eq!(back.approx_bytes(), part.approx_bytes());
        // Truncated anywhere: a clean error (no prefix of an encoding is
        // itself one), never a panic. Same for anything after the end.
        for cut in 0..bytes.len() {
            prop_assert!(P::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert!(P::decode(&longer).is_err(), "trailing byte accepted");
        // Bit flips: an error or some partition that can be used, never a
        // panic or an allocation sized by a corrupt length.
        let mut damaged = bytes.clone();
        for &(at, bit) in flips {
            let at = (at % damaged.len() as u64) as usize;
            damaged[at] ^= 1 << bit;
        }
        if let Ok(part) = P::decode(&damaged) {
            prop_assert_eq!(part.encode().len(), damaged.len());
        }
        Ok(())
    }

    #[test]
    fn no_partition_decoder_panics_on_a_damaged_checkpoint() {
        check(
            "no_partition_decoder_panics_on_a_damaged_checkpoint",
            |src: &mut Source| {
                let f32s = |s: &mut Source, n: usize| -> Vec<f32> {
                    (0..n).map(|_| s.f64_range(-8.0, 8.0) as f32).collect()
                };
                let vec_dense = VecPart::Dense {
                    start: src.u64_range(0, 100),
                    data: src.vec_with(0, 8, |s| s.f64_range(-8.0, 8.0)),
                };
                let vec_sparse = VecPart::Sparse {
                    map: src
                        .vec_with(0, 8, |s| (s.u64_range(0, 50), s.any_u64()))
                        .into_iter()
                        .collect(),
                };
                let (cols, rows) = (src.usize_range(1, 4), src.usize_range(0, 4));
                let mat_dense = MatPart::Dense {
                    start: src.u64_range(0, 100),
                    cols,
                    data: f32s(src, cols * rows),
                };
                let mat_sparse = MatPart::Sparse {
                    cols,
                    map: src
                        .vec_with(0, 5, |s| (s.u64_range(0, 50), f32s(s, cols)))
                        .into_iter()
                        .collect(),
                };
                let col_start = src.usize_range(0, 5);
                let col = ColPart {
                    col_start,
                    col_end: col_start + cols,
                    data: f32s(src, cols * rows),
                };
                let lists = src.vec_with(0, 6, |s| s.vec_with(0, 5, |s| s.u64_range(0, 50)));
                let table: TablePart = lists
                    .iter()
                    .enumerate()
                    .map(|(v, ns)| (v as u64 * 7, NeighborEntry::new(ns.clone())))
                    .collect();
                let mut csr = CsrPart {
                    start: src.u64_range(0, 100),
                    offsets: vec![0],
                    targets: vec![],
                };
                for ns in &lists {
                    csr.targets.extend_from_slice(ns);
                    csr.offsets.push(csr.targets.len() as u64);
                }
                let flips = src.vec_with(1, 4, |s| (s.any_u64(), s.choice(8) as u32));
                (
                    vec_dense, vec_sparse, mat_dense, mat_sparse, col, table, csr, flips,
                )
            },
            |(vec_dense, vec_sparse, mat_dense, mat_sparse, col, table, csr, flips)| {
                survives_damage::<VecPart<f64>>(vec_dense, flips)?;
                survives_damage::<VecPart<u64>>(vec_sparse, flips)?;
                survives_damage::<MatPart<f32>>(mat_dense, flips)?;
                survives_damage::<MatPart<f32>>(mat_sparse, flips)?;
                survives_damage(col, flips)?;
                survives_damage(table, flips)?;
                survives_damage(csr, flips)
            },
        );
    }

    #[test]
    fn decoders_reject_encodings_that_would_panic_on_use() {
        // A reversed / empty column range, or data that does not tile it.
        let col = ColPart {
            col_start: 2,
            col_end: 4,
            data: vec![1.0; 4],
        };
        for bad in [
            ColPart {
                col_start: 4,
                col_end: 2,
                ..col.clone()
            },
            ColPart {
                col_end: 2,
                ..col.clone()
            },
            ColPart {
                col_end: 5,
                ..col.clone()
            },
        ] {
            assert!(ColPart::decode(&bad.encode()).is_err(), "{bad:?}");
        }
        // CSR offsets that run backwards or past the targets.
        let csr = CsrPart {
            start: 0,
            offsets: vec![0, 2, 3],
            targets: vec![7, 8, 9],
        };
        for offsets in [vec![0, 3, 2, 3], vec![1, 2, 3], vec![0, 2, 4], vec![]] {
            let bad = CsrPart {
                offsets,
                ..csr.clone()
            };
            assert!(CsrPart::decode(&bad.encode()).is_err(), "{bad:?}");
        }
        // A dense matrix whose data is not whole rows.
        let mat = MatPart::Dense {
            start: 0,
            cols: 3,
            data: vec![0.0f32; 4],
        };
        assert!(MatPart::<f32>::decode(&mat.encode()).is_err());
        // A count far larger than the buffer never sizes an allocation.
        let mut huge = vec![0u8];
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(VecPart::<f64>::decode(&huge).is_err());
    }
}
