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
//! the slowest ([`PsObject::fan_out`]), or one request the servers finish
//! among themselves ([`PsObject::exchange`]) — and what the cluster needs from a
//! partition type to checkpoint and restore it ([`Partition`], decoded
//! through the bounds-checked [`Reader`](psgraph_sim::Reader)). DESIGN.md
//! §8.8 states the contract.

use psgraph_net::{ServicePort, Step};
use psgraph_sim::{FxHashMap, NodeClock};
use std::ops::Range;
use std::sync::Arc;

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
    /// length ([`Reader`](psgraph_sim::Reader) enforces both).
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Bytes this partition occupies on its server.
    fn approx_bytes(&self) -> u64;

    /// What an object's layout fixes about the partition in a slot — its
    /// column range, its dense extent — as opposed to what it holds.
    type Shape: PartialEq + Send + Sync + 'static;

    /// This partition's [`Partition::Shape`].
    fn shape(&self) -> Self::Shape;

    /// Whether every key the partition holds by key (a dense partition's
    /// keys are its shape's) belongs to slot `partition` of `layout`, and
    /// every id it stores lies in the layout's key space.
    fn keys_fit(&self, layout: &PartitionLayout, partition: usize) -> bool;
}

/// The checkpoint / recovery hooks of an object whose partitions are `P`s.
struct PartOps<P: Partition> {
    name: String,
    layout: PartitionLayout,
    recovery: RecoveryMode,
    /// Each slot's shape, as the object was created.
    shapes: Vec<P::Shape>,
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

    /// A checkpoint that decodes cleanly is installed only if it fits its
    /// slot: the same shape as the slot was created with, and keys of the
    /// slot. Anything else would be read past its ends by the next request.
    fn decode_partition(&self, server: &PsServer, partition: usize, bytes: &[u8]) -> Result<()> {
        let part = P::decode(bytes)?;
        let fits = self.shapes.get(partition).is_some_and(|shape| part.shape() == *shape)
            && part.keys_fit(&self.layout, partition);
        if !fits {
            return Err(PsError::Dfs(format!(
                "checkpoint of {}[{partition}] does not fit the object's layout",
                self.name
            )));
        }
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

/// What a planned vector read's servers send back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullResponse {
    /// Every value read.
    Dense,
    /// The nonzero values plus a presence bitmap — the §IV-A sparsity
    /// optimization ("the ranks of many vertices barely change …
    /// transferring the increments of ranks"). Same result; only the
    /// charged response bytes differ.
    Sparse,
}

/// The routing of one keyed read, worked out once and replayed: the
/// request's *distinct* ids grouped by (server, partition) as the one-shot
/// request over them would group them, plus where every request position —
/// repeats included — finds its value among them, and the response the
/// reader chose.
///
/// A replay contacts the same servers as the one-shot request would and
/// charges over the distinct ids only, so a duplicate-free plan costs
/// exactly what the one-shot request costs. A plan is bound to the layout
/// it was built for, not to an object: any object with that layout can
/// replay it.
#[derive(Debug, Clone)]
pub struct PullPlan {
    layout: PartitionLayout,
    pub(crate) response: PullResponse,
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
#[derive(Default)]
pub(crate) struct FanOut {
    legs: Vec<(ServicePort, LegCost)>,
}

impl FanOut {
    /// One leg that ran, on `server`'s port.
    pub(crate) fn leg(&mut self, server: &PsServer, cost: LegCost) {
        self.legs.push((server.port().clone(), cost));
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
        let mut shapes = Vec::with_capacity(self.layout.num_partitions);
        for p in 0..self.layout.num_partitions {
            let part = build(p);
            let bytes = part.approx_bytes();
            shapes.push(part.shape());
            self.server(p).insert(&self.name, p, part, bytes)?;
        }
        self.ps.register(Arc::new(PartOps::<P> {
            name: self.name.clone(),
            layout: self.layout.clone(),
            recovery,
            shapes,
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
    /// `body` declares ([`FanOut::leg`]) leaves at the client's current
    /// time, and the client resumes when the slowest is back — on an
    /// error too, having paid for the legs declared before it. The legs
    /// are charged through [`NodeClock::request`]: at once, or when the
    /// client's stage ends if it is inside one.
    pub(crate) fn fan_out<T>(
        &self,
        client: &NodeClock,
        body: impl FnOnce(&mut FanOut) -> Result<T>,
    ) -> Result<T> {
        let departs = client.now();
        let mut fan = FanOut::default();
        let out = body(&mut fan);
        let (net, legs) = (self.ps.network().clone(), fan.legs);
        client.request(departs, move |at| {
            legs.iter().fold(at, |back, (port, (req_bytes, ops, resp_bytes))| {
                back.max(net.rpc_at(at, port, *req_bytes, *ops, *resp_bytes))
            })
        });
        out
    }

    /// One request from `client` to every server of the layout that the
    /// servers finish among themselves
    /// ([`Network::exchange_at`](psgraph_net::Network::exchange_at)):
    /// `req[s]` / `resp[s]` bytes to and from server `s`, and what each
    /// server did in each round. It leaves at the client's current time
    /// and is charged through [`NodeClock::request`], as a fan-out is.
    pub(crate) fn exchange(
        &self,
        client: &NodeClock,
        req: Vec<u64>,
        rounds: Vec<Vec<Step>>,
        resp: Vec<u64>,
    ) {
        let ports: Vec<ServicePort> =
            (0..self.layout.num_servers).map(|s| self.ps.server(s).port().clone()).collect();
        let net = self.ps.network().clone();
        client.request(client.now(), move |at| {
            net.exchange_at(at, &ports, &req, &rounds, &resp)
        });
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
        visit: impl FnMut(&PsServer, u64, ServerGroup) -> Result<LegCost>,
    ) -> Result<()> {
        self.scatter_groups(client, self.group(keys), visit)
    }

    /// [`PsObject::scatter`] over groups already formed, in the shape
    /// [`PsObject::group`] returns them — for a handle that keeps one
    /// position in several partitions (a column-split matrix's row).
    pub(crate) fn scatter_groups(
        &self,
        client: &NodeClock,
        groups: Vec<(usize, ServerGroup)>,
        mut visit: impl FnMut(&PsServer, u64, ServerGroup) -> Result<LegCost>,
    ) -> Result<()> {
        self.fan_out(client, |fan| {
            for (s, parts) in groups {
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
        Ok(PullPlan { layout: self.layout.clone(), response: PullResponse::Dense, ids, legs, slots })
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
        self.write_if(server, p, |part| (f(part), true))
    }

    /// [`PsObject::write`] where `f` also returns whether it changed the
    /// partition: only a change bumps its version.
    pub(crate) fn write_if<P: Partition, R>(
        &self,
        server: &PsServer,
        p: usize,
        f: impl FnOnce(&mut P) -> (R, bool),
    ) -> Result<R> {
        server.update_resize(&self.name, p, |part: &mut P, _old| {
            let (r, wrote) = f(part);
            (r, part.approx_bytes(), wrote)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{MatPart, RowSet};
    use crate::neighbor::{NeighborEntry, TablePart};
    use crate::partition::Partitioner;
    use crate::ps::PsConfig;
    use crate::vector::VecPart;
    use psgraph_harness::prop::{self, check, Source};
    use psgraph_harness::prop_assert_eq;
    use psgraph_sim::{stage, SimTime};

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
    fn a_request_recorded_in_a_stage_costs_what_it_costs_at_once() {
        check(
            "a_request_recorded_in_a_stage_costs_what_it_costs_at_once",
            |src: &mut Source| {
                let servers = src.usize_range(1, 5);
                // More partitions than servers: legs of one request share ports.
                let parts = src.usize_range(servers, 3 * servers + 1);
                let leg = |s: &mut Source| {
                    (s.u64_range(0, 4_000), s.u64_range(0, 200_000), s.u64_range(0, 4_000))
                };
                let legs: Vec<LegCost> = (0..parts).map(|_| leg(src)).collect();
                // A dead server stops the request at its first partition, after k legs.
                let dead = if src.bool() { Some(src.usize_range(0, servers)) } else { None };
                // The client's departure, and work already queued at server 0.
                let (start, queued) = (src.u64_range(0, 200_000), src.u64_range(0, 400_000));
                (servers, parts, legs, dead, start, queued)
            },
            |(servers, parts, legs, dead, start, queued)| {
                let run = |staged: bool| {
                    let layout = PartitionLayout::new(Partitioner::Range, 1_000, *parts, *servers);
                    let obj = object(*servers, layout);
                    let net = obj.ps.network();
                    net.rpc_at(SimTime::ZERO, obj.ps.server(0).port(), 0, *queued, 0);
                    if let Some(d) = dead {
                        obj.ps.kill_server(*d);
                    }
                    let client = NodeClock::new();
                    client.advance(SimTime(*start));
                    let request = || obj.each_partition(&client, |p, _| Ok(legs[p]));
                    let out = if staged { stage(&[&client], request) } else { request() };
                    let ports: Vec<SimTime> =
                        (0..*servers).map(|s| obj.ps.server(s).port().clock().now()).collect();
                    let stats = net.stats();
                    let traffic = (stats.rpcs(), stats.bytes_sent(), stats.bytes_received());
                    (out, client.now(), ports, traffic)
                };
                prop_assert_eq!(run(true), run(false));
                Ok(())
            },
        );
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
        // Damaged: an error or some partition that can be used, never a
        // panic or an allocation sized by a corrupt length.
        prop::survives_damage(&bytes, flips, P::decode, |part, damaged| {
            prop_assert_eq!(part.encode().len(), damaged.len());
            Ok(())
        })
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
                // The one matrix partition under its three forms: dense rows
                // and sparse rows of every column (the row split), and a
                // column slice of every row (the column split).
                let (cols, rows) = (src.usize_range(1, 4), src.usize_range(0, 4));
                let mat_dense = MatPart {
                    cols: 0..cols,
                    rows: RowSet::Dense { start: src.u64_range(0, 100), data: f32s(src, cols * rows) },
                };
                let mat_sparse = MatPart {
                    cols: 0..cols,
                    rows: RowSet::Sparse(
                        src.vec_with(0, 5, |s| (s.u64_range(0, 50), f32s(s, cols)))
                            .into_iter()
                            .collect(),
                    ),
                };
                let col_start = src.usize_range(0, 5);
                let col = MatPart {
                    cols: col_start..col_start + cols,
                    rows: RowSet::Dense { start: 0, data: f32s(src, cols * rows) },
                };
                let lists = src.vec_with(0, 6, |s| s.vec_with(0, 5, |s| s.u64_range(0, 50)));
                let table: TablePart = lists
                    .iter()
                    .enumerate()
                    .map(|(v, ns)| (v as u64 * 7, NeighborEntry::new(ns.clone())))
                    .collect();
                let flips = src.vec_with(1, 4, |s| (s.any_u64(), s.choice(8) as u32));
                (vec_dense, vec_sparse, mat_dense, mat_sparse, col, table, flips)
            },
            |(vec_dense, vec_sparse, mat_dense, mat_sparse, col, table, flips)| {
                survives_damage::<VecPart<f64>>(vec_dense, flips)?;
                survives_damage::<VecPart<u64>>(vec_sparse, flips)?;
                survives_damage::<MatPart<f32>>(mat_dense, flips)?;
                survives_damage::<MatPart<f32>>(mat_sparse, flips)?;
                survives_damage::<MatPart<f32>>(col, flips)?;
                survives_damage(table, flips)
            },
        );
    }

    /// Overwrite slot 0's checkpoint of `name` with `bad`, lose server 0
    /// and recover it: the recovery must fail on the slot and install
    /// nothing there; with the real checkpoint back, it must recover to
    /// `read()`'s value before the loss.
    fn refuses_to_recover<T: PartialEq + std::fmt::Debug>(
        ps: &Arc<Ps>,
        name: &str,
        bad: &[u8],
        read: impl Fn() -> Result<T>,
    ) {
        let (dfs, c) = (psgraph_dfs::Dfs::in_memory(), NodeClock::new());
        // Server 0 holds slot 0 of every object, and recovers them all.
        ps.checkpoint_all(&dfs).unwrap();
        let path = format!("/ckpt/{name}/part-00000");
        let good = dfs.read(&path, &c).unwrap();
        dfs.write(&path, bad, &c).unwrap();
        let before = read().unwrap();
        ps.kill_server(0);
        ps.restart_server(0, c.now());
        let err = ps.recover_server(0, &dfs, &c).unwrap_err();
        assert!(matches!(&err, PsError::Dfs(m) if m.contains(&format!("{name}[0]"))), "{err}");
        assert!(read().is_err(), "{name}: nothing was installed in slot 0");
        assert!(ps.is_registered(name));
        dfs.write(&path, &good, &c).unwrap();
        ps.recover_server(0, &dfs, &c).unwrap();
        assert_eq!(read().unwrap(), before);
    }

    #[test]
    fn recovery_refuses_a_checkpoint_that_does_not_fit_its_slot() {
        use crate::{MatrixHandle, NeighborTableHandle, VectorHandle};
        let ps = Ps::new(PsConfig { servers: 2, ..Default::default() });
        let c = NodeClock::new();
        let inconsistent = RecoveryMode::Inconsistent;
        let dense = |cols: Range<usize>, start, n| MatPart::<f32> {
            cols,
            rows: RowSet::Dense { start, data: vec![0.5; n] },
        };

        // A 3 × 4 matrix split by columns: slot 0 holds columns 0..2. A
        // slice of columns 0..9 decodes cleanly, and a row read would
        // slice past the end of the output row.
        let u = MatrixHandle::<f32>::create(&ps, "u", 3, 4, inconsistent).unwrap();
        u.push_set_rows(&c, &[1], &[vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        refuses_to_recover(&ps, "u", &dense(0..9, 0, 27).encode(), || u.pull_rows(&c, &[1]));
        // The right columns, but a row short.
        refuses_to_recover(&ps, "u", &dense(0..2, 0, 4).encode(), || u.pull_rows(&c, &[1]));

        // Rows split by range: slot 0 holds rows 0..5, so its dense rows
        // start at 0.
        let row_split = |name, partitioner| {
            MatrixHandle::<f32>::create_row_split(&ps, name, 10, 2, partitioner, inconsistent)
        };
        let w = row_split("w", Partitioner::Range).unwrap();
        w.push_set_rows(&c, &[3], &[vec![3.0, 3.5]]).unwrap();
        refuses_to_recover(&ps, "w", &dense(0..2, 5, 10).encode(), || w.pull_rows(&c, &[3]));

        // Rows split by hash, stored by key: a row of the other slot.
        let h = row_split("h", Partitioner::Hash).unwrap();
        let other = (0..10).find(|&k| h.layout().partition_of(k) == 1).unwrap();
        let mine = (0..10).find(|&k| h.layout().partition_of(k) == 0).unwrap();
        h.push_set_rows(&c, &[mine], &[vec![1.0, 2.0]]).unwrap();
        let stray = MatPart::<f32> {
            cols: 0..2,
            rows: RowSet::Sparse([(other, vec![9.0, 9.0])].into_iter().collect()),
        };
        refuses_to_recover(&ps, "h", &stray.encode(), || h.pull_rows(&c, &[mine]));

        // A sparse vector: a key of the other slot, and one past the end.
        let v = VectorHandle::<f64>::create(&ps, "v", 10, Partitioner::Hash, inconsistent).unwrap();
        v.push_set(&c, &[mine], &[4.0]).unwrap();
        for key in [other, 10] {
            let bad = VecPart::<f64>::Sparse { map: [(key, 1.0)].into_iter().collect() };
            refuses_to_recover(&ps, "v", &bad.encode(), || v.pull_all(&c));
        }
        // A dense vector slice that starts elsewhere.
        let r =
            VectorHandle::<f64>::create(&ps, "r", 10, Partitioner::Range, inconsistent).unwrap();
        let bad = VecPart::<f64>::Dense { start: 1, data: vec![0.0; 5] };
        refuses_to_recover(&ps, "r", &bad.encode(), || r.pull_all(&c));

        // A neighbor table: a vertex of the other slot, and a neighbour
        // that is no vertex.
        let t = NeighborTableHandle::create(&ps, "t", 10, Partitioner::Hash, inconsistent).unwrap();
        t.push(&c, &[(mine, vec![other])]).unwrap();
        for entry in [(other, vec![mine]), (mine, vec![10])] {
            let bad: TablePart = [(entry.0, NeighborEntry::new(entry.1))].into_iter().collect();
            refuses_to_recover(&ps, "t", &bad.encode(), || t.pull(&c, &[mine]));
        }
    }

    #[test]
    fn decoders_reject_encodings_that_would_panic_on_use() {
        let dense = |cols, start, data: Vec<f32>| MatPart { cols, rows: RowSet::Dense { start, data } };
        let sparse = |cols, rows: Vec<(u64, Vec<f32>)>| MatPart {
            cols,
            rows: RowSet::Sparse(rows.into_iter().collect()),
        };
        for bad in [
            // A column slice with a reversed or empty column range, or data
            // that does not tile it.
            dense(Range { start: 4, end: 2 }, 0, vec![1.0; 4]),
            dense(Range { start: 2, end: 2 }, 0, vec![1.0; 4]),
            dense(2..5, 0, vec![1.0; 4]),
            // Dense rows of every column that are not whole rows, and the
            // same ranges under them.
            dense(0..3, 0, vec![0.0; 4]),
            dense(Range { start: 0, end: 0 }, 7, vec![]),
            dense(Range { start: 3, end: 0 }, 7, vec![0.0; 3]),
            // Sparse rows with a reversed or empty range, or one row of
            // the wrong width, wider or narrower.
            sparse(Range { start: 3, end: 0 }, vec![(1, vec![0.0; 3])]),
            sparse(Range { start: 0, end: 0 }, vec![]),
            sparse(0..3, vec![(1, vec![0.0; 3]), (4, vec![0.0; 4])]),
            sparse(0..3, vec![(1, vec![0.0; 2])]),
        ] {
            assert!(MatPart::<f32>::decode(&bad.encode()).is_err(), "{bad:?}");
        }
        // A count far larger than the buffer never sizes an allocation.
        let mut huge = vec![0u8];
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(VecPart::<f64>::decode(&huge).is_err());
    }
}
