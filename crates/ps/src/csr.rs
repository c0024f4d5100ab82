//! CSR (compressed sparse row) adjacency on the PS — one of the §III-A
//! data structures ("PS supports different data structures, e.g.,
//! sparse/dense vector, sparse/dense matrix, CSR, vertex, and neighbor
//! table").
//!
//! Unlike [`crate::NeighborTableHandle`] (a mutable hash map of neighbor
//! lists), the CSR store is an immutable, range-partitioned snapshot of
//! the whole graph: each server holds a contiguous vertex range with
//! offsets + packed neighbor ids. It is the memory-densest representation
//! (8 B per edge + 8 B per vertex, no per-entry map overhead), suited to
//! algorithms that build the adjacency once and only read it. Reads are
//! routed by `PsObject` like every other handle's.

use psgraph_sim::bytes::BufMut;
use psgraph_sim::NodeClock;
use std::sync::Arc;

use crate::error::Result;
use crate::object::{each_partition, Partition, PsObject, Reader};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{Ps, RecoveryMode};

/// One server's CSR slice: vertices `[start, start + n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPart {
    pub start: u64,
    /// `offsets.len() == n + 1`; neighbors of local vertex `i` are
    /// `targets[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<u64>,
    pub targets: Vec<u64>,
}

impl CsrPart {
    fn neighbors(&self, v: u64) -> &[u64] {
        let i = (v - self.start) as usize;
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl Partition for CsrPart {
    fn approx_bytes(&self) -> u64 {
        (self.offsets.len() + self.targets.len()) as u64 * 8 + 48
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(24 + (self.offsets.len() + self.targets.len()) * 8);
        buf.put_u64_le(self.start);
        buf.put_u64_le(self.offsets.len() as u64);
        buf.put_u64_le(self.targets.len() as u64);
        for &o in &self.offsets {
            buf.put_u64_le(o);
        }
        for &t in &self.targets {
            buf.put_u64_le(t);
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, "CSR");
        let start = r.u64()?;
        let (n_off, n_tgt) = (r.usize()?, r.usize()?);
        let offsets: Vec<u64> = r.elems(n_off)?;
        let targets: Vec<u64> = r.elems(n_tgt)?;
        // `neighbors()` slices `targets` by consecutive offsets.
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&(n_tgt as u64))
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(r.corrupt("offsets do not tile the targets"));
        }
        r.finish()?;
        Ok(CsrPart { start, offsets, targets })
    }
}

/// Client handle to an immutable CSR adjacency snapshot on the PS.
#[derive(Debug, Clone)]
pub struct CsrHandle {
    obj: PsObject,
}

impl CsrHandle {
    /// Build the CSR snapshot from `(src, sorted-neighbors)` entries.
    /// Vertices absent from `tables` get empty adjacency. The upload is
    /// charged to `client` (one bulk push per server).
    pub fn build(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        num_vertices: u64,
        tables: &[(u64, Vec<u64>)],
        client: &NodeClock,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let layout = PartitionLayout::new(
            Partitioner::Range,
            num_vertices,
            ps.num_servers(),
            ps.num_servers(),
        );
        let obj = PsObject::new(ps, name, layout);
        obj.check(tables.iter().map(|(v, _)| *v))?;
        // Index input entries by vertex.
        let mut by_vertex: Vec<Option<&Vec<u64>>> = vec![None; num_vertices as usize];
        for (v, ns) in tables {
            by_vertex[*v as usize] = Some(ns);
        }
        // One upload leg per partition, all in flight together.
        obj.fan_out(client, |fan| {
            obj.install(recovery, |p| {
                let (start, end) = obj.layout.range_of(p).expect("range layout");
                let mut offsets = Vec::with_capacity((end - start) as usize + 1);
                let mut targets = Vec::new();
                offsets.push(0);
                for v in start..end {
                    if let Some(ns) = by_vertex[v as usize] {
                        targets.extend_from_slice(ns);
                    }
                    offsets.push(targets.len() as u64);
                }
                let part = CsrPart { start, offsets, targets };
                let ops = obj.item_ops(part.targets.len() as u64);
                fan.leg(obj.server(p), (part.approx_bytes(), ops, 8));
                part
            })
        })?;
        Ok(CsrHandle { obj })
    }

    pub(crate) fn layout(&self) -> &PartitionLayout {
        &self.obj.layout
    }

    /// Per-partition write versions (see [`crate::PsServer::version`]). The
    /// CSR store is immutable in normal operation, so these only move when
    /// the object is rebuilt under the same name.
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        self.obj.partition_versions()
    }

    pub fn name(&self) -> &str {
        &self.obj.name
    }

    pub fn num_vertices(&self) -> u64 {
        self.obj.layout.size
    }

    /// Pull adjacency lists for `ids` (aligned with the input). The
    /// response size is only known once the lists were read, so each leg
    /// declares it after the visit.
    pub fn pull(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<Vec<u64>>> {
        self.obj.check(ids.iter().copied())?;
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
        self.obj.scatter(client, ids.iter().copied().enumerate(), |server, n, parts| {
            let mut resp_bytes = 0u64;
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &CsrPart| {
                    for &pos in &positions {
                        let ns = part.neighbors(ids[pos]);
                        resp_bytes += ns.len() as u64 * 8 + 8;
                        out[pos] = ns.to_vec();
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n), resp_bytes))
        })?;
        Ok(out)
    }

    /// Out-degrees for `ids` (only counts cross the wire).
    pub fn degrees(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<u64>> {
        self.obj.check(ids.iter().copied())?;
        let mut out = vec![0u64; ids.len()];
        self.obj.scatter(client, ids.iter().copied().enumerate(), |server, n, parts| {
            for (p, positions) in parts {
                server.get(&self.obj.name, p, |part: &CsrPart| {
                    for &pos in &positions {
                        out[pos] = part.neighbors(ids[pos]).len() as u64;
                    }
                })?;
            }
            Ok((n * 8, self.obj.item_ops(n), n * 8))
        })?;
        Ok(out)
    }

    /// Total edges stored (diagnostics).
    pub fn num_edges(&self) -> Result<u64> {
        let mut total = 0;
        each_partition(&self.obj.ps, &self.obj.layout, |p, server| {
            total += server.get(&self.obj.name, p, |part: &CsrPart| part.targets.len() as u64)?;
            Ok(())
        })?;
        Ok(total)
    }

    /// Bytes resident on servers — compare with
    /// `NeighborTableHandle::resident_bytes` to see the CSR advantage.
    pub fn resident_bytes(&self) -> Result<u64> {
        self.obj.resident_bytes::<CsrPart>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborTableHandle;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    fn sample_tables() -> Vec<(u64, Vec<u64>)> {
        vec![(0, vec![1, 2, 3]), (2, vec![0]), (7, vec![5, 6]), (9, vec![0, 9])]
    }

    #[test]
    fn build_and_pull() {
        let ps = ps();
        let c = NodeClock::new();
        let csr =
            CsrHandle::build(&ps, "csr", 10, &sample_tables(), &c, RecoveryMode::Inconsistent)
                .unwrap();
        let got = csr.pull(&c, &[0, 1, 2, 7, 9]).unwrap();
        assert_eq!(got[0], vec![1, 2, 3]);
        assert!(got[1].is_empty());
        assert_eq!(got[2], vec![0]);
        assert_eq!(got[3], vec![5, 6]);
        assert_eq!(got[4], vec![0, 9]);
        assert_eq!(csr.num_edges().unwrap(), 8);
        assert_eq!(csr.num_vertices(), 10);
        assert!(c.now() > psgraph_sim::SimTime::ZERO);
    }

    #[test]
    fn degrees_match_lists() {
        let ps = ps();
        let c = NodeClock::new();
        let csr =
            CsrHandle::build(&ps, "csr", 10, &sample_tables(), &c, RecoveryMode::Inconsistent)
                .unwrap();
        assert_eq!(csr.degrees(&c, &[0, 1, 7]).unwrap(), vec![3, 0, 2]);
    }

    #[test]
    fn out_of_range_rejected() {
        let ps = ps();
        let c = NodeClock::new();
        let csr =
            CsrHandle::build(&ps, "csr", 10, &sample_tables(), &c, RecoveryMode::Inconsistent)
                .unwrap();
        assert!(csr.pull(&c, &[10]).is_err());
        assert!(CsrHandle::build(&ps, "bad", 5, &[(9, vec![])], &c, RecoveryMode::Inconsistent)
            .is_err());
    }

    #[test]
    fn denser_than_neighbor_table() {
        let ps = ps();
        let c = NodeClock::new();
        // Same adjacency in both representations.
        let tables: Vec<(u64, Vec<u64>)> =
            (0..200u64).map(|v| (v, ((v + 1) % 200..(v + 6) % 200).collect())).collect();
        let tables: Vec<(u64, Vec<u64>)> = tables
            .into_iter()
            .map(|(v, _)| (v, (0..5).map(|i| (v + i + 1) % 200).collect()))
            .collect();
        let csr = CsrHandle::build(&ps, "csr", 200, &tables, &c, RecoveryMode::Inconsistent)
            .unwrap();
        let nt = NeighborTableHandle::create(
            &ps, "nt", 200, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        nt.push(&c, &tables).unwrap();
        let csr_bytes = csr.resident_bytes().unwrap();
        let nt_bytes = nt.resident_bytes().unwrap();
        assert!(
            csr_bytes < nt_bytes,
            "CSR ({csr_bytes}) should be denser than the hash table ({nt_bytes})"
        );
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let csr =
            CsrHandle::build(&ps, "csr", 10, &sample_tables(), &c, RecoveryMode::Inconsistent)
                .unwrap();
        ps.checkpoint(&dfs, "csr").unwrap();
        for s in 0..ps.num_servers() {
            ps.kill_server(s);
            ps.restart_server(s, c.now());
            ps.recover_server(s, &dfs, &c).unwrap();
        }
        assert_eq!(csr.pull(&c, &[0]).unwrap()[0], vec![1, 2, 3]);
        assert_eq!(csr.num_edges().unwrap(), 8);
    }

    #[test]
    fn csrpart_encode_decode() {
        let p = CsrPart { start: 5, offsets: vec![0, 2, 2, 3], targets: vec![9, 8, 7] };
        assert_eq!(CsrPart::decode(&p.encode()).unwrap(), p);
        assert!(CsrPart::decode(&[1, 2]).is_err());
    }
}

#[cfg(test)]
mod degree_cost_tests {
    use super::*;
    use crate::ps::{Ps, PsConfig};

    #[test]
    fn degrees_cheaper_than_pull_for_fat_lists() {
        let ps = Ps::new(PsConfig { servers: 2, ..Default::default() });
        let c0 = NodeClock::new();
        let fat: Vec<(u64, Vec<u64>)> = (0..50u64).map(|v| (v, (0..400).collect())).collect();
        let csr = CsrHandle::build(&ps, "fat", 50, &fat, &c0, RecoveryMode::Inconsistent)
            .unwrap();
        let ids: Vec<u64> = (0..50).collect();
        let c1 = NodeClock::new();
        csr.degrees(&c1, &ids).unwrap();
        let c2 = NodeClock::new();
        csr.pull(&c2, &ids).unwrap();
        assert!(
            c1.now() < c2.now(),
            "degrees ({}) should beat full pulls ({})",
            c1.now(),
            c2.now()
        );
    }

    #[test]
    fn degrees_rejects_out_of_range() {
        let ps = Ps::new(PsConfig { servers: 2, ..Default::default() });
        let c = NodeClock::new();
        let csr = CsrHandle::build(&ps, "x", 5, &[(0, vec![1])], &c, RecoveryMode::Inconsistent)
            .unwrap();
        assert!(csr.degrees(&c, &[5]).is_err());
    }
}
