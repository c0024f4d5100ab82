//! Graph I/O against the mini-HDFS: the "original dataset is stored on
//! HDFS, each data item is a pair (src, dst), vertex indices encoded as
//! long int" format from paper §IV.
//!
//! Two formats exist because the two systems in the paper consume
//! different ones: a compact binary format (what PSGraph/Spark reads) and
//! a text format of `src<TAB>dst` lines (what raw logs look like; Euler's
//! preprocessing pipeline parses and rewrites it).

use psgraph_dfs::{Dfs, DfsError};
use psgraph_sim::bytes::BufMut;
use psgraph_sim::{Corrupt, NodeClock, Reader};

use crate::edgelist::EdgeList;

/// Write the binary edge-list format: header (n, m) then little-endian
/// (src, dst) pairs.
pub fn write_binary(
    dfs: &Dfs,
    path: &str,
    g: &EdgeList,
    clock: &NodeClock,
) -> Result<(), DfsError> {
    let mut buf = Vec::with_capacity(16 + g.num_edges() * 16);
    buf.put_u64_le(g.num_vertices());
    buf.put_u64_le(g.num_edges() as u64);
    for &(s, d) in g.edges() {
        buf.put_u64_le(s);
        buf.put_u64_le(d);
    }
    dfs.write(path, &buf, clock)
}

/// A file whose blocks passed their checksums but that does not parse.
fn corrupt(path: &str) -> DfsError {
    DfsError::Corrupt { path: path.to_string(), block: 0 }
}

/// Read the binary edge-list format.
pub fn read_binary(dfs: &Dfs, path: &str, clock: &NodeClock) -> Result<EdgeList, DfsError> {
    let bytes = dfs.read(path, clock)?;
    Reader::decode(&bytes, "edge list", |r| {
        let n = r.get()?;
        let m = r.count::<u64>(16)?;
        let edges: Vec<(u64, u64)> = r.vec(m)?;
        // Every endpoint names a vertex: one test of the largest, after the run.
        let top = edges.iter().fold(0, |top, &(s, d)| top.max(s).max(d));
        if !edges.is_empty() && top >= n {
            return Err(r.corrupt("edge endpoint out of range"));
        }
        Ok(EdgeList::new(n, edges))
    })
    .map_err(|_| corrupt(path))
}

/// Write the raw text format (`src\tdst\n` per line) — the log-like input
/// Euler must preprocess.
pub fn write_text(
    dfs: &Dfs,
    path: &str,
    g: &EdgeList,
    clock: &NodeClock,
) -> Result<(), DfsError> {
    let mut s = String::with_capacity(g.num_edges() * 12);
    for &(src, dst) in g.edges() {
        s.push_str(&src.to_string());
        s.push('\t');
        s.push_str(&dst.to_string());
        s.push('\n');
    }
    dfs.write(path, s.as_bytes(), clock)
}

/// Parse the raw text format.
pub fn read_text(dfs: &Dfs, path: &str, clock: &NodeClock) -> Result<EdgeList, DfsError> {
    let bytes = dfs.read(path, clock)?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| corrupt(path))?;
    let mut edges = Vec::new();
    for line in text.lines() {
        let mut it = line.split('\t');
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(corrupt(path));
        };
        let (Ok(s), Ok(d)) = (a.parse(), b.parse()) else {
            return Err(corrupt(path));
        };
        edges.push((s, d));
    }
    Ok(EdgeList::from_pairs(edges))
}

/// Write per-vertex features + labels (the DS3 classification inputs):
/// header (n, dim), then `n × dim` f32 features, then `n` u32 labels.
pub fn write_features(
    dfs: &Dfs,
    path: &str,
    features: &[Vec<f32>],
    labels: &[usize],
    clock: &NodeClock,
) -> Result<(), DfsError> {
    assert_eq!(features.len(), labels.len());
    let dim = features.first().map_or(0, Vec::len);
    let mut buf = Vec::with_capacity(16 + features.len() * (dim * 4 + 4));
    buf.put_u64_le(features.len() as u64);
    buf.put_u64_le(dim as u64);
    for f in features {
        assert_eq!(f.len(), dim, "ragged feature rows");
        for &x in f {
            buf.put_f32_le(x);
        }
    }
    for &l in labels {
        buf.put_u32_le(l as u32);
    }
    dfs.write(path, &buf, clock)
}

/// Read features + labels.
#[allow(clippy::type_complexity)]
pub fn read_features(
    dfs: &Dfs,
    path: &str,
    clock: &NodeClock,
) -> Result<(Vec<Vec<f32>>, Vec<usize>), DfsError> {
    let bytes = dfs.read(path, clock)?;
    Reader::decode(&bytes, "feature table", |r| {
        // Every vertex carries at least its 4-byte label.
        let n = r.count::<u64>(4)?;
        let dim = r.usize()?;
        let len = n.checked_mul(dim).ok_or_else(|| r.corrupt("length overflows"))?;
        let flat: Vec<f32> = r.vec(len)?;
        let labels: Vec<u32> = r.vec(n)?;
        let features = (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect();
        Ok::<_, Corrupt>((features, labels.into_iter().map(|l| l as usize).collect()))
    })
    .map_err(|_| corrupt(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn binary_roundtrip() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        let g = gen::rmat(100, 500, Default::default(), 1);
        write_binary(&dfs, "/data/g.bin", &g, &clk).unwrap();
        let back = read_binary(&dfs, "/data/g.bin", &clk).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn text_roundtrip() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        let g = EdgeList::new(4, vec![(0, 1), (2, 3), (3, 0)]);
        write_text(&dfs, "/data/g.txt", &g, &clk).unwrap();
        let back = read_text(&dfs, "/data/g.txt", &clk).unwrap();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn text_is_bigger_than_binary_on_disk() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        let g = gen::rmat(1000, 10_000, Default::default(), 2);
        write_binary(&dfs, "/b", &g, &clk).unwrap();
        write_text(&dfs, "/t", &g, &clk).unwrap();
        let b = dfs.status("/b").unwrap().len;
        let t = dfs.status("/t").unwrap().len;
        assert!(t as f64 > b as f64 * 0.4, "text {t} vs binary {b}");
    }

    #[test]
    fn corrupt_binary_detected() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        dfs.write("/bad", &[1, 2, 3], &clk).unwrap();
        assert!(read_binary(&dfs, "/bad", &clk).is_err());
        // Truncated body.
        let mut buf = Vec::new();
        buf.put_u64_le(10);
        buf.put_u64_le(1000);
        dfs.write("/trunc", &buf, &clk).unwrap();
        assert!(read_binary(&dfs, "/trunc", &clk).is_err());
    }

    #[test]
    fn corrupt_text_detected() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        dfs.write("/bad", b"1\tx\n", &clk).unwrap();
        assert!(read_text(&dfs, "/bad", &clk).is_err());
        dfs.write("/noline", b"42\n", &clk).unwrap();
        assert!(read_text(&dfs, "/noline", &clk).is_err());
    }

    #[test]
    fn features_roundtrip() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        let feats = vec![vec![1.0f32, 2.0], vec![-0.5, 0.25], vec![0.0, 9.0]];
        let labels = vec![0usize, 1, 1];
        write_features(&dfs, "/f", &feats, &labels, &clk).unwrap();
        let (f2, l2) = read_features(&dfs, "/f", &clk).unwrap();
        assert_eq!(f2, feats);
        assert_eq!(l2, labels);
    }

    #[test]
    fn missing_file_propagates() {
        let dfs = Dfs::in_memory();
        let clk = NodeClock::new();
        assert!(matches!(
            read_binary(&dfs, "/nope", &clk),
            Err(DfsError::NotFound(_))
        ));
    }
}
