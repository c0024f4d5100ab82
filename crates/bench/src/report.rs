//! Plain-text result tables (paper-vs-measured).

use std::fmt;

use psgraph_sim::SimTime;

/// FNV-1a over the little-endian bytes of `words`: the digest the smokes
/// print for outputs that must not move between runs.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Nearest-rank percentile (0 < p ≤ 1) of an ascending sample; zero for
/// an empty one.
pub fn percentile(sorted: &[SimTime], p: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Hours(f64),
    Minutes(f64),
    Seconds(f64),
    Percent(f64),
    Oom,
    Na,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Hours(h) => write!(f, "{h:.2} h"),
            Cell::Minutes(m) => write!(f, "{m:.1} min"),
            Cell::Seconds(s) => write!(f, "{s:.1} s"),
            Cell::Percent(p) => write!(f, "{:.1}%", p * 100.0),
            Cell::Oom => write!(f, "OOM"),
            Cell::Na => write!(f, "—"),
        }
    }
}

/// One labeled row.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub cells: Vec<Cell>,
}

impl Row {
    pub fn new(label: impl Into<String>, cells: Vec<Cell>) -> Self {
        Row { label: label.into(), cells }
    }
}

/// A result table with a title and column headers.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        let mut label_w = 0usize;
        for row in &self.rows {
            label_w = label_w.max(row.label.len());
            for (i, c) in row.cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.to_string().len());
                }
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{:label_w$}", "")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, "  {h:>w$}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:label_w$}", row.label)?;
            for (i, c) in row.cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(8);
                write!(f, "  {:>w$}", c.to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::Hours(0.5).to_string(), "0.50 h");
        assert_eq!(Cell::Minutes(12.0).to_string(), "12.0 min");
        assert_eq!(Cell::Seconds(7.25).to_string(), "7.2 s");
        assert_eq!(Cell::Percent(0.915).to_string(), "91.5%");
        assert_eq!(Cell::Oom.to_string(), "OOM");
        assert_eq!(Cell::Na.to_string(), "—");
        assert_eq!(Cell::Text("x".into()).to_string(), "x");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig. 6", &["paper", "measured"]);
        t.push(Row::new("PageRank (DS1)", vec![Cell::Hours(0.5), Cell::Hours(0.47)]));
        t.push(Row::new("K-Core (DS1)", vec![Cell::Oom, Cell::Oom]));
        let s = t.to_string();
        assert!(s.contains("== Fig. 6 =="));
        assert!(s.contains("PageRank (DS1)"));
        assert!(s.contains("OOM"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
