//! Parameter-server error type.

use psgraph_sim::OutOfMemory;
use std::fmt;

/// Errors surfaced by the parameter server.
#[derive(Debug, Clone, PartialEq)]
pub enum PsError {
    /// A server-side allocation exceeded the server's memory budget.
    Oom(OutOfMemory),
    /// The server holding a needed partition is down.
    ServerDown { id: usize },
    /// No matrix/vector/table registered under this name.
    NotFound(String),
    /// A handle's element type does not match the stored partition.
    TypeMismatch { name: String },
    /// Index outside the declared size.
    IndexOutOfBounds { name: String, index: u64, size: u64 },
    /// Mismatched argument lengths (indices vs values, etc.).
    DimensionMismatch(String),
    /// Checkpoint I/O failure.
    Dfs(String),
    /// No checkpoint available to recover from.
    NoCheckpoint(String),
    /// A read of a neighbor-table list that holds merged runs the table
    /// has not sealed yet.
    Unsealed { name: String, vertex: u64 },
}

impl fmt::Display for PsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsError::Oom(e) => write!(f, "ps OOM: {e}"),
            PsError::ServerDown { id } => write!(f, "ps server {id} is down"),
            PsError::NotFound(n) => write!(f, "ps object not found: {n}"),
            PsError::TypeMismatch { name } => write!(f, "ps type mismatch on {name}"),
            PsError::IndexOutOfBounds { name, index, size } => {
                write!(f, "ps index {index} out of bounds for {name} (size {size})")
            }
            PsError::DimensionMismatch(m) => write!(f, "ps dimension mismatch: {m}"),
            PsError::Dfs(e) => write!(f, "ps checkpoint I/O: {e}"),
            PsError::NoCheckpoint(n) => write!(f, "ps: no checkpoint for {n}"),
            PsError::Unsealed { name, vertex } => {
                write!(f, "ps {name}: vertex {vertex}'s list holds runs not yet sealed")
            }
        }
    }
}

impl std::error::Error for PsError {}

impl From<OutOfMemory> for PsError {
    fn from(e: OutOfMemory) -> Self {
        PsError::Oom(e)
    }
}

impl From<psgraph_sim::Corrupt> for PsError {
    fn from(e: psgraph_sim::Corrupt) -> Self {
        PsError::Dfs(e.to_string())
    }
}

impl From<psgraph_dfs::DfsError> for PsError {
    fn from(e: psgraph_dfs::DfsError) -> Self {
        PsError::Dfs(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let oom = OutOfMemory { owner: "server-0".into(), requested: 1, in_use: 0, budget: 0 };
        assert!(PsError::from(oom).to_string().contains("OOM"));
        assert!(PsError::ServerDown { id: 2 }.to_string().contains('2'));
        assert!(PsError::NotFound("ranks".into()).to_string().contains("ranks"));
        assert!(PsError::TypeMismatch { name: "m".into() }.to_string().contains('m'));
        assert!(PsError::IndexOutOfBounds { name: "v".into(), index: 9, size: 5 }
            .to_string()
            .contains("9"));
        assert!(PsError::DimensionMismatch("a!=b".into()).to_string().contains("a!=b"));
        assert!(PsError::from(psgraph_dfs::DfsError::NotFound("/c".into()))
            .to_string()
            .contains("/c"));
        assert!(PsError::NoCheckpoint("w".into()).to_string().contains('w'));
    }
}
