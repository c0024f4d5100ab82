//! Dataflow error type.

use psgraph_sim::OutOfMemory;
use std::fmt;

/// Errors surfaced by the dataflow engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// An allocation exceeded an executor's memory budget — the Spark
    /// container would have been killed with an OOM.
    Oom(OutOfMemory),
    /// An executor died (failure injection) while holding needed state.
    ExecutorLost { id: usize },
    /// Underlying DFS failure while (re)reading source data.
    Dfs(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Oom(e) => write!(f, "dataflow OOM: {e}"),
            DataflowError::ExecutorLost { id } => write!(f, "executor {id} lost"),
            DataflowError::Dfs(e) => write!(f, "dfs error: {e}"),
            DataflowError::Other(e) => write!(f, "dataflow error: {e}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<OutOfMemory> for DataflowError {
    fn from(e: OutOfMemory) -> Self {
        DataflowError::Oom(e)
    }
}

impl From<psgraph_dfs::DfsError> for DataflowError {
    fn from(e: psgraph_dfs::DfsError) -> Self {
        DataflowError::Dfs(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DataflowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let oom = OutOfMemory { owner: "exec-1".into(), requested: 10, in_use: 5, budget: 8 };
        let e: DataflowError = oom.into();
        assert!(e.to_string().contains("OOM"));
        let e: DataflowError = psgraph_dfs::DfsError::NotFound("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        assert!(DataflowError::ExecutorLost { id: 3 }.to_string().contains('3'));
        assert!(DataflowError::Other("boom".into()).to_string().contains("boom"));
    }
}
