//! Error type for the streaming tier.

use std::fmt;

#[derive(Debug)]
pub enum StreamError {
    Ps(psgraph_ps::PsError),
    Dfs(psgraph_dfs::DfsError),
    Serve(psgraph_serve::ServeError),
    Core(psgraph_core::error::CoreError),
    /// Malformed on-disk data (event log headers, truncation).
    Corrupt(String),
    /// Streaming invariant violated (freshness bound, verification).
    Invalid(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Ps(e) => write!(f, "{e}"),
            StreamError::Dfs(e) => write!(f, "{e}"),
            StreamError::Serve(e) => write!(f, "{e}"),
            StreamError::Core(e) => write!(f, "{e}"),
            StreamError::Corrupt(m) => write!(f, "corrupt: {m}"),
            StreamError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<psgraph_ps::PsError> for StreamError {
    fn from(e: psgraph_ps::PsError) -> Self {
        StreamError::Ps(e)
    }
}

impl From<psgraph_dfs::DfsError> for StreamError {
    fn from(e: psgraph_dfs::DfsError) -> Self {
        StreamError::Dfs(e)
    }
}

impl From<psgraph_serve::ServeError> for StreamError {
    fn from(e: psgraph_serve::ServeError) -> Self {
        StreamError::Serve(e)
    }
}

impl From<psgraph_core::error::CoreError> for StreamError {
    fn from(e: psgraph_core::error::CoreError) -> Self {
        StreamError::Core(e)
    }
}

pub type Result<T> = std::result::Result<T, StreamError>;
