//! Experiment harness: deployments, scaling rules, and result tables for
//! reproducing every figure and table of the paper's evaluation (§V).
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! measured results.

pub mod ablations;
pub mod chaos_exp;
pub mod deploy;
pub mod fig6;
pub mod line_exp;
pub mod query_exp;
pub mod report;
pub mod serve_exp;
pub mod stream_exp;
mod stream_state;
pub mod table1;
pub mod table2;

pub use deploy::{graphx_cluster, psgraph_context, ScaleRule, JVM_EXPANSION};
pub use report::{Cell, Row, Table};
