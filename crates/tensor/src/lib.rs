//! A small tensor / autograd / neural-network library — the stand-in for
//! the PyTorch runtime that PSGraph embeds via JNI (paper §III-C, §IV-E).
//!
//! Scope is exactly what GraphSage training needs: dense f32 matrices,
//! constant sparse operators in CSR form ([`sparse::SparseRows`]) for a
//! mini-batch's selection / aggregation structure, reverse-mode automatic
//! differentiation over a tape ([`autograd::Graph`]), linear layers with
//! nonlinear activations, the two-layer mean-aggregator forward both
//! GraphSage trainers share ([`nn::SageBatch`]), softmax cross-entropy
//! loss, and client-side optimizers for the Euler baseline (PSGraph itself runs
//! Adam server-side as a psFunc — see `psgraph_ps::MatrixHandle::adam_step`).
//! The [`jni::JniBridge`] charges the JVM ↔ native copy costs the paper
//! pays when feeding graph data into PyTorch and reading gradients back.
//!
//! Gradients are verified against numeric differentiation in the test
//! suite (`autograd::tests::grad_check_*`).

pub mod autograd;
pub mod jni;
pub mod nn;
pub mod optim;
pub mod sparse;
pub mod tensor;

pub use autograd::{Graph, Var};
pub use jni::JniBridge;
pub use nn::{Columns, Linear, SageBatch, SageOps};
pub use optim::{Adam, Optimizer, Sgd};
pub use sparse::SparseRows;
pub use tensor::Tensor;
