//! Umbrella crate for the Split-CNN (ASPLOS'19) reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use split_cnn::…`. See the individual crates for
//! the real documentation:
//!
//! - [`core`] — the Split-CNN transformation (the paper's §3)
//! - [`hmms`] — the heterogeneous memory management system (§4)
//! - [`tensor`], [`graph`], [`nn`] — the training-framework substrate
//! - [`gpusim`] — the simulated GPU + NVLink device
//! - [`models`], [`data`] — model zoo and synthetic datasets
//! - [`runtime`] — the plan-executing memory runtime (HMMS made real)
//! - [`serve`] — the split-pipelined inference serving runtime

pub use scnn_core as core;
pub use scnn_data as data;
pub use scnn_gpusim as gpusim;
pub use scnn_graph as graph;
pub use scnn_hmms as hmms;
pub use scnn_models as models;
pub use scnn_nn as nn;
pub use scnn_par as par;
pub use scnn_runtime as runtime;
pub use scnn_serve as serve;
pub use scnn_tensor as tensor;
