//! Neural-network execution substrate: the "customized machine learning
//! framework" of the paper's §6.1, on CPU.
//!
//! `scnn-nn` executes [`scnn_graph::Graph`]s with real tensors:
//!
//! - [`kernels`] — forward/backward implementations of every op
//!   (convolution with asymmetric/negative padding, pooling, batch norm,
//!   ReLU, dropout, linear, softmax cross-entropy, slice/concat/add);
//! - [`ParamStore`] — parameter values and gradients, shared across graph
//!   rebuilds so stochastic Split-CNN can re-split every mini-batch (§3.3)
//!   while training the *same* weights;
//! - [`Executor`] — forward + backward over a graph;
//! - [`Sgd`] / [`MultiStepLr`] — the optimizer and learning-rate schedule
//!   the paper trains with (momentum 0.9, weight decay 1e-4, step decay);
//! - [`train`] — mini-batch training loops used by the §5 accuracy
//!   experiments.
//!
//! Every kernel is validated by finite-difference gradient checks in its
//! unit tests.

pub mod executor;
pub mod kernels;
pub mod optim;
pub mod params;
pub mod provider;
pub mod schedule;
pub mod train;

pub use executor::{BatchResult, Deferred, Executor, ForwardCtx, Mode, Slot};
pub use provider::{BufferProvider, MeterProvider, VecProvider};
pub use schedule::Schedule;
pub use optim::{MultiStepLr, Sgd};
pub use params::{BnState, ParamStore};
pub use train::{evaluate, train_epoch, EpochStats, TrainConfig};
