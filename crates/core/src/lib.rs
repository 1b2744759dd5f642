//! Split-CNN: the paper's primary contribution (§3).
//!
//! A Split-CNN is derived from a regular CNN by partitioning the spatial
//! dimensions of early feature maps into patches and running a prefix of
//! the network on every patch *independently* — intentionally replacing the
//! cross-patch data each sliding window would have read with zero padding.
//! Patches are joined (concatenated) at a chosen depth, after which the
//! network proceeds unchanged.
//!
//! This crate implements:
//!
//! - [`scheme`] — the single-layer split mathematics: the `lb`/`ub` bounds
//!   of Equations 1–2, per-patch padding computation, and out-of-interval
//!   choices realized as negative padding (footnote 1);
//! - [`model`] — a structural model description ([`ModelDesc`]) that both
//!   the plain and the split lowering consume, guaranteeing the two share
//!   one parameter table (so one `scnn_nn::ParamStore` trains either);
//! - [`transform`] — the multi-layer transform (§3.2): backward propagation
//!   of split schemes through chains and residual blocks, region selection
//!   by splitting depth, and graph lowering;
//! - [`stochastic`] — stochastic splitting (§3.3): per-mini-batch random
//!   split boundaries with wiggle room ω.
//!
//! # Example
//!
//! ```
//! use scnn_core::{lower_unsplit, plan_split, ModelDesc, SplitConfig};
//!
//! let desc = ModelDesc::tiny_cnn(10);
//! let plain = lower_unsplit(&desc, 4);
//! let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
//! let split = plan.lower(&desc, 4);
//! // Same parameter table, more nodes.
//! assert_eq!(plain.params(), split.params());
//! assert!(split.len() > plain.len());
//! ```

pub mod cost;
pub mod model;
pub mod scheme;
pub mod stochastic;
pub mod transform;

pub use cost::{conv_engine_workspace, conv_micro_workspace, plan_micro_schedule};
pub use model::{Block, LayerDesc, ModelDesc};
pub use scheme::{even_starts, input_starts, patch_paddings, SplitChoice, Window1d};
pub use stochastic::stochastic_starts;
pub use transform::{
    lower_unsplit, plan_split, plan_split_stochastic, PlanSplitError, SplitConfig, SplitPlan,
};
