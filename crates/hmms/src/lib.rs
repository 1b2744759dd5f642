//! HMMS — the Heterogeneous Memory Management System (§4).
//!
//! HMMS statically plans every memory action of one training step over the
//! serialized execution tape: tensor-storage-object (TSO) assignment with
//! the in-place-ReLU and summation-error-sharing optimizations (§4.2),
//! offload/prefetch scheduling via the capacity-balance algorithm
//! (Algorithm 1 and its reverse, §4.3), and static first-fit placement in
//! three memory pools (§4.4). Because all planning happens offline, the
//! runtime (simulated by `scnn-gpusim`) has zero allocation overhead.
//!
//! The planners only consume *profiled execution times* and the *NVLink
//! bandwidth* — exactly the inputs the paper's system uses — so the same
//! code drives both the analytical experiments and the simulator.
//!
//! Three planners are provided for the Figure 8/10 comparisons:
//!
//! - [`plan_no_offload`] — baseline: everything stays resident;
//! - [`plan_vdnn`] — the layer-wise scheme of vDNN \[32\]: offload during
//!   the consuming layer, synchronize immediately after it;
//! - [`plan_hmms`] — Algorithm 1: synchronization deferred until the
//!   offload-capacity balance turns non-negative, spreading transfers
//!   across many layers.

mod export;
mod infer;
mod layout;
mod offload;
mod plan;
mod profile;
mod tso;

pub use export::{export_plan, export_plan_with, ExecPlan};
pub use infer::{export_inference_plan, plan_inference};
pub use layout::{plan_layout, plan_layout_with, LayoutError, LayoutOptions, StaticLayout};
pub use offload::{
    plan_hmms, plan_no_offload, plan_vdnn, theoretical_offload_fraction, PlannerOptions,
};
pub use plan::{MemEvent, MemoryPlan, StepPlan};
pub use profile::Profile;
pub use tso::{TsoAssignment, TsoId, TsoOptions, TsoRole};
