//! The plan-executing memory runtime: HMMS (§4) made real.
//!
//! `scnn-hmms` *plans*: it assigns tensors to TSOs, schedules
//! offload/prefetch around the execution tape, and first-fit-places every
//! TSO instance in a static pool layout. This crate *executes* that plan
//! on `scnn-nn`'s executor — during a training step, or, for a
//! forward-only inference plan ([`scnn_hmms::export_inference_plan`]),
//! during an eval pass or one slot of a serving batch:
//!
//! - [`PlanRuntime`] plugs into [`scnn_nn::Executor::run_with`] (or
//!   [`scnn_nn::Executor::forward_wave`]) as a
//!   [`scnn_nn::BufferProvider`]. Node outputs are fresh `Vec`s (the
//!   trait's default `output` hook), are dropped at exactly the tape positions the
//!   plan frees their TSO, and cold activations round-trip through the
//!   host tier ([`HostArena`], an unlinked file, so offloaded bytes leave
//!   the process for the kernel's page cache) on a background transfer
//!   thread — prefetched back just before their backward reader, as §4.3
//!   schedules. The immutable half ([`PlanTables`]) is shared, so a
//!   runtime per serving slot is cheap; the host tier and its thread
//!   exist only for plans that offload, one per runtime.
//! - [`MeterProvider`] (re-exported from `scnn-nn`) measures the
//!   unmanaged Vec-per-node baseline so benchmarks can report the
//!   runtime's actual savings.
//!
//! One ledger: the plan counts, the runtime holds. A plan's legality
//! (no two live TSOs overlapping, nothing live past the step) is checked
//! once, where it is made — `scnn_hmms::plan_layout_with` at export —
//! and its pool size is `plan().layout.device_general_bytes`. The
//! runtime reports the one physical meter, [`StepStats`]'
//! `resident_peak_bytes`, which never exceeds that pool; every byte a
//! step keeps between forward and backward is a byte the plan counts,
//! which is why a training plan over a `recompute: true` batch norm is
//! refused ([`RuntimeError::RecomputeBn`]).
//!
//! Placement is the only thing the runtime changes: training under
//! [`PlanRuntime`] is bit-identical to the baseline at any thread count.
//!
//! ```no_run
//! use scnn_graph::Tape;
//! use scnn_hmms::{plan_hmms, PlannerOptions, Profile, TsoAssignment, TsoOptions};
//! use scnn_nn::{BnState, Executor, Mode, ParamStore};
//! use scnn_runtime::PlanRuntime;
//! # fn demo(graph: scnn_graph::Graph, images: scnn_tensor::Tensor, labels: Vec<usize>) {
//! let tape = Tape::new(&graph);
//! let tso = TsoAssignment::new(&graph, &vec![0; graph.len()], TsoOptions::default());
//! let profile = Profile::uniform(&graph, 1e-3, 30e9);
//! let plan = plan_hmms(&graph, &tape, &tso, &profile, PlannerOptions::default());
//! let mut rt = PlanRuntime::from_plan(&graph, &tape, &plan, &tso).expect("plan is legal");
//!
//! let exec = Executor::new();
//! let mut params = ParamStore::init(&graph, &mut scnn_rng::SplitRng::seed_from_u64(7));
//! let mut bn = BnState::new();
//! let mut rng = scnn_rng::SplitRng::seed_from_u64(13);
//! exec.run_with(&graph, &mut params, &mut bn, &images, &labels,
//!               Mode::Train, &mut rng, &mut rt);
//! println!("resident peak: {} B of a {} B planned pool",
//!          rt.stats().resident_peak_bytes, rt.plan().layout.device_general_bytes);
//! # }
//! ```

pub mod host;
pub mod provider;

pub use host::HostArena;
pub use provider::{PlanRuntime, PlanTables, RuntimeError, StepStats};
pub use scnn_nn::MeterProvider;
