//! Split-pipelined inference serving: the paper's memory-system
//! optimization applied to the serving workload, hardened for real
//! traffic.
//!
//! Training PRs built the stack bottom-up — tensors, kernels, the
//! executor, HMMS planning, the plan-executing runtime. This crate turns
//! it toward inference, where split-patch pipelining lets many concurrent
//! requests share a small, *planned* activation pool:
//!
//! - [`Engine`] — forward-only execution of one graph under an inference
//!   [`scnn_hmms::ExecPlan`] (liveness ends at the last forward read; no
//!   offload, no gradients, params counted once), with frozen weights and
//!   BN running statistics shared via `Arc` across all in-flight
//!   requests. It drives the training stack's own code rather than a copy
//!   of it: [`scnn_nn::Executor::forward_wave`] computes, one
//!   [`scnn_runtime::PlanRuntime`] per slot replays the plan. A batch of
//!   `C ≥ 1` requests runs across `C` slots in lock-step, one
//!   [`scnn_nn::Schedule`] segment per wave in tape order — the one
//!   execution order there is, a lone request's included — so the same
//!   patch of different requests executes side by side on the `scnn-par`
//!   pool, and every slot's planned frees are true of the pass: resident
//!   ≤ planned at every `C`. The plan counts (its layout is checked once,
//!   at export); the runtime holds.
//! - [`Server`] — bounded admission in front of one dispatch thread.
//!   Admission sheds ([`ServeError::Overloaded`]) instead of
//!   queueing without bound; requests carry an [`SloClass`] whose window
//!   feeds the batch-close policy and whose deadline drops
//!   expired-in-queue work; every client API returns `Result` — one
//!   engine panic becomes [`ServeError::EngineDown`] values, never a
//!   cascade of client panics. Planned footprint:
//!   `params + C × pool` (the paper's Fig. 10 model), cross-checked against
//!   [`ServerConfig::budget_bytes`] at startup; an over-budget `max_batch`
//!   is [`ServeError::OverBudget`].
//! - [`SocketServer`] / [`SocketClient`] — a std-only, length-prefixed
//!   TCP/Unix-socket front-end, so external processes submit tensors and
//!   read back logits that are bit-exactly the in-process response.
//! - [`Metrics`] — per-class latency histograms, queue-depth gauge,
//!   shed/completed/expired/abandoned counters; snapshot via
//!   [`Server::metrics`], exported by the `serving` bench and gated in
//!   `scripts/verify.sh`.
//! - [`Engine::max_concurrency`] — the serving counterpart of Fig. 10's
//!   `max_batch_size` capacity search as one closed form — the same one
//!   [`Server::start`] checks a budget with.
//!
//! ```no_run
//! use std::sync::Arc;
//! use scnn_nn::{BnState, ParamStore};
//! use scnn_serve::{Engine, Server, ServerConfig};
//! # fn demo(graph: scnn_graph::Graph, params: ParamStore, bn: BnState, image: scnn_tensor::Tensor) {
//! let engine = Engine::new(graph, Arc::new(params), Arc::new(bn)).expect("plan is legal");
//! let server = Server::start(
//!     Arc::new(engine),
//!     ServerConfig { budget_bytes: Some(64 << 20), ..ServerConfig::default() },
//! )
//! .expect("config is legal");
//! match server.infer(image) {
//!     Ok(logits) => println!("top-1: {}", logits.iter().enumerate().fold((0, f32::MIN),
//!         |best, (i, &v)| if v > best.1 { (i, v) } else { best }).0),
//!     Err(e) => eprintln!("request failed: {e}"), // shed, expired, engine down…
//! }
//! # }
//! ```

pub mod admission;
pub mod batcher;
pub mod dispatch;
pub mod engine;
pub mod metrics;
mod queue;
pub mod socket;

pub use admission::{BatchPolicy, ClassPolicy, ServeError, ServerConfig, SloClass};
pub use batcher::{ResponseHandle, Server};
pub use dispatch::BatchRunner;
pub use engine::{BatchStats, ConcurrencySearch, Engine};
pub use metrics::{ClassSnapshot, Metrics, MetricsSnapshot};
pub use scnn_runtime::RuntimeError;
pub use socket::{ListenAddr, SocketClient, SocketServer, MAX_FRAME_BYTES};
