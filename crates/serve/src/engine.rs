//! The inference engine: forward-only execution of one graph over many
//! concurrent request slots, under a planned memory footprint.
//!
//! One [`Engine`] owns one graph, its forward-only [`ExecPlan`] (exported
//! by [`scnn_hmms::export_inference_plan`]) and its segment [`Schedule`].
//! Frozen weights and BN running statistics are shared via `Arc` across
//! every in-flight request — inference never mutates either.
//!
//! The engine computes nothing and replays nothing itself. What a node
//! computes is the wave step a training step runs
//! ([`Executor::forward_wave`]), called in eval mode with one slot per
//! request, no labels and the frozen state; where activations live and
//! when they die is one [`PlanRuntime`] per slot replaying the inference
//! plan. Logits equal an `Executor` eval pass because they are one. What
//! is left here is what only serving needs: the plan export, the capacity
//! formula, the logits snapshot and the per-batch accounting.
//!
//! # One order, any batch size
//!
//! A batch of `C ≥ 1` requests advances every slot in lock-step, one
//! segment per wave, in ascending segment index — tape order, the order
//! the plan was made for. Sibling *requests* are the work units on the
//! `scnn-par` pool (a lone request runs inline and leaves the pool to its
//! kernels), every request runs patch by patch, and each slot's planned
//! frees fire before its next patch allocates — a batch holds `C ×` what
//! one request does, below its planned pool at every `C`. Each slot
//! computes only from its own activations, and the wave step lands outputs
//! and fires lifetime events in a fixed `(slot, node)` order, so identical
//! request bytes produce bit-identical logits at any thread count,
//! concurrency and batch composition (pinned by the integration tests).
//!
//! # Memory accounting
//!
//! The plan counts and the runtime holds. A batch's planned pool is
//! `slots × StaticLayout::device_general_bytes` — a planned quantity,
//! checked once when [`Engine::new`] exported the plan (a layout whose
//! live TSOs overlap is a [`RuntimeError::Layout`] there), not replayed
//! per batch. [`BatchStats::resident_peak`] is the engine's own sample: the slots'
//! [`PlanRuntime::resident_bytes`] counters summed once per wave, *after*
//! that wave's lifetime events — what the process holds between waves.
//! (The runtime's own peak is per node and before the drops: a training
//! step's peak.)

use std::sync::Arc;

use scnn_graph::{Graph, Op};
use scnn_hmms::{export_inference_plan, ExecPlan, TsoAssignment, TsoOptions};
use scnn_nn::{BnState, BufferProvider, Executor, ForwardCtx, Mode, ParamStore, Schedule, Slot};
use scnn_runtime::{PlanRuntime, PlanTables, RuntimeError};
use scnn_tensor::Tensor;

/// Memory accounting for one executed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// What the static layout planned for this concurrency:
    /// `slots × device_general_bytes`.
    pub planned_pool_bytes: usize,
    /// Peak of physically resident activation bytes across all slots,
    /// sampled after every wave — at most `planned_pool_bytes`.
    pub resident_peak: usize,
}

/// Result of the capacity search: the largest concurrency whose planned
/// device footprint fits a byte budget (the serving analogue of Fig. 10's
/// `max_batch_size`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConcurrencySearch {
    /// Largest number of concurrent request slots that fits.
    pub max_concurrency: usize,
    /// Planned device bytes at that concurrency (params + pools).
    pub device_bytes: usize,
}

/// A shared, immutable inference engine for one graph (see module docs).
///
/// `Engine` is `Send + Sync`; wrap it in an `Arc` and call
/// [`Engine::run_batch`] from any thread — typically the
/// [`crate::Server`]'s dispatch thread.
pub struct Engine {
    graph: Graph,
    /// The inference plan, resolved once; every slot of every batch
    /// replays it through its own [`PlanRuntime`].
    tables: Arc<PlanTables>,
    schedule: Schedule,
    params: Arc<ParamStore>,
    bn: Arc<BnState>,
    /// The node whose output is the response payload: the loss node's
    /// input.
    logits_node: usize,
}

/// One request slot's storage provider: the plan runtime, plus a snapshot
/// of the response taken as the logits land — before any `Free` can drop
/// them.
struct SlotProvider {
    runtime: PlanRuntime,
    logits_node: usize,
    logits: Option<Vec<f32>>,
}

impl BufferProvider for SlotProvider {
    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        if node == self.logits_node {
            self.logits = Some(out.as_slice().to_vec());
        }
        self.runtime.adopt(node, out)
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.forward_complete(node, outputs);
    }
}

impl Engine {
    /// Builds an engine for `graph` with frozen `params` and BN running
    /// statistics `bn`.
    ///
    /// The inference plan is exported here (one first-fit layout, reused
    /// by every batch).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Layout`] when the forward-only plan fails layout
    /// replay. (The plan is exported from `graph` itself and trains
    /// nothing, so neither [`RuntimeError::GraphMismatch`] nor
    /// [`RuntimeError::RecomputeBn`] can arise.)
    ///
    /// # Panics
    ///
    /// Panics when `graph` has no `SoftmaxCrossEntropy` loss node — every
    /// model in this repo ends with one; its input is the logits tensor
    /// the engine serves.
    pub fn new(graph: Graph, params: Arc<ParamStore>, bn: Arc<BnState>) -> Result<Self, RuntimeError> {
        let tso = TsoAssignment::new(&graph, &vec![0; graph.len()], TsoOptions::default());
        let tables = PlanTables::new(&graph, export_inference_plan(&graph, &tso)?)?;
        let schedule = Schedule::build(&graph);
        let loss = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::SoftmaxCrossEntropy))
            .expect("graph has a SoftmaxCrossEntropy loss node");
        let logits_node = loss.inputs[0].0;
        Ok(Engine {
            graph,
            tables,
            schedule,
            params,
            bn,
            logits_node,
        })
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The forward-only plan (addresses, sizes, planned pool bytes).
    pub fn plan(&self) -> &ExecPlan {
        self.tables.plan()
    }

    /// Shape one request tensor must have (the graph's input shape).
    pub fn request_shape(&self) -> &[usize] {
        match &self.graph.nodes()[0].op {
            Op::Input { shape } => shape.as_slice(),
            _ => unreachable!("node 0 is the graph input"),
        }
    }

    /// Planned device bytes when `concurrency` slots are in flight:
    /// frozen parameters (shared once) plus one general pool per slot —
    /// `params + C × pool`
    /// ([`scnn_hmms::StaticLayout::serving_device_bytes`]).
    pub fn device_bytes_at(&self, concurrency: usize) -> usize {
        self.plan().layout.serving_device_bytes(concurrency)
    }

    /// Largest concurrency (≤ `limit`) whose planned footprint
    /// ([`Engine::device_bytes_at`]) fits `budget_bytes` — the serving
    /// counterpart of the Fig. 10 `max_batch_size` search.
    /// [`crate::Server::start`] cross-checks a configured `max_batch`
    /// against the same closed form, so a policy can never silently plan
    /// more pool bytes than the budget covers. `None` when even one
    /// request does not fit.
    pub fn max_concurrency(&self, budget_bytes: usize, limit: usize) -> Option<ConcurrencySearch> {
        let layout = &self.plan().layout;
        let (params, pool) = (layout.device_param_bytes, layout.device_general_bytes);
        let fits = fit(budget_bytes, params, pool).min(limit);
        (fits > 0).then(|| ConcurrencySearch {
            max_concurrency: fits,
            device_bytes: self.device_bytes_at(fits),
        })
    }

    /// Runs `requests` (each a tensor of [`Engine::request_shape`]) through
    /// the graph, segment by segment in tape order, and returns one logits
    /// vector per request, in submission order, plus the batch's memory
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics when `requests` is empty or a request's shape disagrees
    /// with the graph input.
    pub fn run_batch(&self, requests: &[Tensor]) -> (Vec<Vec<f32>>, BatchStats) {
        assert!(!requests.is_empty(), "a batch holds at least one request");
        let n = self.graph.len();
        let ctx = ForwardCtx {
            graph: &self.graph,
            params: &self.params,
            bn: &self.bn,
            mode: Mode::Eval,
            labels: None,
        };
        let mut slots: Vec<Slot<'_>> = requests.iter().map(|r| Slot::new(r, n)).collect();
        let mut providers: Vec<SlotProvider> = requests
            .iter()
            .map(|_| {
                let mut runtime = PlanRuntime::from_tables(self.tables.clone())
                    .expect("an inference plan stages nothing, so builds no host tier");
                runtime.begin_step(n);
                SlotProvider { runtime, logits_node: self.logits_node, logits: None }
            })
            .collect();

        let mut resident_peak = 0usize;
        let exec = Executor::new();
        for segment in &self.schedule.segments {
            let mut hooks: Vec<&mut dyn BufferProvider> =
                providers.iter_mut().map(|p| p as &mut dyn BufferProvider).collect();
            // Eval with no labels defers nothing.
            exec.forward_wave(&ctx, segment.clone(), &mut slots, &mut hooks);
            let live: usize = providers.iter().map(|p| p.runtime.resident_bytes()).sum();
            resident_peak = resident_peak.max(live);
        }

        let mut logits = Vec::with_capacity(requests.len());
        for (p, slot) in providers.iter_mut().zip(&mut slots) {
            p.runtime.end_step(&mut slot.outputs);
            logits.push(p.logits.take().expect("every slot computed its logits"));
        }
        let planned_pool_bytes = requests.len() * self.plan().layout.device_general_bytes;
        (logits, BatchStats { planned_pool_bytes, resident_peak })
    }
}

/// Largest concurrency `c` such that `params + c × pool ≤ budget` — the
/// inverse of [`scnn_hmms::StaticLayout::serving_device_bytes`], usable
/// with any [`crate::BatchRunner`] that reports its layout. `0` when not
/// even one request fits, `usize::MAX` when nothing grows with the batch.
pub(crate) fn fit(budget: usize, params: usize, pool: usize) -> usize {
    match budget.checked_sub(params) {
        None => 0,
        Some(_) if pool == 0 => usize::MAX,
        Some(spare) => spare / pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_hmms::StaticLayout;
    use scnn_rng::prop::{check, Case};
    use scnn_rng::Rng;

    /// The closed form against the footprint model it inverts: a scan of
    /// `serving_device_bytes` where the arguments are small enough to
    /// scan, the model's own inequality (in `u128`, where it cannot wrap)
    /// at the result and one past it everywhere — degenerate and
    /// `usize::MAX` arguments included, which must not overflow either.
    #[test]
    fn fit_inverts_serving_device_bytes() {
        const EDGES: [usize; 4] = [0, usize::MAX / 2, usize::MAX - 1, usize::MAX];
        check("fit == brute-force scan", 2000, |rng| {
            let mut arg = |small: usize| match rng.gen_range(0..5usize) {
                0 => EDGES[rng.gen_range(0..EDGES.len())],
                _ => rng.gen_range(0..small),
            };
            let (params, pool, budget, limit) = (arg(40), arg(6), arg(120), arg(12));
            let fits = |c: usize| {
                (c as u128)
                    .checked_mul(pool as u128)
                    .and_then(|pools| pools.checked_add(params as u128))
                    .is_some_and(|bytes| bytes <= budget as u128)
            };

            let got = fit(budget, params, pool);
            if got > 0 && !fits(got) {
                return Case::Fail(format!("{got} does not fit"));
            }
            if got < usize::MAX && fits(got + 1) {
                return Case::Fail(format!("{got} fits, but so does {}", got + 1));
            }

            if [params, pool, budget, limit].iter().all(|&v| v <= 120) {
                let layout = StaticLayout {
                    device_general_bytes: pool,
                    device_workspace_bytes: 0,
                    device_param_bytes: params,
                    host_pool_bytes: 0,
                    addresses: Default::default(),
                    workspace_overlapped_bytes: 0,
                };
                let scanned = (1..=limit)
                    .take_while(|&c| layout.serving_device_bytes(c) <= budget)
                    .last();
                let clamped = Some(got.min(limit)).filter(|&c| c > 0);
                if clamped != scanned {
                    return Case::Fail(format!("closed form {clamped:?}, scan {scanned:?}"));
                }
            }
            Case::Pass
        });
    }
}
