//! The buffer-provider abstraction: who owns activation storage.
//!
//! The executor computes values; a [`BufferProvider`] decides where those
//! values *live* and how long. [`VecProvider`] is the reference: every
//! node output is a fresh heap `Vec` kept until the step ends.
//! [`MeterProvider`] is the same Vec-per-node placement with a resident-
//! bytes meter, and it keeps each node's buffer across steps, so a step
//! writes where the last one wrote. `scnn-runtime` implements the trait
//! to free outputs at the tape positions an HMMS
//! [`MemoryPlan`](../../hmms) dictates and stage cold activations through
//! a host tier.
//!
//! # Hook contract
//!
//! For one call to [`Executor::run_with`](crate::Executor::run_with):
//!
//! 1. [`begin_step`](BufferProvider::begin_step) — once, before anything.
//! 2. [`output`](BufferProvider::output) — once per node, before it
//!    computes: the buffer the node's forward kernel writes into, or
//!    `None` for a fresh zeroed one. A handed buffer's contents on entry
//!    are unspecified; every kernel overwrites every element.
//! 3. [`adopt`](BufferProvider::adopt) — once per node, with that buffer
//!    now holding the node's forward output; the returned tensor is what
//!    the executor stores and every consumer reads. Ascending node order.
//! 4. [`forward_complete`](BufferProvider::forward_complete) — once per
//!    node, right after its `adopt` and before the next node computes:
//!    the forward half of the execution tape, position by position.
//! 5. In train mode, for every node id from `n−1` down to `0` — including
//!    nodes the backward pass skips as dead —
//!    [`before_backward`](BufferProvider::before_backward), then the
//!    node's backward work (if any), then
//!    [`after_backward`](BufferProvider::after_backward). This is exactly
//!    the execution tape's backward order.
//! 6. [`end_step`](BufferProvider::end_step) — once, after everything.
//!
//! A direct caller of [`Executor::forward_wave`](crate::Executor::forward_wave)
//! (one provider per slot) gets steps 2–4 from the wave step, per slot,
//! and performs 1 and 6 itself. A wave is a node range: every slot's
//! `output`s for the whole range are asked first, slot after slot, before
//! any slot computes; then, per slot, the range's `adopt`s fire, then its
//! `forward_complete`s, both in ascending node order — so across a pass
//! each hook still sees every node exactly once, in tape order.
//!
//! The `outputs` table handed to the lifecycle hooks is the executor's
//! real storage: a provider may drop entries whose planned lifetime ended
//! (the executor will not read them again — the plan guarantees it) and
//! must re-populate entries it evicted before a consumer needs them.
//!
//! Providers manage *placement*, never *values*: a correct implementation
//! returns bit-identical training results to [`VecProvider`].

use scnn_tensor::Tensor;

/// Owns activation buffers on the executor's behalf. See the module docs
/// for the exact hook sequence.
pub trait BufferProvider {
    /// A step over a graph with `n_nodes` nodes is starting.
    fn begin_step(&mut self, n_nodes: usize) {
        let _ = n_nodes;
    }

    /// The buffer node `node`'s forward kernel writes its output into, of
    /// the node's output shape `dims`. The kernel overwrites every element,
    /// so the contents handed over do not matter. `None`, the default,
    /// asks for a fresh zeroed tensor, made by the task that computes the
    /// node — what an allocating kernel makes for itself, zeroed in
    /// parallel when a wave runs several slots.
    fn output(&mut self, node: usize, dims: &[usize]) -> Option<Tensor> {
        let _ = (node, dims);
        None
    }

    /// Takes ownership of node `node`'s freshly computed forward output (in
    /// the buffer [`output`](BufferProvider::output) handed out, or a fresh
    /// one) and returns the tensor the executor should store — either the
    /// same value or the same bits migrated into provider-owned storage.
    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        let _ = node;
        out
    }

    /// Node `node`'s forward step (and the rest of its wave) has completed.
    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let _ = (node, outputs);
    }

    /// Node `node`'s backward step is about to run; any of its evicted
    /// inputs must be resident in `outputs` when this returns.
    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let _ = (node, outputs);
    }

    /// Node `node`'s backward step has finished.
    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let _ = (node, outputs);
    }

    /// The step is over; `outputs` still holds whatever survived.
    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        let _ = outputs;
    }
}

/// The default provider and the reference placement: a fresh heap `Vec`
/// per node, nothing freed until the step ends, nothing kept after it. It
/// stays stateless on purpose: a run under it is what every retaining or
/// plan-executing provider is compared against, bit for bit — the repo
/// benchmark's first-losses check among them.
#[derive(Clone, Copy, Debug, Default)]
pub struct VecProvider;

impl BufferProvider for VecProvider {}

/// Vec-per-node placement with a meter: nothing is freed inside a step,
/// and the resident-activation peak is recorded — the baseline number the
/// runtime's savings are judged against.
///
/// At [`end_step`](BufferProvider::end_step) the meter keeps the step's
/// outputs by node id; [`output`](BufferProvider::output) hands node `i`
/// the tensor node `i` produced last step when the shape matches, and a
/// fresh one otherwise (a stochastic split's patches change shape from
/// batch to batch). A buffer never goes to another node, so a steady-state
/// forward pass allocates no output and takes no page back from the
/// kernel. A live meter therefore holds one step's activation set between
/// steps — exactly the [`peak_bytes`](MeterProvider::peak_bytes) it
/// reports.
#[derive(Debug, Default)]
pub struct MeterProvider {
    live: usize,
    peak: usize,
    /// Last step's outputs, by node id.
    kept: Vec<Option<Tensor>>,
}

impl MeterProvider {
    /// A fresh meter.
    pub fn new() -> Self {
        MeterProvider::default()
    }

    /// Peak resident activation bytes over all steps so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }
}

impl BufferProvider for MeterProvider {
    fn begin_step(&mut self, _n_nodes: usize) {
        self.live = 0;
    }

    fn output(&mut self, node: usize, dims: &[usize]) -> Option<Tensor> {
        let kept = self.kept.get_mut(node).and_then(Option::take);
        kept.filter(|t| t.shape().dims() == dims)
    }

    fn adopt(&mut self, _node: usize, out: Tensor) -> Tensor {
        // Vec-per-node never frees within a step, so resident bytes only
        // grow: the peak is the running sum's maximum.
        self.live += out.len() * 4;
        self.peak = self.peak.max(self.live);
        out
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.kept.clear();
        self.kept.extend(outputs.iter_mut().map(Option::take));
    }
}
