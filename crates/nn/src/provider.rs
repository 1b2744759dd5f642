//! The buffer-provider abstraction: who owns activation storage.
//!
//! The executor computes values; a [`BufferProvider`] decides where those
//! values *live* and how long. The default, [`VecProvider`], reproduces the
//! historical behavior — every node output is a heap `Vec` kept until the
//! step ends. `scnn-runtime` implements the same trait to put outputs in
//! statically planned pools, free them at the tape positions an HMMS
//! [`MemoryPlan`](../../hmms) dictates, and stage cold activations through
//! a host tier.
//!
//! # Hook contract
//!
//! For one call to [`Executor::run_with`](crate::Executor::run_with):
//!
//! 1. [`begin_step`](BufferProvider::begin_step) — once, before anything.
//! 2. [`adopt`](BufferProvider::adopt) — once per node, with its freshly
//!    computed forward output; the returned tensor is what the executor
//!    stores and every consumer reads. Ascending node order.
//! 3. [`forward_complete`](BufferProvider::forward_complete) — once per
//!    node, right after its `adopt` and before the next node computes:
//!    the forward half of the execution tape, position by position.
//! 4. In train mode, for every node id from `n−1` down to `0` — including
//!    nodes the backward pass skips as dead —
//!    [`before_backward`](BufferProvider::before_backward), then the
//!    node's backward work (if any), then
//!    [`after_backward`](BufferProvider::after_backward). This is exactly
//!    the execution tape's backward order.
//! 5. [`end_step`](BufferProvider::end_step) — once, after everything.
//!
//! A direct caller of [`Executor::forward_wave`](crate::Executor::forward_wave)
//! (one provider per slot) gets steps 2–3 from the wave step, per slot,
//! and performs 1 and 5 itself. A wave is a node range: the range's
//! `adopt`s fire first, then its `forward_complete`s, both in ascending
//! node order — so across a pass each hook still sees every node exactly
//! once, in tape order.
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

    /// Takes ownership of node `node`'s freshly computed forward output
    /// and returns the tensor the executor should store — either the same
    /// value or the same bits migrated into provider-owned storage.
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

/// The default provider: plain heap `Vec` per node, nothing freed until
/// the step ends — the executor's historical allocation behavior.
#[derive(Clone, Copy, Debug, Default)]
pub struct VecProvider;

impl BufferProvider for VecProvider {}
