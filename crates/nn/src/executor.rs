//! Graph executor: forward and backward passes with real tensors.

use std::ops::Range;
use std::sync::Arc;

use scnn_rng::Rng;
use scnn_graph::{Graph, MicroBatchSchedule, Node, NodeId, Op, ParamId, PoolKind};
use scnn_tensor::Tensor;

use crate::kernels::{
    add_forward_into, avg_pool_backward, avg_pool_forward_into, batch_norm_backward_from_input,
    batch_norm_inference_into, batch_norm_train_stats_into, conv2d_forward_into, conv2d_grads,
    dropout_apply_into, dropout_backward, dropout_mask,
    global_avg_pool_backward, global_avg_pool_forward_into, linear_backward, linear_forward_into,
    max_pool_backward, max_pool_forward_into, relu_backward_inplace, relu_forward_into,
    softmax_cross_entropy_backward, softmax_cross_entropy_forward, update_running, BnStats,
    ConvAttrs, PoolAttrs,
};
use crate::params::{BnState, ParamStore};
use crate::provider::{BufferProvider, VecProvider};

/// Whether a pass trains (batch statistics, dropout active, gradients) or
/// evaluates (running statistics, dropout off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training pass.
    Train,
    /// Inference pass.
    Eval,
}

/// Result of executing one mini-batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchResult {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Correct top-1 predictions.
    pub correct: usize,
    /// Batch size.
    pub n: usize,
}

impl BatchResult {
    /// Top-1 accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        self.correct as f32 / self.n as f32
    }
}

/// Per-node data the forward pass saves for backward.
enum Aux {
    None,
    MaxMask(Vec<usize>),
    DropMask(Tensor),
    /// A BN's statistics; backward regenerates `x̂` from its input.
    Bn(BnStats),
    Probs(Tensor),
}

/// A side effect a node's forward pass would have performed in serial
/// execution. Slots run concurrently and side-effect-free; the caller of
/// [`Executor::forward_wave`] replays these in `(slot, node)` order, so
/// state mutations land exactly as a sequential loop would produce them.
#[derive(Debug)]
pub enum Deferred {
    /// BN running-statistics momentum update (train mode).
    BnRunning {
        /// The BN node's scale parameter (keys the running statistics).
        gamma: ParamId,
        /// Channel count.
        channels: usize,
        /// Batch mean per channel.
        mean: Vec<f32>,
        /// Batch variance per channel.
        var: Vec<f32>,
    },
    /// Loss and accuracy from the graph's loss node.
    Result(BatchResult),
}

/// One node's forward product: `(output, saved aux, side effect)`.
type Landed = (Tensor, Aux, Option<Deferred>);

/// What every slot of a forward pass reads and none writes.
pub struct ForwardCtx<'a> {
    /// The graph being executed.
    pub graph: &'a Graph,
    /// Parameter values.
    pub params: &'a ParamStore,
    /// BN running statistics (read in [`Mode::Eval`]).
    pub bn: &'a BnState,
    /// Train or eval semantics for BN and dropout.
    pub mode: Mode,
    /// Labels for the loss node; `None` (serving) makes it a zero stub.
    pub labels: Option<&'a [usize]>,
}

/// One independent pass in flight — a training step's mini-batch, or one
/// request of a serving batch: its input and its activation table.
pub struct Slot<'a> {
    images: &'a Tensor,
    /// Node outputs by node id: the table the slot's [`BufferProvider`]
    /// hooks see and may drop entries from.
    pub outputs: Vec<Option<Tensor>>,
    /// Train-mode state, empty otherwise: pre-drawn dropout masks, and
    /// what the forward pass saves for backward.
    drop_masks: Vec<Option<Tensor>>,
    aux: Vec<Aux>,
}

impl<'a> Slot<'a> {
    /// An empty slot that will feed `images` to a graph of `n_nodes` nodes.
    pub fn new(images: &'a Tensor, n_nodes: usize) -> Self {
        Slot {
            images,
            outputs: vec![None; n_nodes],
            drop_masks: Vec::new(),
            aux: Vec::new(),
        }
    }
}

/// Executes [`Graph`]s with real tensors.
///
/// The executor is stateless between batches; running statistics live in
/// [`BnState`] and weights in [`ParamStore`], both owned by the caller.
///
/// # Example
///
/// ```
/// use scnn_rng::SplitRng;
/// use scnn_graph::Graph;
/// use scnn_nn::{Executor, Mode, ParamStore, BnState};
/// use scnn_tensor::{Padding2d, Tensor};
///
/// let mut g = Graph::new();
/// let x = g.input(&[2, 3, 8, 8]);
/// let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), true, "c");
/// let r = g.relu(c, "r");
/// let f = g.flatten(r, "f");
/// let l = g.linear(f, 10, "fc");
/// g.softmax_cross_entropy(l, "loss");
///
/// let mut rng = SplitRng::seed_from_u64(0);
/// let mut params = ParamStore::init(&g, &mut rng);
/// let mut bn = BnState::new();
/// let exec = Executor::new();
/// let images = Tensor::zeros(&[2, 3, 8, 8]);
/// let res = exec.run(&g, &mut params, &mut bn, &images, &[1, 2], Mode::Eval, &mut rng);
/// assert_eq!(res.n, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Executor {
    /// Optional per-conv-node micro-batch schedule (planner's third axis).
    /// Scheduled nodes run their conv backward (`conv2d_backward_micro`,
    /// without `dx` where the input carries no gradient) in micro-batches
    /// to shrink workspace; aligned schedules keep training bit-identical
    /// to full-batch execution. The forward has nothing to chunk.
    micro: Option<Arc<MicroBatchSchedule>>,
}

impl Executor {
    /// Creates an executor (no micro-batching).
    pub fn new() -> Self {
        Executor { micro: None }
    }

    /// Creates an executor that runs convolutions under `schedule`. Nodes
    /// absent from the schedule execute exactly as [`Executor::new`]'s.
    pub fn with_micro(schedule: Arc<MicroBatchSchedule>) -> Self {
        Executor {
            micro: Some(schedule),
        }
    }

    /// Images per conv kernel call for `node` (`0` = the full batch).
    fn micro_batch(&self, node: NodeId) -> usize {
        self.micro.as_ref().and_then(|s| s.get(node)).unwrap_or(0)
    }

    /// Runs one mini-batch through `graph`. In [`Mode::Train`] the backward
    /// pass runs too and parameter gradients are *accumulated* into
    /// `params` (call [`ParamStore::zero_grads`] first, or rely on the
    /// optimizer to do so).
    ///
    /// Forward and backward both run node by node in tape order —
    /// ascending node id, then descending — the serialized order memory
    /// plans are made and validated for, so a plan-executing provider
    /// sees every lifetime end exactly where the planner put it. All
    /// parallelism is inside the kernels, which partition their work
    /// independently of the worker count: every observable state is
    /// bit-identical at any `SCNN_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input or no loss node, or if the batch
    /// shape disagrees with the graph's input node.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        graph: &Graph,
        params: &mut ParamStore,
        bn: &mut BnState,
        images: &Tensor,
        labels: &[usize],
        mode: Mode,
        rng: &mut impl Rng,
    ) -> BatchResult {
        self.run_with(
            graph,
            params,
            bn,
            images,
            labels,
            mode,
            rng,
            &mut VecProvider,
        )
    }

    /// Like [`Executor::run`], but activation storage is managed by
    /// `provider` (see [`BufferProvider`] for the hook contract). With
    /// [`VecProvider`] this is exactly `run`; with a plan-executing
    /// provider the values are still bit-identical — only where buffers
    /// live and when they are released changes.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with(
        &self,
        graph: &Graph,
        params: &mut ParamStore,
        bn: &mut BnState,
        images: &Tensor,
        labels: &[usize],
        mode: Mode,
        rng: &mut impl Rng,
        provider: &mut dyn BufferProvider,
    ) -> BatchResult {
        let n_nodes = graph.len();
        provider.begin_step(n_nodes);

        let mut slot = Slot::new(images, n_nodes);
        // Pre-draw dropout masks so the forward pass stays side-effect-free.
        if mode == Mode::Train {
            slot.drop_masks = vec![None; n_nodes];
            slot.aux = (0..n_nodes).map(|_| Aux::None).collect();
            for node in graph.nodes() {
                if let Op::Dropout { p } = &node.op {
                    slot.drop_masks[node.id.0] = Some(dropout_mask(&node.out_shape, *p, rng));
                }
            }
        }

        // The one-slot, one-node-per-wave caller of the wave step.
        let mut slots = [slot];
        let mut result = None;
        for id in 0..n_nodes {
            let ctx = ForwardCtx {
                graph,
                params,
                bn,
                mode,
                labels: Some(labels),
            };
            for d in self.forward_wave(&ctx, id..id + 1, &mut slots, &mut [&mut *provider]) {
                match d {
                    Deferred::BnRunning {
                        gamma,
                        channels,
                        mean,
                        var,
                    } => {
                        let (rm, rv) = bn.entry(gamma, channels);
                        update_running(rm, rv, &mean, &var);
                    }
                    Deferred::Result(r) => result = Some(r),
                }
            }
        }
        let result = result.expect("graph has no SoftmaxCrossEntropy loss node");

        let [Slot { mut outputs, aux, .. }] = slots;
        if mode == Mode::Train {
            self.backward(graph, params, labels, &mut outputs, &aux, provider);
        }
        provider.end_step(&mut outputs);
        result
    }

    /// One wave of a forward pass: every one of `slots.len() ≥ 1`
    /// independent slots advances through the node range `nodes`, in
    /// ascending id. It is the step a training step (`run_with`: one slot,
    /// one node a wave) and a serving batch (one slot per request, one
    /// [`Schedule`](crate::Schedule) segment a wave) share; successive
    /// calls must cover the graph in tape order. `providers[s]` manages
    /// slot `s`'s storage.
    ///
    /// Each slot's provider is first asked for the buffer of every node in
    /// the wave ([`BufferProvider::output`]), slot after slot. Slots then
    /// run side-effect-free, each node's kernel writing into its buffer (a
    /// fresh zeroed one, made in the slot's task, where the provider handed
    /// none) — inline when there is one slot, so the kernels' own data parallelism
    /// keeps the whole pool, as sibling `scnn-par` tasks otherwise. Once
    /// the whole wave has computed, each slot's outputs are adopted and
    /// then its lifetime hooks fire, both in ascending node order, slot
    /// after slot — a deterministic linearization no matter how slots
    /// interleaved. Returns the wave's deferred side effects in that same
    /// `(slot, node)` order.
    ///
    /// # Panics
    ///
    /// Panics if a provider hands out a buffer whose shape is not the
    /// node's output shape.
    pub fn forward_wave<'p>(
        &self,
        ctx: &ForwardCtx<'_>,
        nodes: Range<usize>,
        slots: &mut [Slot<'_>],
        providers: &mut [&mut (dyn BufferProvider + 'p)],
    ) -> Vec<Deferred> {
        // Per slot: the buffers handed for the wave, then what landed.
        let mut work: Vec<(Vec<Option<Tensor>>, Vec<Landed>)> = providers
            .iter_mut()
            .map(|provider| {
                let handed = nodes
                    .clone()
                    .map(|id| {
                        let dims = &ctx.graph.node(NodeId(id)).out_shape;
                        let dst = provider.output(id, dims);
                        if let Some(t) = &dst {
                            assert_eq!(t.shape().dims(), dims.as_slice(), "node {id}'s buffer shape");
                        }
                        dst
                    })
                    .collect();
                (handed, Vec::with_capacity(nodes.len()))
            })
            .collect();
        {
            let slots = &*slots;
            scnn_par::par_chunks_mut(&mut work, 1, |s, w| {
                let (handed, local) = &mut w[0];
                for (id, dst) in nodes.clone().zip(handed.drain(..)) {
                    let node = ctx.graph.node(NodeId(id));
                    let dst = dst.unwrap_or_else(|| Tensor::zeros(&node.out_shape));
                    let landed = self.forward_node(ctx, &slots[s], node, local, dst);
                    local.push(landed);
                }
            });
        }

        let mut deferred = Vec::new();
        for ((slot, provider), (_, landed)) in slots.iter_mut().zip(providers.iter_mut()).zip(work) {
            for (id, (out, a, d)) in nodes.clone().zip(landed) {
                slot.outputs[id] = Some(provider.adopt(id, out));
                if ctx.mode == Mode::Train {
                    slot.aux[id] = a;
                }
                deferred.extend(d);
            }
            for id in nodes.clone() {
                provider.forward_complete(id, &mut slot.outputs);
            }
        }
        deferred
    }

    /// The forward kernel dispatch: what `node` computes, in either mode,
    /// written into `dst` (the node's output shape, contents unspecified —
    /// every arm overwrites every element). `local` holds what the wave has
    /// produced so far — the nodes from the wave's first up to `node`'s
    /// predecessor; anything older is in `slot.outputs`.
    fn forward_node(
        &self,
        ctx: &ForwardCtx<'_>,
        slot: &Slot<'_>,
        node: &Node,
        local: &[Landed],
        mut dst: Tensor,
    ) -> Landed {
        let wave_start = node.id.0 - local.len();
        let input = |i: usize| -> &Tensor {
            let id = node.inputs[i].0;
            match id.checked_sub(wave_start) {
                Some(k) => &local[k].0,
                None => slot.outputs[id].as_ref().expect("tape order computes inputs first"),
            }
        };
        let y = &mut dst;
        let copy = |y: &mut Tensor, x: &Tensor| y.as_mut_slice().copy_from_slice(x.as_slice());
        let params = ctx.params;
        let (aux, deferred) = match &node.op {
            Op::Input { shape } => {
                assert_eq!(
                    slot.images.shape().dims(),
                    shape.as_slice(),
                    "batch shape {:?} does not match graph input {shape:?}",
                    slot.images.shape().dims()
                );
                copy(y, slot.images);
                (Aux::None, None)
            }
            Op::Conv2d { weight, bias, .. } => {
                let w = params.value(*weight);
                let b = bias.map(|id| params.value(id));
                conv2d_forward_into(input(0), w, b, &ConvAttrs::from_op(&node.op), None, y);
                (Aux::None, None)
            }
            Op::Pool2d { kind, .. } => {
                let attrs = PoolAttrs::from_op(&node.op);
                match kind {
                    PoolKind::Max => (Aux::MaxMask(max_pool_forward_into(input(0), &attrs, y)), None),
                    PoolKind::Avg => {
                        avg_pool_forward_into(input(0), &attrs, y);
                        (Aux::None, None)
                    }
                }
            }
            Op::GlobalAvgPool => {
                global_avg_pool_forward_into(input(0), y);
                (Aux::None, None)
            }
            Op::BatchNorm { gamma, beta, .. } => {
                let x = input(0);
                let c = x.dim(1);
                let gv = params.value(*gamma);
                let bv = params.value(*beta);
                match ctx.mode {
                    Mode::Train => {
                        // Side-effect-free forward; the running-stat update
                        // is replayed after the wave in node-id order.
                        let (stats, var) = batch_norm_train_stats_into(x, gv, bv, y);
                        let running = Deferred::BnRunning {
                            gamma: *gamma,
                            channels: c,
                            mean: stats.mean.clone(),
                            var,
                        };
                        (Aux::Bn(stats), Some(running))
                    }
                    Mode::Eval => {
                        let (rm, rv) = ctx.bn.get(*gamma, c);
                        batch_norm_inference_into(x, gv, bv, &rm, &rv, y);
                        (Aux::None, None)
                    }
                }
            }
            Op::Relu => {
                relu_forward_into(input(0), y);
                (Aux::None, None)
            }
            Op::Dropout { p } => match ctx.mode {
                Mode::Train => {
                    let mask = slot.drop_masks[node.id.0]
                        .as_ref()
                        .expect("dropout masks pre-drawn in train mode")
                        .clone();
                    if *p == 0.0 {
                        copy(y, input(0));
                    } else {
                        dropout_apply_into(input(0), &mask, y);
                    }
                    (Aux::DropMask(mask), None)
                }
                Mode::Eval => {
                    copy(y, input(0));
                    (Aux::None, None)
                }
            },
            Op::Linear { weight, bias, .. } => {
                linear_forward_into(input(0), params.value(*weight), params.value(*bias), y);
                (Aux::None, None)
            }
            Op::Add => {
                let parts: Vec<&Tensor> = (0..node.inputs.len()).map(input).collect();
                add_forward_into(&parts, y);
                (Aux::None, None)
            }
            Op::Concat { dim } => {
                let parts: Vec<&Tensor> = (0..node.inputs.len()).map(input).collect();
                Tensor::concat_into(&parts, *dim, y);
                (Aux::None, None)
            }
            Op::Slice { dim, start, .. } => {
                input(0).slice_dim_into(*dim, *start, y);
                (Aux::None, None)
            }
            // `[n, c, h, w]` and `[n, c·h·w]` share one row-major layout.
            Op::Flatten => {
                copy(y, input(0));
                (Aux::None, None)
            }
            Op::SoftmaxCrossEntropy => match ctx.labels {
                Some(labels) => {
                    let out = softmax_cross_entropy_forward(input(0), labels);
                    y.as_mut_slice()[0] = out.loss;
                    let result = BatchResult {
                        loss: out.loss,
                        correct: out.correct,
                        n: labels.len(),
                    };
                    (Aux::Probs(out.probs), Some(Deferred::Result(result)))
                }
                // The node's planned TSO still allocates and frees; only
                // the value is a stub.
                None => {
                    y.as_mut_slice().fill(0.0);
                    (Aux::None, None)
                }
            },
        };
        (dst, aux, deferred)
    }

    fn backward(
        &self,
        graph: &Graph,
        params: &mut ParamStore,
        labels: &[usize],
        outputs: &mut [Option<Tensor>],
        aux: &[Aux],
        provider: &mut dyn BufferProvider,
    ) {
        let n_nodes = graph.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n_nodes];
        // A gradient that reaches a node no parameter feeds (an image, a
        // slice of one) flows nowhere: a conv over one computes no `dx`, so
        // its slices get none and fall to the dead-branch skip below.
        let carries = graph.depends_on_params();

        // Reverse node-id order is exactly the tape's backward order. The
        // provider hooks fire for *every* node — even ones the dead-branch
        // check skips — so a plan-driven provider visits each tape
        // position exactly once.
        for idx in (0..n_nodes).rev() {
            provider.before_backward(idx, outputs);
            let node = graph.node(NodeId(idx));
            // The loss node needs no incoming gradient; everything else
            // without one is dead w.r.t. the loss.
            if matches!(node.op, Op::SoftmaxCrossEntropy) || grads[idx].is_some() {
                self.backward_node(node, graph, params, labels, outputs, aux, &carries, &mut grads);
            }
            provider.after_backward(idx, outputs);
        }
    }

    /// One node's backward step: consumes `grads[node.id]`, accumulates
    /// parameter gradients, pushes gradients to the node's inputs.
    /// `carries` says which nodes' outputs depend on a parameter.
    #[allow(clippy::too_many_arguments)]
    fn backward_node(
        &self,
        node: &Node,
        graph: &Graph,
        params: &mut ParamStore,
        labels: &[usize],
        outputs: &[Option<Tensor>],
        aux: &[Aux],
        carries: &[bool],
        grads: &mut [Option<Tensor>],
    ) {
        let out = |id: scnn_graph::NodeId| outputs[id.0].as_ref().expect("forward ran");
        {
            let push = |grads: &mut [Option<Tensor>], id: scnn_graph::NodeId, g: Tensor| {
                match &mut grads[id.0] {
                    Some(acc) => acc.add_assign(&g),
                    slot @ None => *slot = Some(g),
                }
            };
            match &node.op {
                Op::Input { .. } => {}
                Op::SoftmaxCrossEntropy => {
                    let probs = match &aux[node.id.0] {
                        Aux::Probs(p) => p,
                        _ => unreachable!("loss saved probs"),
                    };
                    let d = softmax_cross_entropy_backward(probs, labels);
                    push(grads, node.inputs[0], d);
                }
                Op::Conv2d { weight, bias, .. } => {
                    let dy = grads[node.id.0].take().expect("conv has grad");
                    let x = out(node.inputs[0]);
                    let (dx, dw, db) = conv2d_grads(
                        x,
                        params.value(*weight),
                        bias.is_some(),
                        &dy,
                        &ConvAttrs::from_op(&node.op),
                        None,
                        self.micro_batch(node.id),
                        carries[node.inputs[0].0],
                    );
                    params.accumulate_grad(*weight, &dw);
                    if let (Some(bid), Some(db)) = (bias, db) {
                        params.accumulate_grad(*bid, &db);
                    }
                    if let Some(dx) = dx {
                        push(grads, node.inputs[0], dx);
                    }
                }
                Op::Pool2d { kind, .. } => {
                    let attrs = PoolAttrs::from_op(&node.op);
                    let dy = grads[node.id.0].take().expect("pool has grad");
                    let dx = match kind {
                        PoolKind::Max => {
                            let mask = match &aux[node.id.0] {
                                Aux::MaxMask(m) => m,
                                _ => unreachable!("maxpool saved mask"),
                            };
                            max_pool_backward(out(node.inputs[0]), &dy, mask, &attrs)
                        }
                        // Avg pooling never reads its input values — pass
                        // only the dims so a planning runtime may have
                        // already freed the activation.
                        PoolKind::Avg => {
                            avg_pool_backward(&graph.node(node.inputs[0]).out_shape, &dy, &attrs)
                        }
                    };
                    push(grads, node.inputs[0], dx);
                }
                Op::GlobalAvgPool => {
                    let dy = grads[node.id.0].take().expect("gap has grad");
                    let dx =
                        global_avg_pool_backward(&graph.node(node.inputs[0]).out_shape, &dy);
                    push(grads, node.inputs[0], dx);
                }
                Op::BatchNorm { gamma, beta, .. } => {
                    let dy = grads[node.id.0].take().expect("bn has grad");
                    let gv = params.value(*gamma);
                    let stats = match &aux[node.id.0] {
                        Aux::Bn(stats) => stats,
                        _ => unreachable!("bn saved stats in train mode"),
                    };
                    let (dx, dgamma, dbeta) =
                        batch_norm_backward_from_input(&dy, gv, out(node.inputs[0]), stats);
                    params.accumulate_grad(*gamma, &dgamma);
                    params.accumulate_grad(*beta, &dbeta);
                    push(grads, node.inputs[0], dx);
                }
                Op::Relu => {
                    // The mask is applied to the gradient this node owns.
                    let mut dy = grads[node.id.0].take().expect("relu has grad");
                    relu_backward_inplace(out(node.id), &mut dy);
                    push(grads, node.inputs[0], dy);
                }
                Op::Dropout { .. } => {
                    let dy = grads[node.id.0].take().expect("dropout has grad");
                    let mask = match &aux[node.id.0] {
                        Aux::DropMask(m) => m,
                        _ => unreachable!("dropout saved mask in train mode"),
                    };
                    push(grads, node.inputs[0], dropout_backward(&dy, mask));
                }
                Op::Linear { weight, bias, .. } => {
                    let dy = grads[node.id.0].take().expect("linear has grad");
                    let x = out(node.inputs[0]);
                    let g = linear_backward(x, params.value(*weight), &dy);
                    params.accumulate_grad(*weight, &g.dw);
                    params.accumulate_grad(*bias, &g.db);
                    push(grads, node.inputs[0], g.dx);
                }
                Op::Add => {
                    let dy = grads[node.id.0].take().expect("add has grad");
                    // All error terms are identical (§4.2 optimization 2);
                    // the last input takes the gradient itself.
                    let (&last, rest) = node.inputs.split_last().expect("add has inputs");
                    for &i in rest {
                        push(grads, i, dy.clone());
                    }
                    push(grads, last, dy);
                }
                Op::Concat { dim } => {
                    let dy = grads[node.id.0].take().expect("concat has grad");
                    let mut offset = 0;
                    for &i in &node.inputs {
                        let len = graph.node(i).out_shape[*dim];
                        push(grads, i, dy.slice_dim(*dim, offset, len));
                        offset += len;
                    }
                }
                Op::Slice { dim, start, .. } => {
                    let dy = grads[node.id.0].take().expect("slice has grad");
                    let full = &graph.node(node.inputs[0]).out_shape;
                    push(
                        grads,
                        node.inputs[0],
                        Tensor::scatter_dim(&dy, full, *dim, *start),
                    );
                }
                Op::Flatten => {
                    let dy = grads[node.id.0].take().expect("flatten has grad");
                    let full = &graph.node(node.inputs[0]).out_shape;
                    push(grads, node.inputs[0], dy.reshape(full));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;
    use scnn_graph::ParamId;
    use scnn_tensor::{uniform, Padding2d};

    fn mlp_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[n, 1, 4, 4]);
        let f = g.flatten(x, "f");
        let h = g.linear(f, 8, "fc1");
        let r = g.relu(h, "r");
        let l = g.linear(r, 3, "fc2");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    fn cnn_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[n, 2, 8, 8]);
        let c1 = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), true, "c1");
        let b1 = g.batch_norm(c1, false, "bn1");
        let r1 = g.relu(b1, "r1");
        let p1 = g.pool2d(r1, PoolKind::Max, 2, 2, Padding2d::default(), "p1");
        let d = g.dropout(p1, 0.2, "d");
        let f = g.flatten(d, "f");
        let l = g.linear(f, 3, "fc");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    #[test]
    fn forward_eval_runs() {
        let g = mlp_graph(4);
        let mut rng = SplitRng::seed_from_u64(0);
        let mut p = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let x = uniform(&mut rng, &[4, 1, 4, 4], -1.0, 1.0);
        let r = Executor::new().run(&g, &mut p, &mut bn, &x, &[0, 1, 2, 0], Mode::Eval, &mut rng);
        assert!(r.loss.is_finite());
        assert_eq!(r.n, 4);
    }

    #[test]
    fn train_step_reduces_loss() {
        let g = mlp_graph(8);
        let mut rng = SplitRng::seed_from_u64(1);
        let mut p = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let x = uniform(&mut rng, &[8, 1, 4, 4], -1.0, 1.0);
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let exec = Executor::new();
        let mut losses = Vec::new();
        for _ in 0..30 {
            p.zero_grads();
            let r = exec.run(&g, &mut p, &mut bn, &x, &labels, Mode::Train, &mut rng);
            losses.push(r.loss);
            // Plain gradient descent.
            p.update(|_, v, g| {
                let step = g.scale(0.5);
                *v = v.sub(&step);
            });
        }
        assert!(
            losses[29] < losses[0] * 0.5,
            "loss should halve: {} -> {}",
            losses[0],
            losses[29]
        );
        assert!(p.all_finite());
    }

    #[test]
    fn cnn_graph_executes_and_learns() {
        let g = cnn_graph(6);
        let mut rng = SplitRng::seed_from_u64(2);
        let mut p = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let x = uniform(&mut rng, &[6, 2, 8, 8], -1.0, 1.0);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let exec = Executor::new();
        let first = {
            p.zero_grads();
            exec.run(&g, &mut p, &mut bn, &x, &labels, Mode::Train, &mut rng)
        };
        for _ in 0..40 {
            p.zero_grads();
            exec.run(&g, &mut p, &mut bn, &x, &labels, Mode::Train, &mut rng);
            p.update(|_, v, g| {
                let step = g.scale(0.2);
                *v = v.sub(&step);
            });
        }
        p.zero_grads();
        let last = exec.run(&g, &mut p, &mut bn, &x, &labels, Mode::Train, &mut rng);
        assert!(
            last.loss < first.loss,
            "CNN failed to learn: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(!bn.is_empty(), "BN running stats recorded");
    }

    #[test]
    fn executor_gradcheck_through_whole_graph() {
        // Finite-difference check of d(loss)/d(fc2 weight) through the MLP.
        let g = mlp_graph(2);
        let mut rng = SplitRng::seed_from_u64(3);
        let mut p = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let x = uniform(&mut rng, &[2, 1, 4, 4], -1.0, 1.0);
        let labels = vec![1, 2];
        let exec = Executor::new();
        p.zero_grads();
        exec.run(&g, &mut p, &mut bn, &x, &labels, Mode::Train, &mut rng);

        // fc2 weight is ParamId(2) (fc1 w, fc1 b, fc2 w, fc2 b).
        let wid = ParamId(2);
        let analytic = p.grad(wid).clone();
        let eps = 1e-2f32;
        for i in [0usize, 5, 11, 23] {
            let mut loss_at = |delta: f32| {
                let mut p2 = p.clone();
                let mut w = p2.value(wid).clone();
                w.as_mut_slice()[i] += delta;
                p2.update(|idx, v, _| {
                    if idx == wid.0 {
                        *v = w.clone();
                    }
                });
                exec.run(&g, &mut p2, &mut BnState::new(), &x, &labels, Mode::Eval, &mut rng)
                    .loss
            };
            let num = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
            let ana = analytic.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.02 + 0.05 * ana.abs(),
                "grad mismatch at {i}: {num} vs {ana}"
            );
        }
    }

    /// A BN keeps only the two per-channel vectors the plan budgets
    /// (`OpDesc::aux_bytes_fixed`), not an activation-sized `x̂` — whatever its
    /// `recompute` flag says: the flag is a planner fact, and an executed
    /// training plan refuses it.
    #[test]
    fn train_forward_keeps_bn_statistics_not_xhat() {
        let (n, c, hw) = (3, 4, 8);
        let mut g = Graph::new();
        let x = g.input(&[n, 2, hw, hw]);
        let c1 = g.conv2d(x, c, 3, 1, Padding2d::symmetric(1), true, "c1");
        let plain_bn = g.batch_norm(c1, false, "bn");
        let flagged_bn = g.batch_norm(c1, true, "bn_recompute");

        let mut rng = SplitRng::seed_from_u64(5);
        let params = ParamStore::init(&g, &mut rng);
        let images = uniform(&mut rng, &[n, 2, hw, hw], -1.0, 1.0);
        let mut slot = Slot::new(&images, g.len());
        slot.aux = (0..g.len()).map(|_| Aux::None).collect();
        let mut slots = [slot];
        let ctx = ForwardCtx {
            graph: &g,
            params: &params,
            bn: &BnState::new(),
            mode: Mode::Train,
            labels: None,
        };
        for id in 0..g.len() {
            Executor::new().forward_wave(&ctx, id..id + 1, &mut slots, &mut [&mut VecProvider]);
        }
        let f32s = |v: &[f32]| std::mem::size_of_val(v);
        for bn in [plain_bn, flagged_bn] {
            match &slots[0].aux[bn.0] {
                Aux::Bn(s) => assert_eq!(f32s(&s.mean) + f32s(&s.inv_std), 2 * 4 * c),
                _ => panic!("BN node {} saves statistics only", bn.0),
            }
        }
    }

    #[test]
    fn residual_add_and_split_concat_graph() {
        // x -> slice/slice -> relu each -> concat, plus residual add.
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 4]);
        let a = g.slice(x, 2, 0, 2, "a");
        let b = g.slice(x, 2, 2, 2, "b");
        let ra = g.relu(a, "ra");
        let rb = g.relu(b, "rb");
        let j = g.concat(&[ra, rb], 2, "j");
        let s = g.add(&[j, x], "res");
        let f = g.flatten(s, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let mut rng = SplitRng::seed_from_u64(4);
        let mut p = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let xs = uniform(&mut rng, &[2, 2, 4, 4], -1.0, 1.0);
        p.zero_grads();
        let r = Executor::new().run(&g, &mut p, &mut bn, &xs, &[0, 1], Mode::Train, &mut rng);
        assert!(r.loss.is_finite());
        assert!(p.all_finite());
        // fc weight got a gradient.
        assert!(p.grad(ParamId(0)).as_slice().iter().any(|&v| v != 0.0));
    }
}
