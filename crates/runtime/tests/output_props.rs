//! Properties of the `BufferProvider::output` hook — the buffer a node's
//! forward kernel writes into:
//!
//! - **Every arm overwrites what it is handed** — a provider that hands
//!   each node its own buffer of the last pass refilled with NaN trains
//!   and evaluates every model builder to the bits of the fresh-buffer
//!   [`VecProvider`]: every node output, every loss, every parameter, at
//!   any thread count. A kernel that skipped an element would leak a NaN
//!   into a node output (and a ReLU or max-pool downstream could hide it
//!   from the loss, which is why every output is compared);
//! - **A steady-state step allocates no output** — under
//!   [`MeterProvider`] every node's second-step output lives at its
//!   first-step address.

use scnn_core::{lower_unsplit, plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId, ParamId};
use scnn_models::{alexnet, resnet18, vgg19_bn, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore, Sgd, VecProvider};
use scnn_rng::SplitRng;
use scnn_runtime::MeterProvider;
use scnn_tensor::{uniform, Tensor};

/// The graphs under test: ResNet-18 split 2×2 and unsplit, VGG-19 with
/// recompute-flagged BNs (which unplanned providers run like any BN), and
/// AlexNet with its two dropouts — between them every forward arm but
/// average pooling, which the kernel-level `_into` tests cover.
fn model_graphs() -> Vec<(&'static str, Graph)> {
    let resnet = resnet18(&ModelOptions::cifar().with_width(0.125));
    let split = plan_split(&resnet, &SplitConfig::new(0.5, 2, 2)).expect("resnet splits");
    let vgg = vgg19_bn(&ModelOptions::cifar().with_width(0.125).with_bn_recompute());
    let alex = alexnet(
        &ModelOptions::imagenet().with_input(64).with_width(0.0625).with_classes(10),
    );
    vec![
        ("resnet18 split 2x2", split.lower(&resnet, 2)),
        ("resnet18", lower_unsplit(&resnet, 2)),
        ("vgg19_bn recompute", lower_unsplit(&vgg, 2)),
        ("alexnet", lower_unsplit(&alex, 2)),
    ]
}

fn batch_for(graph: &Graph, seed: u64) -> (Tensor, Vec<usize>) {
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let mut rng = SplitRng::seed_from_u64(seed);
    let images = uniform(&mut rng, &dims, -1.0, 1.0);
    let labels = (0..dims[0]).map(|i| (i * 3 + 1) % 10).collect();
    (images, labels)
}

/// FNV-1a over a tensor's bits.
fn fingerprint(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hands every node its own buffer of the last pass, refilled with NaN.
#[derive(Default)]
struct NanRefill {
    kept: Vec<Option<Tensor>>,
}

impl BufferProvider for NanRefill {
    fn output(&mut self, node: usize, dims: &[usize]) -> Option<Tensor> {
        let kept = self.kept.get_mut(node).and_then(Option::take);
        let mut t = kept.filter(|t| t.shape().dims() == dims).unwrap_or_else(|| Tensor::zeros(dims));
        t.as_mut_slice().fill(f32::NAN);
        Some(t)
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.kept = outputs.iter_mut().map(Option::take).collect();
    }
}

/// Forwards every hook to `inner`, fingerprinting each node output as it
/// is adopted.
struct Record<P> {
    inner: P,
    outputs: Vec<u64>,
}

impl<P: BufferProvider> BufferProvider for Record<P> {
    fn begin_step(&mut self, n_nodes: usize) {
        self.outputs = vec![0; n_nodes];
        self.inner.begin_step(n_nodes);
    }

    fn output(&mut self, node: usize, dims: &[usize]) -> Option<Tensor> {
        self.inner.output(node, dims)
    }

    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        self.outputs[node] = fingerprint(&out);
        self.inner.adopt(node, out)
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.inner.forward_complete(node, outputs);
    }

    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.inner.before_backward(node, outputs);
    }

    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.inner.after_backward(node, outputs);
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.inner.end_step(outputs);
    }
}

/// What a run shows: per pass, its loss bits and every node output's
/// fingerprint; then the trained parameters.
type Trace = (Vec<(u32, Vec<u64>)>, ParamStore);

/// Three SGD steps, then three eval passes, all through one provider.
fn three_steps_then_three_evals(graph: &Graph, inner: impl BufferProvider) -> Trace {
    let mut params = ParamStore::init(graph, &mut SplitRng::seed_from_u64(7));
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
    let mut provider = Record { inner, outputs: Vec::new() };
    let exec = Executor::new();
    let mut passes = Vec::new();
    for (pass, mode) in [Mode::Train, Mode::Train, Mode::Train, Mode::Eval, Mode::Eval, Mode::Eval]
        .into_iter()
        .enumerate()
    {
        let (images, labels) = batch_for(graph, 100 + pass as u64);
        if mode == Mode::Train {
            params.zero_grads();
        }
        let r = exec.run_with(graph, &mut params, &mut bn, &images, &labels, mode, &mut rng, &mut provider);
        if mode == Mode::Train {
            sgd.step(&mut params);
        }
        passes.push((r.loss.to_bits(), provider.outputs.clone()));
    }
    (passes, params)
}

#[test]
fn every_arm_overwrites_the_buffer_it_is_handed() {
    for (name, graph) in model_graphs() {
        let (want, want_params) =
            scnn_par::with_threads(1, || three_steps_then_three_evals(&graph, VecProvider));
        for threads in [1, 2, 7] {
            for (provider, (got, got_params)) in [
                ("NaN-refilled", scnn_par::with_threads(threads, || {
                    three_steps_then_three_evals(&graph, NanRefill::default())
                })),
                ("MeterProvider", scnn_par::with_threads(threads, || {
                    three_steps_then_three_evals(&graph, MeterProvider::new())
                })),
            ] {
                let at = format!("{name}, {provider} buffers, {threads} threads");
                for (pass, ((want_loss, want_out), (got_loss, got_out))) in
                    want.iter().zip(&got).enumerate()
                {
                    if let Some(node) = (0..graph.len()).find(|&i| want_out[i] != got_out[i]) {
                        panic!("{at}: pass {pass}: node {node} ({}) output differs", graph.node(NodeId(node)).name);
                    }
                    assert_eq!(want_loss, got_loss, "{at}: pass {pass}: loss differs");
                }
                for i in 0..graph.params().len() {
                    let (a, b) = (want_params.value(ParamId(i)), got_params.value(ParamId(i)));
                    assert_eq!(a.as_slice(), b.as_slice(), "{at}: param {i} bits differ");
                }
            }
        }
    }
}

/// Records each node output's data pointer as it is adopted.
struct Addresses {
    meter: MeterProvider,
    at: Vec<usize>,
}

impl BufferProvider for Addresses {
    fn begin_step(&mut self, n_nodes: usize) {
        self.at = vec![0; n_nodes];
        self.meter.begin_step(n_nodes);
    }

    fn output(&mut self, node: usize, dims: &[usize]) -> Option<Tensor> {
        self.meter.output(node, dims)
    }

    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        self.at[node] = out.as_slice().as_ptr() as usize;
        self.meter.adopt(node, out)
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.meter.end_step(outputs);
    }
}

#[test]
fn a_steady_state_meter_step_writes_where_the_last_step_wrote() {
    let graph = lower_unsplit(&resnet18(&ModelOptions::cifar().with_width(0.125)), 2);
    let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    let mut provider = Addresses { meter: MeterProvider::new(), at: Vec::new() };
    let mut steps = Vec::new();
    for step in 0..2 {
        let (images, labels) = batch_for(&graph, 100 + step);
        params.zero_grads();
        Executor::new().run_with(&graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, &mut provider);
        steps.push(provider.at.clone());
    }
    for (node, (first, second)) in steps[0].iter().zip(&steps[1]).enumerate() {
        assert_eq!(first, second, "node {node} ({}) took a new buffer in step 2", graph.node(NodeId(node)).name);
    }
    let peak: usize = graph.nodes().iter().map(|n| 4 * n.out_shape.iter().product::<usize>()).sum();
    assert_eq!(provider.meter.peak_bytes(), peak, "the meter counts one step's outputs");
}
