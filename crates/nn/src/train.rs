//! Mini-batch training loops for the §5 accuracy experiments.
//!
//! The training loop takes a *graph provider* rather than a graph: plain
//! CNNs and deterministic Split-CNNs return the same graph every batch,
//! while stochastic Split-CNN (§3.3) re-splits at fresh random boundaries
//! per mini-batch. Parameters are keyed by [`scnn_graph::ParamId`] and the
//! split transform preserves the parameter table, so one [`ParamStore`]
//! serves every variant.
//!
//! Each loop runs its batches through one [`MeterProvider`], so a batch's
//! activations land in the buffers the previous batch's occupied instead
//! of pages freshly faulted in; a stochastic split's re-shaped patches
//! take fresh buffers.

use scnn_rng::Rng;
use scnn_graph::Graph;
use scnn_tensor::Tensor;

use crate::executor::{Executor, Mode};
use crate::optim::Sgd;
use crate::params::{BnState, ParamStore};
use crate::provider::MeterProvider;

/// Hyper-parameters for a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Epochs to train.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // The paper's CIFAR recipe scaled down: same momentum/decay.
        TrainConfig {
            epochs: 10,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training top-1 accuracy.
    pub accuracy: f32,
}

/// Trains one epoch over `batches`, calling `graph_for_batch` before each
/// mini-batch (stochastic Split-CNN regenerates its split scheme here).
/// Returns mean loss and training accuracy.
pub fn train_epoch(
    graph_for_batch: &mut dyn FnMut(usize) -> Graph,
    params: &mut ParamStore,
    bn: &mut BnState,
    opt: &mut Sgd,
    batches: &[(Tensor, Vec<usize>)],
    rng: &mut impl Rng,
) -> EpochStats {
    let exec = Executor::new();
    let mut meter = MeterProvider::new();
    let mut loss_sum = 0.0f64;
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, (images, labels)) in batches.iter().enumerate() {
        let graph = graph_for_batch(i);
        params.zero_grads();
        let r = exec.run_with(&graph, params, bn, images, labels, Mode::Train, rng, &mut meter);
        opt.step(params);
        loss_sum += r.loss as f64;
        correct += r.correct;
        total += r.n;
    }
    EpochStats {
        loss: (loss_sum / batches.len().max(1) as f64) as f32,
        accuracy: correct as f32 / total.max(1) as f32,
    }
}

/// Evaluates top-1 *error* (1 − accuracy) of `graph` over `batches` in
/// inference mode. Stochastic Split-CNNs are evaluated with the *unsplit*
/// graph here, exactly as §5.2.3 prescribes.
pub fn evaluate(
    graph: &Graph,
    params: &mut ParamStore,
    bn: &mut BnState,
    batches: &[(Tensor, Vec<usize>)],
    rng: &mut impl Rng,
) -> f32 {
    let exec = Executor::new();
    let mut meter = MeterProvider::new();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (images, labels) in batches {
        let r = exec.run_with(graph, params, bn, images, labels, Mode::Eval, rng, &mut meter);
        correct += r.correct;
        total += r.n;
    }
    1.0 - correct as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;
    use scnn_tensor::Padding2d;

    /// A linearly-separable toy problem: class = sign pattern of two
    /// quadrant means.
    fn toy_batches(rng: &mut SplitRng, n_batches: usize, bs: usize) -> Vec<(Tensor, Vec<usize>)> {
        (0..n_batches)
            .map(|_| {
                let mut imgs = Tensor::zeros(&[bs, 1, 4, 4]);
                let mut labels = Vec::with_capacity(bs);
                for b in 0..bs {
                    let class = rng.gen_range(0..2usize);
                    let bias = if class == 0 { 0.8 } else { -0.8 };
                    for y in 0..4 {
                        for x in 0..4 {
                            let noise: f32 = rng.gen_range(-0.3..0.3);
                            imgs.set(&[b, 0, y, x], bias + noise);
                        }
                    }
                    labels.push(class);
                }
                (imgs, labels)
            })
            .collect()
    }

    fn toy_graph(bs: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[bs, 1, 4, 4]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), true, "c");
        let r = g.relu(c, "r");
        let f = g.flatten(r, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    #[test]
    fn training_reaches_low_error_on_separable_data() {
        let mut rng = SplitRng::seed_from_u64(9);
        let train = toy_batches(&mut rng, 8, 16);
        let test = toy_batches(&mut rng, 2, 16);
        let g = toy_graph(16);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.05, 0.9, 0.0);
        let mut provider = |_: usize| g.clone();
        for _ in 0..5 {
            train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
        }
        let err = evaluate(&g, &mut params, &mut bn, &test, &mut rng);
        assert!(err < 0.1, "error {err} too high on separable toy data");
    }

    #[test]
    fn epoch_stats_are_finite_and_bounded() {
        let mut rng = SplitRng::seed_from_u64(10);
        let train = toy_batches(&mut rng, 2, 8);
        let g = toy_graph(8);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.01, 0.9, 1e-4);
        let mut provider = |_: usize| g.clone();
        let s = train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
        assert!(s.loss.is_finite());
        assert!((0.0..=1.0).contains(&s.accuracy));
    }

    #[test]
    fn provider_sees_batch_indices() {
        let mut rng = SplitRng::seed_from_u64(11);
        let train = toy_batches(&mut rng, 3, 4);
        let g = toy_graph(4);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.01, 0.0, 0.0);
        let mut seen = Vec::new();
        {
            let mut provider = |i: usize| {
                seen.push(i);
                g.clone()
            };
            train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
        }
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
