//! SGD with momentum and weight decay, plus the paper's step-decay
//! learning-rate schedules (§5.2.1: ×0.1 at epochs 150 and 250 on CIFAR;
//! §5.3: ×0.1 every 30 epochs on ImageNet).

use scnn_tensor::Tensor;

use crate::params::ParamStore;

/// Stochastic gradient descent with classical momentum and L2 weight decay,
/// matching the paper's training recipe (momentum 0.9, weight decay 1e-4).
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer for the given store.
    pub fn new(params: &ParamStore, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let velocity = (0..params.len()).map(|_| Tensor::default()).collect();
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (called by schedules between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update: `v ← μv + (g + λw)`, `w ← w − η·v`.
    ///
    /// One fused in-place pass per parameter, split over size-derived
    /// chunks: each element evaluates `g' = g + w·λ` (skipped when `λ` is
    /// zero), `v = v·μ + g'`, `w = w − v·η` — the per-element operations,
    /// in the order, of the tensor expression this replaces — so weights
    /// are bit-identical to it at any thread count. After the first step
    /// (which sizes the velocity buffers) nothing is allocated.
    pub fn step(&mut self, params: &mut ParamStore) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        params.update(|i, value, grad| {
            if velocity[i].shape() != grad.shape() {
                velocity[i] = Tensor::zeros(grad.shape().dims());
            }
            let grad = grad.as_slice();
            let chunk = scnn_par::grain(grad.len(), MIN_CHUNK);
            let vel = scnn_par::DisjointMut::new(velocity[i].as_mut_slice());
            scnn_par::par_chunks_mut(value.as_mut_slice(), chunk, |ci, w| {
                let lo = ci * chunk;
                // SAFETY: chunk `ci` of the velocity is touched only by
                // the task that owns chunk `ci` of the value.
                let v = unsafe { vel.range(lo, lo + w.len()) };
                let g = &grad[lo..lo + w.len()];
                for ((w, v), &g) in w.iter_mut().zip(v).zip(g) {
                    // `wd` is loop-invariant; the compiler hoists the test.
                    let g = if wd != 0.0 { g + *w * wd } else { g };
                    *v = *v * mu + g;
                    *w -= *v * lr;
                }
            });
        });
    }
}

/// Elements per parallel chunk of one parameter's update: small
/// parameters (biases, BN scales) run inline.
const MIN_CHUNK: usize = 16 * 1024;

/// Multi-step learning-rate decay: multiply by `gamma` at each milestone
/// epoch.
///
/// # Example
///
/// ```
/// use scnn_nn::MultiStepLr;
///
/// let sched = MultiStepLr::new(0.1, &[150, 250], 0.1);
/// assert_eq!(sched.lr_at(0), 0.1);
/// assert_eq!(sched.lr_at(150), 0.010000001);
/// assert!((sched.lr_at(300) - 0.001).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct MultiStepLr {
    base: f32,
    milestones: Vec<usize>,
    gamma: f32,
}

impl MultiStepLr {
    /// Creates a schedule decaying at the given epochs.
    pub fn new(base: f32, milestones: &[usize], gamma: f32) -> Self {
        MultiStepLr {
            base,
            milestones: milestones.to_vec(),
            gamma,
        }
    }

    /// Step decay every `period` epochs (the ImageNet recipe).
    pub fn every(base: f32, period: usize, gamma: f32, total_epochs: usize) -> Self {
        let milestones = (1..)
            .map(|i| i * period)
            .take_while(|&m| m < total_epochs)
            .collect();
        MultiStepLr {
            base,
            milestones,
            gamma,
        }
    }

    /// Learning rate for a given epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let decays = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.base * self.gamma.powi(decays as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;
    use scnn_graph::{Graph, ParamId};

    /// The tensor-expression update [`Sgd::step`] fused, kept as its
    /// oracle: seven temporaries per parameter, one operation each.
    fn step_by_tensor_expressions(
        velocity: &mut [Tensor],
        (lr, mu, wd): (f32, f32, f32),
        params: &mut ParamStore,
    ) {
        params.update(|i, value, grad| {
            let mut g = grad.clone();
            if wd != 0.0 {
                let decay = value.scale(wd);
                g.add_assign(&decay);
            }
            if velocity[i].shape() != g.shape() {
                velocity[i] = Tensor::zeros(g.shape().dims());
            }
            let v = velocity[i].scale(mu).add(&g);
            velocity[i] = v.clone();
            *value = value.sub(&v.scale(lr));
        });
    }

    #[test]
    fn fused_step_is_bit_identical_to_the_tensor_expression_update() {
        // A 5×9216 weight — three parallel chunks, the last one ragged —
        // plus its bias; three steps so the momentum term carries state
        // from step to step.
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 96, 96]);
        let f = g.flatten(x, "f");
        g.linear(f, 5, "fc");
        for wd in [0.0, 1e-4] {
            let mut fused = ParamStore::init(&g, &mut SplitRng::seed_from_u64(7));
            let mut oracle = fused.clone();
            let mut opt = Sgd::new(&fused, 0.05, 0.9, wd);
            let mut velocity: Vec<Tensor> = (0..oracle.len()).map(|_| Tensor::default()).collect();
            let mut rng = SplitRng::seed_from_u64(8);
            for step in 0..3 {
                for id in 0..fused.len() {
                    let dims = fused.value(ParamId(id)).shape().dims().to_vec();
                    let grad = scnn_tensor::uniform(&mut rng, &dims, -1.0, 1.0);
                    for p in [&mut fused, &mut oracle] {
                        p.zero_grads();
                        p.accumulate_grad(ParamId(id), &grad);
                    }
                }
                // Elementwise, so the chunking cannot matter: a different
                // thread count each step.
                scnn_par::with_threads([1, 2, 7][step], || opt.step(&mut fused));
                step_by_tensor_expressions(&mut velocity, (0.05, 0.9, wd), &mut oracle);
                for id in 0..fused.len() {
                    let (a, b) = (fused.value(ParamId(id)), oracle.value(ParamId(id)));
                    assert!(
                        a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "param {id} differs after step {step} with wd {wd}"
                    );
                }
            }
        }
    }

    fn store() -> ParamStore {
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 2, 2]);
        let f = g.flatten(x, "f");
        g.linear(f, 2, "fc");
        ParamStore::init(&g, &mut SplitRng::seed_from_u64(0))
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = store();
        let w0 = p.value(ParamId(0)).clone();
        p.accumulate_grad(ParamId(0), &Tensor::ones(&[2, 4]));
        let mut opt = Sgd::new(&p, 0.1, 0.0, 0.0);
        opt.step(&mut p);
        let w1 = p.value(ParamId(0));
        let expected = w0.sub(&Tensor::full(&[2, 4], 0.1));
        assert!(w1.max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = store();
        let mut opt = Sgd::new(&p, 1.0, 0.5, 0.0);
        let w0 = p.value(ParamId(0)).clone();
        for _ in 0..2 {
            p.zero_grads();
            p.accumulate_grad(ParamId(0), &Tensor::ones(&[2, 4]));
            opt.step(&mut p);
        }
        // step1: v=1 → w-1; step2: v=0.5+1=1.5 → w-2.5 total.
        let diff = w0.sub(p.value(ParamId(0)));
        assert!((diff.as_slice()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut p = store();
        let w0 = p.value(ParamId(0)).clone();
        let mut opt = Sgd::new(&p, 0.1, 0.0, 0.5);
        p.zero_grads();
        opt.step(&mut p);
        let w1 = p.value(ParamId(0));
        let expected = w0.scale(1.0 - 0.1 * 0.5);
        assert!(w1.max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn multistep_schedule() {
        let s = MultiStepLr::new(1.0, &[2, 4], 0.1);
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(1), 1.0);
        assert!((s.lr_at(2) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(4) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn every_schedule_matches_imagenet_recipe() {
        let s = MultiStepLr::every(0.1, 30, 0.1, 90);
        assert_eq!(s.lr_at(29), 0.1);
        assert!((s.lr_at(30) - 0.01).abs() < 1e-7);
        assert!((s.lr_at(60) - 0.001).abs() < 1e-8);
    }
}
