//! Parameter storage: values, gradients and batch-norm running statistics.
//!
//! Parameters live *outside* the graph so that graph rebuilds — which
//! stochastic Split-CNN performs every mini-batch (§3.3) — keep training
//! the same weights. The split transform preserves the parameter table of
//! the graph it rewrites, so a [`ParamStore`] built from the base graph is
//! valid for every split variant of it.

use std::borrow::Cow;
use std::collections::HashMap;

use scnn_rng::Rng;
use scnn_graph::{Graph, ParamId, ParamKind};
use scnn_tensor::{he_normal, Tensor};

/// Values and gradients for every parameter of a graph.
#[derive(Clone, Debug)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl ParamStore {
    /// Initializes parameters for `graph`: He-normal weights, zero biases,
    /// unit γ, zero β. Deterministic given the RNG state.
    pub fn init(graph: &Graph, rng: &mut impl Rng) -> Self {
        let mut values = Vec::with_capacity(graph.params().len());
        for spec in graph.params() {
            let t = match spec.kind {
                ParamKind::Weight => he_normal(rng, &spec.dims, spec.fan_in.max(1)),
                ParamKind::Bias | ParamKind::Beta => Tensor::zeros(&spec.dims),
                ParamKind::Gamma => Tensor::ones(&spec.dims),
            };
            values.push(t);
        }
        let grads = values
            .iter()
            .map(|v| Tensor::zeros(v.shape().dims()))
            .collect();
        ParamStore { values, grads }
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A parameter's current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// A parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Accumulates `g` into a parameter's gradient (`+=`). Shared weights —
    /// one convolution's parameters used by many split patches — therefore
    /// sum their patch gradients exactly as the unsplit layer would.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.grads[id.0].add_assign(g);
    }

    /// Clears every gradient.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Applies `f(value, grad)` to each pair, mutating values — used by the
    /// optimizer.
    pub fn update(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for (i, (v, g)) in self.values.iter_mut().zip(&self.grads).enumerate() {
            f(i, v, g);
        }
    }

    /// Returns `true` if every value and gradient is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Tensor::all_finite) && self.grads.iter().all(Tensor::all_finite)
    }
}

/// Batch-norm running statistics, keyed by the layer's γ parameter id so
/// they survive graph rebuilds (node ids change between split variants;
/// parameter ids do not).
#[derive(Clone, Debug, Default)]
pub struct BnState {
    stats: HashMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl BnState {
    /// Creates an empty state.
    pub fn new() -> Self {
        BnState::default()
    }

    /// Mutable access to (running mean, running var) for a BN layer with
    /// `c` channels, inserting the (0, 1) default on first use.
    pub fn entry(&mut self, gamma: ParamId, c: usize) -> (&mut Vec<f32>, &mut Vec<f32>) {
        let e = self
            .stats
            .entry(gamma.0)
            .or_insert_with(|| (vec![0.0; c], vec![1.0; c]));
        (&mut e.0, &mut e.1)
    }

    /// Read-only (running mean, running var): borrowed for a trained
    /// layer, the (0, 1) default for one never trained.
    pub fn get(&self, gamma: ParamId, c: usize) -> (Cow<'_, [f32]>, Cow<'_, [f32]>) {
        match self.stats.get(&gamma.0) {
            Some((m, v)) => (Cow::Borrowed(m), Cow::Borrowed(v)),
            None => (Cow::Owned(vec![0.0; c]), Cow::Owned(vec![1.0; c])),
        }
    }

    /// Number of tracked BN layers.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Returns `true` when no BN layer has been trained yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;
    use scnn_tensor::Padding2d;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), true, "c");
        let b = g.batch_norm(c, false, "bn");
        let _ = g.relu(b, "r");
        g
    }

    #[test]
    fn init_respects_kinds() {
        let g = graph();
        let mut rng = SplitRng::seed_from_u64(0);
        let p = ParamStore::init(&g, &mut rng);
        assert_eq!(p.len(), 4); // weight, bias, gamma, beta
        assert!(p.value(ParamId(0)).as_slice().iter().any(|&v| v != 0.0));
        assert!(p.value(ParamId(1)).as_slice().iter().all(|&v| v == 0.0));
        assert!(p.value(ParamId(2)).as_slice().iter().all(|&v| v == 1.0));
        assert!(p.value(ParamId(3)).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grads_accumulate_and_clear() {
        let g = graph();
        let mut rng = SplitRng::seed_from_u64(0);
        let mut p = ParamStore::init(&g, &mut rng);
        let ones = Tensor::ones(&[4]);
        p.accumulate_grad(ParamId(1), &ones);
        p.accumulate_grad(ParamId(1), &ones);
        assert_eq!(p.grad(ParamId(1)).as_slice(), &[2.0; 4]);
        p.zero_grads();
        assert_eq!(p.grad(ParamId(1)).as_slice(), &[0.0; 4]);
    }

    #[test]
    fn bn_state_defaults_and_persists() {
        let mut s = BnState::new();
        let (m, v) = s.get(ParamId(9), 3);
        assert_eq!((&*m, &*v), (&[0.0; 3][..], &[1.0; 3][..]));
        {
            let (m, _) = s.entry(ParamId(9), 3);
            m[0] = 5.0;
        }
        let (m, _) = s.get(ParamId(9), 3);
        assert!(matches!(m, Cow::Borrowed(&[5.0, 0.0, 0.0])), "borrowed, not cloned: {m:?}");
        assert_eq!(s.len(), 1);
    }
}
