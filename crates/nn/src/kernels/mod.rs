//! Forward/backward kernels for every [`scnn_graph::Op`].
//!
//! Kernels are free functions over tensors; the [`crate::Executor`] wires
//! them to graph nodes. Each kernel's unit tests include finite-difference
//! gradient checks, which is what makes the §5 accuracy experiments
//! trustworthy.
//!
//! Every forward kernel has one body, its `_into` form, which writes every
//! element of an output buffer the caller hands it — the executor passes
//! the buffer its [`crate::BufferProvider`] chose for the node, whose
//! contents on entry are unspecified. The allocating form (`relu_forward`,
//! `conv2d_forward_with`, …) runs that body on a fresh zeroed tensor.

mod bn;
mod conv;
mod linear;
mod loss;
mod pointwise;
mod pool;

pub use bn::{
    batch_norm_backward, batch_norm_backward_from_input, batch_norm_forward,
    batch_norm_inference, batch_norm_inference_into, batch_norm_train, batch_norm_train_stats,
    batch_norm_train_stats_into, update_running, BnSaved, BnStats,
};
pub(crate) use conv::conv2d_grads;
pub use conv::{
    conv2d_backward, conv2d_backward_micro, conv2d_backward_with, conv2d_forward,
    conv2d_forward_into, conv2d_forward_micro, conv2d_forward_with, ConvAlgo, ConvGrads,
};
pub use linear::{linear_backward, linear_forward, linear_forward_into, LinearGrads};
pub use loss::{softmax_cross_entropy_backward, softmax_cross_entropy_forward, LossOut};
pub use pointwise::{
    add_forward_into, dropout_apply_into, dropout_backward, dropout_mask,
    relu_backward, relu_backward_inplace, relu_forward, relu_forward_into,
};
pub use pool::{
    avg_pool_backward, avg_pool_forward, avg_pool_forward_into, global_avg_pool_backward,
    global_avg_pool_forward, global_avg_pool_forward_into, max_pool_backward, max_pool_forward,
    max_pool_forward_into,
};

use scnn_graph::Op;
use scnn_tensor::{Conv2dGeometry, Padding2d, Tensor};

/// Static attributes of a window-op node. Convolution and pooling carry
/// the same five, so [`PoolAttrs`] is this struct under its pooling name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvAttrs {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Per-side padding; negative components crop.
    pub pad: Padding2d,
}

/// Static attributes of a pooling node: [`ConvAttrs`].
pub type PoolAttrs = ConvAttrs;

impl ConvAttrs {
    /// The attributes of an [`Op::Conv2d`] or [`Op::Pool2d`] node.
    ///
    /// # Panics
    ///
    /// Panics when `op` is any other op.
    pub fn from_op(op: &Op) -> Self {
        match *op {
            Op::Conv2d { kh, kw, sh, sw, pad, .. } | Op::Pool2d { kh, kw, sh, sw, pad, .. } => {
                ConvAttrs { kh, kw, sh, sw, pad }
            }
            _ => panic!("{} is not a window op", op.desc().name),
        }
    }

    /// The cropped window over an NCHW input of `dims` and the crop that
    /// cut it ([`Conv2dGeometry::cropped`]).
    pub(crate) fn geometry(&self, dims: &[usize]) -> (Conv2dGeometry, Padding2d) {
        assert_eq!(dims.len(), 4, "window op input must be NCHW");
        let (kh, kw, sh, sw) = (self.kh, self.kw, self.sh, self.sw);
        Conv2dGeometry::cropped(dims[1], dims[2], dims[3], kh, kw, sh, sw, self.pad)
    }
}

/// Minimum elements per task of the parallel element-wise kernels (ReLU,
/// BN inference) — a constant, so chunking depends only on tensor size.
pub(crate) const ELEM_CHUNK: usize = 16 * 1024;

/// Runs a forward kernel's `_into` body on a fresh zeroed output of
/// `dims` — the whole of every allocating forward.
pub(crate) fn fresh<R>(dims: &[usize], body: impl FnOnce(&mut Tensor) -> R) -> (Tensor, R) {
    let mut y = Tensor::zeros(dims);
    let r = body(&mut y);
    (y, r)
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking helpers shared by kernel tests.

    use scnn_tensor::Tensor;

    /// Checks an analytic gradient `grad` of `f` at `x` against central
    /// finite differences. `f` must be a scalar-valued function.
    ///
    /// # Panics
    ///
    /// Panics when any component's relative error exceeds `tol`.
    pub fn check(x: &Tensor, grad: &Tensor, tol: f32, mut f: impl FnMut(&Tensor) -> f32) {
        let eps = 1e-2f32;
        assert_eq!(x.shape(), grad.shape());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            let ana = grad.as_slice()[i];
            let denom = num.abs().max(ana.abs()).max(1e-2);
            assert!(
                (num - ana).abs() / denom < tol,
                "gradient mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }
}
