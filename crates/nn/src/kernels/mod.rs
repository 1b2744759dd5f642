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
//! `conv2d_forward_micro`, …) runs that body on a fresh zeroed tensor.

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
pub use conv::{
    conv2d_backward, conv2d_backward_micro, conv2d_backward_with, conv2d_forward,
    conv2d_forward_micro, conv2d_forward_micro_into, conv2d_forward_with, ConvAlgo, ConvAttrs,
    ConvGrads,
};
pub use linear::{linear_backward, linear_forward, linear_forward_into, LinearGrads};
pub use loss::{softmax_cross_entropy_backward, softmax_cross_entropy_forward, LossOut};
pub use pointwise::{
    add_forward_into, dropout_apply_into, dropout_backward, dropout_forward, dropout_mask,
    relu_backward, relu_backward_inplace, relu_forward, relu_forward_into,
};
pub use pool::{
    avg_pool_backward, avg_pool_forward, avg_pool_forward_into, global_avg_pool_backward,
    global_avg_pool_forward, global_avg_pool_forward_into, max_pool_backward, max_pool_forward,
    max_pool_forward_into, PoolAttrs,
};

use scnn_tensor::{Padding2d, Tensor};

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

/// Splits a (possibly negative) padding into its cropping part (all
/// components ≤ 0) and its zero-padding part (all components ≥ 0).
///
/// Window kernels apply the crop with [`scnn_tensor::Tensor::pad2d`] first
/// and fold the positive part into the window geometry.
pub(crate) fn split_padding(pad: Padding2d) -> (Padding2d, Padding2d) {
    let crop = Padding2d::new(
        pad.h_begin.min(0),
        pad.h_end.min(0),
        pad.w_begin.min(0),
        pad.w_end.min(0),
    );
    let pos = Padding2d::new(
        pad.h_begin.max(0),
        pad.h_end.max(0),
        pad.w_begin.max(0),
        pad.w_end.max(0),
    );
    (crop, pos)
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
