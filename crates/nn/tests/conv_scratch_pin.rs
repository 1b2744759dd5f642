//! Pins the tiled convolution engine's transient footprint: a warm
//! forward + backward pass must borrow far less scratch than the full
//! `im2col` patch matrix the engine exists to avoid materializing.
//!
//! This is the one test that reads the global `scnn_par::scratch`
//! high-water mark, so it lives alone in its own integration-test binary
//! — loans from concurrently running tests in a shared process would
//! inflate the measurement.

use scnn_nn::kernels::{conv2d_backward_with, conv2d_forward_with, ConvAlgo, ConvAttrs};
use scnn_rng::SplitRng;
use scnn_tensor::{uniform, Padding2d, Tensor};

/// The scratch high-water of one warm forward + backward pass of a 3×3
/// conv at stride `s` (pad 1) over `[4, 16, 32, 32]`, and the bytes of
/// its full im2col matrix `[n·oh·ow, ic·kh·kw]`.
fn peak_and_im2col(s: usize) -> (usize, usize) {
    let (n, ic, oc, hw) = (4, 16, 16, 32);
    let mut rng = SplitRng::seed_from_u64(3);
    let x = uniform(&mut rng, &[n, ic, hw, hw], -1.0, 1.0);
    let w = uniform(&mut rng, &[oc, ic, 3, 3], -0.5, 0.5);
    let attrs = ConvAttrs { kh: 3, kw: 3, sh: s, sw: s, pad: Padding2d::symmetric(1) };

    // Warm pass: arenas and the output pool reach their steady-state
    // sizes, so the measured pass below reflects a mid-training step.
    let y = conv2d_forward_with(&x, &w, None, &attrs, Some(ConvAlgo::Tiled));
    let dy = Tensor::ones(y.shape().dims());
    conv2d_backward_with(&x, &w, false, &dy, &attrs, Some(ConvAlgo::Tiled));

    scnn_par::scratch::reset_peak();
    conv2d_forward_with(&x, &w, None, &attrs, Some(ConvAlgo::Tiled));
    conv2d_backward_with(&x, &w, false, &dy, &attrs, Some(ConvAlgo::Tiled));
    let (oh, ow) = (y.dim(2), y.dim(3));
    (scnn_par::scratch::peak_bytes(), n * oh * ow * ic * 3 * 3 * 4)
}

#[test]
fn tiled_conv_scratch_stays_far_below_full_im2col() {
    // One test, two layers in turn: the peak is process-wide. Stride 1
    // reads its input in place: under half the patch matrix. Stride 2
    // copies its window once into phase planes — the input's size, which
    // is `s² / (kh·kw)` = 4/9 of the patch matrix by construction — and
    // the backward's `dw` blocks may hold a loan beside that buffer: under
    // three quarters, where a materialized pass needs the whole matrix
    // plus its `dcols` twin.
    for (s, num, den) in [(1, 1, 2), (2, 3, 4)] {
        let (peak, cols_bytes) = peak_and_im2col(s);
        assert!(peak > 0, "stride {s}: tiled path should borrow some scratch");
        assert!(
            peak * den < cols_bytes * num,
            "stride {s}: tiled scratch peak {peak} B is not far below the {cols_bytes} B \
             full im2col matrix — is the engine materializing?"
        );
    }
}
