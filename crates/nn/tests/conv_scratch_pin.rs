//! Pins the tiled convolution engine's transient footprint: a warm
//! forward + backward pass must borrow far less scratch than the full
//! `im2col` patch matrix the engine exists to avoid materializing, and
//! `dw`'s loan of partials is exactly the workspace the planner reserves
//! for the layer (`conv2d_workspace_bytes`).
//!
//! These are the tests that read the global `scnn_par::scratch` high-water
//! mark, so they live alone in their own integration-test binary — loans
//! from concurrently running tests in a shared process would inflate the
//! measurement — and take turns under [`PEAK`].

use std::sync::Mutex;

use scnn_nn::kernels::{conv2d_backward_with, conv2d_forward_with, ConvAlgo, ConvAttrs};
use scnn_rng::SplitRng;
use scnn_tensor::{
    conv2d_dw_tiled, conv2d_workspace_bytes, uniform, Conv2dGeometry, Padding2d, Tensor,
    REDUCTION_KC,
};

/// Held by each test while it reads the process-wide peak.
static PEAK: Mutex<()> = Mutex::new(());

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
    let _turn = PEAK.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn dw_partial_loan_is_the_planned_workspace() {
    let _turn = PEAK.lock().unwrap_or_else(|e| e.into_inner());
    // A 1×1 unpadded layer of 32 output channels runs each `KC` block as
    // one task whose own loan is its turned `dy` block (KC × oc floats);
    // at one thread the tasks run one after another, so the peak is that
    // loan plus the partials. A loan is charged at its buffer's capacity,
    // so each call runs on a fresh thread, whose empty arena hands out
    // buffers of exactly the asked size. One 16×16 image is one block: 1,
    // 2, 3 and 32 blocks cover no partial, one, block 0 beside a full
    // group of two, and sixteen groups.
    let (ic, oc) = (32, 32);
    let g = Conv2dGeometry::new(ic, 16, 16, 1, 1, 1, 1, Padding2d::default());
    let task = REDUCTION_KC * oc * 4;
    let mut rng = SplitRng::seed_from_u64(5);
    for n in [1, 2, 3, 32] {
        let x = uniform(&mut rng, &[n, ic, 16, 16], -1.0, 1.0);
        let dy = uniform(&mut rng, &[n, oc, 16, 16], -1.0, 1.0);
        let mut dw = vec![0.0f32; oc * ic];
        let peak = std::thread::scope(|s| {
            s.spawn(|| {
                scnn_par::with_threads(1, || {
                    scnn_par::scratch::reset_peak();
                    conv2d_dw_tiled(&x, &dy, &g, &mut dw);
                    scnn_par::scratch::peak_bytes()
                })
            })
            .join()
            .expect("the dw call runs")
        });
        assert_eq!(
            peak.checked_sub(task),
            Some(conv2d_workspace_bytes(&g, n, oc)),
            "{n} blocks: dw's scratch peak {peak} B is not one {task} B task loan plus the \
             planned partials"
        );
    }
}
