//! Epsilon-bounded agreement suite for the winograd F(2×2, 3×3) forward
//! kernel (DESIGN.md §16).
//!
//! The tile engine agrees bit-for-bit with `im2col` + GEMM and that
//! contract is pinned in `conv_engine_props.rs`. Winograd computes in the
//! transform domain, so its results agree with the engine only to epsilon
//! — this suite bounds that epsilon tightly across stride-1 shapes,
//! symmetric/asymmetric/negative padding, tile-edge remainders,
//! `SCNN_THREADS` and `SCNN_SIMD`. The kernel itself must stay bit-stable
//! across thread counts and SIMD levels: the *only* tolerated divergence
//! is the transform algebra, never the execution context.

use scnn_rng::SplitRng;
use scnn_tensor::{
    conv2d_fwd_tiled, conv2d_fwd_winograd, force_level, uniform, Conv2dGeometry, Padding2d,
    SimdLevel, Tensor,
};

/// Per-element mixed absolute/relative bound. Winograd's quarter-integer
/// transforms keep per-product error at a few ULPs; the bound leaves an
/// order of magnitude of headroom while still catching any transform or
/// indexing defect outright.
fn close(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let tol = 1e-5 + 1e-4 * x.abs().max(y.abs());
        assert!(
            (x - y).abs() <= tol,
            "{what}: element {i}: {x} vs {y} (tol {tol})"
        );
    }
}

fn bits_equal(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Stride-1 3×3 shape grid: even tile coverage, odd remainders on either
/// axis, valid (no) padding, asymmetric padding, fat padding, a split
/// patch's negative padding (applied as a crop before either kernel), and a
/// larger mixed case.
fn cases() -> Vec<(usize, usize, usize, usize, usize, Padding2d)> {
    vec![
        (2, 3, 4, 8, 8, Padding2d::symmetric(1)),
        (1, 2, 3, 7, 5, Padding2d::symmetric(1)),
        (1, 1, 2, 6, 6, Padding2d::symmetric(0)),
        (2, 4, 2, 9, 7, Padding2d::new(1, 0, 0, 1)),
        (1, 3, 5, 5, 5, Padding2d::symmetric(2)),
        (2, 2, 3, 9, 8, Padding2d::new(-1, 1, 1, -2)),
        (3, 5, 7, 10, 11, Padding2d::symmetric(1)),
    ]
}

#[test]
fn winograd_agrees_with_tiled_within_epsilon_across_contexts() {
    let mut rng = SplitRng::seed_from_u64(0x3106);
    for (n, ic, oc, h, wd, pad) in cases() {
        // A negative component crops the input; the rest pads what is left.
        let Padding2d { h_begin, h_end, w_begin, w_end } = pad;
        let crop = Padding2d::new(h_begin.min(0), h_end.min(0), w_begin.min(0), w_end.min(0));
        let pos = Padding2d::new(h_begin.max(0), h_end.max(0), w_begin.max(0), w_end.max(0));
        let x = uniform(&mut rng, &[n, ic, h, wd], -1.0, 1.0).pad2d(crop);
        let w = uniform(&mut rng, &[oc, ic, 3, 3], -0.5, 0.5);
        let b = uniform(&mut rng, &[oc], -0.1, 0.1);
        let g = Conv2dGeometry::new(ic, x.dim(2), x.dim(3), 3, 3, 1, 1, pos);
        let dims = [n, oc, g.out_h(), g.out_w()];
        type Kernel = fn(&Tensor, &Tensor, Option<&[f32]>, &Conv2dGeometry, &mut [f32]);
        let run = |kernel: Kernel, threads: usize, simd: Option<SimdLevel>| {
            scnn_par::with_threads(threads, || {
                force_level(simd);
                let mut y = vec![0.0f32; dims.iter().product()];
                kernel(&x, &w, Some(b.as_slice()), &g, &mut y);
                force_level(None);
                Tensor::from_vec(y, &dims)
            })
        };

        // The reference: tiled, single thread, scalar bodies. (The engine
        // is itself bit-stable across contexts — conv_engine_props — so
        // one reference suffices.)
        let tiled = run(conv2d_fwd_tiled, 1, Some(SimdLevel::Scalar));

        let mut wino_ref: Option<Tensor> = None;
        for threads in [1usize, 4] {
            for simd in [Some(SimdLevel::Scalar), None] {
                let wino = run(conv2d_fwd_winograd, threads, simd);
                let ctx = format!(
                    "n{n} ic{ic} oc{oc} {h}x{wd} pad {pad:?}, {threads} threads, simd {simd:?}"
                );
                close(&format!("y [{ctx}]"), &wino, &tiled);
                // Winograd must be bit-stable across the execution grid:
                // every context reproduces the first context's bits.
                match &wino_ref {
                    None => wino_ref = Some(wino),
                    Some(rf) => bits_equal(&format!("winograd y [{ctx}]"), rf, &wino),
                }
            }
        }
    }
}
