//! Epsilon-bounded agreement suite for the winograd F(2×2, 3×3) fast
//! path (DESIGN.md §16).
//!
//! The direct engines (tiled, materialized) agree bit-for-bit and that
//! contract is pinned in `conv_engine_props.rs`. Winograd computes in the
//! transform domain, so its results agree with the direct engines only to
//! epsilon — this suite bounds that epsilon tightly across stride-1
//! shapes, symmetric/asymmetric padding, tile-edge remainders,
//! `SCNN_THREADS` and `SCNN_SIMD`, for forward, `dx` and `dw` alike. The
//! winograd path itself must stay bit-stable across thread counts and
//! SIMD levels: the *only* tolerated divergence is the transform algebra,
//! never the execution context.
//!
//! Also pinned here: automatic algorithm selection never picks winograd,
//! and no process-wide state can make it.

use scnn_nn::kernels::{
    conv2d_backward, conv2d_backward_with, conv2d_forward_with, ConvAlgo, ConvAttrs,
};
use scnn_rng::SplitRng;
use scnn_tensor::{
    default_conv_algo, force_level, uniform, Conv2dGeometry, Padding2d, SimdLevel, Tensor,
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
/// axis, valid (no) padding, asymmetric padding, fat padding, and a
/// larger mixed case.
fn cases() -> Vec<(usize, usize, usize, usize, usize, Padding2d)> {
    vec![
        (2, 3, 4, 8, 8, Padding2d::symmetric(1)),
        (1, 2, 3, 7, 5, Padding2d::symmetric(1)),
        (1, 1, 2, 6, 6, Padding2d::symmetric(0)),
        (2, 4, 2, 9, 7, Padding2d::new(1, 0, 0, 1)),
        (1, 3, 5, 5, 5, Padding2d::symmetric(2)),
        (3, 5, 7, 10, 11, Padding2d::symmetric(1)),
    ]
}

fn attrs(pad: Padding2d) -> ConvAttrs {
    ConvAttrs {
        kh: 3,
        kw: 3,
        sh: 1,
        sw: 1,
        pad,
    }
}

/// Forward + backward under one explicit algorithm, in a fixed execution
/// context, returning every gradient tensor.
fn run(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    dy: &Tensor,
    at: &ConvAttrs,
    algo: ConvAlgo,
) -> Vec<Tensor> {
    let y = conv2d_forward_with(x, w, Some(b), at, Some(algo));
    let g = conv2d_backward_with(x, w, true, dy, at, Some(algo));
    vec![y, g.dx, g.dw, g.db.expect("bias gradient")]
}

#[test]
fn winograd_agrees_with_tiled_within_epsilon_across_contexts() {
    let mut rng = SplitRng::seed_from_u64(0x3106);
    for (n, ic, oc, h, wd, pad) in cases() {
        let at = attrs(pad);
        let x = uniform(&mut rng, &[n, ic, h, wd], -1.0, 1.0);
        let w = uniform(&mut rng, &[oc, ic, 3, 3], -0.5, 0.5);
        let b = uniform(&mut rng, &[oc], -0.1, 0.1);
        let oh = h + (pad.h_begin + pad.h_end) as usize - 2;
        let ow = wd + (pad.w_begin + pad.w_end) as usize - 2;
        let dy = uniform(&mut rng, &[n, oc, oh, ow], -1.0, 1.0);

        // The reference: tiled, single thread, scalar bodies. (The direct
        // path is itself bit-stable across contexts — conv_engine_props —
        // so one reference suffices.)
        let tiled = scnn_par::with_threads(1, || {
            force_level(Some(SimdLevel::Scalar));
            let r = run(&x, &w, &b, &dy, &at, ConvAlgo::Tiled);
            force_level(None);
            r
        });

        let mut wino_ref: Option<Vec<Tensor>> = None;
        for threads in [1usize, 4] {
            for simd in [Some(SimdLevel::Scalar), None] {
                let wino = scnn_par::with_threads(threads, || {
                    force_level(simd);
                    let r = run(&x, &w, &b, &dy, &at, ConvAlgo::Winograd);
                    force_level(None);
                    r
                });
                let ctx = format!(
                    "n{n} ic{ic} oc{oc} {h}x{wd} pad {pad:?}, {threads} threads, simd {simd:?}"
                );
                for ((t, reference), name) in wino.iter().zip(&tiled).zip(["y", "dx", "dw", "db"])
                {
                    close(&format!("{name} [{ctx}]"), t, reference);
                }
                // Winograd must be bit-stable across the execution grid:
                // every context reproduces the first context's bits.
                match &wino_ref {
                    None => wino_ref = Some(wino),
                    Some(rf) => {
                        for (i, (a, b)) in rf.iter().zip(&wino).enumerate() {
                            bits_equal(&format!("winograd tensor {i} [{ctx}]"), a, b);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn auto_selection_never_picks_winograd() {
    // The variable that once forced an algorithm process-wide: nothing
    // reads it, so `algo = None` stays on the bit-identity contract.
    std::env::set_var("SCNN_CONV_ALGO", "winograd");
    let mut rng = SplitRng::seed_from_u64(0x3107);
    let at = attrs(Padding2d::symmetric(1));
    let x = uniform(&mut rng, &[2, 3, 8, 8], -1.0, 1.0);
    let w = uniform(&mut rng, &[4, 3, 3, 3], -0.5, 0.5);
    let b = uniform(&mut rng, &[4], -0.1, 0.1);
    let dy = uniform(&mut rng, &[2, 4, 8, 8], -1.0, 1.0);

    // A winograd-eligible geometry whose default is a direct engine.
    let g = Conv2dGeometry::new(3, 8, 8, 3, 3, 1, 1, at.pad);
    let default = Some(default_conv_algo(&g));
    assert_ne!(default, Some(ConvAlgo::Winograd));
    bits_equal(
        "auto selection, forward",
        &conv2d_forward_with(&x, &w, Some(&b), &at, None),
        &conv2d_forward_with(&x, &w, Some(&b), &at, default),
    );
    let auto = conv2d_backward(&x, &w, true, &dy, &at);
    let explicit = conv2d_backward_with(&x, &w, true, &dy, &at, default);
    bits_equal("auto selection, dx", &auto.dx, &explicit.dx);
    bits_equal("auto selection, dw", &auto.dw, &explicit.dw);
    bits_equal(
        "auto selection, db",
        auto.db.as_ref().expect("bias gradient"),
        explicit.db.as_ref().expect("bias gradient"),
    );
}
