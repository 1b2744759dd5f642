//! Property tests for the tiled implicit-GEMM convolution engine
//! (DESIGN.md §11): the tiled and materialized algorithms must agree
//! bit-for-bit on every geometry — stride, asymmetric and negative
//! padding, 1×1 kernels, tile-edge remainders — and the tiled path must
//! be thread-count invariant on its own. Bit-identity with the `im2col`
//! pipeline is what ties the engine's seeded training goldens to a
//! reference that shares none of its packing code.
//!
//! Agreeing with the materialized reference cannot catch a mistake the
//! two share (the `gemm_acc` chain, the `dot8` tree). The second half of
//! this file therefore replays the loops the backward ran *before* the
//! micro-kernels — plain `p`-outer scalar mul-add rows with the zero-skip,
//! over `im2col`/`col2im` — and a scalar `dot8` forward, and demands the
//! engine's bits from them.
//!
//! Every suite runs at each SIMD level the host supports and at 1 and 4
//! threads ([`at_every_level`]): the engine's one path is written once
//! over `Lanes` and runs at every width.

use scnn_nn::kernels::{conv2d_backward_with, conv2d_forward_with, ConvAlgo, ConvAttrs};
use scnn_rng::prop::{check, Case};
use scnn_rng::Rng;
use scnn_tensor::{
    col2im_into, force_level, im2col, supports, uniform, Conv2dGeometry, Padding2d, SimdLevel, Tensor,
    REDUCTION_KC,
};

/// Runs `f` at every SIMD level the host supports and at 1 and 4 threads;
/// the first failure wins. Restores the default level.
fn at_every_level(f: impl Fn() -> Case) -> Case {
    for level in SimdLevel::ALL.into_iter().filter(|&l| supports(l)) {
        force_level(Some(level));
        for threads in [1, 4] {
            if let Case::Fail(e) = scnn_par::with_threads(threads, &f) {
                force_level(None);
                return Case::Fail(format!("{} at {threads} threads: {e}", level.name()));
            }
        }
    }
    force_level(None);
    Case::Pass
}

/// The geometries the engine's phase planes and row segments exist for,
/// `(n, ic, oc, h, w, (kh, kw), (sh, sw), pad)`: a 3×3/2 whose last tap
/// column reaches a whole stride past the first (`kw - 1 - pad_l >= s`),
/// a 7×7/2 stem, AlexNet's 11×11/4 stem at pad 2, the cropped 1×1/2
/// shortcuts of a split ResNet (each negative-pad split), and stride-1
/// convs whose output plane is not their input plane.
#[allow(clippy::type_complexity)] // a literal table, not an API
const PHASE_GEOMETRIES: &[(usize, usize, usize, usize, usize, (usize, usize), (usize, usize), (i64, i64, i64, i64))] = &[
    (2, 3, 5, 9, 9, (3, 3), (2, 2), (0, 1, 0, 1)),
    (2, 3, 4, 16, 13, (7, 7), (2, 2), (3, 3, 3, 3)),
    (1, 3, 5, 35, 35, (11, 11), (4, 4), (2, 2, 2, 2)),
    (2, 4, 6, 8, 8, (1, 1), (2, 2), (0, -1, 0, -1)),
    (2, 4, 6, 8, 8, (1, 1), (2, 2), (0, -1, 0, 0)),
    (2, 4, 6, 8, 8, (1, 1), (2, 2), (0, 0, 0, -1)),
    (2, 4, 6, 8, 8, (1, 1), (2, 2), (-1, 0, -1, 0)),
    (2, 3, 5, 9, 11, (3, 3), (1, 1), (1, 0, 0, 1)),
    (3, 4, 6, 7, 7, (3, 3), (1, 1), (0, 0, 0, 0)),
    (2, 2, 7, 6, 10, (5, 3), (1, 1), (2, 1, 0, 0)),
];

/// Bitwise comparison; returns a description of the first mismatch.
fn bits_match(what: &str, a: &Tensor, b: &Tensor) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("{what}: shape {} vs {}", a.shape(), b.shape()));
    }
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i} differs: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Runs `f` under each thread count; every returned tensor must match
/// the single-thread run bit-for-bit (same contract as
/// `parallel_props.rs`, here pinned on the forced-tiled path).
fn thread_sweep_invariant(threads: &[usize], f: impl Fn() -> Vec<Tensor>) -> Case {
    let reference = scnn_par::with_threads(threads[0], &f);
    for &t in &threads[1..] {
        let got = scnn_par::with_threads(t, &f);
        for (ti, (a, b)) in reference.iter().zip(&got).enumerate() {
            if let Err(e) = bits_match(&format!("tensor {ti} under {t} threads"), a, b) {
                return Case::Fail(e);
            }
        }
    }
    Case::Pass
}

/// Runs forward + backward under both algorithms on the same inputs and
/// demands bit-identical `y`, `dx`, `dw`, `db`.
fn algos_agree(x: &Tensor, w: &Tensor, b: &Tensor, attrs: &ConvAttrs) -> Case {
    let y_t = conv2d_forward_with(x, w, Some(b), attrs, Some(ConvAlgo::Tiled));
    let y_m = conv2d_forward_with(x, w, Some(b), attrs, Some(ConvAlgo::Materialized));
    if let Err(e) = bits_match("y", &y_t, &y_m) {
        return Case::Fail(e);
    }
    let dy = Tensor::from_vec(
        y_t.as_slice().iter().enumerate().map(|(i, v)| v + (i % 7) as f32 * 0.1).collect(),
        y_t.shape().dims(),
    );
    let g_t = conv2d_backward_with(x, w, true, &dy, attrs, Some(ConvAlgo::Tiled));
    let g_m = conv2d_backward_with(x, w, true, &dy, attrs, Some(ConvAlgo::Materialized));
    for (what, a, b) in [("dx", &g_t.dx, &g_m.dx), ("dw", &g_t.dw, &g_m.dw)] {
        if let Err(e) = bits_match(what, a, b) {
            return Case::Fail(e);
        }
    }
    match (&g_t.db, &g_m.db) {
        (Some(a), Some(b)) => {
            if let Err(e) = bits_match("db", a, b) {
                return Case::Fail(e);
            }
        }
        _ => return Case::Fail("db missing from one algorithm".into()),
    }
    Case::Pass
}

#[test]
fn tiled_matches_materialized_on_random_geometries() {
    check("tiled vs materialized conv", 16, |rng| {
        let n = rng.gen_range(1..3usize);
        let ic = rng.gen_range(1..5usize);
        let oc = rng.gen_range(1..14usize); // crosses octet/quad/single sweeps
        let h = rng.gen_range(5..13usize);
        let w = rng.gen_range(5..13usize);
        let kh = rng.gen_range(1..4usize);
        let kw = rng.gen_range(1..4usize);
        let sh = rng.gen_range(1..4usize);
        let sw = rng.gen_range(1..4usize);
        let pad = Padding2d::new(
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
        );
        let full_h = h as i64 + pad.h_begin + pad.h_end;
        let full_w = w as i64 + pad.w_begin + pad.w_end;
        if full_h < kh as i64 || full_w < kw as i64 {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        at_every_level(|| algos_agree(&x, &wt, &b, &attrs))
    });
}

#[test]
fn tiled_matches_materialized_on_edge_geometries() {
    // Deterministic corners the random sweep may miss. The sixth entry
    // forces a non-divisible patch-tile edge: plen = 64·3·3 = 576 caps
    // the pack panel at 113 rows under the 256 KB budget, and 144 output
    // positions split into a full tile plus a 31-row remainder. The last
    // four are the repo benchmark's layer4 convs (training at batch 8,
    // serving at batch 1): deep 4×4 output maps, the widest patch rows the
    // engine packs (plen up to 2304).
    #[allow(clippy::type_complexity)] // a literal table, not an API
    let cases: &[(usize, usize, usize, usize, usize, (usize, usize), (usize, usize), Padding2d)] = &[
        // (n, ic, oc, h, w, (kh, kw), (sh, sw), pad)
        (2, 5, 9, 7, 9, (1, 1), (1, 1), Padding2d::default()),
        (1, 3, 8, 9, 9, (1, 1), (2, 2), Padding2d::default()),
        (2, 3, 13, 10, 11, (3, 3), (2, 3), Padding2d::new(2, 0, 0, 1)),
        (1, 4, 6, 8, 8, (2, 2), (1, 1), Padding2d::new(-1, 0, 0, -1)),
        (1, 2, 1, 6, 6, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (1, 64, 9, 12, 12, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (8, 128, 256, 8, 8, (3, 3), (2, 2), Padding2d::symmetric(1)),
        (8, 256, 256, 4, 4, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (1, 64, 128, 8, 8, (3, 3), (2, 2), Padding2d::symmetric(1)),
        (1, 128, 128, 4, 4, (3, 3), (1, 1), Padding2d::symmetric(1)),
    ];
    let phase_cases = PHASE_GEOMETRIES
        .iter()
        .map(|&(n, ic, oc, h, w, k, s, (pt, pb, pl, pr))| (n, ic, oc, h, w, k, s, Padding2d::new(pt, pb, pl, pr)));
    let mut rng = scnn_rng::SplitRng::seed_from_u64(42);
    for (n, ic, oc, h, w, (kh, kw), (sh, sw), pad) in cases.iter().copied().chain(phase_cases) {
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(&mut rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(&mut rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(&mut rng, &[oc], -0.2, 0.2);
        match at_every_level(|| algos_agree(&x, &wt, &b, &attrs)) {
            Case::Pass => {}
            Case::Fail(e) => panic!("case {n}x{ic}x{h}x{w} k{kh}x{kw} s{sh}x{sw}: {e}"),
            Case::Discard => unreachable!(),
        }
    }
}

#[test]
fn tiled_is_thread_count_invariant() {
    const THREADS: [usize; 4] = [1, 2, 4, 7];
    check("tiled conv thread-invariant", 10, |rng| {
        let n = rng.gen_range(1..3usize);
        let ic = rng.gen_range(1..5usize);
        let oc = rng.gen_range(1..11usize);
        let h = rng.gen_range(6..12usize);
        let w = rng.gen_range(6..12usize);
        let k = rng.gen_range(1..4usize);
        if h < k || w < k {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh: k, kw: k, sh: 1, sw: 1, pad: Padding2d::symmetric(1) };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, k, k], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        thread_sweep_invariant(&THREADS, || {
            let y = conv2d_forward_with(&x, &wt, Some(&b), &attrs, Some(ConvAlgo::Tiled));
            let dy = Tensor::ones(y.shape().dims());
            let g = conv2d_backward_with(&x, &wt, true, &dy, &attrs, Some(ConvAlgo::Tiled));
            vec![y, g.dx, g.dw, g.db.expect("bias grad")]
        })
    });
}

/// `dw` and `dx` as the pre-`gemm_acc` backward computed them, written
/// out in scalar Rust: the weight gradient as `KC`-blocked `p`-outer
/// fused multiply-add rows over the `im2col` matrix (zero `dy` factors
/// skipped, block 0 copied and later blocks added in order), the input
/// gradient as one patch row per output position reduced over output
/// channels in ascending order (same skip) and scattered by `col2im_into`
/// at the crop offset. Shares no arithmetic code with the engine.
fn old_loop_backward(x: &Tensor, w: &Tensor, dy: &Tensor, attrs: &ConvAttrs) -> (Tensor, Tensor) {
    let p = attrs.pad;
    let crop = Padding2d::new(p.h_begin.min(0), p.h_end.min(0), p.w_begin.min(0), p.w_end.min(0));
    let pos = Padding2d::new(p.h_begin.max(0), p.h_end.max(0), p.w_begin.max(0), p.w_end.max(0));
    let xc = x.pad2d(crop);
    let g = Conv2dGeometry::new(xc.dim(1), xc.dim(2), xc.dim(3), attrs.kh, attrs.kw, attrs.sh, attrs.sw, pos);
    let (n, oc) = (x.dim(0), w.dim(0));
    let (hw, plen) = (g.patch_count(), g.patch_len());
    let cols = im2col(&xc, &g);
    let (cols, dyv, wv) = (cols.as_slice(), dy.as_slice(), w.as_slice());
    let dy_at = |q: usize, c: usize| dyv[((q / hw) * oc + c) * hw + q % hw];

    let kc = REDUCTION_KC;
    let mut dw = vec![0.0f32; oc * plen];
    for (bi, q0) in (0..n * hw).step_by(kc).enumerate() {
        let mut part = vec![0.0f32; oc * plen];
        for q in q0..(q0 + kc).min(n * hw) {
            for c in 0..oc {
                let aa = dy_at(q, c);
                if aa == 0.0 {
                    continue;
                }
                for j in 0..plen {
                    part[c * plen + j] = aa.mul_add(cols[q * plen + j], part[c * plen + j]);
                }
            }
        }
        for (d, v) in dw.iter_mut().zip(&part) {
            *d = if bi == 0 { *v } else { *d + *v };
        }
    }

    let mut dcols = vec![0.0f32; n * hw * plen];
    for q in 0..n * hw {
        for c in 0..oc {
            let aa = dy_at(q, c);
            if aa == 0.0 {
                continue;
            }
            for j in 0..plen {
                dcols[q * plen + j] = aa.mul_add(wv[c * plen + j], dcols[q * plen + j]);
            }
        }
    }
    let mut dx = Tensor::zeros(x.shape().dims());
    let dcols = Tensor::from_vec(dcols, &[n * hw, plen]);
    col2im_into(&dcols, n, &g, &mut dx, (-crop.h_begin) as usize, (-crop.w_begin) as usize);
    (dx, Tensor::from_vec(dw, w.shape().dims()))
}

/// `t` with every `-0.0` written as `+0.0`, all other bits kept.
fn zero_sign_cleared(t: &Tensor) -> Tensor {
    let v = t.as_slice().iter().map(|&x| if x == 0.0 { 0.0 } else { x }).collect();
    Tensor::from_vec(v, t.shape().dims())
}

/// Both engines' `dx`/`dw` against [`old_loop_backward`], bit for bit but
/// for the sign of an exact zero. The engine has no zero-skip, and under a
/// fused step that is visible in one place: a non-zero product that
/// underflows rounds a `+0.0` accumulator to `-0.0`, the engine's next
/// `0·x` step makes it `+0.0` again and the skipping loop keeps `-0.0`
/// (pinned on its own in `scnn_tensor::simd`'s unit tests). Every non-zero
/// element must carry the skipping loops' bits.
fn backward_matches_old_loops(x: &Tensor, w: &Tensor, dy: &Tensor, attrs: &ConvAttrs) -> Case {
    let (dx_old, dw_old) = old_loop_backward(x, w, dy, attrs);
    let (dx_old, dw_old) = (zero_sign_cleared(&dx_old), zero_sign_cleared(&dw_old));
    for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
        let g = conv2d_backward_with(x, w, false, dy, attrs, Some(algo));
        for (what, got, want) in [("dx", &g.dx, &dx_old), ("dw", &g.dw, &dw_old)] {
            if let Err(e) = bits_match(&format!("{algo:?} {what} vs old loop"), &zero_sign_cleared(got), want) {
                return Case::Fail(e);
            }
        }
    }
    Case::Pass
}

/// A `dy` the way a ReLU hands it back: about half the entries zero (of
/// either sign), a sprinkling of subnormals, the rest ordinary values.
fn relu_style_dy(rng: &mut scnn_rng::SplitRng, dims: &[usize]) -> Tensor {
    let mut dy = uniform(rng, dims, -1.0, 1.0);
    for v in dy.as_mut_slice() {
        match rng.gen_range(0..8usize) {
            0..=2 => *v = 0.0,
            3 => *v = -0.0,
            4 => *v = f32::from_bits(rng.gen_range(1..64usize) as u32), // subnormal
            _ => {}
        }
    }
    dy
}

#[test]
fn backward_matches_the_pre_gemm_acc_loops_on_random_geometries() {
    check("conv backward vs old axpy loops", 24, |rng| {
        let n = rng.gen_range(1..4usize);
        let ic = rng.gen_range(1..6usize);
        let oc = rng.gen_range(1..19usize); // 4-row tile edges, > 16 rows
        let h = rng.gen_range(4..14usize);
        let w = rng.gen_range(4..14usize);
        let kh = rng.gen_range(1..4usize);
        let kw = rng.gen_range(1..4usize);
        let sh = rng.gen_range(1..4usize);
        let sw = rng.gen_range(1..4usize);
        let pad = Padding2d::new(
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
        );
        let full_h = h as i64 + pad.h_begin + pad.h_end;
        let full_w = w as i64 + pad.w_begin + pad.w_end;
        let (ch, cw) = (h as i64 + pad.h_begin.min(0) + pad.h_end.min(0), w as i64 + pad.w_begin.min(0) + pad.w_end.min(0));
        if full_h < kh as i64 || full_w < kw as i64 || ch < 1 || cw < 1 {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let (oh, ow) = ((full_h as usize - kh) / sh + 1, (full_w as usize - kw) / sw + 1);
        let dy = relu_style_dy(rng, &[n, oc, oh, ow]);
        at_every_level(|| backward_matches_old_loops(&x, &wt, &dy, &attrs))
    });
}

#[test]
fn backward_matches_the_pre_gemm_acc_loops_on_edge_geometries() {
    // Corners the random sweep may miss: 1×1 kernels (plen < 8: scalar
    // columns only), ow < 4 (a dx tile spans several output rows and the
    // dw panel several images), a reduction spanning three KC blocks,
    // crops on every side (dx lands at an offset), a wide patch (64·9
    // columns: many 16-wide strips), and a stride larger than the kernel.
    #[allow(clippy::type_complexity)] // a literal table, not an API
    let cases: &[(usize, usize, usize, usize, usize, (usize, usize), (usize, usize), Padding2d)] = &[
        // (n, ic, oc, h, w, (kh, kw), (sh, sw), pad)
        (2, 5, 9, 7, 9, (1, 1), (1, 1), Padding2d::default()),
        (3, 4, 7, 6, 3, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (2, 3, 5, 9, 2, (2, 1), (2, 1), Padding2d::new(1, 0, 0, 0)),
        (3, 2, 6, 16, 16, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (2, 4, 6, 9, 10, (3, 3), (1, 2), Padding2d::new(-1, -2, -2, -1)),
        (1, 3, 4, 8, 8, (2, 2), (1, 1), Padding2d::new(-1, 2, 1, -1)),
        (1, 64, 20, 6, 6, (3, 3), (1, 1), Padding2d::symmetric(1)),
        (2, 2, 17, 11, 11, (2, 2), (3, 3), Padding2d::default()),
    ];
    let phase_cases = PHASE_GEOMETRIES
        .iter()
        .map(|&(n, ic, oc, h, w, k, s, (pt, pb, pl, pr))| (n, ic, oc, h, w, k, s, Padding2d::new(pt, pb, pl, pr)));
    let mut rng = scnn_rng::SplitRng::seed_from_u64(43);
    for (n, ic, oc, h, w, (kh, kw), (sh, sw), pad) in cases.iter().copied().chain(phase_cases) {
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(&mut rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(&mut rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let oh = ((h as i64 + pad.h_begin + pad.h_end) as usize - kh) / sh + 1;
        let ow = ((w as i64 + pad.w_begin + pad.w_end) as usize - kw) / sw + 1;
        let dy = relu_style_dy(&mut rng, &[n, oc, oh, ow]);
        match at_every_level(|| backward_matches_old_loops(&x, &wt, &dy, &attrs)) {
            Case::Pass => {}
            Case::Fail(e) => panic!("case {n}x{ic}x{h}x{w} oc{oc} k{kh}x{kw} s{sh}x{sw}: {e}"),
            Case::Discard => unreachable!(),
        }
    }
}

/// [`scnn_tensor`]'s blocked dot product written out in scalar Rust: lane
/// `l` accumulates `p ≡ l (mod 8)` with `p` ascending (one fused
/// multiply-add per element, as in the sequential tail), the lanes fold as
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`, then the tail.
fn dot8_reference(a: &[f32], b: &[f32]) -> f32 {
    let k8 = a.len() / 8 * 8;
    let mut lanes = [0.0f32; 8];
    for p in 0..k8 {
        lanes[p % 8] = a[p].mul_add(b[p], lanes[p % 8]);
    }
    let mut tail = 0.0f32;
    for p in k8..a.len() {
        tail = a[p].mul_add(b[p], tail);
    }
    let (s0, s1) = (lanes[0] + lanes[4], lanes[1] + lanes[5]);
    let (s2, s3) = (lanes[2] + lanes[6], lanes[3] + lanes[7]);
    ((s0 + s2) + (s1 + s3)) + tail
}

/// The forward as `im2col` rows times weight rows, one [`dot8_reference`]
/// plus one bias add per element. Shares no arithmetic code with the
/// engine — and, unlike the materialized kernel, none with its GEMM.
fn reference_forward(x: &Tensor, w: &Tensor, b: &Tensor, attrs: &ConvAttrs) -> Tensor {
    let p = attrs.pad;
    let crop = Padding2d::new(p.h_begin.min(0), p.h_end.min(0), p.w_begin.min(0), p.w_end.min(0));
    let pos = Padding2d::new(p.h_begin.max(0), p.h_end.max(0), p.w_begin.max(0), p.w_end.max(0));
    let xc = x.pad2d(crop);
    let g = Conv2dGeometry::new(xc.dim(1), xc.dim(2), xc.dim(3), attrs.kh, attrs.kw, attrs.sh, attrs.sw, pos);
    let (n, oc) = (x.dim(0), w.dim(0));
    let (hw, plen) = (g.patch_count(), g.patch_len());
    let cols = im2col(&xc, &g);
    let mut y = vec![0.0f32; n * oc * hw];
    for q in 0..n * hw {
        for c in 0..oc {
            let dot = dot8_reference(&cols.as_slice()[q * plen..(q + 1) * plen], &w.as_slice()[c * plen..(c + 1) * plen]);
            y[((q / hw) * oc + c) * hw + q % hw] = dot + b.as_slice()[c];
        }
    }
    Tensor::from_vec(y, &[n, oc, g.out_h(), g.out_w()])
}

#[test]
fn position_kernels_match_the_scalar_references_for_every_kernel_width() {
    // Kernel widths 1, 2, 3, 5 and 7 at strides 1 and 2, under asymmetric
    // padding and under negative padding (the engine reads its window at
    // the crop offset of the uncropped input): planes equal and not, one
    // phase and several, strips cut per image and per row. Batch 3 on a
    // 13-wide map: strips straddle output rows and batch images. Forward
    // against `im2col` + scalar dot8, backward against the pre-micro-kernel
    // loops over `im2col`/`col2im_into`, both algorithms, every level.
    let pads = [
        Padding2d::new(1, 2, 0, 3),
        Padding2d::new(-1, 1, 2, -2),
        Padding2d::new(0, -2, -1, 1),
    ];
    let mut rng = scnn_rng::SplitRng::seed_from_u64(44);
    for kw in [1usize, 2, 3, 5, 7] {
        for stride in [1usize, 2] {
            for pad in pads {
                let (n, ic, oc, h, w, kh) = (3, 3, 10, 9, 13, kw.min(3));
                let attrs = ConvAttrs { kh, kw, sh: stride, sw: stride, pad };
                let x = uniform(&mut rng, &[n, ic, h, w], -1.0, 1.0);
                let wt = uniform(&mut rng, &[oc, ic, kh, kw], -0.7, 0.7);
                let b = uniform(&mut rng, &[oc], -0.2, 0.2);
                let what = format!("k{kh}x{kw} s{stride} pad {pad:?}");
                let want = reference_forward(&x, &wt, &b, &attrs);
                let dy = relu_style_dy(&mut rng, want.shape().dims());
                let case = at_every_level(|| {
                    for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
                        let y = conv2d_forward_with(&x, &wt, Some(&b), &attrs, Some(algo));
                        if let Err(e) = bits_match(&format!("{algo:?} y vs scalar reference"), &y, &want) {
                            return Case::Fail(e);
                        }
                    }
                    backward_matches_old_loops(&x, &wt, &dy, &attrs)
                });
                if let Case::Fail(e) = case {
                    panic!("{what}: {e}");
                }
            }
        }
    }
}

#[test]
fn forward_matches_the_scalar_reference_on_random_geometries() {
    check("conv forward vs im2col + scalar dot8", 24, |rng| {
        let n = rng.gen_range(1..4usize);
        let ic = rng.gen_range(1..6usize);
        let oc = rng.gen_range(1..19usize); // column quads, singles, > 16
        let h = rng.gen_range(4..14usize);
        let w = rng.gen_range(4..14usize);
        let kh = rng.gen_range(1..4usize);
        let kw = rng.gen_range(1..4usize);
        let sh = rng.gen_range(1..4usize);
        let sw = rng.gen_range(1..4usize);
        let pad = Padding2d::new(
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
            rng.gen_range(-2..3i64),
        );
        let (ch, cw) = (h as i64 + pad.h_begin.min(0) + pad.h_end.min(0), w as i64 + pad.w_begin.min(0) + pad.w_end.min(0));
        if h as i64 + pad.h_begin + pad.h_end < kh as i64 || w as i64 + pad.w_begin + pad.w_end < kw as i64 || ch < 1 || cw < 1 {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        let want = reference_forward(&x, &wt, &b, &attrs);
        at_every_level(|| {
            for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
                let y = conv2d_forward_with(&x, &wt, Some(&b), &attrs, Some(algo));
                if let Err(e) = bits_match(&format!("{algo:?} y vs scalar reference"), &y, &want) {
                    return Case::Fail(e);
                }
            }
            Case::Pass
        })
    });
}

/// The backward paths that read in place — `dx` as the forward of the
/// flipped kernel over `dy`, `dw` broadcasting its patch operand from `x`
/// with output channels across the lanes, both at every level — against
/// the materialized oracle, bit for bit, at every level the host runs and
/// at 1, 2 and 3 threads. Geometries are seeded: 1×1, 3×3, 5×5 and 7×7
/// kernels with every split of the padding that keeps the plane, odd
/// widths so sixteen-position strips wrap rows, 4×4 maps at n = 3 so they
/// straddle images, 16×16 maps whose every image is one `KC` block, and
/// channel counts off every register tile. `dy` is ReLU-style (signed
/// zeros, subnormals) with one NaN.
#[test]
fn in_place_backward_matches_the_materialized_oracle_at_every_level_and_thread_count() {
    check("in-place backward vs materialized", 12, |rng| {
        let k = [1usize, 3, 5, 7][rng.gen_range(0..4usize)];
        let (h, w) = match rng.gen_range(0..4usize) {
            0 => (4, 4),
            // One image is one `KC` block.
            1 => (16, 16),
            _ => (rng.gen_range(k.max(2)..12usize), 2 * rng.gen_range(1..8usize) + 1),
        };
        let n = match (h, w) {
            (4, 4) => 3,
            (16, 16) => 2,
            _ => rng.gen_range(1..4usize),
        };
        let (ic, oc) = (rng.gen_range(1..21usize), rng.gen_range(1..40usize));
        let (pt, pl) = (rng.gen_range(0..k) as i64, rng.gen_range(0..k) as i64);
        let pad = Padding2d::new(pt, k as i64 - 1 - pt, pl, k as i64 - 1 - pl);
        let attrs = ConvAttrs { kh: k, kw: k, sh: 1, sw: 1, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, k, k], -0.7, 0.7);
        let mut dy = relu_style_dy(rng, &[n, oc, h, w]);
        let nan_at = rng.gen_range(0..dy.len());
        dy.as_mut_slice()[nan_at] = f32::NAN;
        let want = conv2d_backward_with(&x, &wt, true, &dy, &attrs, Some(ConvAlgo::Materialized));
        for level in SimdLevel::ALL.into_iter().filter(|&l| supports(l)) {
            force_level(Some(level));
            for threads in [1, 2, 3] {
                let tiled = Some(ConvAlgo::Tiled);
                let got = scnn_par::with_threads(threads, || {
                    conv2d_backward_with(&x, &wt, true, &dy, &attrs, tiled)
                });
                let what = |t: &str| {
                    let at = format!("{} threads {threads}", level.name());
                    format!("{t} k{k} {n}x{ic}x{h}x{w} oc{oc} pad {pad:?} {at}")
                };
                for (t, a, b) in [("dx", &got.dx, &want.dx), ("dw", &got.dw, &want.dw)] {
                    if let Err(e) = bits_match(&what(t), a, b) {
                        force_level(None);
                        return Case::Fail(e);
                    }
                }
            }
        }
        force_level(None);
        Case::Pass
    });
}

/// `dw` holds at most two `KC` blocks of partials at once: block 0
/// accumulates in `dw`, the blocks after it run in groups that fold into
/// `dw` in block order. Against the materialized oracle, at every level
/// and at 1 and 4 threads, over layers whose `n·oh·ow` spans 1 block (no
/// partial), 2 (one group), 3 (block 0 beside a full group), 5 with a
/// short last block (a full first group, then a short one), 32 (sixteen
/// groups), the shared-copy path (a padded layer cut into channel tiles),
/// and split patches whose padding is negative.
#[test]
fn dw_block_groups_match_the_materialized_oracle() {
    #[allow(clippy::type_complexity)] // a literal table, not an API
    let cases: &[(usize, usize, usize, usize, usize, usize, usize, (i64, i64, i64, i64), usize)] = &[
        // (n, ic, oc, h, w, k, s, pad, KC blocks)
        (1, 3, 40, 16, 16, 3, 1, (1, 1, 1, 1), 1),
        (2, 3, 40, 16, 16, 3, 1, (1, 1, 1, 1), 2),
        (3, 5, 20, 16, 16, 1, 1, (0, 0, 0, 0), 3),
        (5, 3, 24, 15, 15, 3, 1, (1, 1, 1, 1), 5),
        (8, 16, 16, 32, 32, 3, 1, (1, 1, 1, 1), 32),
        (2, 4, 64, 16, 16, 3, 1, (1, 1, 1, 1), 2),
        (3, 4, 96, 16, 16, 3, 1, (1, 1, 1, 1), 3),
        (8, 8, 16, 16, 16, 1, 2, (0, -1, 0, -1), 2),
        (4, 8, 16, 18, 18, 3, 1, (1, -1, -1, 1), 4),
    ];
    let mut rng = scnn_rng::SplitRng::seed_from_u64(48);
    for &(n, ic, oc, h, w, k, s, (pt, pb, pl, pr), blocks) in cases {
        let attrs = ConvAttrs { kh: k, kw: k, sh: s, sw: s, pad: Padding2d::new(pt, pb, pl, pr) };
        let (g, _) = Conv2dGeometry::cropped(ic, h, w, k, k, s, s, attrs.pad);
        assert_eq!((n * g.patch_count()).div_ceil(REDUCTION_KC), blocks, "case {n}x{ic}x{h}x{w}");
        let x = uniform(&mut rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(&mut rng, &[oc, ic, k, k], -0.7, 0.7);
        let b = uniform(&mut rng, &[oc], -0.2, 0.2);
        if let Case::Fail(e) = at_every_level(|| algos_agree(&x, &wt, &b, &attrs)) {
            panic!("{blocks} blocks, case {n}x{ic}x{h}x{w} oc{oc} k{k}/{s} pad {:?}: {e}", attrs.pad);
        }
    }
}
