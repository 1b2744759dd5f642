//! Property tests: every parallel tensor kernel is bit-identical across
//! thread counts. Chunking in `scnn-par` is a function of problem size
//! only, so `SCNN_THREADS` (here forced via `scnn_par::with_threads`) must
//! never change a single output bit.

use scnn_rng::prop::{check, Case};
use scnn_rng::Rng;
use scnn_tensor::{
    col2im_into, im2col, matmul, matmul_a_bt, matmul_at_b, uniform, Conv2dGeometry, Padding2d,
    Tensor,
};

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Runs `f` under each thread count and asserts the outputs match the
/// single-thread result bit-for-bit.
fn bitwise_invariant(what: &str, f: impl Fn() -> Tensor) -> Case {
    let reference = scnn_par::with_threads(1, &f);
    for &t in &THREADS[1..] {
        let got = scnn_par::with_threads(t, &f);
        if got.shape() != reference.shape() {
            return Case::Fail(format!("{what}: shape changed under {t} threads"));
        }
        for (i, (a, b)) in reference
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .enumerate()
        {
            if a.to_bits() != b.to_bits() {
                return Case::Fail(format!(
                    "{what}: element {i} differs under {t} threads: {a} vs {b}"
                ));
            }
        }
    }
    Case::Pass
}

#[test]
fn matmul_bitwise_thread_invariant() {
    check("matmul thread-invariant", 16, |rng| {
        let m = rng.gen_range(1..40usize);
        let k = rng.gen_range(1..300usize);
        let n = rng.gen_range(1..200usize);
        let a = uniform(rng, &[m, k], -1.0, 1.0);
        let b = uniform(rng, &[k, n], -1.0, 1.0);
        bitwise_invariant("matmul", || matmul(&a, &b))
    });
}

#[test]
fn matmul_at_b_bitwise_thread_invariant() {
    check("matmul_at_b thread-invariant", 16, |rng| {
        let k = rng.gen_range(1..600usize);
        let m = rng.gen_range(1..48usize);
        let n = rng.gen_range(1..160usize);
        let a = uniform(rng, &[k, m], -1.0, 1.0);
        let b = uniform(rng, &[k, n], -1.0, 1.0);
        bitwise_invariant("matmul_at_b", || matmul_at_b(&a, &b))
    });
}

#[test]
fn matmul_a_bt_bitwise_thread_invariant() {
    check("matmul_a_bt thread-invariant", 16, |rng| {
        let m = rng.gen_range(1..64usize);
        let k = rng.gen_range(1..300usize);
        let n = rng.gen_range(1..32usize);
        let a = uniform(rng, &[m, k], -1.0, 1.0);
        let b = uniform(rng, &[n, k], -1.0, 1.0);
        bitwise_invariant("matmul_a_bt", || matmul_a_bt(&a, &b))
    });
}

#[test]
fn matmul_a_bt_matches_per_element_dot8_at_every_thread_count() {
    // The B-panel-stationary loop nest against the definition: every
    // output is its own blocked dot product, so neither the row chunking
    // (`m` off the grain, ragged last chunk) nor the column grouping
    // (`n` mod 8) nor the shared-dimension blocks (`k` past 512, any lane
    // tail) may show in a single bit — at 1, 2, 4 and 7 threads.
    check("matmul_a_bt vs per-element dot8", 12, |rng| {
        let m = rng.gen_range(1..150usize);
        let k = rng.gen_range(1..1100usize);
        let n = rng.gen_range(1..20usize);
        let a = uniform(rng, &[m, k], -1.0, 1.0);
        let b = uniform(rng, &[n, k], -1.0, 1.0);
        let dot8 = |x: &[f32], y: &[f32]| {
            let k8 = x.len() / 8 * 8;
            let mut lanes = [0.0f32; 8];
            for p in 0..k8 {
                lanes[p % 8] = x[p].mul_add(y[p], lanes[p % 8]);
            }
            let tail = (k8..x.len()).fold(0.0f32, |t, p| x[p].mul_add(y[p], t));
            let (s0, s1) = (lanes[0] + lanes[4], lanes[1] + lanes[5]);
            let (s2, s3) = (lanes[2] + lanes[6], lanes[3] + lanes[7]);
            ((s0 + s2) + (s1 + s3)) + tail
        };
        let want: Vec<f32> = (0..m * n)
            .map(|i| dot8(&a.as_slice()[i / n * k..][..k], &b.as_slice()[i % n * k..][..k]))
            .collect();
        let want = Tensor::from_vec(want, &[m, n]);
        for &t in &THREADS {
            let got = scnn_par::with_threads(t, || matmul_a_bt(&a, &b));
            for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Case::Fail(format!(
                        "{m}x{k}x{n}: element {i} under {t} threads: {x} vs per-element {y}"
                    ));
                }
            }
        }
        Case::Pass
    });
}

/// Draws a random geometry whose output is non-empty.
fn random_geometry(rng: &mut impl Rng) -> Option<(usize, Conv2dGeometry, Tensor)> {
    let n = rng.gen_range(1..4usize);
    let c = rng.gen_range(1..5usize);
    let h = rng.gen_range(3..14usize);
    let w = rng.gen_range(3..14usize);
    let kh = rng.gen_range(1..4usize);
    let kw = rng.gen_range(1..4usize);
    let sh = rng.gen_range(1..3usize);
    let sw = rng.gen_range(1..3usize);
    let pad = Padding2d::new(
        rng.gen_range(0..2i64),
        rng.gen_range(0..2i64),
        rng.gen_range(0..2i64),
        rng.gen_range(0..2i64),
    );
    let full_h = (h as i64 + pad.h_begin + pad.h_end) as usize;
    let full_w = (w as i64 + pad.w_begin + pad.w_end) as usize;
    if full_h < kh || full_w < kw {
        return None;
    }
    let g = Conv2dGeometry::new(c, h, w, kh, kw, sh, sw, pad);
    let x = uniform(rng, &[n, c, h, w], -1.0, 1.0);
    Some((n, g, x))
}

#[test]
fn im2col_bitwise_thread_invariant() {
    check("im2col thread-invariant", 24, |rng| {
        let Some((_, g, x)) = random_geometry(rng) else {
            return Case::Discard;
        };
        bitwise_invariant("im2col", || im2col(&x, &g))
    });
}

#[test]
fn col2im_into_bitwise_thread_invariant() {
    check("col2im_into thread-invariant", 24, |rng| {
        let Some((n, g, x)) = random_geometry(rng) else {
            return Case::Discard;
        };
        let cols = im2col(&x, &g);
        let dims = x.shape().dims().to_vec();
        bitwise_invariant("col2im_into", || {
            let mut dst = Tensor::zeros(&dims);
            col2im_into(&cols, n, &g, &mut dst, 0, 0);
            dst
        })
    });
}
