//! Property tests for the batch-range ("micro-batch") kernel variants.
//!
//! The contract under test: chaining aligned segments of
//! [`conv2d_dw_tiled_acc`] over the whole batch (first segment
//! `init = true`) is **bit-identical** to the single full-batch call. This
//! is the invariant that lets the executor micro-batch convolution layers
//! without perturbing training numerics.

use scnn_rng::prop::{check, Case};
use scnn_rng::Rng;
use scnn_tensor::{
    conv2d_dw_single_block, conv2d_dw_tiled, conv2d_dw_tiled_acc, micro_batch_aligned,
    min_micro_batch, uniform, Conv2dGeometry, Padding2d,
};

const THREADS: [usize; 3] = [1, 2, 4];

fn bits_equal(what: &str, a: &[f32], b: &[f32]) -> Case {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Case::Fail(format!("{what}: element {i} differs: {x} vs {y}"));
        }
    }
    Case::Pass
}

fn random_geometry(rng: &mut impl Rng) -> (Conv2dGeometry, usize) {
    let in_c = rng.gen_range(1..4usize);
    let side = rng.gen_range(4..14usize);
    let k = rng.gen_range(1..4usize).min(side);
    let s = rng.gen_range(1..3usize);
    let p = rng.gen_range(0..2i64);
    let g = Conv2dGeometry::new(in_c, side, side, k, k, s, s, Padding2d::symmetric(p));
    let n = rng.gen_range(2..7usize);
    (g, n)
}

/// Segment starts covering `0..n` in steps of `u` (the last may be short).
fn segments(n: usize, u: usize) -> Vec<(usize, usize)> {
    (0..n).step_by(u).map(|b0| (b0, u.min(n - b0))).collect()
}

#[test]
fn min_micro_batch_is_aligned_and_minimal() {
    check("min_micro_batch legality", 32, |rng| {
        let (g, n) = random_geometry(rng);
        let u = min_micro_batch(&g, n);
        if u == 0 || u > n {
            return Case::Fail(format!("min_micro_batch out of range: {u} for n={n}"));
        }
        if !micro_batch_aligned(&g, u, n) {
            return Case::Fail(format!("min_micro_batch {u} not aligned (n={n}, {g:?})"));
        }
        for smaller in 1..u {
            if micro_batch_aligned(&g, smaller, n) {
                return Case::Fail(format!("{smaller} < {u} already aligned (n={n}, {g:?})"));
            }
        }
        Case::Pass
    });
}

#[test]
fn conv2d_dw_acc_chained_bitwise_equal() {
    check("conv2d_dw_tiled_acc chained == full", 16, |rng| {
        let (g, n) = random_geometry(rng);
        let oc = rng.gen_range(1..5usize);
        let x = uniform(rng, &[n, g.in_c, g.in_h, g.in_w], -1.0, 1.0);
        let dy = uniform(rng, &[n, oc, g.out_h(), g.out_w()], -1.0, 1.0);
        let plen = g.patch_len();
        let mut full = vec![0.0f32; oc * plen];
        conv2d_dw_tiled(&x, &dy, &g, &mut full);
        let u = min_micro_batch(&g, n);
        for &t in &THREADS {
            let chained = scnn_par::with_threads(t, || {
                let mut dw = vec![0.0f32; oc * plen];
                for (b0, bn) in segments(n, u) {
                    conv2d_dw_tiled_acc(&x, &dy, &g, b0, bn, &mut dw, b0 == 0);
                }
                dw
            });
            let case = bits_equal(&format!("conv2d_dw_tiled_acc u={u} (t={t})"), &full, &chained);
            if !matches!(case, Case::Pass) {
                return case;
            }
        }
        Case::Pass
    });
}

#[test]
fn single_block_dw_chained_bitwise_at_any_boundary() {
    // A conv whose whole batch fits one KC block folds dw sequentially, so
    // chunk boundaries need no alignment at all — every micro-batch size
    // replays the full-batch bits.
    check("single-block dw chained == full", 16, |rng| {
        let in_c = rng.gen_range(1..4usize);
        let side = rng.gen_range(3..7usize);
        let k = rng.gen_range(1..3usize).min(side);
        let g = Conv2dGeometry::new(in_c, side, side, k, k, 1, 1, Padding2d::symmetric(0));
        let n = rng.gen_range(2..7usize).min(256 / g.patch_count().max(1)).max(2);
        if !conv2d_dw_single_block(&g, n) {
            return Case::Pass; // geometry too big for the single-block path
        }
        let oc = rng.gen_range(1..5usize);
        let x = uniform(rng, &[n, g.in_c, g.in_h, g.in_w], -1.0, 1.0);
        let dy = uniform(rng, &[n, oc, g.out_h(), g.out_w()], -1.0, 1.0);
        let plen = g.patch_len();
        let mut full = vec![0.0f32; oc * plen];
        conv2d_dw_tiled(&x, &dy, &g, &mut full);
        for u in 1..=n {
            if !micro_batch_aligned(&g, u, n) {
                return Case::Fail(format!("single-block u={u} not aligned (n={n}, {g:?})"));
            }
            for &t in &THREADS {
                let chained = scnn_par::with_threads(t, || {
                    let mut dw = vec![0.0f32; oc * plen];
                    for (b0, bn) in segments(n, u) {
                        conv2d_dw_tiled_acc(&x, &dy, &g, b0, bn, &mut dw, b0 == 0);
                    }
                    dw
                });
                let case =
                    bits_equal(&format!("single-block dw u={u} (t={t})"), &full, &chained);
                if !matches!(case, Case::Pass) {
                    return case;
                }
            }
        }
        Case::Pass
    });
}
