//! 2-D convolution with the asymmetric and negative padding the Split-CNN
//! per-patch formulation requires.
//!
//! Every conv runs on the tile engine (`scnn_tensor::conv_engine`,
//! DESIGN.md §11): the forward and `dx` read their operands in place,
//! position by position in registers (a strided forward through one copy
//! of its window's phase planes), `dw` broadcasts its patch operand from
//! the input, and the full `im2col`/`dcols` matrices are never allocated.
//! A negative padding is applied by addressing (the engine reads and
//! writes the cropped window in place), not by copy.
//!
//! Passing `Some(`[`ConvAlgo::Materialized`]`)` runs the classic whole-batch
//! `im2col` + GEMM pipeline instead — the reference the engine is
//! bit-identical to, for tests to compare against; no conv node runs it.

use scnn_tensor::{
    col2im_cols_into, conv2d_dw_tiled_acc_at, conv2d_dx_tiled, conv2d_fwd_tiled_at, im2col_into,
    matmul_a_bt_into, matmul_at_b_into, matmul_into, Conv2dGeometry, Padding2d, Tensor,
};

use super::{fresh, ConvAttrs};

pub use scnn_tensor::ConvAlgo;

/// Square tile edge for the `[n·oh·ow, oc] ↔ NCHW` transposes; 32×32 f32
/// tiles (4 KiB) keep both the strided and the sequential side in L1.
const TILE: usize = 32;

/// Gradients produced by [`conv2d_backward`].
#[derive(Clone, Debug)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input, same shape as the input.
    pub dx: Tensor,
    /// Gradient w.r.t. the weight.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, when a bias is present.
    pub db: Option<Tensor>,
}

/// How a layer's (possibly negative) padding lands on its input: the
/// geometry of the cropped window with the non-negative remainder as its
/// padding, and the window's offset inside `x`. The tile engine reads
/// and writes the window in place at that offset; the reference pipeline
/// takes the [`cropped`] copy.
struct Lowered {
    g: Conv2dGeometry,
    crop: Padding2d,
    off_h: usize,
    off_w: usize,
}

fn lower(x: &Tensor, attrs: &ConvAttrs) -> Lowered {
    let (g, crop) = attrs.geometry(x.shape().dims());
    Lowered { g, crop, off_h: (-crop.h_begin) as usize, off_w: (-crop.w_begin) as usize }
}

/// The cropped view of `x` under `crop` — borrowing `x` itself when the
/// crop is empty, so the common non-negative-padding case copies nothing.
fn cropped(x: &Tensor, crop: Padding2d) -> std::borrow::Cow<'_, Tensor> {
    if crop.is_zero() {
        std::borrow::Cow::Borrowed(x)
    } else {
        std::borrow::Cow::Owned(x.pad2d(crop))
    }
}

/// Convolution forward: `x: [n, ic, h, w]`, `w: [oc, ic, kh, kw]`,
/// optional `b: [oc]` → `[n, oc, oh, ow]`.
///
/// # Panics
///
/// Panics if shapes disagree with the attributes.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, b: Option<&Tensor>, attrs: &ConvAttrs) -> Tensor {
    conv2d_forward_with(x, w, b, attrs, None)
}

/// [`conv2d_forward`] with an explicit algorithm (`None` = the tile
/// engine). Both return identical bits — tests pin this.
pub fn conv2d_forward_with(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
) -> Tensor {
    fresh(&out_dims(x, w, attrs), |y| conv2d_forward_into(x, w, b, attrs, algo, y)).0
}

/// [`conv2d_forward_with`] at micro-batch size `micro` (`0` = whole batch).
/// The forward has nothing to chunk — the engine keeps no batch-sized
/// scratch but a strided call's phase copy of its input, and the
/// [`ConvAlgo::Materialized`] reference always runs the whole batch — so
/// the output is the full-batch call's for **any** `micro`; the argument
/// mirrors [`conv2d_backward_micro`].
pub fn conv2d_forward_micro(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
    _micro: usize,
) -> Tensor {
    conv2d_forward_with(x, w, b, attrs, algo)
}

/// [`conv2d_forward_with`] into `y: [n, oc, oh, ow]`, whose contents on
/// entry do not matter: every element is overwritten.
///
/// # Panics
///
/// Panics if shapes disagree with the attributes or `y` has another shape.
pub fn conv2d_forward_into(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
    y: &mut Tensor,
) {
    assert_eq!(y.shape().dims(), out_dims(x, w, attrs), "conv output buffer shape");
    let Lowered { g, crop, off_h, off_w } = lower(x, attrs);
    let n = x.dim(0);
    let oc = w.dim(0);
    let hw = g.out_h() * g.out_w();

    let out = y.as_mut_slice();
    match algo.unwrap_or_default() {
        ConvAlgo::Tiled => {
            conv2d_fwd_tiled_at(x, off_h, off_w, w, b.map(Tensor::as_slice), &g, out);
        }
        ConvAlgo::Materialized => {
            let xc = cropped(x, crop);
            let (rows, plen) = (n * hw, g.patch_len());
            scnn_par::scratch::with_scratch(rows * plen, |cols| {
                im2col_into(&xc, &g, cols);
                scnn_par::scratch::with_scratch(rows * oc, |ymat| {
                    // The weight tensor is row-major [oc, ic·kh·kw] already.
                    matmul_a_bt_into(cols, w.as_slice(), rows, plen, oc, ymat);
                    transpose_rows_to_nchw(ymat, b.map(Tensor::as_slice), n, oc, hw, out);
                });
            });
        }
    }
}

/// `[n, oc, oh, ow]` of the forward, after checking the operands agree.
fn out_dims(x: &Tensor, w: &Tensor, attrs: &ConvAttrs) -> [usize; 4] {
    assert_eq!(x.rank(), 4, "conv input must be NCHW");
    assert_eq!(w.rank(), 4, "conv weight must be [oc, ic, kh, kw]");
    assert_eq!(w.dim(1), x.dim(1), "conv channel mismatch");
    assert_eq!((w.dim(2), w.dim(3)), (attrs.kh, attrs.kw), "kernel shape mismatch");
    let g = lower(x, attrs).g;
    [x.dim(0), w.dim(0), g.out_h(), g.out_w()]
}

/// Reorders `[n·hw, oc]` rows into NCHW planes as one blocked transpose
/// per batch image (parallel: images are disjoint), fusing the bias add
/// with the lookup hoisted out of the inner loops.
fn transpose_rows_to_nchw(
    src: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    oc: usize,
    hw: usize,
    out: &mut [f32],
) {
    assert_eq!(src.len(), n * hw * oc);
    assert_eq!(out.len(), n * oc * hw);
    scnn_par::par_chunks_mut(out, oc * hw, |bidx, img| {
        let rows = &src[bidx * hw * oc..(bidx + 1) * hw * oc];
        for c0 in (0..oc).step_by(TILE) {
            let c1 = (c0 + TILE).min(oc);
            for p0 in (0..hw).step_by(TILE) {
                let p1 = (p0 + TILE).min(hw);
                for c in c0..c1 {
                    let add = bias.map_or(0.0, |bb| bb[c]);
                    let drow = &mut img[c * hw + p0..c * hw + p1];
                    for (d, p) in drow.iter_mut().zip(p0..p1) {
                        *d = rows[p * oc + c] + add;
                    }
                }
            }
        }
    });
}

/// Convolution backward: given upstream `dy`, recomputes patch rows from
/// `x` (trading compute for memory, as the real framework does) and
/// returns input, weight and bias gradients.
///
/// # Panics
///
/// Panics if `dy`'s shape does not match the forward output shape.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    has_bias: bool,
    dy: &Tensor,
    attrs: &ConvAttrs,
) -> ConvGrads {
    conv2d_backward_with(x, w, has_bias, dy, attrs, None)
}

/// [`conv2d_backward`] with an explicit algorithm (`None` = the tile engine).
pub fn conv2d_backward_with(
    x: &Tensor,
    w: &Tensor,
    has_bias: bool,
    dy: &Tensor,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
) -> ConvGrads {
    conv2d_backward_micro(x, w, has_bias, dy, attrs, algo, 0)
}

/// [`conv2d_backward_with`] executed in micro-batches of `micro` images
/// (`0` = whole batch), shrinking the engine's batch-proportional scratch
/// — the `dw` partials — by `n / micro` while accumulating the weight
/// gradient across chunks in the full-batch fold order. The
/// [`ConvAlgo::Materialized`] reference ignores `micro` and runs the whole
/// batch.
///
/// Gradients are bit-identical to the full-batch call when `micro`
/// satisfies [`scnn_tensor::micro_batch_aligned`] for this geometry: `dw`'s
/// `KC`-blocked reduction then replays the same block grid (`dx` and `db`
/// are bit-identical for any `micro`). The planner only emits aligned
/// schedules; unaligned values still compute correct sums.
pub fn conv2d_backward_micro(
    x: &Tensor,
    w: &Tensor,
    has_bias: bool,
    dy: &Tensor,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
    micro: usize,
) -> ConvGrads {
    let (dx, dw, db) = conv2d_grads(x, w, has_bias, dy, attrs, algo, micro, true);
    ConvGrads { dx: dx.expect("dx was asked for"), dw, db }
}

/// [`conv2d_backward_micro`]'s `(dx, dw, db)`, with `dx` only when
/// `want_dx`: a conv whose input carries no gradient (an image, or a slice
/// of one) computes its weight and bias gradients alone, with the same
/// bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_grads(
    x: &Tensor,
    w: &Tensor,
    has_bias: bool,
    dy: &Tensor,
    attrs: &ConvAttrs,
    algo: Option<ConvAlgo>,
    micro: usize,
    want_dx: bool,
) -> (Option<Tensor>, Tensor, Option<Tensor>) {
    let Lowered { g, crop, off_h, off_w } = lower(x, attrs);
    let n = x.dim(0);
    let oc = w.dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(
        dy.shape().dims(),
        &[n, oc, oh, ow],
        "conv dy shape mismatch"
    );
    let hw = oh * ow;
    let plen = g.patch_len();

    let mut dw = Tensor::zeros(w.shape().dims());
    // Gradients fold into the full-size dx at the crop offset: cropped-away
    // (abandoned) rows keep their single zero fill.
    let mut dx = want_dx.then(|| Tensor::zeros(x.shape().dims()));

    match algo.unwrap_or_default() {
        ConvAlgo::Tiled => {
            let u = if micro == 0 { n } else { micro.min(n) };
            for b0 in (0..n).step_by(u.max(1)) {
                let bn = u.min(n - b0);
                conv2d_dw_tiled_acc_at(x, off_h, off_w, dy, &g, b0, bn, dw.as_mut_slice(), b0 == 0);
            }
            // dx keeps no batch-sized scratch — nothing to chunk.
            if let Some(dx) = &mut dx {
                conv2d_dx_tiled(dy, w, &g, dx, off_h, off_w);
            }
        }
        ConvAlgo::Materialized => {
            let xc = cropped(x, crop);
            let dsrc = dy.as_slice();
            let rows = n * hw;
            scnn_par::scratch::with_scratch(rows * oc, |dymat| {
                // [n, oc, oh, ow] -> [n*hw, oc], blocked, parallel per image.
                scnn_par::par_chunks_mut(dymat, hw * oc, |bidx, rows| {
                    let img = &dsrc[bidx * oc * hw..(bidx + 1) * oc * hw];
                    for p0 in (0..hw).step_by(TILE) {
                        let p1 = (p0 + TILE).min(hw);
                        for c0 in (0..oc).step_by(TILE) {
                            let c1 = (c0 + TILE).min(oc);
                            for p in p0..p1 {
                                let drow = &mut rows[p * oc + c0..p * oc + c1];
                                for (d, c) in drow.iter_mut().zip(c0..c1) {
                                    *d = img[c * hw + p];
                                }
                            }
                        }
                    }
                });
                scnn_par::scratch::with_scratch(rows * plen, |cols| {
                    im2col_into(&xc, &g, cols);
                    matmul_at_b_into(dymat, cols, rows, oc, plen, dw.as_mut_slice());
                });
                if let Some(dx) = &mut dx {
                    scnn_par::scratch::with_scratch(rows * plen, |dcols| {
                        matmul_into(dymat, w.as_slice(), rows, oc, plen, dcols);
                        col2im_cols_into(dcols, n, &g, dx, off_h, off_w);
                    });
                }
            });
        }
    }
    let db = has_bias.then(|| {
        let dsrc = dy.as_slice();
        let mut db = vec![0.0f32; oc];
        for bidx in 0..n {
            for (c, acc) in db.iter_mut().enumerate() {
                let base = (bidx * oc + c) * hw;
                *acc += dsrc[base..base + hw].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(db, &[oc])
    });

    (dx, dw, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gradcheck::check;
    use scnn_rng::SplitRng;
    use scnn_tensor::uniform;

    fn rng() -> SplitRng {
        SplitRng::seed_from_u64(11)
    }

    #[test]
    fn identity_1x1_conv() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let a = ConvAttrs {
            kh: 1,
            kw: 1,
            sh: 1,
            sw: 1,
            pad: Padding2d::default(),
        };
        assert_eq!(conv2d_forward(&x, &w, None, &a), x);
    }

    #[test]
    fn known_3x3_sum_filter() {
        // All-ones 3x3 filter with pad 1 computes neighborhood sums.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let a = ConvAttrs {
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            pad: Padding2d::symmetric(1),
        };
        let y = conv2d_forward(&x, &w, None, &a);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0); // center sees all 9
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0); // corner sees 4
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0); // edge sees 6
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let a = ConvAttrs {
            kh: 1,
            kw: 1,
            sh: 1,
            sw: 1,
            pad: Padding2d::default(),
        };
        let y = conv2d_forward(&x, &w, Some(&b), &a);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 0, 0]), -2.0);
    }

    #[test]
    fn strided_shape() {
        let mut r = rng();
        let x = uniform(&mut r, &[2, 3, 7, 7], -1.0, 1.0);
        let w = uniform(&mut r, &[4, 3, 3, 3], -1.0, 1.0);
        let a = ConvAttrs {
            kh: 3,
            kw: 3,
            sh: 2,
            sw: 2,
            pad: Padding2d::symmetric(1),
        };
        let y = conv2d_forward(&x, &w, None, &a);
        assert_eq!(y.shape().dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn gradcheck_input_weight_bias() {
        let mut r = rng();
        let x = uniform(&mut r, &[2, 2, 5, 5], -1.0, 1.0);
        let w = uniform(&mut r, &[3, 2, 3, 3], -0.5, 0.5);
        let b = uniform(&mut r, &[3], -0.5, 0.5);
        let a = ConvAttrs {
            kh: 3,
            kw: 3,
            sh: 2,
            sw: 2,
            pad: Padding2d::new(1, 0, 0, 1),
        };
        // Gradcheck both algorithms: loss = sum of outputs, so dy = ones.
        for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
            let y = conv2d_forward_with(&x, &w, Some(&b), &a, Some(algo));
            let dy = Tensor::ones(y.shape().dims());
            let g = conv2d_backward_with(&x, &w, true, &dy, &a, Some(algo));
            check(&x, &g.dx, 0.05, |xx| conv2d_forward(xx, &w, Some(&b), &a).sum());
            check(&w, &g.dw, 0.05, |ww| conv2d_forward(&x, ww, Some(&b), &a).sum());
            check(&b, g.db.as_ref().unwrap(), 0.05, |bb| {
                conv2d_forward(&x, &w, Some(bb), &a).sum()
            });
        }
    }

    #[test]
    fn gradcheck_negative_padding() {
        let mut r = rng();
        let x = uniform(&mut r, &[1, 1, 6, 6], -1.0, 1.0);
        let w = uniform(&mut r, &[2, 1, 3, 3], -0.5, 0.5);
        let a = ConvAttrs {
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            pad: Padding2d::new(-1, 1, 1, -2),
        };
        let y = conv2d_forward(&x, &w, None, &a);
        // h: 6-1+1=6 padded → 4 outputs; w: 6+1-2=5 → 3 outputs.
        assert_eq!(y.shape().dims(), &[1, 2, 4, 3]);
        let dy = Tensor::ones(y.shape().dims());
        for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
            let g = conv2d_backward_with(&x, &w, false, &dy, &a, Some(algo));
            assert_eq!(g.dx.shape(), x.shape());
            check(&x, &g.dx, 0.05, |xx| conv2d_forward(xx, &w, None, &a).sum());
            check(&w, &g.dw, 0.05, |ww| conv2d_forward(&x, ww, None, &a).sum());
        }
    }

    #[test]
    fn cropped_rows_get_zero_gradient() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let a = ConvAttrs {
            kh: 2,
            kw: 2,
            sh: 2,
            sw: 2,
            pad: Padding2d::new(-2, 0, 0, 0),
        };
        let y = conv2d_forward(&x, &w, None, &a);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 2]);
        for algo in [ConvAlgo::Tiled, ConvAlgo::Materialized] {
            let g =
                conv2d_backward_with(&x, &w, false, &Tensor::ones(&[1, 1, 1, 2]), &a, Some(algo));
            // First two rows were cropped away → zero gradient (abandoned).
            for c in 0..4 {
                assert_eq!(g.dx.at(&[0, 0, 0, c]), 0.0);
                assert_eq!(g.dx.at(&[0, 0, 1, c]), 0.0);
                assert_eq!(g.dx.at(&[0, 0, 2, c]), 1.0);
            }
        }
    }
}
