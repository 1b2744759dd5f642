//! `im2col`/`col2im` lowering for convolution.
//!
//! Convolution is computed as a matrix product between an unrolled patch
//! matrix and the weight matrix, the same lowering cuDNN's GEMM algorithms
//! use (and whose workspace cost the paper's §6.3 point (1) discusses —
//! `scnn-gpusim` models that workspace as a multiple of this buffer's size).

use crate::{Padding2d, Tensor};

/// Static geometry of a 2-D convolution or pooling window operation.
///
/// Padding here must be non-negative. A layer's possibly negative padding
/// (out-of-interval split choices crop) goes through
/// [`Conv2dGeometry::cropped`], which describes the cropped input window
/// — the geometry every conv and pool kernel, the graph's shape inference
/// and the workspace planner share.
///
/// # Example
///
/// ```
/// use scnn_tensor::{Conv2dGeometry, Padding2d};
///
/// let g = Conv2dGeometry::new(3, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
/// assert_eq!((g.out_h(), g.out_w()), (32, 32));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Non-negative zero padding.
    pub pad: Padding2d,
}

impl Conv2dGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any padding component is negative, a stride is zero, or the
    /// padded input is smaller than the kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kh: usize,
        kw: usize,
        sh: usize,
        sw: usize,
        pad: Padding2d,
    ) -> Self {
        assert!(
            pad.h_begin >= 0 && pad.h_end >= 0 && pad.w_begin >= 0 && pad.w_end >= 0,
            "window geometry requires non-negative padding, got {pad:?}"
        );
        assert!(sh > 0 && sw > 0, "strides must be positive");
        let g = Conv2dGeometry {
            in_c,
            in_h,
            in_w,
            kh,
            kw,
            sh,
            sw,
            pad,
        };
        assert!(
            g.padded_h() >= kh && g.padded_w() >= kw,
            "padded input {}x{} smaller than kernel {kh}x{kw}",
            g.padded_h(),
            g.padded_w()
        );
        g
    }

    /// The geometry of a window operation whose padding `pad` may be
    /// negative, over an input of `in_c × in_h × in_w`: the negative sides
    /// crop the input ([`Padding2d::split`]), and the geometry is the
    /// cropped window's, with the non-negative remainder as its padding.
    /// Returns it with the crop; the window sits at offset
    /// `(-crop.h_begin, -crop.w_begin)` of the input.
    ///
    /// # Panics
    ///
    /// Panics if the crop removes a whole extent, or as
    /// [`Conv2dGeometry::new`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn cropped(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kh: usize,
        kw: usize,
        sh: usize,
        sw: usize,
        pad: Padding2d,
    ) -> (Self, Padding2d) {
        let (crop, pos) = pad.split();
        let g = Conv2dGeometry::new(in_c, crop.out_h(in_h), crop.out_w(in_w), kh, kw, sh, sw, pos);
        (g, crop)
    }

    fn padded_h(&self) -> usize {
        (self.in_h as i64 + self.pad.h_begin + self.pad.h_end) as usize
    }

    fn padded_w(&self) -> usize {
        (self.in_w as i64 + self.pad.w_begin + self.pad.w_end) as usize
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.padded_h() - self.kh) / self.sh + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.padded_w() - self.kw) / self.sw + 1
    }

    /// Rows of the `im2col` matrix per batch element.
    pub fn patch_count(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the `im2col` matrix.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kh * self.kw
    }
}

/// Unrolls `x: [n, c, h, w]` into a matrix `[n·out_h·out_w, c·kh·kw]` where
/// each row is one receptive field (zero-padded where the window hangs over
/// the border).
///
/// # Panics
///
/// Panics if `x` does not match the geometry's input shape.
pub fn im2col(x: &Tensor, g: &Conv2dGeometry) -> Tensor {
    let n = x.dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    let mut out = vec![0.0f32; n * oh * ow * plen];
    im2col_into(x, g, &mut out);
    Tensor::from_vec(out, &[n * oh * ow, plen])
}

/// Slice core of [`im2col`]: fills a caller-provided patch matrix buffer,
/// which **must be zero-filled on entry** (out-of-bounds window positions
/// are skipped, not written). Lets the materialized convolution reference
/// unroll into reused workspace scratch instead of a fresh allocation.
///
/// # Panics
///
/// Panics if `x` does not match the geometry or `out` has the wrong length.
pub fn im2col_into(x: &Tensor, g: &Conv2dGeometry, out: &mut [f32]) {
    assert_eq!(x.rank(), 4, "im2col expects NCHW");
    assert_eq!(
        (x.dim(1), x.dim(2), x.dim(3)),
        (g.in_c, g.in_h, g.in_w),
        "input {} does not match geometry {g:?}",
        x.shape()
    );
    let n = x.dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    assert_eq!(out.len(), n * oh * ow * plen, "im2col_into out length");
    let src = x.as_slice();
    let (h, w) = (g.in_h, g.in_w);
    // Parallel over the n·out_h dimension: each (b, oy) row group fills a
    // disjoint `ow·plen` stripe of the patch matrix. Grouping several rows
    // per chunk (a function of the row count only) amortizes dispatch.
    let rows_per_chunk = scnn_par::grain(n * oh, 2);
    let stripe = ow * plen;
    scnn_par::par_chunks_mut(out, rows_per_chunk * stripe, |ci, chunk| {
        let first_row = ci * rows_per_chunk;
        for (r, rowbuf) in chunk.chunks_mut(stripe).enumerate() {
            let (b, oy) = ((first_row + r) / oh, (first_row + r) % oh);
            let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
            for ox in 0..ow {
                let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                let row = ox * plen;
                for c in 0..g.in_c {
                    let cbase = (b * g.in_c + c) * h * w;
                    for ky in 0..g.kh {
                        let iy = iy0 + ky as i64;
                        if iy < 0 || iy >= h as i64 {
                            continue;
                        }
                        let iy = iy as usize;
                        for kx in 0..g.kw {
                            let ix = ix0 + kx as i64;
                            if ix < 0 || ix >= w as i64 {
                                continue;
                            }
                            rowbuf[row + (c * g.kh + ky) * g.kw + kx] =
                                src[cbase + iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    });
}

/// The adjoint of [`im2col`]: folds a patch matrix back into an image,
/// summing overlapping contributions. Used to back-propagate convolution
/// input gradients.
///
/// # Panics
///
/// Panics if `cols` does not have shape `[n·out_h·out_w, c·kh·kw]`.
pub fn col2im(cols: &Tensor, n: usize, g: &Conv2dGeometry) -> Tensor {
    let mut out = Tensor::zeros(&[n, g.in_c, g.in_h, g.in_w]);
    col2im_into(cols, n, g, &mut out, 0, 0);
    out
}

/// [`col2im`] accumulating into a caller-provided destination at spatial
/// offset `(off_h, off_w)` — `dst: [n, c, H, W]` with the geometry's
/// `in_h × in_w` window placed at that offset. Convolution backward uses
/// this to fold gradients of a *cropped* input (negative split padding)
/// directly into the full-size `dx`, replacing a separate `col2im`
/// allocation plus a zero-filled `pad2d` copy with a single zeroed buffer.
///
/// Accumulation order per destination element is `(oy, ox, ky, kx)`
/// ascending — identical for every thread count (tasks are whole batch
/// images, the only decomposition whose writes stay disjoint: neighboring
/// `oy` windows overlap in `iy`) and identical to a plain `col2im`.
///
/// # Panics
///
/// Panics if `cols` or `dst` disagree with the geometry or the offset
/// window hangs outside `dst`.
pub fn col2im_into(
    cols: &Tensor,
    n: usize,
    g: &Conv2dGeometry,
    dst: &mut Tensor,
    off_h: usize,
    off_w: usize,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    assert_eq!(
        cols.shape().dims(),
        &[n * oh * ow, plen],
        "col matrix shape mismatch"
    );
    col2im_cols_into(cols.as_slice(), n, g, dst, off_h, off_w);
}

/// Slice core of [`col2im_into`], taking the patch matrix as a raw buffer
/// — the materialized convolution reference computes `dcols` into workspace
/// scratch and folds it from there without wrapping it in a tensor.
///
/// # Panics
///
/// Panics as [`col2im_into`] does, with the length check on the raw slice.
pub fn col2im_cols_into(
    cols: &[f32],
    n: usize,
    g: &Conv2dGeometry,
    dst: &mut Tensor,
    off_h: usize,
    off_w: usize,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let plen = g.patch_len();
    assert_eq!(cols.len(), n * oh * ow * plen, "col matrix length mismatch");
    assert_eq!(dst.rank(), 4, "col2im destination must be NCHW");
    assert_eq!(dst.dim(0), n, "col2im destination batch mismatch");
    assert_eq!(dst.dim(1), g.in_c, "col2im destination channel mismatch");
    let (full_h, full_w) = (dst.dim(2), dst.dim(3));
    assert!(
        off_h + g.in_h <= full_h && off_w + g.in_w <= full_w,
        "col2im window {}x{} at offset ({off_h}, {off_w}) exceeds {full_h}x{full_w}",
        g.in_h,
        g.in_w
    );
    let (h, w) = (g.in_h, g.in_w);
    let src = cols;
    // Parallel over whole batch images: each task owns a disjoint
    // c·full_h·full_w slab of dst and reads its stripe of `cols` exactly
    // once, sequentially, in the original (oy, ox, c, ky, kx) order.
    let plane = full_h * full_w;
    scnn_par::par_chunks_mut(dst.as_mut_slice(), g.in_c * plane, |b, img| {
        for oy in 0..oh {
            let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
            for ox in 0..ow {
                let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                let row = ((b * oh + oy) * ow + ox) * plen;
                for c in 0..g.in_c {
                    let cbase = c * plane;
                    for ky in 0..g.kh {
                        let iy = iy0 + ky as i64;
                        if iy < 0 || iy >= h as i64 {
                            continue;
                        }
                        let iy = iy as usize + off_h;
                        for kx in 0..g.kw {
                            let ix = ix0 + kx as i64;
                            if ix < 0 || ix >= w as i64 {
                                continue;
                            }
                            img[cbase + iy * full_w + (ix as usize + off_w)] +=
                                src[row + (c * g.kh + ky) * g.kw + kx];
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_output_dims() {
        let g = Conv2dGeometry::new(1, 5, 5, 3, 3, 2, 2, Padding2d::symmetric(1));
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
        let g = Conv2dGeometry::new(1, 4, 6, 2, 2, 2, 2, Padding2d::default());
        assert_eq!((g.out_h(), g.out_w()), (2, 3));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is a reshape/permute of the input.
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 1, 1, Padding2d::default());
        let m = im2col(&x, &g);
        assert_eq!(m.shape().dims(), &[4, 2]);
        // Row = spatial position, column = channel.
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[0, 1]), 4.0);
        assert_eq!(m.at(&[3, 0]), 3.0);
        assert_eq!(m.at(&[3, 1]), 7.0);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 3, 1, 1, Padding2d::symmetric(1));
        let m = im2col(&x, &g);
        assert_eq!(m.shape().dims(), &[4, 9]);
        // Top-left output: only the bottom-right 2x2 of the kernel sees data.
        let row0: Vec<f32> = m.as_slice()[..9].to_vec();
        assert_eq!(row0, vec![0., 0., 0., 0., 1., 1., 0., 1., 1.]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)>.
        let dims = [2, 2, 4, 4];
        let n: usize = dims.iter().product();
        let x = Tensor::from_vec((0..n).map(|i| (i % 7) as f32).collect(), &dims);
        let g = Conv2dGeometry::new(2, 4, 4, 3, 3, 1, 1, Padding2d::symmetric(1));
        let m = im2col(&x, &g);
        let y = m.map(|v| v * 0.5 + 1.0);
        let folded = col2im(&y, 2, &g);
        let lhs = m.mul(&y).sum();
        let rhs = x.mul(&folded).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-4);
    }

    #[test]
    fn cropped_geometry_is_the_window_inside_the_crop() {
        let (g, crop) = Conv2dGeometry::cropped(2, 6, 6, 3, 3, 1, 1, Padding2d::new(-1, 1, 1, -2));
        assert_eq!(crop, Padding2d::new(-1, 0, 0, -2));
        assert_eq!((g.in_h, g.in_w, g.pad), (5, 4, Padding2d::new(0, 1, 1, 0)));
        // The full padding's extents: 6 − 1 + 1 = 6 → 4 rows, 6 + 1 − 2 = 5 → 3 columns.
        assert_eq!((g.out_h(), g.out_w()), (4, 3));
    }

    #[test]
    #[should_panic(expected = "collapses width")]
    fn cropped_rejects_a_crop_past_the_input() {
        Conv2dGeometry::cropped(1, 4, 2, 1, 1, 1, 1, Padding2d::new(0, 0, -1, -1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_pad_rejected() {
        Conv2dGeometry::new(1, 4, 4, 3, 3, 1, 1, Padding2d::new(-1, 0, 0, 0));
    }

    #[test]
    fn col2im_into_offset_matches_padded_col2im() {
        // Folding into a larger buffer at (1, 2) must equal col2im followed
        // by zero-padding 1 row above / 2 columns left — the fusion the
        // conv backward path relies on.
        let g = Conv2dGeometry::new(2, 3, 4, 2, 2, 1, 1, Padding2d::symmetric(1));
        let rows = 2 * g.patch_count();
        let cols = Tensor::from_vec(
            (0..rows * g.patch_len()).map(|i| (i % 11) as f32 - 5.0).collect(),
            &[rows, g.patch_len()],
        );
        let small = col2im(&cols, 2, &g);
        let mut big = Tensor::zeros(&[2, 2, 5, 7]);
        col2im_into(&cols, 2, &g, &mut big, 1, 2);
        for b in 0..2 {
            for c in 0..2 {
                for y in 0..5 {
                    for x in 0..7 {
                        let expect = if (1..4).contains(&y) && (2..6).contains(&x) {
                            small.at(&[b, c, y - 1, x - 2])
                        } else {
                            0.0
                        };
                        assert_eq!(big.at(&[b, c, y, x]), expect, "at {b},{c},{y},{x}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn col2im_into_rejects_overhanging_window() {
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 1, 1, Padding2d::default());
        let cols = Tensor::zeros(&[g.patch_count(), g.patch_len()]);
        let mut dst = Tensor::zeros(&[1, 1, 4, 4]);
        col2im_into(&cols, 1, &g, &mut dst, 1, 0);
    }
}
