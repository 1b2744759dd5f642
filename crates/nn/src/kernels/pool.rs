//! Max/average/global-average pooling with asymmetric (and negative)
//! padding. A negative pad is a crop, applied by addressing as in the
//! conv engine: a window pool reads its input at the crop offset, and
//! its backward writes straight into the full-size `dx`.

use scnn_tensor::{Padding2d, Tensor};

use super::{fresh, PoolAttrs};

/// `[n, c, oh, ow]` of the pooled output.
fn out_dims(x: &Tensor, attrs: &PoolAttrs) -> [usize; 4] {
    let (g, _) = attrs.geometry(x.shape().dims());
    [x.dim(0), x.dim(1), g.out_h(), g.out_w()]
}

/// Where element `(0, 0)` of the cropped window of image plane `img`
/// sits in the flat NCHW input of `dims`: the window starts at row
/// `-crop.h_begin`, column `-crop.w_begin` of every plane.
fn window_origin(dims: &[usize], crop: Padding2d, img: usize) -> usize {
    let (full_h, full_w) = (dims[2], dims[3]);
    img * full_h * full_w + (-crop.h_begin) as usize * full_w + (-crop.w_begin) as usize
}

/// Max-pool forward. Returns the output and the flat argmax index (into the
/// uncropped input) per output element; `usize::MAX` marks windows that
/// saw only padding. The mask is the max-pool aux the executor keeps: a
/// `usize` (8 B) per output element, where `Op::desc` plans 0 B.
pub fn max_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> (Tensor, Vec<usize>) {
    fresh(&out_dims(x, attrs), |y| max_pool_forward_into(x, attrs, y))
}

/// [`max_pool_forward`] into `y`; every element is overwritten. Returns
/// the argmax mask.
///
/// # Panics
///
/// Panics if `y`'s shape is not the pooled shape.
pub fn max_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, y: &mut Tensor) -> Vec<usize> {
    assert_eq!(y.shape().dims(), out_dims(x, attrs), "pool output buffer shape");
    let dims = x.shape().dims();
    let (g, crop) = attrs.geometry(dims);
    let (h, w, oh, ow, full_w) = (g.in_h, g.in_w, g.out_h(), g.out_w(), dims[3]);
    let (n, c) = (x.dim(0), x.dim(1));
    let mut mask = vec![usize::MAX; n * c * oh * ow];
    let src = x.as_slice();
    let ohw = oh * ow;
    // Parallel over (n, c) image planes; each plane's output and mask
    // stripes are disjoint.
    let mask_shared = scnn_par::DisjointMut::new(&mut mask);
    scnn_par::par_chunks_mut(y.as_mut_slice(), ohw, |img, dst| {
        let base = window_origin(dims, crop, img);
        // SAFETY: mask plane `img` is written only by the task of plane `img`.
        let mplane = unsafe { mask_shared.range(img * ohw, (img + 1) * ohw) };
        for oy in 0..oh {
            let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
            for ox in 0..ow {
                let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = usize::MAX;
                for ky in 0..g.kh {
                    let iy = iy0 + ky as i64;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    for kx in 0..g.kw {
                        let ix = ix0 + kx as i64;
                        if ix < 0 || ix >= w as i64 {
                            continue;
                        }
                        let idx = base + iy as usize * full_w + ix as usize;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = oy * ow + ox;
                dst[o] = if best_idx == usize::MAX { 0.0 } else { best };
                mplane[o] = best_idx;
            }
        }
    });
    mask
}

/// Max-pool backward: routes each output gradient to its argmax position.
pub fn max_pool_backward(
    x: &Tensor,
    dy: &Tensor,
    mask: &[usize],
    attrs: &PoolAttrs,
) -> Tensor {
    let out = out_dims(x, attrs);
    assert_eq!(dy.shape().dims(), out, "pool dy shape mismatch");
    let (plane, ohw) = (x.dim(2) * x.dim(3), out[2] * out[3]);
    let mut dx = Tensor::zeros(x.shape().dims());
    let dyv = dy.as_slice();
    // Plane-parallel: mask indices for image `img` always point into its
    // own plane, so scatter writes stay disjoint.
    scnn_par::par_chunks_mut(dx.as_mut_slice(), plane, |img, d| {
        let base = img * plane;
        for o in img * ohw..(img + 1) * ohw {
            let m = mask[o];
            if m != usize::MAX {
                d[m - base] += dyv[o];
            }
        }
    });
    dx
}

/// Average-pool forward (divisor `kh·kw`, padding counted, matching the
/// PyTorch default the paper's models use).
pub fn avg_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> Tensor {
    fresh(&out_dims(x, attrs), |y| avg_pool_forward_into(x, attrs, y)).0
}

/// [`avg_pool_forward`] into `y`; every element is overwritten.
///
/// # Panics
///
/// Panics if `y`'s shape is not the pooled shape.
pub fn avg_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, y: &mut Tensor) {
    assert_eq!(y.shape().dims(), out_dims(x, attrs), "pool output buffer shape");
    let dims = x.shape().dims();
    let (g, crop) = attrs.geometry(dims);
    let (h, w, oh, ow, full_w) = (g.in_h, g.in_w, g.out_h(), g.out_w(), dims[3]);
    let src = x.as_slice();
    let scale = 1.0 / (g.kh * g.kw) as f32;
    scnn_par::par_chunks_mut(y.as_mut_slice(), oh * ow, |img, dst| {
        let base = window_origin(dims, crop, img);
        for oy in 0..oh {
            let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
            for ox in 0..ow {
                let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                let mut acc = 0.0;
                for ky in 0..g.kh {
                    let iy = iy0 + ky as i64;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    for kx in 0..g.kw {
                        let ix = ix0 + kx as i64;
                        if ix < 0 || ix >= w as i64 {
                            continue;
                        }
                        acc += src[base + iy as usize * full_w + ix as usize];
                    }
                }
                dst[oy * ow + ox] = acc * scale;
            }
        }
    });
}

/// Average-pool backward: spreads each output gradient uniformly over its
/// window. Takes the forward input's *dims* rather than the tensor — the
/// values are never read, so the activation may already be freed by a
/// memory-planning runtime when this runs.
pub fn avg_pool_backward(x_dims: &[usize], dy: &Tensor, attrs: &PoolAttrs) -> Tensor {
    let (g, crop) = attrs.geometry(x_dims);
    let (h, w, oh, ow, full_w) = (g.in_h, g.in_w, g.out_h(), g.out_w(), x_dims[3]);
    let (n, c) = (x_dims[0], x_dims[1]);
    assert_eq!(dy.shape().dims(), &[n, c, oh, ow], "pool dy shape mismatch");
    let mut dx = Tensor::zeros(x_dims);
    let s = dy.as_slice();
    let scale = 1.0 / (g.kh * g.kw) as f32;
    let base = window_origin(x_dims, crop, 0);
    scnn_par::par_chunks_mut(dx.as_mut_slice(), x_dims[2] * full_w, |img, d| {
        for oy in 0..oh {
            let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
            for ox in 0..ow {
                let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                let gval = s[(img * oh + oy) * ow + ox] * scale;
                for ky in 0..g.kh {
                    let iy = iy0 + ky as i64;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    for kx in 0..g.kw {
                        let ix = ix0 + kx as i64;
                        if ix < 0 || ix >= w as i64 {
                            continue;
                        }
                        d[base + iy as usize * full_w + ix as usize] += gval;
                    }
                }
            }
        }
    });
    dx
}

/// Global average pooling: `[n, c, h, w]` → `[n, c, 1, 1]`.
pub fn global_avg_pool_forward(x: &Tensor) -> Tensor {
    fresh(&[x.dim(0), x.dim(1), 1, 1], |y| global_avg_pool_forward_into(x, y)).0
}

/// [`global_avg_pool_forward`] into `y: [n, c, 1, 1]`; every element is
/// overwritten.
///
/// # Panics
///
/// Panics if `x` is not NCHW or `y` has another shape.
pub fn global_avg_pool_forward_into(x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.rank(), 4, "global pool input must be NCHW");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(y.shape().dims(), &[n, c, 1, 1], "global pool output buffer shape");
    let scale = 1.0 / (h * w) as f32;
    let src = x.as_slice();
    scnn_par::par_chunks_mut(y.as_mut_slice(), 1, |img, dst| {
        dst[0] = src[img * h * w..(img + 1) * h * w].iter().sum::<f32>() * scale;
    });
}

/// Global average pooling backward. Takes the forward input's *dims* —
/// like [`avg_pool_backward`], the input values are never read.
pub fn global_avg_pool_backward(x_dims: &[usize], dy: &Tensor) -> Tensor {
    let (n, c, h, w) = (x_dims[0], x_dims[1], x_dims[2], x_dims[3]);
    assert_eq!(dy.shape().dims(), &[n, c, 1, 1], "global pool dy mismatch");
    let scale = 1.0 / (h * w) as f32;
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dyv = dy.as_slice();
    scnn_par::par_chunks_mut(dx.as_mut_slice(), h * w, |img, plane| {
        let g = dyv[img] * scale;
        for v in plane {
            *v = g;
        }
    });
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gradcheck::check;
    use scnn_rng::prop::{self, Case};
    use scnn_rng::{Rng, SplitRng};
    use scnn_tensor::uniform;

    fn attrs(k: usize, s: usize, pad: Padding2d) -> PoolAttrs {
        PoolAttrs {
            kh: k,
            kw: k,
            sh: s,
            sw: s,
            pad,
        }
    }

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let (y, _) = max_pool_forward(&x, &attrs(2, 2, Padding2d::default()));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_negative_values_ignore_padding() {
        // All-negative input with padding: padding must never win the max.
        let x = Tensor::full(&[1, 1, 2, 2], -3.0);
        let (y, _) = max_pool_forward(&x, &attrs(3, 1, Padding2d::symmetric(1)));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert!(y.as_slice().iter().all(|&v| v == -3.0));
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], &[1, 1, 2, 2]);
        let a = attrs(2, 2, Padding2d::default());
        let (_, mask) = max_pool_forward(&x, &a);
        let dy = Tensor::full(&[1, 1, 1, 1], 7.0);
        let dx = max_pool_backward(&x, &dy, &mask, &a);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = avg_pool_forward(&x, &attrs(2, 2, Padding2d::default()));
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut r = SplitRng::seed_from_u64(2);
        let x = uniform(&mut r, &[2, 2, 5, 5], -1.0, 1.0);
        let a = attrs(3, 2, Padding2d::new(1, 0, 0, 1));
        let y = avg_pool_forward(&x, &a);
        let dy = Tensor::ones(y.shape().dims());
        let dx = avg_pool_backward(x.shape().dims(), &dy, &a);
        check(&x, &dx, 0.05, |xx| avg_pool_forward(xx, &a).sum());
    }

    #[test]
    fn avg_pool_negative_pad_crops() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = avg_pool_forward(&x, &attrs(2, 2, Padding2d::new(-2, 0, 0, 0)));
        assert_eq!(y.shape().dims(), &[1, 1, 1, 2]);
    }

    #[test]
    fn global_avg_pool_values_and_gradcheck() {
        let mut r = SplitRng::seed_from_u64(5);
        let x = uniform(&mut r, &[2, 3, 4, 4], -1.0, 1.0);
        let y = global_avg_pool_forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3, 1, 1]);
        let dy = Tensor::ones(&[2, 3, 1, 1]);
        let dx = global_avg_pool_backward(x.shape().dims(), &dy);
        check(&x, &dx, 0.05, |xx| global_avg_pool_forward(xx).sum());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A crop is addressing, not a copy: over random geometry × crop (zero
    /// and negative sides beside positive padding), both pools' outputs,
    /// the mask-routed max-pool `dx` and the avg-pool `dx` are bit-equal
    /// to crop-by-copy — pool the `pad2d`-cropped input at zero crop, then
    /// pad the gradient back. Inputs are drawn from a few values so argmax
    /// ties are common.
    #[test]
    fn crop_in_place_matches_crop_by_copy() {
        prop::check("pool crop in place == crop by copy", 300, |rng| {
            let (k, s) = (rng.gen_range(1usize..4), rng.gen_range(1usize..3));
            let (h, w) = (rng.gen_range(3usize..9), rng.gen_range(3usize..9));
            // A third of the sides neither pad nor crop; the rest crop by
            // up to 2 or pad by up to k − 1.
            let mut side = || match rng.gen_range(0..3usize) {
                0 => 0,
                _ => rng.gen_range(-2..k as i64),
            };
            let pad = Padding2d::new(side(), side(), side(), side());
            let (crop, pos) = pad.split();
            if h as i64 + pad.h_begin + pad.h_end < k as i64
                || w as i64 + pad.w_begin + pad.w_end < k as i64
                || h as i64 + crop.h_begin + crop.h_end <= 0
                || w as i64 + crop.w_begin + crop.w_end <= 0
            {
                return Case::Discard;
            }
            let (n, c) = (rng.gen_range(1usize..3), rng.gen_range(1usize..3));
            let levels = (0..n * c * h * w).map(|_| rng.gen_range(-2i32..3) as f32);
            let x = Tensor::from_vec(levels.collect(), &[n, c, h, w]);
            let at = attrs(k, s, pad);
            let at_pos = PoolAttrs { pad: pos, ..at };
            let xc = x.pad2d(crop);

            let (y, mask) = max_pool_forward(&x, &at);
            let (y_ref, mask_ref) = max_pool_forward(&xc, &at_pos);
            let dy = uniform(rng, y.shape().dims(), -1.0, 1.0);
            let dx = max_pool_backward(&x, &dy, &mask, &at);
            let dx_ref = max_pool_backward(&xc, &dy, &mask_ref, &at_pos).pad2d(crop.invert());
            let ya = avg_pool_forward(&x, &at);
            let ya_ref = avg_pool_forward(&xc, &at_pos);
            let da = avg_pool_backward(x.shape().dims(), &dy, &at);
            let da_ref = avg_pool_backward(xc.shape().dims(), &dy, &at_pos).pad2d(crop.invert());
            let pairs = [
                ("max y", &y, &y_ref),
                ("max dx", &dx, &dx_ref),
                ("avg y", &ya, &ya_ref),
                ("avg dx", &da, &da_ref),
            ];
            for (what, got, want) in pairs {
                if got.shape() != want.shape() || bits(got) != bits(want) {
                    let case = format!("pad {pad:?}, {h}x{w}, k {k} s {s}");
                    return Case::Fail(format!("{what} differs at {case}"));
                }
            }
            Case::Pass
        });
    }
}
