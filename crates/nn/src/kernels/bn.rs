//! Batch normalization (training and inference modes).
//!
//! Training runs one task per group of [`CH_GROUP`] channels: mean,
//! variance and the normalized planes (backward: both reductions and the
//! `dx` planes) are produced while the group's `n·h·w` floats per channel
//! are cache-resident. Every per-channel sum is still one serial chain —
//! image ascending, then element ascending, a plain mul and add, never an
//! FMA — so results are bit-identical to a channel-at-a-time sweep at any
//! thread count. The GEMM micro-kernels' chain step is fused
//! (`scnn_tensor::simd`); these sweeps stay mul + add because they are
//! memory-bound (a fused step would change every bit and buy no time) and
//! not dispatched: compiled once for the baseline target, where `mul_add`
//! would be a libm call per element.

use scnn_par::DisjointMut;
use scnn_tensor::Tensor;

use super::{fresh, ELEM_CHUNK};

const EPS: f32 = 1e-5;

/// Channels a training task walks in lock-step. A channel's sum is
/// latency-bound at one `f32` add per ~4 cycles; four channels side by
/// side keep four independent chains in flight.
const CH_GROUP: usize = 4;

/// The per-channel statistics backward needs: all the executor keeps of a
/// BN node between forward and backward (`2 · 4 · c` bytes; the plan
/// budgets `2 · 4 · 64` for every BN, `OpDesc::aux_bytes_fixed` — short of
/// this above 64 channels). Backward regenerates `x̂` from the BN's
/// *input* with the forward's own expression, `(x − mean) · inv_std`.
#[derive(Clone, Debug)]
pub struct BnStats {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

/// [`BnStats`] plus the materialised normalized input: what the
/// tensor-level [`batch_norm_train`] / [`batch_norm_backward`] pair hands
/// between forward and backward. No executed graph keeps one — the
/// executor keeps [`BnStats`] and regenerates `x̂` from the input — so
/// only direct callers of that pair (the repo benchmark's kernel probes,
/// the kernel benches and tests) pay for it.
#[derive(Clone, Debug)]
pub struct BnSaved {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Normalized input, same shape as the input.
    pub xhat: Tensor,
}

/// Batch-norm forward over the channel dimension of `x: [n, c, h, w]`.
///
/// In training mode (`running == Some`) the batch statistics are used and
/// the running estimates are updated in place with momentum 0.1; in
/// inference mode (`running_stats` provided as frozen values via
/// [`batch_norm_inference`]) use the stored estimates instead.
///
/// # Panics
///
/// Panics if parameter lengths do not match the channel count.
pub fn batch_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running: Option<(&mut Vec<f32>, &mut Vec<f32>)>,
) -> (Tensor, BnSaved) {
    let (y, saved, var) = batch_norm_train(x, gamma, beta);
    if let Some((rm, rv)) = running {
        update_running(rm, rv, &saved.mean, &var);
    }
    (y, saved)
}

/// [`batch_norm_train_stats`] plus the materialised `x̂` — one more
/// elementwise pass, which only this wrapper pays.
pub fn batch_norm_train(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, BnSaved, Vec<f32>) {
    let (y, BnStats { mean, inv_std }, var) = batch_norm_train_stats(x, gamma, beta);
    let mut xhat = Tensor::zeros(x.shape().dims());
    par_planes(x, &mut xhat, |ch, xp, out| {
        let (mu, s) = (mean[ch], inv_std[ch]);
        for (o, &v) in out.iter_mut().zip(xp) {
            *o = (v - mu) * s;
        }
    });
    (y, BnSaved { mean, inv_std, xhat }, var)
}

/// Training forward without the running-statistics side effect: returns
/// the output, the statistics backward needs, and the batch variance so
/// the caller can apply the momentum update later. The executor uses this
/// to defer updates to a deterministic point (sorted by node id after each
/// wave), keeping the forward computation itself side-effect-free and safe
/// to run on sibling split-patch branches concurrently.
///
/// # Panics
///
/// Panics if parameter lengths do not match the channel count.
pub fn batch_norm_train_stats(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> (Tensor, BnStats, Vec<f32>) {
    let (y, (stats, var)) =
        fresh(x.shape().dims(), |y| batch_norm_train_stats_into(x, gamma, beta, y));
    (y, stats, var)
}

/// [`batch_norm_train_stats`] with the output written into `y`; every
/// element is overwritten. Returns the statistics and the batch variance.
///
/// # Panics
///
/// Panics if parameter lengths do not match the channel count, or `y`'s
/// shape is not `x`'s.
pub fn batch_norm_train_stats_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    y: &mut Tensor,
) -> (BnStats, Vec<f32>) {
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(gamma.len(), c, "gamma length mismatch");
    assert_eq!(beta.len(), c, "beta length mismatch");
    assert_eq!(x.shape(), y.shape(), "bn output buffer shape");
    let dims = Dims { n, c, hw: h * w };
    let src = x.as_slice();
    let (g, be) = (gamma.as_slice(), beta.as_slice());
    // `[mean, var, inv_std]` per channel.
    let mut stats = vec![[0.0f32; 3]; c];
    {
        let yd = DisjointMut::new(y.as_mut_slice());
        scnn_par::par_chunks_mut(&mut stats, CH_GROUP, |gi, slots| {
            let ch0 = gi * CH_GROUP;
            if slots.len() == CH_GROUP {
                train_group::<CH_GROUP>(dims, ch0, src, g, be, &yd, slots);
            } else {
                for (k, slot) in slots.chunks_mut(1).enumerate() {
                    train_group::<1>(dims, ch0 + k, src, g, be, &yd, slot);
                }
            }
        });
    }
    let column = |j: usize| stats.iter().map(|s| s[j]).collect::<Vec<f32>>();
    (
        BnStats {
            mean: column(0),
            inv_std: column(2),
        },
        column(1),
    )
}

/// `[n, c, h·w]` of the activation a training task indexes into.
#[derive(Clone, Copy)]
struct Dims {
    n: usize,
    c: usize,
    hw: usize,
}

impl Dims {
    /// Offset of image `b`'s plane of channel `ch`.
    fn base(self, b: usize, ch: usize) -> usize {
        (b * self.c + ch) * self.hw
    }

    /// Image `b`'s planes of channels `ch0 .. ch0 + K`.
    fn planes<const K: usize>(self, v: &[f32], b: usize, ch0: usize) -> [&[f32]; K] {
        std::array::from_fn(|k| &v[self.base(b, ch0 + k)..][..self.hw])
    }
}

/// Forward of channels `ch0 .. ch0 + K`: statistics into `stats`, the
/// normalized planes into `yd`.
// `i` walks the group's K planes in lock-step; there is no one iterator.
#[allow(clippy::needless_range_loop)]
fn train_group<const K: usize>(
    dims: Dims,
    ch0: usize,
    src: &[f32],
    g: &[f32],
    be: &[f32],
    yd: &DisjointMut<'_, f32>,
    stats: &mut [[f32; 3]],
) {
    let Dims { n, hw, .. } = dims;
    let m = (n * hw) as f32;
    let mut sum = [0.0f32; K];
    for b in 0..n {
        let p = dims.planes::<K>(src, b, ch0);
        for i in 0..hw {
            for k in 0..K {
                sum[k] += p[k][i];
            }
        }
    }
    let mean = sum.map(|s| s / m);
    let mut sq = [0.0f32; K];
    for b in 0..n {
        let p = dims.planes::<K>(src, b, ch0);
        for i in 0..hw {
            for k in 0..K {
                let d = p[k][i] - mean[k];
                sq[k] += d * d;
            }
        }
    }
    let var = sq.map(|s| s / m);
    let inv_std = var.map(|v| 1.0 / (v + EPS).sqrt());
    for k in 0..K {
        let ch = ch0 + k;
        let (mu, s, gg, bb) = (mean[k], inv_std[k], g[ch], be[ch]);
        for b in 0..n {
            let base = dims.base(b, ch);
            // SAFETY: channel `ch` belongs to this task alone, and its
            // planes are disjoint from every other channel's.
            let yp = unsafe { yd.range(base, base + hw) };
            for (o, &v) in yp.iter_mut().zip(&src[base..base + hw]) {
                *o = gg * ((v - mu) * s) + bb;
            }
        }
        stats[k] = [mean[k], var[k], inv_std[k]];
    }
}

/// Momentum-0.1 update of running statistics from batch statistics.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn update_running(rm: &mut [f32], rv: &mut [f32], mean: &[f32], var: &[f32]) {
    assert_eq!(rm.len(), mean.len(), "running mean length mismatch");
    assert_eq!(rv.len(), var.len(), "running var length mismatch");
    for ch in 0..mean.len() {
        rm[ch] = 0.9 * rm[ch] + 0.1 * mean[ch];
        rv[ch] = 0.9 * rv[ch] + 0.1 * var[ch];
    }
}

/// Batch-norm inference using frozen running statistics: one pass, no
/// `x̂`, tasks of whole planes totalling at least 16 K elements.
///
/// # Panics
///
/// Panics if parameter or statistics lengths do not match the channel
/// count.
pub fn batch_norm_inference(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
) -> Tensor {
    fresh(x.shape().dims(), |y| {
        batch_norm_inference_into(x, gamma, beta, running_mean, running_var, y)
    })
    .0
}

/// [`batch_norm_inference`] into `y`; every element is overwritten.
///
/// # Panics
///
/// As [`batch_norm_inference`], and if `y`'s shape is not `x`'s.
pub fn batch_norm_inference_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    y: &mut Tensor,
) {
    let c = x.dim(1);
    assert_eq!(gamma.len(), c, "gamma length mismatch");
    assert_eq!(beta.len(), c, "beta length mismatch");
    assert_eq!(running_mean.len(), c, "running mean length mismatch");
    assert_eq!(running_var.len(), c, "running var length mismatch");
    assert_eq!(x.shape(), y.shape(), "bn output buffer shape");
    let (g, be) = (gamma.as_slice(), beta.as_slice());
    par_planes(x, y, |ch, xp, out| {
        let (mu, s) = (running_mean[ch], 1.0 / (running_var[ch] + EPS).sqrt());
        let (gg, bb) = (g[ch], be[ch]);
        for (o, &v) in out.iter_mut().zip(xp) {
            *o = gg * ((v - mu) * s) + bb;
        }
    });
}

/// Runs `body(channel, x plane, out plane)` over every `(image, channel)`
/// plane of `x: [n, c, h, w]` and the same-shaped `out`, in tasks of whole
/// planes totalling at least [`ELEM_CHUNK`] elements.
fn par_planes(x: &Tensor, out: &mut Tensor, body: impl Fn(usize, &[f32], &mut [f32]) + Sync) {
    let (c, hw) = (x.dim(1), (x.dim(2) * x.dim(3)).max(1));
    let src = x.as_slice();
    let planes_per_task = ELEM_CHUNK.div_ceil(hw);
    scnn_par::par_chunks_mut(out.as_mut_slice(), planes_per_task * hw, |ti, chunk| {
        for (p, plane) in chunk.chunks_mut(hw).enumerate() {
            let img = ti * planes_per_task + p;
            body(img % c, &src[img * hw..][..hw], plane);
        }
    });
}

/// Batch-norm backward from the saved `x̂`. Returns `(dx, dgamma, dbeta)`.
pub fn batch_norm_backward(
    dy: &Tensor,
    gamma: &Tensor,
    saved: &BnSaved,
) -> (Tensor, Tensor, Tensor) {
    backward_with(dy, gamma, &saved.inv_std, saved.xhat.as_slice(), |_| |xh| xh)
}

/// Batch-norm backward from the BN's input `x`: `x̂` is regenerated per
/// element with the forward's own expression, so every bit matches
/// [`batch_norm_backward`] on the `x̂` that forward would have saved.
/// Returns `(dx, dgamma, dbeta)`.
///
/// # Panics
///
/// Panics if `x` and `dy` disagree in shape.
pub fn batch_norm_backward_from_input(
    dy: &Tensor,
    gamma: &Tensor,
    x: &Tensor,
    stats: &BnStats,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(x.shape(), dy.shape(), "bn backward shape mismatch");
    backward_with(dy, gamma, &stats.inv_std, x.as_slice(), |ch| {
        let (mu, s) = (stats.mean[ch], stats.inv_std[ch]);
        move |v| (v - mu) * s
    })
}

/// The one backward body: `xhat_of(ch)` turns an element of `src` (the
/// saved `x̂`, or the input) into channel `ch`'s `x̂`.
fn backward_with<X: Fn(f32) -> f32>(
    dy: &Tensor,
    gamma: &Tensor,
    inv_std: &[f32],
    src: &[f32],
    xhat_of: impl Fn(usize) -> X + Sync,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    assert_eq!(gamma.len(), c, "gamma length mismatch");
    assert_eq!(inv_std.len(), c, "saved statistics length mismatch");
    assert_eq!(src.len(), dy.len(), "bn backward length mismatch");
    let dims = Dims { n, c, hw: h * w };
    let dyv = dy.as_slice();
    let g = gamma.as_slice();
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    // `[dgamma, dbeta]` per channel.
    let mut sums = vec![[0.0f32; 2]; c];
    {
        let dxd = DisjointMut::new(dx.as_mut_slice());
        scnn_par::par_chunks_mut(&mut sums, CH_GROUP, |gi, slots| {
            let ch0 = gi * CH_GROUP;
            if slots.len() == CH_GROUP {
                backward_group::<CH_GROUP, X>(dims, ch0, dyv, src, &xhat_of, g, inv_std, &dxd, slots);
            } else {
                for (k, slot) in slots.chunks_mut(1).enumerate() {
                    backward_group::<1, X>(dims, ch0 + k, dyv, src, &xhat_of, g, inv_std, &dxd, slot);
                }
            }
        });
    }
    let column = |j: usize| Tensor::from_vec(sums.iter().map(|s| s[j]).collect(), &[c]);
    (dx, column(0), column(1))
}

/// Backward of channels `ch0 .. ch0 + K`: both reductions into `sums`,
/// then the `dx` planes into `dxd`.
#[allow(clippy::too_many_arguments)]
fn backward_group<const K: usize, X: Fn(f32) -> f32>(
    dims: Dims,
    ch0: usize,
    dyv: &[f32],
    src: &[f32],
    xhat_of: &impl Fn(usize) -> X,
    g: &[f32],
    inv_std: &[f32],
    dxd: &DisjointMut<'_, f32>,
    sums: &mut [[f32; 2]],
) {
    let Dims { n, hw, .. } = dims;
    let m = (n * hw) as f32;
    let xhat: [X; K] = std::array::from_fn(|k| xhat_of(ch0 + k));
    let (mut dgamma, mut dbeta) = ([0.0f32; K], [0.0f32; K]);
    for b in 0..n {
        let d = dims.planes::<K>(dyv, b, ch0);
        let s = dims.planes::<K>(src, b, ch0);
        for i in 0..hw {
            for k in 0..K {
                dgamma[k] += d[k][i] * xhat[k](s[k][i]);
                dbeta[k] += d[k][i];
            }
        }
    }
    for k in 0..K {
        let ch = ch0 + k;
        let scale = g[ch] * inv_std[ch] / m;
        let (dg, db, xh) = (dgamma[k], dbeta[k], &xhat[k]);
        for b in 0..n {
            let base = dims.base(b, ch);
            // SAFETY: channel `ch` belongs to this task alone, and its
            // planes are disjoint from every other channel's.
            let dxp = unsafe { dxd.range(base, base + hw) };
            let planes = dyv[base..base + hw].iter().zip(&src[base..base + hw]);
            for (o, (&dyi, &v)) in dxp.iter_mut().zip(planes) {
                *o = scale * (m * dyi - db - xh(v) * dg);
            }
        }
        sums[k] = [dg, db];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gradcheck::check;
    use scnn_rng::SplitRng;
    use scnn_tensor::uniform;

    #[test]
    fn output_is_normalized() {
        let mut r = SplitRng::seed_from_u64(1);
        let x = uniform(&mut r, &[4, 3, 5, 5], -3.0, 7.0);
        let gamma = Tensor::ones(&[3]);
        let beta = Tensor::zeros(&[3]);
        let (y, _) = batch_norm_forward(&x, &gamma, &beta, None);
        // Per-channel mean ≈ 0, var ≈ 1.
        let (n, c, h, w) = (4, 3, 5, 5);
        for ch in 0..c {
            let mut vals = Vec::new();
            for b in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        vals.push(y.at(&[b, ch, yy, xx]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let x = uniform(&mut SplitRng::seed_from_u64(2), &[2, 1, 3, 3], -1.0, 1.0);
        let gamma = Tensor::full(&[1], 2.0);
        let beta = Tensor::full(&[1], 5.0);
        let (y, _) = batch_norm_forward(&x, &gamma, &beta, None);
        let mean = y.mean();
        assert!((mean - 5.0).abs() < 1e-4, "beta shifts mean, got {mean}");
    }

    #[test]
    fn running_stats_updated() {
        let x = uniform(&mut SplitRng::seed_from_u64(3), &[2, 2, 4, 4], 1.0, 3.0);
        let gamma = Tensor::ones(&[2]);
        let beta = Tensor::zeros(&[2]);
        let mut rm = vec![0.0; 2];
        let mut rv = vec![1.0; 2];
        batch_norm_forward(&x, &gamma, &beta, Some((&mut rm, &mut rv)));
        assert!(rm.iter().all(|&v| v > 0.1), "running mean moved: {rm:?}");
        assert!(rv.iter().all(|&v| v < 1.0), "running var moved: {rv:?}");
    }

    #[test]
    fn inference_uses_frozen_stats() {
        let x = Tensor::full(&[1, 1, 2, 2], 4.0);
        let gamma = Tensor::ones(&[1]);
        let beta = Tensor::zeros(&[1]);
        let y = batch_norm_inference(&x, &gamma, &beta, &[2.0], &[1.0]);
        // (4 - 2)/sqrt(1 + eps) ≈ 2.
        assert!((y.at(&[0, 0, 0, 0]) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn gradcheck_x_gamma_beta() {
        let mut r = SplitRng::seed_from_u64(4);
        let x = uniform(&mut r, &[3, 2, 3, 3], -1.0, 1.0);
        let gamma = uniform(&mut r, &[2], 0.5, 1.5);
        let beta = uniform(&mut r, &[2], -0.5, 0.5);
        // Non-uniform loss weights so dx is not trivially zero (a uniform
        // dy is annihilated by normalization's mean-subtraction).
        let wts = uniform(&mut r, &[3, 2, 3, 3], 0.0, 1.0);
        let loss = |xx: &Tensor, gg: &Tensor, bb: &Tensor| {
            batch_norm_forward(xx, gg, bb, None).0.mul(&wts).sum()
        };
        let (y, saved) = batch_norm_forward(&x, &gamma, &beta, None);
        assert_eq!(y.shape(), x.shape());
        let (dx, dgamma, dbeta) = batch_norm_backward(&wts, &gamma, &saved);
        check(&x, &dx, 0.08, |xx| loss(xx, &gamma, &beta));
        check(&gamma, &dgamma, 0.05, |gg| loss(&x, gg, &beta));
        check(&beta, &dbeta, 0.05, |bb| loss(&x, &gamma, bb));
    }
}
