//! Property tests: every parallel `scnn-nn` kernel produces bit-identical
//! results at every thread count, including the convolution path with the
//! split transform's negative (cropping) padding.

use scnn_nn::kernels::{
    avg_pool_backward, avg_pool_forward, batch_norm_backward, batch_norm_backward_from_input,
    batch_norm_forward, batch_norm_inference, batch_norm_train, batch_norm_train_stats,
    conv2d_backward, conv2d_forward, global_avg_pool_backward, global_avg_pool_forward,
    linear_backward, linear_forward, max_pool_backward, max_pool_forward, relu_backward,
    relu_backward_inplace, relu_forward, ConvAttrs, PoolAttrs,
};
use scnn_rng::prop::{check, Case};
use scnn_rng::{Rng, SplitRng};
use scnn_tensor::{uniform, Padding2d, Tensor};

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Runs `f` under each thread count; all returned tensors must match the
/// single-thread run bit-for-bit.
fn bitwise_invariant(what: &str, f: impl Fn() -> Vec<Tensor>) -> Case {
    let reference = scnn_par::with_threads(1, &f);
    for &t in &THREADS[1..] {
        let got = scnn_par::with_threads(t, &f);
        if got.len() != reference.len() {
            return Case::Fail(format!("{what}: output count changed under {t} threads"));
        }
        for (ti, (a, b)) in reference.iter().zip(&got).enumerate() {
            if a.shape() != b.shape() {
                return Case::Fail(format!(
                    "{what}: tensor {ti} shape changed under {t} threads"
                ));
            }
            for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Case::Fail(format!(
                        "{what}: tensor {ti} element {i} differs under {t} threads: {x} vs {y}"
                    ));
                }
            }
        }
    }
    Case::Pass
}

#[test]
fn conv2d_bitwise_thread_invariant_incl_negative_padding() {
    check("conv2d fwd+bwd thread-invariant", 12, |rng| {
        let n = rng.gen_range(1..3usize);
        let ic = rng.gen_range(1..4usize);
        let oc = rng.gen_range(1..5usize);
        let h = rng.gen_range(6..12usize);
        let w = rng.gen_range(6..12usize);
        let kh = rng.gen_range(1..4usize);
        let kw = rng.gen_range(1..4usize);
        // Mix positive (zero-pad) and negative (crop) components, the way
        // per-patch convolutions do at interior patch edges.
        let pad = Padding2d::new(
            rng.gen_range(-1..2i64),
            rng.gen_range(-1..2i64),
            rng.gen_range(-1..2i64),
            rng.gen_range(-1..2i64),
        );
        let full_h = h as i64 + pad.h_begin + pad.h_end;
        let full_w = w as i64 + pad.w_begin + pad.w_end;
        if full_h < kh as i64 || full_w < kw as i64 {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh, kw, sh: 1, sw: 1, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        let y = conv2d_forward(&x, &wt, Some(&b), &attrs);
        let dy = uniform(rng, y.shape().dims(), -1.0, 1.0);
        bitwise_invariant("conv2d", || {
            let y = conv2d_forward(&x, &wt, Some(&b), &attrs);
            let g = conv2d_backward(&x, &wt, true, &dy, &attrs);
            vec![y, g.dx, g.dw, g.db.expect("bias grad present")]
        })
    });
}

#[test]
fn batch_norm_bitwise_thread_invariant() {
    check("batch_norm fwd+bwd thread-invariant", 12, |rng| {
        let n = rng.gen_range(2..5usize);
        let c = rng.gen_range(1..6usize);
        let h = rng.gen_range(2..8usize);
        let w = rng.gen_range(2..8usize);
        let x = uniform(rng, &[n, c, h, w], -2.0, 2.0);
        let gamma = uniform(rng, &[c], 0.5, 1.5);
        let beta = uniform(rng, &[c], -0.5, 0.5);
        let dy = uniform(rng, &[n, c, h, w], -1.0, 1.0);
        bitwise_invariant("batch_norm", || {
            let mut rm = vec![0.0; c];
            let mut rv = vec![1.0; c];
            let (y, saved) = batch_norm_forward(&x, &gamma, &beta, Some((&mut rm, &mut rv)));
            let (dx, dgamma, dbeta) = batch_norm_backward(&dy, &gamma, &saved);
            vec![
                y,
                dx,
                dgamma,
                dbeta,
                Tensor::from_vec(rm, &[c]),
                Tensor::from_vec(rv, &[c]),
            ]
        })
    });
}

#[test]
fn pools_bitwise_thread_invariant() {
    check("pooling thread-invariant", 12, |rng| {
        let n = rng.gen_range(1..4usize);
        let c = rng.gen_range(1..5usize);
        let h = rng.gen_range(4..10usize);
        let w = rng.gen_range(4..10usize);
        let k = rng.gen_range(2..4usize);
        let attrs = PoolAttrs { kh: k, kw: k, sh: k, sw: k, pad: Padding2d::default() };
        if h < k || w < k {
            return Case::Discard;
        }
        let x = uniform(rng, &[n, c, h, w], -1.0, 1.0);
        let (ym, _) = max_pool_forward(&x, &attrs);
        let dy = uniform(rng, ym.shape().dims(), -1.0, 1.0);
        let dyg = uniform(rng, &[n, c, 1, 1], -1.0, 1.0);
        bitwise_invariant("pools", || {
            let (ym, mask) = max_pool_forward(&x, &attrs);
            let dxm = max_pool_backward(&x, &dy, &mask, &attrs);
            let ya = avg_pool_forward(&x, &attrs);
            let dxa = avg_pool_backward(x.shape().dims(), &dy, &attrs);
            let yg = global_avg_pool_forward(&x);
            let dxg = global_avg_pool_backward(x.shape().dims(), &dyg);
            vec![ym, dxm, ya, dxa, yg, dxg]
        })
    });
}

#[test]
fn relu_and_linear_bitwise_thread_invariant() {
    check("relu+linear thread-invariant", 12, |rng| {
        let n = rng.gen_range(1..9usize);
        let d_in = rng.gen_range(1..80usize);
        let d_out = rng.gen_range(1..40usize);
        let x = uniform(rng, &[n, d_in], -1.0, 1.0);
        let w = uniform(rng, &[d_out, d_in], -0.5, 0.5);
        let b = uniform(rng, &[d_out], -0.2, 0.2);
        let dy = uniform(rng, &[n, d_out], -1.0, 1.0);
        bitwise_invariant("relu+linear", || {
            let y = linear_forward(&x, &w, &b);
            let r = relu_forward(&y);
            let dr = relu_backward(&r, &dy);
            let g = linear_backward(&x, &w, &dr);
            vec![y, r, dr, g.dx, g.dw, g.db]
        })
    });
}

/// `None` when `got` matches `want` tensor for tensor, bit for bit.
fn first_bit_difference(want: &[Tensor], got: &[Tensor]) -> Option<String> {
    assert_eq!(want.len(), got.len(), "output count");
    for (ti, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.shape(), b.shape(), "tensor {ti} shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!("tensor {ti} element {i}: want {x}, got {y}"));
            }
        }
    }
    None
}

/// The batch-norm kernels as they were before backward read the BN's
/// input: three serial sweeps, `x̂` materialised and re-read. The bits the
/// per-channel-task kernels must reproduce.
#[allow(clippy::needless_range_loop)] // the indexed loops are the reference
mod bn_reference {
    use scnn_tensor::Tensor;

    const EPS: f32 = 1e-5;

    pub struct Train {
        pub y: Tensor,
        pub xhat: Tensor,
        pub mean: Vec<f32>,
        pub var: Vec<f32>,
        pub inv_std: Vec<f32>,
    }

    fn normalize(x: &Tensor, mean: &[f32], inv_std: &[f32], g: &[f32], be: &[f32]) -> (Tensor, Tensor) {
        let (c, hw) = (x.dim(1), x.dim(2) * x.dim(3));
        let src = x.as_slice();
        let mut y = Tensor::zeros(x.shape().dims());
        let mut xh = Tensor::zeros(x.shape().dims());
        for i in 0..src.len() {
            let ch = (i / hw) % c;
            let v = (src[i] - mean[ch]) * inv_std[ch];
            xh.as_mut_slice()[i] = v;
            y.as_mut_slice()[i] = g[ch] * v + be[ch];
        }
        (y, xh)
    }

    pub fn train(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Train {
        let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
        let m = (n * hw) as f32;
        let src = x.as_slice();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ch in 0..c {
            let mut acc = 0.0f32;
            for b in 0..n {
                let base = (b * c + ch) * hw;
                for &v in &src[base..base + hw] {
                    acc += v;
                }
            }
            mean[ch] = acc / m;
            let mut acc = 0.0f32;
            for b in 0..n {
                let base = (b * c + ch) * hw;
                for &v in &src[base..base + hw] {
                    let d = v - mean[ch];
                    acc += d * d;
                }
            }
            var[ch] = acc / m;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let (y, xhat) = normalize(x, &mean, &inv_std, gamma.as_slice(), beta.as_slice());
        Train { y, xhat, mean, var, inv_std }
    }

    pub fn inference(x: &Tensor, gamma: &Tensor, beta: &Tensor, rm: &[f32], rv: &[f32]) -> Tensor {
        let inv_std: Vec<f32> = rv.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        normalize(x, rm, &inv_std, gamma.as_slice(), beta.as_slice()).0
    }

    /// `[dx, dgamma, dbeta]`.
    pub fn backward(dy: &Tensor, gamma: &Tensor, xhat: &Tensor, inv_std: &[f32]) -> Vec<Tensor> {
        let (n, c, hw) = (dy.dim(0), dy.dim(1), dy.dim(2) * dy.dim(3));
        let m = (n * hw) as f32;
        let (dyv, xh, g) = (dy.as_slice(), xhat.as_slice(), gamma.as_slice());
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ch in 0..c {
            let (mut ag, mut ab) = (0.0f32, 0.0f32);
            for b in 0..n {
                let base = (b * c + ch) * hw;
                for i in base..base + hw {
                    ag += dyv[i] * xh[i];
                    ab += dyv[i];
                }
            }
            dgamma[ch] = ag;
            dbeta[ch] = ab;
        }
        let mut dx = Tensor::zeros(dy.shape().dims());
        for (i, d) in dx.as_mut_slice().iter_mut().enumerate() {
            let ch = (i / hw) % c;
            let k = g[ch] * inv_std[ch] / m;
            *d = k * (m * dyv[i] - dbeta[ch] - xh[i] * dgamma[ch]);
        }
        vec![dx, Tensor::from_vec(dgamma, &[c]), Tensor::from_vec(dbeta, &[c])]
    }
}

/// The input-based forward / backward (what the executor runs), the
/// saved-`x̂` wrappers and the one-pass inference all return the
/// reference's bits, at every thread count — over channel counts on both
/// sides of the channel group, `n = 1`, `h·w = 1`, `c = 1`, and a tensor
/// large enough for several inference tasks.
#[test]
fn batch_norm_matches_the_saved_xhat_reference_bit_for_bit() {
    const SHAPES: [[usize; 4]; 10] = [
        [1, 1, 1, 1],
        [3, 1, 4, 5],
        [1, 4, 3, 3],
        [2, 3, 1, 1],
        [4, 5, 1, 1],
        [2, 4, 6, 6],
        [3, 7, 5, 2],
        [2, 8, 4, 4],
        [2, 9, 3, 7],
        [2, 5, 48, 40],
    ];
    let mut shapes = SHAPES.iter();
    check("batch_norm vs saved-xhat reference", SHAPES.len(), |rng| {
        let dims = shapes.next().expect("one case per shape");
        let c = dims[1];
        let x = uniform(rng, dims, -2.0, 3.0);
        let gamma = uniform(rng, &[c], 0.5, 1.5);
        let beta = uniform(rng, &[c], -0.5, 0.5);
        let dy = uniform(rng, dims, -1.0, 1.0);
        let rm: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let rv: Vec<f32> = (0..c).map(|_| rng.gen_range(0.2..2.0f32)).collect();

        let fwd = bn_reference::train(&x, &gamma, &beta);
        let mut want = vec![
            fwd.y.clone(),
            Tensor::from_vec(fwd.mean.clone(), &[c]),
            Tensor::from_vec(fwd.inv_std.clone(), &[c]),
            Tensor::from_vec(fwd.var.clone(), &[c]),
        ];
        want.extend(bn_reference::backward(&dy, &gamma, &fwd.xhat, &fwd.inv_std));
        // The saved-x̂ pair repeats the forward and backward outputs.
        want.push(fwd.y.clone());
        want.push(fwd.xhat.clone());
        want.extend(bn_reference::backward(&dy, &gamma, &fwd.xhat, &fwd.inv_std));
        want.push(bn_reference::inference(&x, &gamma, &beta, &rm, &rv));

        let run = || {
            let (y, stats, var) = batch_norm_train_stats(&x, &gamma, &beta);
            let (dx, dgamma, dbeta) = batch_norm_backward_from_input(&dy, &gamma, &x, &stats);
            let (y2, saved, _) = batch_norm_train(&x, &gamma, &beta);
            let (dx2, dgamma2, dbeta2) = batch_norm_backward(&dy, &gamma, &saved);
            vec![
                y,
                Tensor::from_vec(stats.mean, &[c]),
                Tensor::from_vec(stats.inv_std, &[c]),
                Tensor::from_vec(var, &[c]),
                dx,
                dgamma,
                dbeta,
                y2,
                saved.xhat,
                dx2,
                dgamma2,
                dbeta2,
                batch_norm_inference(&x, &gamma, &beta, &rm, &rv),
            ]
        };
        if let Some(diff) = first_bit_difference(&want, &scnn_par::with_threads(1, run)) {
            return Case::Fail(format!("{dims:?}: {diff}"));
        }
        bitwise_invariant("batch_norm", run)
    });
}

/// The zipped ReLU kernels return the bits of the indexed loops they
/// replaced — on zeros of both signs, NaN and infinities too, in a tensor
/// spanning several chunks with a ragged tail.
#[test]
#[allow(clippy::needless_range_loop)] // the indexed loops are the reference
fn relu_matches_the_indexed_reference_bit_for_bit() {
    fn forward_reference(x: &Tensor) -> Tensor {
        let src = x.as_slice();
        let mut out = Tensor::zeros(x.shape().dims());
        for i in 0..src.len() {
            out.as_mut_slice()[i] = src[i].max(0.0);
        }
        out
    }
    fn backward_reference(y: &Tensor, dy: &Tensor) -> Tensor {
        let (yv, dv) = (y.as_slice(), dy.as_slice());
        let mut out = Tensor::zeros(y.shape().dims());
        for i in 0..yv.len() {
            out.as_mut_slice()[i] = if yv[i] > 0.0 { dv[i] } else { 0.0 };
        }
        out
    }
    const SPECIAL: [f32; 7] =
        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, -1e-40];
    check("relu vs indexed reference", 6, |rng| {
        let len = rng.gen_range(1..40_000usize);
        let draw = |rng: &mut SplitRng| {
            let mut t = uniform(rng, &[len], -1.0, 1.0);
            for v in t.as_mut_slice().iter_mut() {
                if rng.gen_range(0..4usize) == 0 {
                    *v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                }
            }
            t
        };
        // `y` is not a ReLU output here on purpose: backward's mask must
        // treat a negative, NaN or −0.0 `y` exactly as the old loop did.
        let (x, y, dy) = (draw(rng), draw(rng), draw(rng));
        let want = [forward_reference(&x), backward_reference(&y, &dy), backward_reference(&y, &dy)];
        let run = || {
            let mut inplace = dy.clone();
            relu_backward_inplace(&y, &mut inplace);
            vec![relu_forward(&x), relu_backward(&y, &dy), inplace]
        };
        if let Some(diff) = first_bit_difference(&want, &scnn_par::with_threads(1, run)) {
            return Case::Fail(format!("len {len}: {diff}"));
        }
        bitwise_invariant("relu", run)
    });
}
