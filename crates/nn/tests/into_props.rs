//! Every forward kernel's `_into` form, run on a destination filled with
//! NaN, returns the allocating form's bits — the kernel writes every
//! element and reads none of what it was handed — over random geometry
//! that includes the split transform's negative (cropping) padding.

use scnn_nn::kernels::{
    add_forward_into, avg_pool_forward, avg_pool_forward_into, batch_norm_inference,
    batch_norm_inference_into, batch_norm_train_stats,
    batch_norm_train_stats_into, conv2d_forward_into, conv2d_forward_with,
    dropout_apply_into, dropout_mask, global_avg_pool_forward, global_avg_pool_forward_into,
    linear_forward, linear_forward_into, max_pool_forward, max_pool_forward_into, relu_forward,
    relu_forward_into, ConvAlgo, ConvAttrs, PoolAttrs,
};
use scnn_rng::prop::{check, Case};
use scnn_rng::{prop_assert, prop_assume, Rng};
use scnn_tensor::{uniform, Padding2d, Tensor};

/// A NaN-filled tensor of `like`'s shape.
fn nan_like(like: &Tensor) -> Tensor {
    Tensor::full(like.shape().dims(), f32::NAN)
}

/// `got` equals `want` in shape and in every bit.
fn same_bits(want: &Tensor, got: &Tensor) -> bool {
    want.shape() == got.shape()
        && want.as_slice().iter().zip(got.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
}

fn random_padding(rng: &mut impl Rng) -> Padding2d {
    let mut side = || rng.gen_range(-1..2i64);
    Padding2d::new(side(), side(), side(), side())
}

#[test]
fn conv_into_overwrites_a_nan_buffer() {
    check("conv2d_forward_into on NaN", 24, |rng| {
        let (n, ic, oc) = (rng.gen_range(1..3usize), rng.gen_range(1..4usize), rng.gen_range(1..6usize));
        let (h, w) = (rng.gen_range(4..10usize), rng.gen_range(4..10usize));
        let (kh, kw) = (rng.gen_range(1..4usize), rng.gen_range(1..4usize));
        let s = rng.gen_range(1..3usize);
        let pad = random_padding(rng);
        prop_assume!(h as i64 + pad.h_begin + pad.h_end >= kh as i64);
        prop_assume!(w as i64 + pad.w_begin + pad.w_end >= kw as i64);
        let attrs = ConvAttrs { kh, kw, sh: s, sw: s, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.5, 0.5);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        let bias = if rng.gen_range(0..2usize) == 0 { Some(&b) } else { None };
        for algo in [None, Some(ConvAlgo::Materialized)] {
            let want = conv2d_forward_with(&x, &wt, bias, &attrs, algo);
            let mut got = nan_like(&want);
            conv2d_forward_into(&x, &wt, bias, &attrs, algo, &mut got);
            prop_assert!(same_bits(&want, &got), "{algo:?}");
        }
        Case::Pass
    });
}

#[test]
fn pool_intos_overwrite_a_nan_buffer() {
    check("pool forwards _into on NaN", 24, |rng| {
        let (n, c) = (rng.gen_range(1..3usize), rng.gen_range(1..4usize));
        let (h, w) = (rng.gen_range(4..10usize), rng.gen_range(4..10usize));
        let k = rng.gen_range(1..4usize);
        let s = rng.gen_range(1..3usize);
        let pad = random_padding(rng);
        prop_assume!(h as i64 + pad.h_begin + pad.h_end >= k as i64);
        prop_assume!(w as i64 + pad.w_begin + pad.w_end >= k as i64);
        let attrs = PoolAttrs { kh: k, kw: k, sh: s, sw: s, pad };
        let x = uniform(rng, &[n, c, h, w], -1.0, 1.0);

        let (want, want_mask) = max_pool_forward(&x, &attrs);
        let mut got = nan_like(&want);
        let got_mask = max_pool_forward_into(&x, &attrs, &mut got);
        prop_assert!(same_bits(&want, &got) && want_mask == got_mask, "max pool");

        let want = avg_pool_forward(&x, &attrs);
        let mut got = nan_like(&want);
        avg_pool_forward_into(&x, &attrs, &mut got);
        prop_assert!(same_bits(&want, &got), "avg pool");

        let want = global_avg_pool_forward(&x);
        let mut got = nan_like(&want);
        global_avg_pool_forward_into(&x, &mut got);
        prop_assert!(same_bits(&want, &got), "global avg pool");
        Case::Pass
    });
}

#[test]
fn batch_norm_intos_overwrite_a_nan_buffer() {
    check("batch norm _into on NaN", 16, |rng| {
        let dims = [rng.gen_range(1..4usize), rng.gen_range(1..10usize), rng.gen_range(1..7usize), rng.gen_range(1..7usize)];
        let c = dims[1];
        let x = uniform(rng, &dims, -2.0, 3.0);
        let gamma = uniform(rng, &[c], 0.5, 1.5);
        let beta = uniform(rng, &[c], -0.5, 0.5);
        let rm: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let rv: Vec<f32> = (0..c).map(|_| rng.gen_range(0.2..2.0f32)).collect();

        let (want, want_stats, want_var) = batch_norm_train_stats(&x, &gamma, &beta);
        let mut got = nan_like(&want);
        let (stats, var) = batch_norm_train_stats_into(&x, &gamma, &beta, &mut got);
        prop_assert!(same_bits(&want, &got), "train stats output");
        prop_assert!(
            stats.mean == want_stats.mean && stats.inv_std == want_stats.inv_std && var == want_var,
            "train statistics"
        );


        let want = batch_norm_inference(&x, &gamma, &beta, &rm, &rv);
        let mut got = nan_like(&want);
        batch_norm_inference_into(&x, &gamma, &beta, &rm, &rv, &mut got);
        prop_assert!(same_bits(&want, &got), "inference");
        Case::Pass
    });
}

#[test]
fn pointwise_and_linear_intos_overwrite_a_nan_buffer() {
    check("relu, add, dropout, linear _into on NaN", 24, |rng| {
        // Long enough for several ReLU chunks, with a ragged tail.
        let len = rng.gen_range(1..40_000usize);
        let x = uniform(rng, &[len], -1.0, 1.0);
        let want = relu_forward(&x);
        let mut got = nan_like(&want);
        relu_forward_into(&x, &mut got);
        prop_assert!(same_bits(&want, &got), "relu");

        let parts: Vec<Tensor> = (0..3).map(|_| uniform(rng, &[len], -1.0, 1.0)).collect();
        for k in 1..=3 {
            let refs: Vec<&Tensor> = parts[..k].iter().collect();
            let mut want = parts[0].clone();
            if k > 1 {
                want = parts[0].add(&parts[1]);
            }
            if k > 2 {
                want.add_assign(&parts[2]);
            }
            let mut got = nan_like(&want);
            add_forward_into(&refs, &mut got);
            prop_assert!(same_bits(&want, &got), "add of {k}");
        }

        let mask = dropout_mask(&[len], 0.3, rng);
        let mut got = nan_like(&x);
        dropout_apply_into(&x, &mask, &mut got);
        prop_assert!(same_bits(&x.mul(&mask), &got), "dropout");

        let (n, d_in, d_out) = (rng.gen_range(1..9usize), rng.gen_range(1..80usize), rng.gen_range(1..40usize));
        let x = uniform(rng, &[n, d_in], -1.0, 1.0);
        let w = uniform(rng, &[d_out, d_in], -0.5, 0.5);
        let b = uniform(rng, &[d_out], -0.2, 0.2);
        let want = linear_forward(&x, &w, &b);
        let mut got = nan_like(&want);
        linear_forward_into(&x, &w, &b, &mut got);
        prop_assert!(same_bits(&want, &got), "linear");
        Case::Pass
    });
}

#[test]
fn slice_and_concat_intos_overwrite_a_nan_buffer() {
    check("slice_dim_into / concat_into on NaN", 24, |rng| {
        let dims: Vec<usize> = (0..4).map(|_| rng.gen_range(1..6usize)).collect();
        let dim = rng.gen_range(0..4usize);
        let x = uniform(rng, &dims, -1.0, 1.0);
        let cut = rng.gen_range(0..dims[dim]);
        let (a_len, b_len) = (cut.max(1), dims[dim] - cut.max(1));
        let a = x.slice_dim(dim, 0, a_len);
        let mut got = nan_like(&a);
        x.slice_dim_into(dim, 0, &mut got);
        prop_assert!(same_bits(&a, &got), "slice");
        if b_len > 0 {
            let b = x.slice_dim(dim, a_len, b_len);
            let want = Tensor::concat(&[&a, &b], dim);
            let mut got = nan_like(&want);
            Tensor::concat_into(&[&a, &b], dim, &mut got);
            prop_assert!(same_bits(&want, &got) && same_bits(&x, &got), "concat");
        }
        Case::Pass
    });
}
