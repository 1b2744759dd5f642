//! Pointwise ops: ReLU, dropout and the residual sum.

use scnn_rng::Rng;
use scnn_tensor::Tensor;

use super::{fresh, ELEM_CHUNK};

/// ReLU forward: `max(0, x)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    fresh(x.shape().dims(), |y| relu_forward_into(x, y)).0
}

/// [`relu_forward`] into `y`; every element is overwritten.
///
/// # Panics
///
/// Panics if the shapes disagree.
pub fn relu_forward_into(x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.shape(), y.shape(), "relu output buffer shape");
    let src = x.as_slice();
    scnn_par::par_chunks_mut(y.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        for (o, &v) in chunk.iter_mut().zip(&src[ci * ELEM_CHUNK..]) {
            *o = v.max(0.0);
        }
    });
}

/// The residual join: `y = x₀ + x₁ + …`, summed left to right, the first
/// pair in one pass; every element of `y` is overwritten.
///
/// # Panics
///
/// Panics if `xs` is empty or any shape differs from `y`'s.
pub fn add_forward_into(xs: &[&Tensor], y: &mut Tensor) {
    let (first, rest) = xs.split_first().expect("add has inputs");
    for x in xs {
        assert_eq!(x.shape(), y.shape(), "add operand shape");
    }
    match rest.first() {
        None => y.as_mut_slice().copy_from_slice(first.as_slice()),
        Some(second) => {
            let pairs = first.as_slice().iter().zip(second.as_slice());
            for (o, (&a, &b)) in y.as_mut_slice().iter_mut().zip(pairs) {
                *o = a + b;
            }
        }
    }
    for x in rest.iter().skip(1) {
        y.add_assign(x);
    }
}

/// ReLU backward, computed from the *output* — the property that makes
/// ReLU in-place-capable (the input is never re-read; §4.2 optimization 1).
///
/// Slices zipped, no index: the mask — a coin flip per element — compiles
/// to a compare and a blend, not a branch.
pub fn relu_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.shape(), dy.shape(), "relu backward shape mismatch");
    let yv = y.as_slice();
    let dv = dy.as_slice();
    let mut out = Tensor::zeros(y.shape().dims());
    scnn_par::par_chunks_mut(out.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        let base = ci * ELEM_CHUNK;
        for ((o, &v), &d) in chunk.iter_mut().zip(&yv[base..]).zip(&dv[base..]) {
            *o = if v > 0.0 { d } else { 0.0 };
        }
    });
    out
}

/// [`relu_backward`] on a gradient the caller owns: zeroes `dy` wherever
/// `y` is not positive, allocating nothing.
///
/// # Panics
///
/// Panics if the shapes disagree.
pub fn relu_backward_inplace(y: &Tensor, dy: &mut Tensor) {
    assert_eq!(y.shape(), dy.shape(), "relu backward shape mismatch");
    let yv = y.as_slice();
    scnn_par::par_chunks_mut(dy.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        for (d, &v) in chunk.iter_mut().zip(&yv[ci * ELEM_CHUNK..]) {
            *d = if v > 0.0 { *d } else { 0.0 };
        }
    });
}

/// Draws an inverted-dropout keep mask (already scaled by `1/(1−p)`:
/// zero with probability `p`), consuming exactly `len` RNG draws when
/// `p > 0` and none when `p == 0`. Separate from [`dropout_apply_into`] so
/// the executor can pre-draw all masks serially in node-id order before
/// running branches concurrently — keeping the RNG stream identical to
/// fully serial execution.
///
/// # Panics
///
/// Panics unless `0 ≤ p < 1`.
pub fn dropout_mask(dims: &[usize], p: f32, rng: &mut impl Rng) -> Tensor {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1), got {p}");
    if p == 0.0 {
        return Tensor::ones(dims);
    }
    let scale = 1.0 / (1.0 - p);
    let len: usize = dims.iter().product();
    let mask_data: Vec<f32> = (0..len)
        .map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale })
        .collect();
    Tensor::from_vec(mask_data, dims)
}

/// Applies a keep mask from [`dropout_mask`]: `y = x · mask`; every
/// element of `y` is overwritten.
///
/// # Panics
///
/// Panics if the shapes disagree.
pub fn dropout_apply_into(x: &Tensor, mask: &Tensor, y: &mut Tensor) {
    assert!(x.shape() == mask.shape() && x.shape() == y.shape(), "dropout shape mismatch");
    let pairs = x.as_slice().iter().zip(mask.as_slice());
    for (o, (&v, &m)) in y.as_mut_slice().iter_mut().zip(pairs) {
        *o = v * m;
    }
}

/// Dropout backward: apply the same mask to the upstream gradient.
pub fn dropout_backward(dy: &Tensor, mask: &Tensor) -> Tensor {
    dy.mul(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu_forward(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_by_output_sign() {
        let y = Tensor::from_vec(vec![0.0, 3.0], &[2]);
        let dy = Tensor::from_vec(vec![5.0, 5.0], &[2]);
        assert_eq!(relu_backward(&y, &dy).as_slice(), &[0.0, 5.0]);
    }

    /// Dropout as the executor runs it: a mask from [`dropout_mask`],
    /// applied by [`dropout_apply_into`].
    fn dropout(x: &Tensor, p: f32, rng: &mut SplitRng) -> (Tensor, Tensor) {
        let mask = dropout_mask(x.shape().dims(), p, rng);
        let mut y = Tensor::zeros(x.shape().dims());
        dropout_apply_into(x, &mask, &mut y);
        (y, mask)
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut rng = SplitRng::seed_from_u64(1);
        let x = Tensor::ones(&[10_000]);
        let (y, _) = dropout(&x, 0.3, &mut rng);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean} far from 1");
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = SplitRng::seed_from_u64(2);
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let (y, mask) = dropout(&x, 0.0, &mut rng);
        assert_eq!(y, x);
        assert_eq!(mask.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut rng = SplitRng::seed_from_u64(3);
        let x = Tensor::ones(&[100]);
        let (y, mask) = dropout(&x, 0.5, &mut rng);
        let dy = Tensor::ones(&[100]);
        let dx = dropout_backward(&dy, &mask);
        // Exactly where y is zero, dx is zero; where y survives, dx = scale.
        for i in 0..100 {
            assert_eq!(y.as_slice()[i] == 0.0, dx.as_slice()[i] == 0.0);
        }
    }
}
