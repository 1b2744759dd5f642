//! Fully-connected layer.
//!
//! Gradients are fresh tensors; `dw`'s GEMM partials use the per-thread
//! scratch arena inside `matmul_at_b_into`.

use scnn_tensor::{matmul_a_bt_into, matmul_at_b_into, matmul_into, Tensor};

use super::fresh;

/// Gradients produced by [`linear_backward`].
#[derive(Clone, Debug)]
pub struct LinearGrads {
    /// Gradient w.r.t. the input `[n, in]`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weight `[out, in]`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias `[out]`.
    pub db: Tensor,
}

/// `y = x · wᵀ + b` for `x: [n, in]`, `w: [out, in]`, `b: [out]`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn linear_forward(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    fresh(&[x.dim(0), w.dim(0)], |y| linear_forward_into(x, w, b, y)).0
}

/// [`linear_forward`] into `y: [n, out]`; every element is overwritten.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn linear_forward_into(x: &Tensor, w: &Tensor, b: &Tensor, y: &mut Tensor) {
    assert_eq!(x.rank(), 2, "linear input must be [n, in]");
    assert_eq!(w.rank(), 2, "linear weight must be [out, in]");
    assert_eq!(x.dim(1), w.dim(1), "linear in-feature mismatch");
    assert_eq!(b.len(), w.dim(0), "linear bias mismatch");
    let (n, k) = (x.dim(0), x.dim(1));
    let out = w.dim(0);
    assert_eq!(y.shape().dims(), &[n, out], "linear output buffer shape");
    matmul_a_bt_into(x.as_slice(), w.as_slice(), n, k, out, y.as_mut_slice());
    let bd = b.as_slice();
    for row in y.as_mut_slice().chunks_mut(out) {
        for (v, &bb) in row.iter_mut().zip(bd) {
            *v += bb;
        }
    }
}

/// Linear backward given upstream `dy: [n, out]`.
pub fn linear_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> LinearGrads {
    assert_eq!(dy.shape().dims(), &[x.dim(0), w.dim(0)], "linear dy mismatch");
    let (n, k) = (x.dim(0), x.dim(1));
    let out = w.dim(0);
    let mut dx = Tensor::zeros(&[n, k]); // matmul_into accumulates
    matmul_into(dy.as_slice(), w.as_slice(), n, out, k, dx.as_mut_slice());
    let mut dw = Tensor::zeros(&[out, k]);
    matmul_at_b_into(dy.as_slice(), x.as_slice(), n, out, k, dw.as_mut_slice());
    let mut db = vec![0.0f32; out];
    for row in dy.as_slice().chunks(out) {
        for (acc, &v) in db.iter_mut().zip(row) {
            *acc += v;
        }
    }
    LinearGrads {
        dx,
        dw,
        db: Tensor::from_vec(db, &[out]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gradcheck::check;
    use scnn_rng::SplitRng;
    use scnn_tensor::uniform;

    #[test]
    fn known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let w = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let y = linear_forward(&x, &w, &b);
        assert_eq!(y.as_slice(), &[11.5, 16.5]);
    }

    #[test]
    fn gradcheck_all() {
        let mut r = SplitRng::seed_from_u64(6);
        let x = uniform(&mut r, &[3, 4], -1.0, 1.0);
        let w = uniform(&mut r, &[2, 4], -1.0, 1.0);
        let b = uniform(&mut r, &[2], -1.0, 1.0);
        let y = linear_forward(&x, &w, &b);
        let dy = Tensor::ones(y.shape().dims());
        let g = linear_backward(&x, &w, &dy);
        check(&x, &g.dx, 0.05, |xx| linear_forward(xx, &w, &b).sum());
        check(&w, &g.dw, 0.05, |ww| linear_forward(&x, ww, &b).sum());
        check(&b, &g.db, 0.05, |bb| linear_forward(&x, &w, bb).sum());
    }
}
