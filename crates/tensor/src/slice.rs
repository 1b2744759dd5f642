//! Slicing and concatenation along arbitrary dimensions.
//!
//! These are the `Split_D` and `[·]_D` operators of the paper's §3.1: the
//! split transformation partitions tensors along spatial dimensions and the
//! join layer concatenates patch outputs back together.

use crate::{Shape, Tensor};

impl Tensor {
    /// Copies the sub-tensor `[start, start + len)` along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or the interval exceeds the extent.
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_tensor::Tensor;
    ///
    /// let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
    /// let y = x.slice_dim(1, 1, 2);
    /// assert_eq!(y.shape().dims(), &[2, 2]);
    /// assert_eq!(y.as_slice(), &[1.0, 2.0, 4.0, 5.0]);
    /// ```
    pub fn slice_dim(&self, dim: usize, start: usize, len: usize) -> Tensor {
        let mut out = Tensor::zeros(&sliced_dims(self.shape().dims(), dim, start, len));
        self.slice_dim_into(dim, start, &mut out);
        out
    }

    /// [`Tensor::slice_dim`] into `out`, whose extent along `dim` is the
    /// slice's length. Every element of `out` is overwritten.
    ///
    /// # Panics
    ///
    /// As [`Tensor::slice_dim`], and if `out` has any other shape.
    pub fn slice_dim_into(&self, dim: usize, start: usize, out: &mut Tensor) {
        let dims = self.shape().dims();
        let len = out.shape().dims().get(dim).copied().unwrap_or(0);
        let want = sliced_dims(dims, dim, start, len);
        assert_eq!(out.shape().dims(), want.as_slice(), "slice destination shape");
        let outer: usize = dims[..dim].iter().product();
        let inner: usize = dims[dim + 1..].iter().product();
        let extent = dims[dim];
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for o in 0..outer {
            let sbase = (o * extent + start) * inner;
            let dbase = o * len * inner;
            dst[dbase..dbase + len * inner].copy_from_slice(&src[sbase..sbase + len * inner]);
        }
    }

    /// Scatters `patch` back into a zero tensor of shape `full_dims` at
    /// offset `start` along `dim` — the adjoint of [`Tensor::slice_dim`],
    /// used when back-propagating through a slice.
    ///
    /// # Panics
    ///
    /// Panics if the patch does not fit inside `full_dims` at that offset.
    pub fn scatter_dim(patch: &Tensor, full_dims: &[usize], dim: usize, start: usize) -> Tensor {
        let mut out = Tensor::zeros(full_dims);
        out.scatter_add_dim(patch, dim, start);
        out
    }

    /// Accumulates `patch` into `self` at offset `start` along `dim`
    /// (`self[.., start..start+len, ..] += patch`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn scatter_add_dim(&mut self, patch: &Tensor, dim: usize, start: usize) {
        let full = self.shape().dims().to_vec();
        let pdims = patch.shape().dims();
        assert_eq!(full.len(), pdims.len(), "rank mismatch in scatter");
        for (d, (&f, &p)) in full.iter().zip(pdims).enumerate() {
            if d == dim {
                assert!(start + p <= f, "patch overruns dimension {d}: {start}+{p} > {f}");
            } else {
                assert_eq!(f, p, "non-sliced dimension {d} mismatch: {f} vs {p}");
            }
        }
        let outer: usize = full[..dim].iter().product();
        let inner: usize = full[dim + 1..].iter().product();
        let extent = full[dim];
        let plen = pdims[dim];
        let src = patch.as_slice();
        let dst = self.as_mut_slice();
        for o in 0..outer {
            let dbase = (o * extent + start) * inner;
            let sbase = o * plen * inner;
            for (d, &s) in dst[dbase..dbase + plen * inner]
                .iter_mut()
                .zip(&src[sbase..sbase + plen * inner])
            {
                *d += s;
            }
        }
    }

    /// Concatenates tensors along `dim`. All other dimensions must agree.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree off-dimension.
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_tensor::Tensor;
    ///
    /// let a = Tensor::ones(&[1, 2]);
    /// let b = Tensor::zeros(&[1, 3]);
    /// let c = Tensor::concat(&[&a, &b], 1);
    /// assert_eq!(c.shape().dims(), &[1, 5]);
    /// ```
    pub fn concat(parts: &[&Tensor], dim: usize) -> Tensor {
        let mut out = Tensor::zeros(&concat_dims(parts, dim));
        Tensor::concat_into(parts, dim, &mut out);
        out
    }

    /// [`Tensor::concat`] into `out`. Every element of `out` is overwritten.
    ///
    /// # Panics
    ///
    /// As [`Tensor::concat`], and if `out` has any other shape.
    pub fn concat_into(parts: &[&Tensor], dim: usize, out: &mut Tensor) {
        let out_dims = concat_dims(parts, dim);
        assert_eq!(out.shape().dims(), out_dims.as_slice(), "concat destination shape");
        let total = out_dims[dim];
        let outer: usize = out_dims[..dim].iter().product();
        let inner: usize = out_dims[dim + 1..].iter().product();
        let dst = out.as_mut_slice();
        let mut offset = 0usize;
        for p in parts {
            let plen = p.dim(dim);
            let src = p.as_slice();
            for o in 0..outer {
                let dbase = (o * total + offset) * inner;
                let sbase = o * plen * inner;
                dst[dbase..dbase + plen * inner].copy_from_slice(&src[sbase..sbase + plen * inner]);
            }
            offset += plen;
        }
    }
}

/// The dims of `[start, start + len)` along `dim` of a `dims` tensor.
fn sliced_dims(dims: &[usize], dim: usize, start: usize, len: usize) -> Vec<usize> {
    assert!(dim < dims.len(), "slice dim {dim} out of range for {}", Shape::from(dims));
    assert!(
        start + len <= dims[dim] && len > 0,
        "slice [{start}, {}) out of range for extent {}",
        start + len,
        dims[dim]
    );
    let mut out = dims.to_vec();
    out[dim] = len;
    out
}

/// The dims of `parts` joined along `dim`.
fn concat_dims(parts: &[&Tensor], dim: usize) -> Vec<usize> {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let first = parts[0].shape().dims();
    assert!(dim < first.len(), "concat dim {dim} out of range");
    let mut total = 0usize;
    for p in parts {
        let d = p.shape().dims();
        assert_eq!(d.len(), first.len(), "concat rank mismatch");
        for (i, (&a, &b)) in first.iter().zip(d).enumerate() {
            if i != dim {
                assert_eq!(a, b, "concat off-dimension {i} mismatch: {a} vs {b}");
            }
        }
        total += d[dim];
    }
    let mut out = first.to_vec();
    out[dim] = total;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims)
    }

    #[test]
    fn slice_middle_dim() {
        let x = seq(&[2, 4, 3]);
        let y = x.slice_dim(1, 1, 2);
        assert_eq!(y.shape().dims(), &[2, 2, 3]);
        assert_eq!(y.at(&[0, 0, 0]), x.at(&[0, 1, 0]));
        assert_eq!(y.at(&[1, 1, 2]), x.at(&[1, 2, 2]));
    }

    #[test]
    fn concat_inverts_slicing() {
        let x = seq(&[2, 3, 6, 5]);
        let parts = [(0, 2), (2, 3), (5, 1)].map(|(start, len)| x.slice_dim(2, start, len));
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(Tensor::concat(&refs, 2), x);
    }

    #[test]
    fn concat_last_dim() {
        let a = seq(&[2, 2]);
        let b = a.scale(10.0);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape().dims(), &[2, 4]);
        assert_eq!(c.as_slice(), &[0., 1., 0., 10., 2., 3., 20., 30.]);
    }

    #[test]
    fn scatter_is_slice_adjoint() {
        // <slice(x), y> == <x, scatter(y)> for a dot-product inner product.
        let x = seq(&[1, 1, 6, 2]);
        let y = seq(&[1, 1, 3, 2]).map(|v| v + 1.0);
        let sliced = x.slice_dim(2, 2, 3);
        let scattered = Tensor::scatter_dim(&y, x.shape().dims(), 2, 2);
        let lhs: f32 = sliced.mul(&y).sum();
        let rhs: f32 = x.mul(&scattered).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn scatter_add_accumulates() {
        let mut full = Tensor::ones(&[1, 1, 4, 1]);
        let patch = Tensor::full(&[1, 1, 2, 1], 3.0);
        full.scatter_add_dim(&patch, 2, 1);
        assert_eq!(
            full.as_slice(),
            &[1.0, 4.0, 4.0, 1.0]
        );
    }

    #[test]
    #[should_panic(expected = "off-dimension")]
    fn concat_shape_mismatch_panics() {
        Tensor::concat(&[&Tensor::zeros(&[2, 2]), &Tensor::zeros(&[3, 2])], 1);
    }
}
