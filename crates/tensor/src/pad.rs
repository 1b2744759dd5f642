//! Spatial padding and cropping for NCHW tensors.
//!
//! Split-CNN's per-patch padding (§3.1 of the paper) is *asymmetric*: a patch
//! may need different padding at the beginning and the end of each spatial
//! dimension, and — for split boundaries chosen outside `[lb, ub]`
//! (footnote 1) — *negative* padding, which crops input rows/columns and
//! abandons those features.

use crate::Tensor;

/// Per-side spatial padding for an NCHW tensor. Negative values crop.
///
/// # Example
///
/// ```
/// use scnn_tensor::Padding2d;
///
/// let p = Padding2d::symmetric(1);
/// assert_eq!(p.h_begin, 1);
/// assert_eq!(p.w_end, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Padding2d {
    /// Rows added (or cropped, if negative) before the first input row.
    pub h_begin: i64,
    /// Rows added after the last input row.
    pub h_end: i64,
    /// Columns added before the first input column.
    pub w_begin: i64,
    /// Columns added after the last input column.
    pub w_end: i64,
}

impl Padding2d {
    /// Equal padding on all four sides.
    pub fn symmetric(p: i64) -> Self {
        Padding2d {
            h_begin: p,
            h_end: p,
            w_begin: p,
            w_end: p,
        }
    }

    /// Padding given separately per dimension: `(h_begin, h_end, w_begin, w_end)`.
    pub fn new(h_begin: i64, h_end: i64, w_begin: i64, w_end: i64) -> Self {
        Padding2d {
            h_begin,
            h_end,
            w_begin,
            w_end,
        }
    }

    /// Returns `true` if no side pads or crops.
    pub fn is_zero(&self) -> bool {
        *self == Padding2d::default()
    }

    /// Splits a (possibly negative) padding into its crop (every side
    /// ≤ 0) and its zero padding (every side ≥ 0); applying the crop and
    /// then the zero padding is applying `self`.
    pub fn split(&self) -> (Padding2d, Padding2d) {
        let side = |f: fn(i64, i64) -> i64| {
            let Padding2d { h_begin, h_end, w_begin, w_end } = *self;
            Padding2d::new(f(h_begin, 0), f(h_end, 0), f(w_begin, 0), f(w_end, 0))
        };
        (side(i64::min), side(i64::max))
    }

    /// Output height for an input of height `h`.
    ///
    /// # Panics
    ///
    /// Panics if cropping would remove the entire extent.
    pub fn out_h(&self, h: usize) -> usize {
        let v = h as i64 + self.h_begin + self.h_end;
        assert!(v > 0, "padding {self:?} collapses height {h}");
        v as usize
    }

    /// Output width for an input of width `w`.
    ///
    /// # Panics
    ///
    /// Panics if cropping would remove the entire extent.
    pub fn out_w(&self, w: usize) -> usize {
        let v = w as i64 + self.w_begin + self.w_end;
        assert!(v > 0, "padding {self:?} collapses width {w}");
        v as usize
    }

    /// The inverse padding: applying `invert()` to a padded tensor restores
    /// the original spatial extent (contents are exact when nothing was
    /// cropped; cropped regions come back as zeros).
    pub fn invert(&self) -> Self {
        Padding2d {
            h_begin: -self.h_begin,
            h_end: -self.h_end,
            w_begin: -self.w_begin,
            w_end: -self.w_end,
        }
    }
}

impl Tensor {
    /// Pads (or crops) the two trailing spatial dimensions of an NCHW tensor
    /// with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the padding collapses a
    /// dimension to zero or below.
    ///
    /// # Example
    ///
    /// ```
    /// use scnn_tensor::{Padding2d, Tensor};
    ///
    /// let x = Tensor::ones(&[1, 1, 2, 2]);
    /// let y = x.pad2d(Padding2d::symmetric(1));
    /// assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
    /// assert_eq!(y.at(&[0, 0, 0, 0]), 0.0); // corner is padding
    /// assert_eq!(y.at(&[0, 0, 1, 1]), 1.0); // original data
    /// ```
    pub fn pad2d(&self, pad: Padding2d) -> Tensor {
        assert_eq!(self.rank(), 4, "pad2d expects NCHW, got {}", self.shape());
        if pad.is_zero() {
            return self.clone();
        }
        let (n, c, h, w) = (self.dim(0), self.dim(1), self.dim(2), self.dim(3));
        let oh = pad.out_h(h);
        let ow = pad.out_w(w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for img in 0..n * c {
            let sbase = img * h * w;
            let dbase = img * oh * ow;
            for oy in 0..oh {
                let iy = oy as i64 - pad.h_begin;
                if iy < 0 || iy >= h as i64 {
                    continue;
                }
                let iy = iy as usize;
                // Source column range visible in this output row.
                let ox_start = pad.w_begin.max(0) as usize;
                let ix_start = (-pad.w_begin).max(0) as usize;
                let count = (w - ix_start).min(ow - ox_start.min(ow));
                if count == 0 || ox_start >= ow {
                    continue;
                }
                let s = sbase + iy * w + ix_start;
                let d = dbase + oy * ow + ox_start;
                dst[d..d + count].copy_from_slice(&src[s..s + count]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims)
    }

    #[test]
    fn symmetric_pad_places_data_centered() {
        let x = seq(&[1, 1, 2, 2]); // [[0,1],[2,3]]
        let y = x.pad2d(Padding2d::symmetric(1));
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 1, 1]), 0.0);
        assert_eq!(y.at(&[0, 0, 1, 2]), 1.0);
        assert_eq!(y.at(&[0, 0, 2, 1]), 2.0);
        assert_eq!(y.at(&[0, 0, 2, 2]), 3.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 0.0);
    }

    #[test]
    fn asymmetric_pad() {
        let x = seq(&[1, 1, 2, 2]);
        let y = x.pad2d(Padding2d::new(1, 0, 0, 2));
        assert_eq!(y.shape().dims(), &[1, 1, 3, 4]);
        assert_eq!(y.at(&[0, 0, 1, 0]), 0.0); // data row starts at h=1
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 2]), 0.0); // right padding
    }

    #[test]
    fn negative_pad_crops() {
        let x = seq(&[1, 1, 3, 3]);
        let y = x.pad2d(Padding2d::new(-1, 0, 0, -1));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Original rows 1..3, cols 0..2.
        assert_eq!(y.at(&[0, 0, 0, 0]), 3.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 7.0);
    }

    #[test]
    fn mixed_pad_and_crop() {
        let x = seq(&[1, 1, 2, 2]);
        let y = x.pad2d(Padding2d::new(1, -1, -1, 1));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Row 0 is zero padding; row 1 = original row 0 cropped to col 1.
        assert_eq!(y.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(y.at(&[0, 0, 1, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 0.0);
    }

    #[test]
    fn inverted_pad_roundtrip_is_identity_without_crop() {
        let x = seq(&[2, 3, 4, 5]);
        let p = Padding2d::new(2, 1, 0, 3);
        assert_eq!(x.pad2d(p).pad2d(p.invert()), x);
    }

    #[test]
    fn multichannel_batch_pad() {
        let x = seq(&[2, 2, 2, 2]);
        let y = x.pad2d(Padding2d::symmetric(1));
        // Last image, last channel data preserved.
        assert_eq!(y.at(&[1, 1, 1, 1]), x.at(&[1, 1, 0, 0]));
        assert_eq!(y.at(&[1, 1, 2, 2]), x.at(&[1, 1, 1, 1]));
    }

    #[test]
    fn split_separates_crop_from_padding() {
        let (crop, pos) = Padding2d::new(-2, 1, 0, -1).split();
        assert_eq!(crop, Padding2d::new(-2, 0, 0, -1));
        assert_eq!(pos, Padding2d::new(0, 1, 0, 0));
        let x = seq(&[1, 2, 5, 4]);
        assert_eq!(x.pad2d(crop).pad2d(pos), x.pad2d(Padding2d::new(-2, 1, 0, -1)));
    }

    #[test]
    #[should_panic(expected = "collapses")]
    fn over_crop_panics() {
        seq(&[1, 1, 2, 2]).pad2d(Padding2d::new(-1, -1, 0, 0));
    }
}
