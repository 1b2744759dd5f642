//! The dense `f32` tensor type.

use std::fmt;

use crate::Shape;

/// A dense, row-major `f32` tensor.
///
/// All data lives in a single contiguous `Vec<f32>`; views are not used —
/// operations that conceptually produce views (slicing, padding) copy
/// instead, which keeps the kernel code simple and is plenty fast for the
/// CPU-proxy training this workspace performs. Dropping the tensor hands
/// the buffer back to the allocator.
///
/// # Example
///
/// ```
/// use scnn_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.len(), 6);
/// assert_eq!(x.at(&[1, 2]), 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extent along dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape.dim(d)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements (never happens for
    /// tensors built through this crate's constructors, which reject
    /// zero-sized shapes, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.as_slice()[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.as_mut_slice()[off] = value;
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements to {shape}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Accumulates `other` into `self` (`self += other`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum absolute difference from another tensor, useful in tests.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Returns `true` if every element is finite (no NaN/∞) — used as a
    /// training sanity check.
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Large tensors abbreviate to shape + a data prefix so debug logs
        // stay readable.
        write!(f, "Tensor{} ", self.shape)?;
        let data = self.as_slice();
        if data.len() <= 16 {
            write!(f, "{data:?}")
        } else {
            write!(f, "[{:?}, ...]", &data[..8])
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.as_slice()[5], 5.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::ones(&[3]);
        a.add_assign(&Tensor::full(&[3], 2.0));
        assert_eq!(a.as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[4]);
        assert_eq!(t.sum(), 12.0);
        assert_eq!(t.mean(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).reshape(&[4]);
        assert_eq!(t.rank(), 1);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_wrong_count_panics() {
        Tensor::zeros(&[2, 2]).reshape(&[3]);
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.set(&[0], f32::NAN);
        assert!(!t.all_finite());
    }
}
