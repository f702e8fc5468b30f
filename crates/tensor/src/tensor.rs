use std::fmt;

use mfaplace_rt::rng::Rng;

use crate::{lowlevel, numel, strides_for, TensorError};

/// A dense, row-major, heap-allocated `f32` tensor of arbitrary rank.
///
/// A rank-0 tensor (shape `[]`) holds a single scalar.
///
/// # Example
///
/// ```
/// use mfaplace_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(vec![])
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the number of elements implied by `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected = numel(&shape);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = numel(&shape);
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(&shape);
        Tensor {
            shape,
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Samples each element from `N(0, std^2)` using the Box–Muller transform.
    pub fn randn(shape: Vec<usize>, std: f32, rng: &mut impl Rng) -> Self {
        let n = numel(&shape);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// Samples each element uniformly from `[lo, hi)`.
    pub fn uniform(shape: Vec<usize>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        Tensor::from_fn(shape, |_| rng.gen_range(lo..hi))
    }

    // ------------------------------------------------------------ accessors

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Tensor rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The scalar value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a single-element tensor"
        );
        self.data[0]
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let i = self.flat_index(idx);
        self.data[i] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let strides = strides_for(&self.shape);
        idx.iter()
            .zip(&self.shape)
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bounds for axis of size {d}");
                i * s
            })
            .sum()
    }

    // ----------------------------------------------------------- reshaping

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Self, TensorError> {
        let expected = numel(&shape);
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    // --------------------------------------------------------- element-wise

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shape tensors element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, lowlevel::add)
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, lowlevel::sub)
    }

    /// Sums a list of same-shaped tensors with a **fixed-order pairwise
    /// tree reduction**: adjacent pairs are combined bottom-up
    /// (`((t0+t1)+(t2+t3))+…`), an odd leftover is promoted unchanged.
    ///
    /// The reduction order is a pure function of the list — it does not
    /// depend on how the tensors were produced or on any worker count — so
    /// data-parallel gradient combination through this function is bitwise
    /// identical for any sharding of the work. Returns `None` for an empty
    /// list. Panics on shape mismatch.
    pub fn tree_sum(mut level: Vec<Tensor>) -> Option<Tensor> {
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(a.add(&b)),
                    None => next.push(a),
                }
            }
            level = next;
        }
        level.pop()
    }

    /// Adds `other * c` into `self` in place. Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Tensor, c: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * c;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first on ties); `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            if best.is_none_or(|(_, b)| x > b) {
                best = Some((i, x));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_rt::rng::SeedableRng;
    use mfaplace_rt::rng::StdRng;

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(vec![2, 3], vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
        assert!(Tensor::from_vec(vec![2, 3], vec![1.0; 6]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.data()[12 + 2 * 4 + 3], 7.5);
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::scalar(3.0);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.item(), 3.0);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![4], vec![1.0, -2.0, 3.0, 0.5]).unwrap();
        assert_eq!(a.sum(), 2.5);
        assert_eq!(a.mean(), 0.625);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), Some(2));
    }

    #[test]
    fn randn_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(vec![10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn reshape_checks_numel() {
        let t = Tensor::zeros(vec![2, 3]);
        assert!(t.reshape(vec![3, 2]).is_ok());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn tree_sum_fixed_pairwise_order() {
        // Values chosen so float addition order is observable: summing
        // left-to-right vs pairwise gives different bit patterns.
        let vals = [1.0e8f32, 1.0, -1.0e8, 0.25, 3.0];
        let parts: Vec<Tensor> = vals.iter().map(|&v| Tensor::scalar(v)).collect();
        let got = Tensor::tree_sum(parts).unwrap().item();
        let expect = ((1.0e8f32 + 1.0) + (-1.0e8 + 0.25)) + 3.0;
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn tree_sum_edge_cases() {
        assert!(Tensor::tree_sum(Vec::new()).is_none());
        let one = Tensor::from_vec(vec![2], vec![1.5, -2.0]).unwrap();
        assert_eq!(Tensor::tree_sum(vec![one.clone()]).unwrap(), one);
    }
}
