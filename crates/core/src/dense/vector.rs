//! Dense vector operand for Ttv.

use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector<S: Scalar> {
    data: Vec<S>,
}

impl<S: Scalar> DenseVector<S> {
    /// Zero-filled vector of length `n`.
    pub(crate) fn zeros(n: usize) -> Self {
        DenseVector {
            data: vec![S::ZERO; n],
        }
    }

    /// Vector filled with a constant.
    pub fn constant(n: usize, v: S) -> Self {
        DenseVector { data: vec![v; n] }
    }

    /// Wrap an existing `Vec`.
    pub fn from_vec(data: Vec<S>) -> Self {
        DenseVector { data }
    }

    /// Build by evaluating `f(i)` at every position.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> S) -> Self {
        DenseVector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> S {
        self.data.iter().map(|&x| x * x).sum::<S>().sqrt()
    }

    /// Scale to unit norm; returns the original norm. A zero vector is left
    /// unchanged and reports norm 0.
    pub(crate) fn normalize(&mut self) -> S {
        let n = self.norm2();
        if n != S::ZERO {
            for v in &mut self.data {
                *v /= n;
            }
        }
        n
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub(crate) fn dot(&self, other: &DenseVector<S>) -> S {
        assert_eq!(self.len(), other.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

impl<S: Scalar> Index<usize> for DenseVector<S> {
    type Output = S;
    #[inline]
    fn index(&self, i: usize) -> &S {
        &self.data[i]
    }
}

impl<S: Scalar> IndexMut<usize> for DenseVector<S> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut S {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let v = DenseVector::from_fn(4, |i| i as f32);
        assert_eq!(v.len(), 4);
        assert_eq!(v[3], 3.0);
        assert!(!v.is_empty());
    }

    #[test]
    fn dot_and_norm() {
        let a = DenseVector::from_vec(vec![3.0f64, 4.0]);
        let b = DenseVector::from_vec(vec![1.0f64, 1.0]);
        assert_eq!(a.dot(&b), 7.0);
        assert!((a.norm2() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_zero_vector() {
        let mut z = DenseVector::<f32>::zeros(3);
        assert_eq!(z.normalize(), 0.0);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);

        let mut v = DenseVector::from_vec(vec![0.0f32, 2.0]);
        let n = v.normalize();
        assert_eq!(n, 2.0);
        assert_eq!(v.as_slice(), &[0.0, 1.0]);
    }
}
