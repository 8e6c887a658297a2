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
    pub(crate) fn as_slice(&self) -> &[S] {
        &self.data
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
}
