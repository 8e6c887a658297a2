//! Semi-sparse COO (sCOO) — COO with one dense mode (paper §3.1, Fig. 1(b)).
//!
//! A dense mode means every fiber along it is dense. sCOO stores the dense
//! mode as a dense stripe per fiber and keeps the remaining modes as COO
//! index arrays. It is the natural output format of Ttm: by the sparse-dense
//! property (§3.2.1), multiplying a sparse mode by a dense matrix makes that
//! mode dense while the other modes keep the input's sparsity.

use std::collections::BTreeMap;

use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::shape::Shape;

/// A semi-sparse tensor: sparse in all modes except `dense_mode`.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiSparseTensor<S: Scalar> {
    shape: Shape,
    dense_mode: usize,
    /// One index array per mode; the entry at `dense_mode` is empty. Sparse
    /// arrays all have length `num_fibers()`.
    inds: Vec<Vec<u32>>,
    /// `num_fibers() * dense_size()` values, fiber-major.
    vals: Vec<S>,
}

impl<S: Scalar> SemiSparseTensor<S> {
    pub(crate) fn from_parts_unchecked(
        shape: Shape,
        dense_mode: usize,
        inds: Vec<Vec<u32>>,
        vals: Vec<S>,
    ) -> Self {
        let t = SemiSparseTensor {
            shape,
            dense_mode,
            inds,
            vals,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// The tensor shape (the dense mode's size is the stripe length).
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Which mode is dense.
    #[inline]
    pub fn dense_mode(&self) -> usize {
        self.dense_mode
    }

    /// Length of each dense stripe (`R` for Ttm outputs).
    #[inline]
    pub fn dense_size(&self) -> usize {
        self.shape.dim(self.dense_mode) as usize
    }

    /// Number of sparse fibers (`M_F`).
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.inds
            .iter()
            .enumerate()
            .find(|&(m, _)| m != self.dense_mode)
            .map_or(0, |(_, a)| a.len())
    }

    /// The index arrays (empty at the dense mode).
    #[inline]
    pub fn inds(&self) -> &[Vec<u32>] {
        &self.inds
    }

    /// The dense stripe of fiber `f`.
    #[inline]
    pub fn fiber_vals(&self, f: usize) -> &[S] {
        let r = self.dense_size();
        &self.vals[f * r..(f + 1) * r]
    }

    /// All values, fiber-major.
    #[inline]
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// Coordinate → value map of the *numerically nonzero* values; test
    /// helper for comparing against reference computations.
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        let mut map = BTreeMap::new();
        for f in 0..self.num_fibers() {
            for (c, &v) in self.fiber_vals(f).iter().enumerate() {
                if v != S::ZERO {
                    let mut coord = vec![0u32; self.order()];
                    for m in 0..self.order() {
                        coord[m] = if m == self.dense_mode {
                            c as u32
                        } else {
                            self.inds[m][f]
                        };
                    }
                    *map.entry(coord).or_insert(0.0) += v.to_f64();
                }
            }
        }
        map
    }

    /// Storage bytes: `(N-1)` sparse index arrays of `M_F` `u32`s plus the
    /// dense values — `4(N-1)M_F + M_F * R * sizeof(S)`.
    pub fn storage_bytes(&self) -> u64 {
        let mf = self.num_fibers() as u64;
        4 * (self.order() as u64 - 1) * mf + self.vals.len() as u64 * S::BYTES
    }

    /// Check structural invariants.
    pub(crate) fn validate(&self) -> Result<()> {
        let mf = self.num_fibers();
        if !self.inds[self.dense_mode].is_empty() {
            return Err(TensorError::InvalidStructure(
                "dense mode must have no index array".into(),
            ));
        }
        for (m, arr) in self.inds.iter().enumerate() {
            if m == self.dense_mode {
                continue;
            }
            if arr.len() != mf {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{m} index array length {} != fiber count {mf}",
                    arr.len()
                )));
            }
            let dim = self.shape.dim(m);
            if let Some(&bad) = arr.iter().find(|&&i| i >= dim) {
                return Err(TensorError::IndexOutOfBounds {
                    mode: m,
                    index: bad,
                    dim,
                });
            }
        }
        if self.vals.len() != mf * self.dense_size() {
            return Err(TensorError::InvalidStructure(format!(
                "value count {} != fibers {mf} * dense size {}",
                self.vals.len(),
                self.dense_size()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SemiSparseTensor<f32> {
        // 3x2x3 tensor, dense in mode 2 (size 3), two fibers: (0,1,:) and (2,0,:).
        SemiSparseTensor::from_parts_unchecked(
            Shape::new(vec![3, 2, 3]),
            2,
            vec![vec![0, 2], vec![1, 0], vec![]],
            vec![1.0, 2.0, 3.0, 4.0, 0.0, 6.0],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.num_fibers(), 2);
        assert_eq!(t.dense_size(), 3);
        assert_eq!(t.fiber_vals(1), &[4.0, 0.0, 6.0]);
    }

    #[test]
    fn to_map_skips_numerical_zeros() {
        let t = sample();
        let m = t.to_map();
        assert_eq!(m.len(), 5);
        assert_eq!(m[&vec![2, 0, 2]], 6.0);
        assert!(!m.contains_key(&vec![2, 0, 1]));
    }

    #[test]
    fn storage_matches_formula() {
        let t = sample();
        // 4 * (3-1) * 2 + 6 * 4 = 16 + 24 = 40
        assert_eq!(t.storage_bytes(), 40);
    }

    #[test]
    fn validate_rejects_bad_value_count() {
        let t = SemiSparseTensor {
            shape: Shape::new(vec![3, 2, 3]),
            dense_mode: 2,
            inds: vec![vec![0], vec![1], vec![]],
            vals: vec![1.0f32, 2.0],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_index_array_on_dense_mode() {
        let t = SemiSparseTensor {
            shape: Shape::new(vec![3, 2]),
            dense_mode: 1,
            inds: vec![vec![0], vec![0]],
            vals: vec![1.0f32, 2.0],
        };
        assert!(t.validate().is_err());
    }
}
