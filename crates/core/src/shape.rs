//! Tensor shapes and coordinate helpers.

use std::fmt;

use crate::error::{Result, TensorError};

/// The shape (dimension sizes) of a tensor of arbitrary order.
///
/// Dimension sizes are `u32`, matching the paper's 32-bit indices; the
/// largest mode in the paper's dataset (25 M for `nell1`) fits comfortably.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<u32>,
}

impl Shape {
    /// Create a shape from dimension sizes. Every dimension must be >= 1.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero; shapes are
    /// programmer-supplied constants, not data, so this is an assert-style
    /// contract rather than a `Result`.
    pub fn new(dims: Vec<u32>) -> Self {
        assert!(!dims.is_empty(), "tensor order must be >= 1");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be >= 1");
        Shape { dims }
    }

    /// Shape of a cubical tensor: `order` modes, each of size `dim`.
    pub fn cubical(order: usize, dim: u32) -> Self {
        Shape::new(vec![dim; order])
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Dimension size of `mode`.
    #[inline]
    pub fn dim(&self, mode: usize) -> u32 {
        self.dims[mode]
    }

    /// All dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Total number of positions (dense element count) as `f64`; `f64` is
    /// used because 4th-order shapes like `(8.3M)^4` overflow `u128` densities
    /// more gracefully in floating point.
    pub(crate) fn dense_count(&self) -> f64 {
        self.dims.iter().map(|&d| d as f64).product()
    }

    /// Density of a tensor with `nnz` nonzeros at this shape.
    pub(crate) fn density(&self, nnz: usize) -> f64 {
        nnz as f64 / self.dense_count()
    }

    /// Validate that `mode` is in range.
    pub fn check_mode(&self, mode: usize) -> Result<()> {
        if mode >= self.order() {
            Err(TensorError::ModeOutOfRange {
                mode,
                order: self.order(),
            })
        } else {
            Ok(())
        }
    }

    /// Validate a single coordinate tuple against this shape.
    pub(crate) fn check_coord(&self, coord: &[u32]) -> Result<()> {
        if coord.len() != self.order() {
            return Err(TensorError::OrderMismatch {
                left: self.order(),
                right: coord.len(),
            });
        }
        for (mode, (&i, &d)) in coord.iter().zip(&self.dims).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    mode,
                    index: i,
                    dim: d,
                });
            }
        }
        Ok(())
    }

    /// The shape obtained by removing `mode` (the output shape of Ttv).
    pub(crate) fn without_mode(&self, mode: usize) -> Result<Shape> {
        self.check_mode(mode)?;
        if self.order() < 2 {
            return Err(TensorError::OrderTooSmall {
                min: 2,
                actual: self.order(),
            });
        }
        let dims = self
            .dims
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d)
            .collect();
        Ok(Shape::new(dims))
    }

    /// The shape obtained by replacing `mode`'s size with `r` (the output
    /// shape of Ttm with an `I_n x R` matrix).
    pub(crate) fn with_mode_size(&self, mode: usize, r: u32) -> Result<Shape> {
        self.check_mode(mode)?;
        let mut dims = self.dims.clone();
        dims[mode] = r;
        Ok(Shape::new(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

/// Returns the mode iteration order that places `mode` innermost (last),
/// keeping the remaining modes in ascending order. This is the sort order
/// required by the fiber-based Ttv/Ttm kernels: nonzeros of one mode-`n`
/// fiber become consecutive.
pub(crate) fn mode_last_order(order: usize, mode: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    perm.push(mode);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Shape::new(vec![4, 5, 6]);
        assert_eq!(s.order(), 3);
        assert_eq!(s.dim(1), 5);
        assert_eq!(s.dense_count(), 120.0);
        assert_eq!(s.density(12), 0.1);
        assert_eq!(s.to_string(), "4x5x6");
    }

    #[test]
    fn cubical_builds_equal_dims() {
        let s = Shape::cubical(4, 8);
        assert_eq!(s.dims(), &[8, 8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "order must be >= 1")]
    fn empty_shape_panics() {
        let _ = Shape::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be >= 1")]
    fn zero_dim_panics() {
        let _ = Shape::new(vec![3, 0]);
    }

    #[test]
    fn check_coord_detects_out_of_bounds() {
        let s = Shape::new(vec![2, 2]);
        assert!(s.check_coord(&[1, 1]).is_ok());
        assert_eq!(
            s.check_coord(&[1, 2]),
            Err(TensorError::IndexOutOfBounds {
                mode: 1,
                index: 2,
                dim: 2
            })
        );
        assert!(matches!(
            s.check_coord(&[1]),
            Err(TensorError::OrderMismatch { .. })
        ));
    }

    #[test]
    fn without_mode_drops_the_right_dim() {
        let s = Shape::new(vec![3, 4, 5]);
        assert_eq!(s.without_mode(1).unwrap().dims(), &[3, 5]);
        assert!(s.without_mode(3).is_err());
    }

    #[test]
    fn without_mode_rejects_order_one() {
        let s = Shape::new(vec![9]);
        assert!(matches!(
            s.without_mode(0),
            Err(TensorError::OrderTooSmall { .. })
        ));
    }

    #[test]
    fn with_mode_size_replaces() {
        let s = Shape::new(vec![3, 4, 5]);
        assert_eq!(s.with_mode_size(2, 16).unwrap().dims(), &[3, 4, 16]);
    }

    #[test]
    fn mode_last_order_places_mode_innermost() {
        assert_eq!(mode_last_order(3, 0), vec![1, 2, 0]);
        assert_eq!(mode_last_order(3, 2), vec![0, 1, 2]);
        assert_eq!(mode_last_order(4, 1), vec![0, 2, 3, 1]);
    }
}
