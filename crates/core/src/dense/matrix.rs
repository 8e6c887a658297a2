//! Row-major dense matrix.
//!
//! The paper stores factor matrices as `I_n x R` with row-major layout
//! ("we transpose the matrix modes U, which leads to a more efficient Ttm
//! under the row-major storage convention of the C language"), with `R`
//! typically 16 to reflect low-rank tensor methods.

use std::ops::{Index, IndexMut};

use crate::align::AlignedVec;
use crate::scalar::Scalar;

/// A dense `rows x cols` matrix in row-major order.
///
/// Values live in an [`AlignedVec`], so `data()` (and row 0) always starts
/// on a 64-byte boundary — the vectorized inner loops' loads never
/// straddle a cache line at the buffer head.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<S: Scalar> {
    rows: usize,
    cols: usize,
    data: AlignedVec<S>,
}

impl<S: Scalar> DenseMatrix<S> {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: AlignedVec::filled(rows * cols, S::ZERO),
        }
    }

    /// Zero-filled matrix whose backing pages are first-touched by the
    /// current pool's workers instead of the calling thread. Use for large
    /// outputs that parallel kernels are about to write: the serial zeroing
    /// in [`DenseMatrix::zeros`] is an Amdahl term in front of every
    /// scheduled kernel, and remote-node page placement penalizes every
    /// write after it.
    pub fn zeros_par(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: AlignedVec::first_touch_filled(rows * cols, S::ZERO),
        }
    }

    /// Matrix filled with a constant.
    pub fn constant(rows: usize, cols: usize, v: S) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: AlignedVec::filled(rows * cols, v),
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        DenseMatrix {
            rows,
            cols,
            data: data.into(),
        }
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix {
            rows,
            cols,
            data: data.into(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the rank `R` for factor matrices).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The raw row-major data.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// The raw row-major data, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Set every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(S::ZERO);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> S {
        self.data.iter().map(|&x| x * x).sum::<S>().sqrt()
    }

    /// Gram matrix `A^T A` (`cols x cols`); used by CP-ALS.
    pub fn gram(&self) -> DenseMatrix<S> {
        let r = self.cols;
        let mut g = DenseMatrix::zeros(r, r);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..r {
                let ra = row[a];
                for b in 0..r {
                    g.data[a * r + b] += ra * row[b];
                }
            }
        }
        g
    }

    /// Element-wise (Hadamard) product with another matrix of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &DenseMatrix<S>) -> DenseMatrix<S> {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data: Vec<S> = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: data.into(),
        }
    }

    /// Normalize each column to unit 2-norm, returning the norms.
    /// Zero columns are left untouched and report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<S> {
        let mut norms = vec![S::ZERO; self.cols];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &v) in row.iter().enumerate() {
                norms[j] += v * v;
            }
        }
        for n in &mut norms {
            *n = n.sqrt();
        }
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (j, v) in row.iter_mut().enumerate() {
                if norms[j] != S::ZERO {
                    *v /= norms[j];
                }
            }
        }
        norms
    }

    /// Solve `X * self = rhs` for `X` where `self` is a small `R x R`
    /// symmetric positive (semi-)definite matrix, via Gauss–Jordan with
    /// partial pivoting and Tikhonov fallback. Used by CP-ALS where
    /// `self = hadamard of grams`. Returns `rhs * self^{-1}` row by row.
    pub fn solve_spd_rhs(&self, rhs: &DenseMatrix<S>) -> DenseMatrix<S> {
        assert_eq!(self.rows, self.cols, "system matrix must be square");
        assert_eq!(rhs.cols, self.rows, "rhs width must match system size");
        let r = self.rows;
        // Build augmented inverse of `self` (with a small ridge if singular).
        let mut a: Vec<f64> = self.data.iter().map(|&x| x.to_f64()).collect();
        let mut inv = vec![0.0f64; r * r];
        for i in 0..r {
            inv[i * r + i] = 1.0;
        }
        // Ridge proportional to trace to keep the solve well-posed.
        let trace: f64 = (0..r).map(|i| a[i * r + i]).sum();
        let ridge = 1e-12 * (trace.abs() + 1.0);
        for i in 0..r {
            a[i * r + i] += ridge;
        }
        for col in 0..r {
            // Partial pivot.
            let mut piv = col;
            for row in col + 1..r {
                if a[row * r + col].abs() > a[piv * r + col].abs() {
                    piv = row;
                }
            }
            if piv != col {
                for j in 0..r {
                    a.swap(col * r + j, piv * r + j);
                    inv.swap(col * r + j, piv * r + j);
                }
            }
            let d = a[col * r + col];
            if d == 0.0 {
                continue; // Singular even with ridge; leave row as-is.
            }
            for j in 0..r {
                a[col * r + j] /= d;
                inv[col * r + j] /= d;
            }
            for row in 0..r {
                if row == col {
                    continue;
                }
                let factor = a[row * r + col];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..r {
                    a[row * r + j] -= factor * a[col * r + j];
                    inv[row * r + j] -= factor * inv[col * r + j];
                }
            }
        }
        // X = rhs * inv (rhs is I_n x R, inv is R x R).
        let mut out = DenseMatrix::zeros(rhs.rows, r);
        for i in 0..rhs.rows {
            let src = rhs.row(i);
            let dst = out.row_mut(i);
            for b in 0..r {
                let mut acc = 0.0f64;
                for k in 0..r {
                    acc += src[k].to_f64() * inv[k * r + b];
                }
                dst[b] = S::from_f64(acc);
            }
        }
        out
    }

    /// Storage in bytes (values only), for the accounting of Table 1.
    pub fn storage_bytes(&self) -> u64 {
        self.data.len() as u64 * S::BYTES
    }
}

impl<S: Scalar> Index<(usize, usize)> for DenseMatrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for DenseMatrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn gram_is_ata() {
        // A = [[1,2],[3,4]]; A^T A = [[10,14],[14,20]]
        let a = DenseMatrix::from_vec(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]);
        let g = a.gram();
        assert_eq!(g.data(), &[10.0, 14.0, 14.0, 20.0]);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_vec(2, 2, vec![5.0f32, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b).data(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn normalize_columns_returns_norms() {
        let mut a = DenseMatrix::from_vec(2, 2, vec![3.0f64, 0.0, 4.0, 0.0]);
        let norms = a.normalize_columns();
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0);
        assert!((a[(0, 0)] - 0.6).abs() < 1e-12);
        assert!((a[(1, 0)] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_recovers_identity_solution() {
        // self = 2*I, rhs = [[2,4]] => X = [[1,2]]
        let sys = DenseMatrix::from_vec(2, 2, vec![2.0f64, 0.0, 0.0, 2.0]);
        let rhs = DenseMatrix::from_vec(1, 2, vec![2.0, 4.0]);
        let x = sys.solve_spd_rhs(&rhs);
        assert!((x[(0, 0)] - 1.0).abs() < 1e-9);
        assert!((x[(0, 1)] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_spd_handles_near_singular() {
        let sys = DenseMatrix::from_vec(2, 2, vec![1.0f64, 1.0, 1.0, 1.0]);
        let rhs = DenseMatrix::from_vec(1, 2, vec![1.0, 1.0]);
        let x = sys.solve_spd_rhs(&rhs);
        assert!(x.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let a = DenseMatrix::from_vec(1, 2, vec![3.0f32, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn storage_is_simd_aligned() {
        use crate::align::SIMD_ALIGN;
        // Every constructor must produce 64-byte-aligned value storage so
        // the SIMD backend's loads never straddle a line at the head.
        let z = DenseMatrix::<f32>::zeros(5, 7);
        let zp = DenseMatrix::<f64>::zeros_par(13, 3);
        let c = DenseMatrix::constant(4, 4, 1.5f32);
        let v = DenseMatrix::from_vec(2, 3, vec![0.0f64; 6]);
        let f = DenseMatrix::from_fn(3, 3, |i, j| (i + j) as f32);
        assert_eq!(z.data().as_ptr() as usize % SIMD_ALIGN, 0);
        assert_eq!(zp.data().as_ptr() as usize % SIMD_ALIGN, 0);
        assert_eq!(c.data().as_ptr() as usize % SIMD_ALIGN, 0);
        assert_eq!(v.data().as_ptr() as usize % SIMD_ALIGN, 0);
        assert_eq!(f.data().as_ptr() as usize % SIMD_ALIGN, 0);
        assert_eq!(f.clone().data().as_ptr() as usize % SIMD_ALIGN, 0);
    }
}
