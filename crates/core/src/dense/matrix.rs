//! Row-major dense matrix.
//!
//! The paper stores factor matrices as `I_n x R` with row-major layout
//! ("we transpose the matrix modes U, which leads to a more efficient Ttm
//! under the row-major storage convention of the C language"), with `R`
//! typically 16 to reflect low-rank tensor methods.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::par;
use crate::scalar::Scalar;

/// Bytes in a cache line, the boundary every matrix's values start on.
const LINE: usize = 64;

/// Padding elements that move `ptr` forward onto the next line boundary.
fn line_offset<S>(ptr: *const S) -> usize {
    (LINE - ptr as usize % LINE) % LINE / std::mem::size_of::<S>()
}

/// Buffer length for `n` values plus room for the padding in front.
fn padded_len<S>(n: usize) -> usize {
    n + LINE / std::mem::size_of::<S>()
}

/// A dense `rows x cols` matrix in row-major order.
///
/// The values always start on a 64-byte boundary, so with the paper's
/// `R = 16` every `f32` row is exactly one cache line. Clones are re-aligned,
/// and the padding in front of the values takes part in no comparison.
pub struct DenseMatrix<S: Scalar> {
    rows: usize,
    cols: usize,
    /// `off` elements of padding, then the `rows * cols` values.
    buf: Vec<S>,
    off: usize,
}

impl<S: Scalar> DenseMatrix<S> {
    /// Wrap `buf`, at least `padded_len(rows * cols)` long, with the values
    /// starting at its first line boundary.
    fn from_padded(rows: usize, cols: usize, mut buf: Vec<S>) -> Self {
        let off = line_offset(buf.as_ptr());
        buf.truncate(off + rows * cols);
        DenseMatrix {
            rows,
            cols,
            buf,
            off,
        }
    }

    /// Matrix of exactly `rows * cols` values, in row-major order.
    fn collect(rows: usize, cols: usize, vals: impl IntoIterator<Item = S>) -> Self {
        let mut buf = Vec::with_capacity(padded_len::<S>(rows * cols));
        let off = line_offset(buf.as_ptr());
        buf.resize(off, S::ZERO);
        buf.extend(vals);
        debug_assert_eq!(
            buf.len(),
            off + rows * cols,
            "value count must be rows*cols"
        );
        DenseMatrix {
            rows,
            cols,
            buf,
            off,
        }
    }

    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::constant(rows, cols, S::ZERO)
    }

    /// Zero-filled matrix whose backing pages are first-touched by the
    /// current pool's workers instead of the calling thread. Use for large
    /// outputs that parallel kernels are about to write: the serial zeroing
    /// in [`DenseMatrix::zeros`] is an Amdahl term in front of every
    /// scheduled kernel, and remote-node page placement penalizes every
    /// write after it.
    pub fn zeros_par(rows: usize, cols: usize) -> Self {
        let n = padded_len::<S>(rows * cols);
        Self::from_padded(rows, cols, par::first_touch_filled(n, S::ZERO))
    }

    /// Matrix filled with a constant.
    pub fn constant(rows: usize, cols: usize, v: S) -> Self {
        Self::from_padded(rows, cols, vec![v; padded_len::<S>(rows * cols)])
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self::collect(rows, cols, data)
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let cells = (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j)));
        Self::collect(rows, cols, cells.map(|(i, j)| f(i, j)))
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
        let lo = self.off + i * self.cols;
        &self.buf[lo..lo + self.cols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        debug_assert!(i < self.rows);
        let lo = self.off + i * self.cols;
        &mut self.buf[lo..lo + self.cols]
    }

    /// The raw row-major data.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.buf[self.off..]
    }

    /// The raw row-major data, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.buf[self.off..]
    }

    /// Set every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(S::ZERO);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> S {
        self.data().iter().map(|&x| x * x).sum::<S>().sqrt()
    }

    /// Gram matrix `A^T A` (`cols x cols`); used by CP-ALS.
    pub fn gram(&self) -> DenseMatrix<S> {
        let r = self.cols;
        let mut g = DenseMatrix::zeros(r, r);
        let gd = g.data_mut();
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..r {
                let ra = row[a];
                for b in 0..r {
                    gd[a * r + b] += ra * row[b];
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
        let vals = self.data().iter().zip(other.data()).map(|(&a, &b)| a * b);
        Self::collect(self.rows, self.cols, vals)
    }

    /// Normalize each column to unit 2-norm, returning the norms.
    /// Zero columns are left untouched and report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<S> {
        let mut norms = vec![S::ZERO; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                norms[j] += v * v;
            }
        }
        for n in &mut norms {
            *n = n.sqrt();
        }
        for i in 0..self.rows {
            let row = self.row_mut(i);
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
        let mut a: Vec<f64> = self.data().iter().map(|&x| x.to_f64()).collect();
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
        self.data().len() as u64 * S::BYTES
    }
}

impl<S: Scalar> Index<(usize, usize)> for DenseMatrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        &self.buf[self.off + i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for DenseMatrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        &mut self.buf[self.off + i * self.cols + j]
    }
}

impl<S: Scalar> Clone for DenseMatrix<S> {
    fn clone(&self) -> Self {
        Self::collect(self.rows, self.cols, self.data().iter().copied())
    }
}

impl<S: Scalar> PartialEq for DenseMatrix<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.data() == other.data()
    }
}

impl<S: Scalar> fmt::Debug for DenseMatrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DenseMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data())
            .finish()
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
        // Every constructor, kernel-facing or not, and a clone of each must
        // start the values on a cache line: an R = 16 f32 row is one line.
        fn check<S: Scalar>(what: &str, m: &DenseMatrix<S>) {
            assert_eq!(m.data().as_ptr() as usize % LINE, 0, "{what}");
            assert_eq!(m.data().len(), m.rows() * m.cols(), "{what}");
            let c = m.clone();
            assert_eq!(c.data().as_ptr() as usize % LINE, 0, "clone of {what}");
            assert_eq!(&c, m, "clone of {what}");
        }
        fn every_constructor<S: Scalar>() {
            for (rows, cols) in [(0, 4), (1, 1), (5, 7), (13, 16), (4_099, 16)] {
                check("zeros", &DenseMatrix::<S>::zeros(rows, cols));
                check("constant", &DenseMatrix::constant(rows, cols, S::ONE));
                let n = rows * cols;
                check(
                    "from_vec",
                    &DenseMatrix::from_vec(rows, cols, vec![S::ONE; n]),
                );
                let f = DenseMatrix::from_fn(rows, cols, |i, j| S::from_f64((i + 2 * j) as f64));
                check("from_fn", &f);
                check("hadamard", &f.hadamard(&f));
                check("gram", &f.gram());
                let sys =
                    DenseMatrix::from_fn(cols, cols, |i, j| S::from_f64((i == j) as u8 as f64));
                check("solve_spd_rhs", &sys.solve_spd_rhs(&f));
                // 4 099 x 16 spans two first-touch chunks.
                let zp = crate::par::with_threads(4, || DenseMatrix::<S>::zeros_par(rows, cols));
                check("zeros_par", &zp);
            }
        }
        every_constructor::<f32>();
        every_constructor::<f64>();
    }

    #[test]
    fn padding_takes_no_part_in_eq_clone_or_debug() {
        let aligned = DenseMatrix::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]);
        // The same values one and three elements further into the buffer,
        // behind padding that differs from the values and between the two.
        let shifted = |off: usize, pad: f32| {
            let mut buf = vec![pad; off];
            buf.extend_from_slice(aligned.data());
            DenseMatrix {
                rows: 2,
                cols: 2,
                buf,
                off,
            }
        };
        let (a, b) = (shifted(1, 9.0), shifted(3, -7.0));
        assert_eq!(a, aligned);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{aligned:?}"));
        assert_eq!(a.clone(), b.clone());
        assert_eq!(a.clone().data().as_ptr() as usize % LINE, 0);
        assert_ne!(a, DenseMatrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
    }
}
