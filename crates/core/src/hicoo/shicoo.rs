//! sHiCOO — semi-sparse HiCOO (paper §3.3, Figure 2(c)).
//!
//! The HiCOO analogue of sCOO: the sparse modes are block-compressed
//! (32-bit block + 8-bit element indices) while one dense mode is stored as
//! a dense stripe per fiber. This is the output format of HiCOO-Ttm.

use std::collections::BTreeMap;

use crate::coo::SemiSparseTensor;
use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::shape::Shape;

/// A semi-sparse tensor in HiCOO form: blocked sparse modes, one dense mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiSparseHicooTensor<S: Scalar> {
    shape: Shape,
    block_bits: u8,
    dense_mode: usize,
    /// Fiber offsets per block: block `b` owns fibers `bptr[b]..bptr[b+1]`.
    bptr: Vec<u64>,
    /// Block indices per sparse mode (empty at the dense mode), length `n_b`.
    binds: Vec<Vec<u32>>,
    /// Element indices per sparse mode (empty at the dense mode), length `M_F`.
    einds: Vec<Vec<u8>>,
    /// `M_F * dense_size` values, fiber-major.
    vals: Vec<S>,
}

impl<S: Scalar> SemiSparseHicooTensor<S> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts_unchecked(
        shape: Shape,
        block_bits: u8,
        dense_mode: usize,
        bptr: Vec<u64>,
        binds: Vec<Vec<u32>>,
        einds: Vec<Vec<u8>>,
        vals: Vec<S>,
    ) -> Self {
        let t = SemiSparseHicooTensor {
            shape,
            block_bits,
            dense_mode,
            bptr,
            binds,
            einds,
            vals,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// Number of modes.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.shape.order()
    }

    /// Length of each dense stripe.
    #[inline]
    pub(crate) fn dense_size(&self) -> usize {
        self.shape.dim(self.dense_mode) as usize
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bptr.len().saturating_sub(1)
    }

    /// Number of sparse fibers (`M_F`).
    pub fn num_fibers(&self) -> usize {
        self.einds
            .iter()
            .enumerate()
            .find(|&(m, _)| m != self.dense_mode)
            .map_or(0, |(_, a)| a.len())
    }

    /// Half-open fiber range of block `b`.
    #[inline]
    pub(crate) fn block_fibers(&self, b: usize) -> std::ops::Range<usize> {
        self.bptr[b] as usize..self.bptr[b + 1] as usize
    }

    /// All values, fiber-major.
    #[inline]
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// Reconstruct the sparse coordinate of fiber `f` in block `b`, writing
    /// into `buf` (the dense mode's slot is left untouched).
    pub(crate) fn fiber_coord(&self, b: usize, f: usize, buf: &mut [u32]) {
        for mode in 0..self.order() {
            if mode != self.dense_mode {
                buf[mode] = (self.binds[mode][b] << self.block_bits) | self.einds[mode][f] as u32;
            }
        }
    }

    /// Expand to sCOO.
    pub fn to_scoo(&self) -> SemiSparseTensor<S> {
        let order = self.order();
        let mf = self.num_fibers();
        let mut inds: Vec<Vec<u32>> = vec![Vec::new(); order];
        for (m, arr) in inds.iter_mut().enumerate() {
            if m != self.dense_mode {
                arr.reserve(mf);
            }
        }
        let mut buf = vec![0u32; order];
        for b in 0..self.num_blocks() {
            for f in self.block_fibers(b) {
                self.fiber_coord(b, f, &mut buf);
                for (m, arr) in inds.iter_mut().enumerate() {
                    if m != self.dense_mode {
                        arr.push(buf[m]);
                    }
                }
            }
        }
        SemiSparseTensor::from_parts_unchecked(
            self.shape.clone(),
            self.dense_mode,
            inds,
            self.vals.clone(),
        )
    }

    /// Coordinate → value map of numerically nonzero values (test helper).
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        self.to_scoo().to_map()
    }

    /// Storage bytes: `8(n_b+1)` pointers, per sparse mode `4 n_b` block
    /// indices and `M_F` element indices, plus the dense values.
    pub fn storage_bytes(&self) -> u64 {
        let nb = self.num_blocks() as u64;
        let mf = self.num_fibers() as u64;
        let nsparse = self.order() as u64 - 1;
        8 * (nb + 1) + nsparse * (4 * nb + mf) + self.vals.len() as u64 * S::BYTES
    }

    /// Check structural invariants.
    pub(crate) fn validate(&self) -> Result<()> {
        let mf = self.num_fibers();
        let nb = self.num_blocks();
        if self.bptr.first() != Some(&0) || *self.bptr.last().unwrap_or(&0) != mf as u64 {
            return Err(TensorError::InvalidStructure(
                "bptr must start at 0 and end at fiber count".into(),
            ));
        }
        if !self.binds[self.dense_mode].is_empty() || !self.einds[self.dense_mode].is_empty() {
            return Err(TensorError::InvalidStructure(
                "dense mode must not carry sparse indices".into(),
            ));
        }
        for (m, arr) in self.einds.iter().enumerate() {
            if m != self.dense_mode && arr.len() != mf {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{m} einds length {} != fiber count {mf}",
                    arr.len()
                )));
            }
        }
        for (m, arr) in self.binds.iter().enumerate() {
            if m != self.dense_mode && arr.len() != nb {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{m} binds length {} != block count {nb}",
                    arr.len()
                )));
            }
        }
        if self.vals.len() != mf * self.dense_size() {
            return Err(TensorError::InvalidStructure(format!(
                "value count {} != fibers {mf} * dense size {}",
                self.vals.len(),
                self.dense_size()
            )));
        }
        let mut buf = vec![0u32; self.order()];
        for b in 0..nb {
            for f in self.block_fibers(b) {
                self.fiber_coord(b, f, &mut buf);
                buf[self.dense_mode] = 0;
                self.shape.check_coord(&buf)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4x4x3 tensor, dense in mode 2 (R=3), with three fibers in two
    /// 2x2 blocks over modes (0,1): fibers (0,1,:), (1,0,:) in block (0,0)
    /// and (3,2,:) in block (1,1).
    fn sample() -> SemiSparseHicooTensor<f32> {
        SemiSparseHicooTensor::from_parts_unchecked(
            Shape::new(vec![4, 4, 3]),
            1,
            2,
            vec![0, 2, 3],
            vec![vec![0, 1], vec![0, 1], vec![]],
            vec![vec![0, 1, 1], vec![1, 0, 0], vec![]],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0, 9.0],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.num_fibers(), 3);
        assert_eq!(t.num_blocks(), 2);
        assert_eq!(t.dense_size(), 3);
        assert_eq!(t.block_fibers(1), 2..3);
    }

    #[test]
    fn fiber_coord_reconstruction() {
        let t = sample();
        let mut buf = vec![0u32; 3];
        t.fiber_coord(1, 2, &mut buf);
        assert_eq!(&buf[0..2], &[3, 2]); // block (1,1)<<1 | eind (1,0)
    }

    #[test]
    fn to_scoo_round_trip() {
        let t = sample();
        let s = t.to_scoo();
        assert_eq!(s.num_fibers(), 3);
        assert!(s.validate().is_ok());
        let m = t.to_map();
        assert_eq!(m[&vec![3, 2, 2]], 9.0);
        assert!(!m.contains_key(&vec![3, 2, 1])); // numerical zero skipped
    }

    #[test]
    fn validate_rejects_bad_bptr() {
        let t = SemiSparseHicooTensor::<f32> {
            shape: Shape::new(vec![4, 4, 3]),
            block_bits: 1,
            dense_mode: 2,
            bptr: vec![0, 5],
            binds: vec![vec![0], vec![0], vec![]],
            einds: vec![vec![0], vec![1], vec![]],
            vals: vec![1.0, 2.0, 3.0],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn storage_formula() {
        let t = sample();
        // 8*3 + 2*(4*2 + 3) + 9*4 = 24 + 22 + 36 = 82
        assert_eq!(t.storage_bytes(), 82);
    }
}
