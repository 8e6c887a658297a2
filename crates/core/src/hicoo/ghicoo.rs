//! gHiCOO — generalized HiCOO with a per-mode compression choice (paper
//! §3.3, Figure 2(b)).
//!
//! Each mode is either *compressed* (split into a `u32` block index and a
//! `u8` element index, as in HiCOO) or kept *uncompressed* as a plain COO
//! `u32` index array. Blocks are formed over the compressed modes only.
//!
//! The paper introduces gHiCOO for two reasons: hyper-sparse tensors whose
//! blocks hold only a few nonzeros gain nothing from compressing every mode,
//! and Ttv/Ttm only need the indices of the product mode uncompressed —
//! "gHiCOO also provides convenience to implement tensor operations where
//! not all modes are needed during computation". With the product mode
//! uncompressed, every mode-`n` fiber lives inside a single block and the
//! kernels are race-free across blocks.

use std::collections::BTreeMap;

use crate::coo::CooTensor;
use crate::error::{Result, TensorError};
use crate::par;
use crate::radix;
use crate::scalar::Scalar;
use crate::shape::Shape;

use super::{check_block_bits, morton};

/// A general sparse tensor in gHiCOO format.
#[derive(Debug, Clone, PartialEq)]
pub struct GHicooTensor<S: Scalar> {
    shape: Shape,
    block_bits: u8,
    compressed: Vec<bool>,
    bptr: Vec<u64>,
    /// Block indices per compressed mode (empty for uncompressed modes).
    binds: Vec<Vec<u32>>,
    /// Element indices per compressed mode (empty for uncompressed modes).
    einds: Vec<Vec<u8>>,
    /// Full `u32` indices per uncompressed mode (empty for compressed modes).
    finds: Vec<Vec<u32>>,
    vals: Vec<S>,
}

/// Fiber decomposition of a gHiCOO tensor whose single uncompressed mode is
/// the product mode: `fptr` delimits fibers in nonzero offsets and
/// `block_fiber_ptr` delimits each block's fibers, so outputs can be
/// assembled block by block without races.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhFiberPartition {
    /// The product mode.
    pub(crate) mode: usize,
    /// Start offset of each fiber plus a final sentinel (`M_F + 1` entries).
    pub fptr: Vec<usize>,
    /// Start fiber of each block plus a final sentinel (`n_b + 1` entries).
    pub(crate) block_fiber_ptr: Vec<usize>,
}

impl GhFiberPartition {
    /// Number of fibers (`M_F`).
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.fptr.len().saturating_sub(1)
    }

    /// Half-open nonzero range of fiber `f`.
    #[inline]
    pub(crate) fn fiber_range(&self, f: usize) -> std::ops::Range<usize> {
        self.fptr[f]..self.fptr[f + 1]
    }
}

impl<S: Scalar> GHicooTensor<S> {
    /// Convert from COO. `compressed[m]` chooses per mode; blocks are formed
    /// over the compressed modes. Nonzeros are ordered by (Morton block key,
    /// compressed element coords, uncompressed coords ascending by mode).
    pub fn from_coo(coo: &CooTensor<S>, block_bits: u8, compressed: &[bool]) -> Result<Self> {
        check_block_bits(block_bits)?;
        let order = coo.order();
        if compressed.len() != order {
            return Err(TensorError::InvalidCompressionPlan {
                flags: compressed.len(),
                order,
            });
        }
        let m = coo.nnz();
        let cmodes: Vec<usize> = (0..order).filter(|&md| compressed[md]).collect();
        let umodes: Vec<usize> = (0..order).filter(|&md| !compressed[md]).collect();

        // Sort permutation: Morton over compressed block coords, then
        // compressed coords, then uncompressed coords. Up to four compressed
        // modes go through the radix pipeline; beyond that the comparison
        // fallback handles the (unused in the paper) general case.
        let mut perm: Vec<u32> = (0..m as u32).collect();
        if cmodes.len() <= 4 {
            ghicoo_perm_radix(
                coo.inds(),
                coo.shape().dims(),
                block_bits,
                &cmodes,
                &umodes,
                &mut perm,
            );
        } else {
            let inds = coo.inds();
            let cm = &cmodes;
            let um = &umodes;
            par::sort_unstable_by(&mut perm, |&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let bca: Vec<u32> = cm.iter().map(|&md| inds[md][a] >> block_bits).collect();
                let bcb: Vec<u32> = cm.iter().map(|&md| inds[md][b] >> block_bits).collect();
                morton::morton_cmp(&bca, &bcb)
                    .then_with(|| {
                        for &md in cm {
                            match inds[md][a].cmp(&inds[md][b]) {
                                std::cmp::Ordering::Equal => continue,
                                ord => return ord,
                            }
                        }
                        std::cmp::Ordering::Equal
                    })
                    .then_with(|| {
                        for &md in um {
                            match inds[md][a].cmp(&inds[md][b]) {
                                std::cmp::Ordering::Equal => continue,
                                ord => return ord,
                            }
                        }
                        std::cmp::Ordering::Equal
                    })
                    // Index tie-break: identical result to the stable radix
                    // pipeline on duplicate coordinates.
                    .then(a.cmp(&b))
            });
        }

        let emask = (1u32 << block_bits) - 1;
        let mut bptr: Vec<u64> = Vec::new();
        let mut binds: Vec<Vec<u32>> = vec![Vec::new(); order];
        let mut einds: Vec<Vec<u8>> = vec![Vec::new(); order];
        let mut finds: Vec<Vec<u32>> = vec![Vec::new(); order];
        let mut vals: Vec<S> = Vec::with_capacity(m);
        for &md in &cmodes {
            einds[md].reserve(m);
        }
        for &md in &umodes {
            finds[md].reserve(m);
        }

        let mut prev_block: Vec<u32> = vec![u32::MAX; cmodes.len()];
        for (pos, &p) in perm.iter().enumerate() {
            let p = p as usize;
            let mut new_block = bptr.is_empty();
            for (ci, &md) in cmodes.iter().enumerate() {
                if coo.mode_inds(md)[p] >> block_bits != prev_block[ci] {
                    new_block = true;
                }
            }
            if new_block {
                bptr.push(pos as u64);
                for (ci, &md) in cmodes.iter().enumerate() {
                    prev_block[ci] = coo.mode_inds(md)[p] >> block_bits;
                    binds[md].push(prev_block[ci]);
                }
            }
            for &md in &cmodes {
                einds[md].push((coo.mode_inds(md)[p] & emask) as u8);
            }
            for &md in &umodes {
                finds[md].push(coo.mode_inds(md)[p]);
            }
            vals.push(coo.vals()[p]);
        }
        bptr.push(m as u64);

        Ok(GHicooTensor {
            shape: coo.shape().clone(),
            block_bits,
            compressed: compressed.to_vec(),
            bptr,
            binds,
            einds,
            finds,
            vals,
        })
    }

    /// Convert from COO leaving exactly `mode` uncompressed — the layout the
    /// paper uses for mode-`n` Ttv and Ttm.
    pub fn from_coo_for_mode(coo: &CooTensor<S>, block_bits: u8, mode: usize) -> Result<Self> {
        coo.shape().check_mode(mode)?;
        let compressed: Vec<bool> = (0..coo.order()).map(|m| m != mode).collect();
        Self::from_coo(coo, block_bits, &compressed)
    }

    /// The tensor shape.
    #[inline]
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of blocks over the compressed modes.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bptr.len().saturating_sub(1)
    }

    /// log2 of the block edge length.
    #[inline]
    pub(crate) fn block_bits(&self) -> u8 {
        self.block_bits
    }

    /// Half-open nonzero range of block `b`.
    #[inline]
    pub(crate) fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.bptr[b] as usize..self.bptr[b + 1] as usize
    }

    /// Block coordinate of block `b` in a compressed `mode`.
    #[inline]
    pub(crate) fn block_ind(&self, b: usize, mode: usize) -> u32 {
        debug_assert!(self.compressed[mode]);
        self.binds[mode][b]
    }

    /// Element index array of a compressed mode.
    #[inline]
    pub(crate) fn eind(&self, mode: usize) -> &[u8] {
        debug_assert!(self.compressed[mode]);
        &self.einds[mode]
    }

    /// Full index array of an uncompressed mode.
    #[inline]
    pub fn find(&self, mode: usize) -> &[u32] {
        debug_assert!(!self.compressed[mode]);
        &self.finds[mode]
    }

    /// The values.
    #[inline]
    pub(crate) fn vals(&self) -> &[S] {
        &self.vals
    }

    /// Reconstruct the full coordinate of nonzero `x` inside block `b`.
    pub(crate) fn coord_of(&self, b: usize, x: usize, buf: &mut [u32]) {
        for mode in 0..self.order() {
            buf[mode] = if self.compressed[mode] {
                (self.binds[mode][b] << self.block_bits) | self.einds[mode][x] as u32
            } else {
                self.finds[mode][x]
            };
        }
    }

    /// Compute the mode-`mode` fiber partition. Requires `mode` to be the
    /// tensor's only uncompressed mode (the Ttv/Ttm layout), which guarantees
    /// each fiber is contiguous and contained in one block.
    pub fn fibers(&self, mode: usize) -> Result<GhFiberPartition> {
        self.shape.check_mode(mode)?;
        let valid_plan = !self.compressed[mode]
            && self
                .compressed
                .iter()
                .enumerate()
                .all(|(m, &c)| c || m == mode);
        if !valid_plan {
            return Err(TensorError::InvalidStructure(format!(
                "fiber partition requires mode {mode} to be the only uncompressed mode"
            )));
        }
        let cmodes: Vec<usize> = (0..self.order()).filter(|&m| m != mode).collect();
        let mut fptr: Vec<usize> = Vec::new();
        let mut block_fiber_ptr: Vec<usize> = Vec::with_capacity(self.num_blocks() + 1);
        for b in 0..self.num_blocks() {
            block_fiber_ptr.push(fptr.len());
            let range = self.block_range(b);
            let start = range.start;
            for x in range {
                let new_fiber = x == start
                    || cmodes
                        .iter()
                        .any(|&md| self.einds[md][x] != self.einds[md][x - 1]);
                if new_fiber {
                    fptr.push(x);
                }
            }
        }
        block_fiber_ptr.push(fptr.len());
        fptr.push(self.nnz());
        Ok(GhFiberPartition {
            mode,
            fptr,
            block_fiber_ptr,
        })
    }

    /// Expand to COO.
    pub fn to_coo(&self) -> CooTensor<S> {
        let order = self.order();
        let m = self.nnz();
        let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(m); order];
        let mut buf = vec![0u32; order];
        for b in 0..self.num_blocks() {
            for x in self.block_range(b) {
                self.coord_of(b, x, &mut buf);
                for (mode, arr) in inds.iter_mut().enumerate() {
                    arr.push(buf[mode]);
                }
            }
        }
        CooTensor::from_parts_unchecked(
            self.shape.clone(),
            inds,
            self.vals.clone(),
            crate::coo::SortState::Unsorted,
        )
    }

    /// Coordinate → value map (test helper).
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        self.to_coo().to_map()
    }

    /// Storage bytes: compressed modes cost `4 n_b + M` each, uncompressed
    /// modes `4M` each, plus `8(n_b + 1)` block pointers and the values.
    pub fn storage_bytes(&self) -> u64 {
        let nb = self.num_blocks() as u64;
        let m = self.nnz() as u64;
        let ncomp = self.compressed.iter().filter(|&&c| c).count() as u64;
        let nuncomp = self.order() as u64 - ncomp;
        8 * (nb + 1) + ncomp * (4 * nb + m) + nuncomp * 4 * m + m * S::BYTES
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.bptr.first() != Some(&0) || *self.bptr.last().unwrap_or(&0) != self.nnz() as u64 {
            return Err(TensorError::InvalidStructure(
                "bptr must start at 0 and end at nnz".into(),
            ));
        }
        let mut buf = vec![0u32; self.order()];
        for b in 0..self.num_blocks() {
            if self.bptr[b] >= self.bptr[b + 1] {
                return Err(TensorError::InvalidStructure(format!(
                    "block {b} is empty or bptr not strictly increasing"
                )));
            }
            for x in self.block_range(b) {
                self.coord_of(b, x, &mut buf);
                self.shape.check_coord(&buf)?;
            }
        }
        Ok(())
    }
}

/// Radix permutation for gHiCOO's mixed ordering: (Morton block key over the
/// compressed modes, compressed coords lex, uncompressed coords lex, original
/// index). When everything packs into 128 bits a single key per nonzero is
/// sorted in one go; otherwise stable LSD passes run least-significant group
/// first (uncompressed coords, then compressed coords, then the Morton block
/// key), which composes to the same total order. Within one Morton block the
/// per-mode block coords are all equal, so full-coordinate order equals
/// element-offset order — matching the comparator fallback exactly.
fn ghicoo_perm_radix(
    inds: &[Vec<u32>],
    dims: &[u32],
    block_bits: u8,
    cmodes: &[usize],
    umodes: &[usize],
    perm: &mut Vec<u32>,
) {
    let ncm = cmodes.len();
    let bb = block_bits as usize;
    let maxbits = cmodes
        .iter()
        .map(|&md| radix::bits_for(dims[md].saturating_sub(1) >> block_bits) as usize)
        .max()
        .unwrap_or(0);
    let uwidths: Vec<usize> = umodes
        .iter()
        .map(|&md| radix::bits_for(dims[md].saturating_sub(1)) as usize)
        .collect();
    let ubits: usize = uwidths.iter().sum();
    let total_bits = ncm * (maxbits + bb) + ubits;
    if total_bits == 0 {
        return;
    }

    if total_bits <= 128 {
        let emask = (1u32 << block_bits) - 1;
        let keys: Vec<u128> = par::map_collect(perm.len(), 4096, |i| {
            let mut key: u128 = if ncm == 0 {
                0
            } else {
                let mut bc = [0u32; 4];
                for (ci, &md) in cmodes.iter().enumerate() {
                    bc[ci] = inds[md][i] >> block_bits;
                }
                morton::interleave_key_bits(&bc[..ncm], maxbits)
            };
            for &md in cmodes {
                key = (key << bb) | (inds[md][i] & emask) as u128;
            }
            for (u, &md) in umodes.iter().enumerate() {
                key = (key << uwidths[u]) | inds[md][i] as u128;
            }
            key
        });
        let max_key = if total_bits >= 128 {
            u128::MAX
        } else {
            (1u128 << total_bits) - 1
        };
        radix::sort_perm_by_u128_keys(perm, &keys, max_key);
        return;
    }

    // Hybrid multi-key path: each stage is stable, so running them from the
    // least significant group upward yields the packed-key order.
    for &md in umodes.iter().rev() {
        let arr = &inds[md];
        radix::sort_perm_by_u32_key(perm, |p| arr[p as usize], dims[md].saturating_sub(1));
    }
    for &md in cmodes.iter().rev() {
        let arr = &inds[md];
        radix::sort_perm_by_u32_key(perm, |p| arr[p as usize], dims[md].saturating_sub(1));
    }
    if ncm > 0 && maxbits > 0 {
        let keys: Vec<u128> = par::map_collect(perm.len(), 4096, |i| {
            let mut bc = [0u32; 4];
            for (ci, &md) in cmodes.iter().enumerate() {
                bc[ci] = inds[md][i] >> block_bits;
            }
            morton::interleave_key_bits(&bc[..ncm], maxbits)
        });
        let mbits = ncm * maxbits;
        let max_key = if mbits >= 128 {
            u128::MAX
        } else {
            (1u128 << mbits) - 1
        };
        radix::sort_perm_by_u128_keys(perm, &keys, max_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 3], 2.0),
                (vec![0, 1, 0], 3.0),
                (vec![1, 0, 2], 4.0),
                (vec![2, 2, 1], 5.0),
                (vec![3, 3, 0], 6.0),
                (vec![3, 3, 3], 7.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_for_mode() {
        let coo = sample();
        for mode in 0..3 {
            let g = GHicooTensor::from_coo_for_mode(&coo, 1, mode).unwrap();
            assert_eq!(g.to_map(), coo.to_map(), "mode {mode}");
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn compression_plan_must_match_order() {
        let coo = sample();
        assert!(matches!(
            GHicooTensor::from_coo(&coo, 1, &[true, false]),
            Err(TensorError::InvalidCompressionPlan { .. })
        ));
    }

    #[test]
    fn all_uncompressed_degenerates_to_one_block() {
        let coo = sample();
        let g = GHicooTensor::from_coo(&coo, 1, &[false, false, false]).unwrap();
        assert_eq!(g.num_blocks(), 1);
        assert_eq!(g.to_map(), coo.to_map());
    }

    #[test]
    fn fibers_are_contiguous_and_block_local() {
        let coo = sample();
        let g = GHicooTensor::from_coo_for_mode(&coo, 1, 2).unwrap();
        let fp = g.fibers(2).unwrap();
        // Fibers in mode 2: (0,0,*)x2, (0,1,*), (1,0,*), (2,2,*), (3,3,*)x2.
        assert_eq!(fp.num_fibers(), 5);
        let total: usize = (0..fp.num_fibers()).map(|f| fp.fiber_range(f).len()).sum();
        assert_eq!(total, coo.nnz());
        // Every block's fibers cover exactly its nonzero range.
        for b in 0..g.num_blocks() {
            let fr = fp.block_fiber_ptr[b]..fp.block_fiber_ptr[b + 1];
            assert_eq!(fp.fptr[fr.start], g.block_range(b).start);
            assert_eq!(fp.fptr[fr.end], g.block_range(b).end);
        }
    }

    #[test]
    fn fibers_reject_wrong_plan() {
        let coo = sample();
        let g = GHicooTensor::from_coo(&coo, 1, &[true, true, true]).unwrap();
        assert!(g.fibers(2).is_err());
        let g2 = GHicooTensor::from_coo(&coo, 1, &[false, false, true]).unwrap();
        assert!(g2.fibers(0).is_err()); // two uncompressed modes
    }

    #[test]
    fn storage_accounts_for_mixed_modes() {
        let coo = sample();
        let g = GHicooTensor::from_coo_for_mode(&coo, 1, 2).unwrap();
        let nb = g.num_blocks() as u64;
        let m = g.nnz() as u64;
        assert_eq!(
            g.storage_bytes(),
            8 * (nb + 1) + 2 * (4 * nb + m) + 4 * m + 4 * m
        );
    }
}
