//! Hierarchical coordinate (HiCOO) format and its variants (paper §3.3,
//! Figure 2).
//!
//! HiCOO partitions the index space into cubical blocks of edge length
//! `B = 2^block_bits`, sorts nonzeros by the Morton order of their block
//! coordinates, and stores:
//!
//! * `bptr` — start offset of each block's nonzeros (`u64`),
//! * `binds` — one `u32` block-coordinate array per mode (length `n_b`),
//! * `einds` — one `u8` within-block offset array per mode (length `M`),
//! * `vals` — the values.
//!
//! With the paper's default `B = 128` the element indices fit in 8 bits,
//! which is where HiCOO's compression comes from. This module also provides
//! the paper's two new variants: [`GHicooTensor`] (gHiCOO — per-mode choice
//! of compression, used by Ttv/Ttm to leave the product mode uncompressed)
//! and [`SemiSparseHicooTensor`] (sHiCOO — semi-sparse, the HiCOO analogue
//! of sCOO).

mod ghicoo;
pub mod morton;
mod shicoo;

pub use ghicoo::{GHicooTensor, GhFiberPartition};
pub use shicoo::SemiSparseHicooTensor;

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::coo::{CooTensor, SortState};
use crate::error::{Result, TensorError};
use crate::par;
use crate::scalar::Scalar;
use crate::sched::{self, BlockSlots};
use crate::shape::Shape;

/// Validate the block-bits parameter: element indices are stored in `u8`, so
/// the block edge `2^bits` must be at most 256.
pub(crate) fn check_block_bits(block_bits: u8) -> Result<()> {
    if (1..=8).contains(&block_bits) {
        Ok(())
    } else {
        Err(TensorError::InvalidBlockBits(block_bits))
    }
}

/// A general sparse tensor in HiCOO format.
///
/// The block structure is shared copy-on-write, as [`CooTensor`]'s index
/// arrays are: a clone and a value-only kernel output point at their
/// source's block pointers and indices. Values are never shared. The
/// schedules built for the blocks (see [`crate::sched`]) sit beside them
/// and are shared with them.
#[derive(Debug, Clone)]
pub struct HicooTensor<S: Scalar> {
    shape: Shape,
    block_bits: u8,
    blocks: Arc<Blocks>,
    /// One pair of schedule slots per mode, describing `blocks`: shared
    /// exactly when `blocks` is, and replaced by empty ones whenever it is
    /// written.
    scheds: Arc<[BlockSlots]>,
    vals: Vec<S>,
}

/// Equal shape, block structure and values; schedules take no part.
impl<S: Scalar> PartialEq for HicooTensor<S> {
    fn eq(&self, other: &Self) -> bool {
        self.same_pattern(other) && self.vals == other.vals
    }
}

/// Everything of a [`HicooTensor`] but its values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blocks {
    bptr: Vec<u64>,
    binds: Vec<Vec<u32>>,
    einds: Vec<Vec<u8>>,
}

impl<S: Scalar> HicooTensor<S> {
    /// Convert from COO with block edge `2^block_bits` (the paper's default
    /// is `B = 128`, i.e. `block_bits = 7`). The input is left untouched: a
    /// copy of its values is Morton-sorted together with its index arrays,
    /// which are shared rather than copied until the sort replaces them. Use
    /// [`HicooTensor::from_coo_inplace`] to sort an existing tensor instead
    /// and keep its new order.
    ///
    /// # Examples
    /// ```
    /// use tenbench_core::prelude::*;
    ///
    /// let x = CooTensor::<f32>::from_entries(
    ///     Shape::new(vec![256, 256, 256]),
    ///     vec![(vec![0, 1, 2], 1.0), (vec![3, 2, 1], 2.0), (vec![200, 200, 200], 3.0)],
    /// )?;
    /// let h = HicooTensor::from_coo(&x, 7)?; // B = 128
    /// assert_eq!(h.num_blocks(), 2);         // corner block + (200,200,200)'s block
    /// assert_eq!(h.to_map(), x.to_map());
    /// # Ok::<(), TensorError>(())
    /// ```
    pub fn from_coo(coo: &CooTensor<S>, block_bits: u8) -> Result<Self> {
        let mut c = coo.clone();
        Self::from_coo_inplace(&mut c, block_bits)
    }

    /// Convert from COO, Morton-sorting the input in place.
    pub fn from_coo_inplace(coo: &mut CooTensor<S>, block_bits: u8) -> Result<Self> {
        check_block_bits(block_bits)?;
        let _span = tenbench_obs::span!("convert.hicoo");
        {
            let _sort = tenbench_obs::span!("convert.sort");
            coo.sort_morton(block_bits);
        }
        let _build = tenbench_obs::span!("convert.build");
        let m = coo.nnz();
        let emask = (1u32 << block_bits) - 1;
        let inds = coo.inds();

        // Block boundaries: a nonzero starts a new block iff any mode's block
        // coordinate differs from its predecessor's. Chunks scan disjoint
        // ranges (each looks back one element at most, safely inside the
        // sorted arrays) and their boundary lists concatenate in order.
        let mut bptr: Vec<u64> = if m == 0 {
            Vec::new()
        } else {
            let threads = par::current_threads().max(1);
            let nchunks = threads.min(m.div_ceil(4096)).max(1);
            let bounds: Vec<usize> = (0..=nchunks).map(|c| c * m / nchunks).collect();
            let per_chunk: Vec<Vec<u64>> = par::map_collect(nchunks, 1, |c| {
                let mut v = Vec::new();
                for i in bounds[c]..bounds[c + 1] {
                    let boundary = i == 0
                        || inds
                            .iter()
                            .any(|arr| arr[i] >> block_bits != arr[i - 1] >> block_bits);
                    if boundary {
                        v.push(i as u64);
                    }
                }
                v
            });
            per_chunk.concat()
        };
        bptr.push(m as u64);

        let nb = bptr.len() - 1;
        let binds: Vec<Vec<u32>> = inds
            .iter()
            .map(|arr| par::map_collect(nb, 256, |b| arr[bptr[b] as usize] >> block_bits))
            .collect();
        let einds: Vec<Vec<u8>> = inds
            .iter()
            .map(|arr| par::map_collect(arr.len(), 4096, |i| (arr[i] & emask) as u8))
            .collect();
        let vals: Vec<S> = coo.vals().to_vec();
        tenbench_obs::counters::CONVERT_BLOCKS.add(nb as u64);

        Ok(HicooTensor {
            shape: coo.shape().clone(),
            block_bits,
            blocks: Arc::new(Blocks { bptr, binds, einds }),
            scheds: sched::empty_slots(coo.order()),
            vals,
        })
    }

    /// Internal constructor for kernel outputs whose structure is correct by
    /// construction (e.g. the HiCOO output of Ttv).
    pub(crate) fn from_parts_unchecked(
        shape: Shape,
        block_bits: u8,
        bptr: Vec<u64>,
        binds: Vec<Vec<u32>>,
        einds: Vec<Vec<u8>>,
        vals: Vec<S>,
    ) -> Self {
        let t = HicooTensor {
            scheds: sched::empty_slots(shape.order()),
            shape,
            block_bits,
            blocks: Arc::new(Blocks { bptr, binds, einds }),
            vals,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// A tensor with this one's block structure and schedules (shared, not
    /// copied) and shape, holding `vals` instead — the output of every
    /// value-only kernel.
    pub(crate) fn with_vals(&self, vals: Vec<S>) -> Self {
        debug_assert_eq!(vals.len(), self.nnz());
        HicooTensor {
            shape: self.shape.clone(),
            block_bits: self.block_bits,
            blocks: Arc::clone(&self.blocks),
            scheds: Arc::clone(&self.scheds),
            vals,
        }
    }

    /// The per-mode schedule slots of the block structure.
    #[inline]
    pub(crate) fn schedule_slots(&self) -> &[BlockSlots] {
        &self.scheds
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored nonzeros (`M`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of nonempty blocks (`n_b`).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bptr().len().saturating_sub(1)
    }

    /// log2 of the block edge length.
    #[inline]
    pub fn block_bits(&self) -> u8 {
        self.block_bits
    }

    /// Block edge length `B`.
    #[inline]
    pub fn block_size(&self) -> u32 {
        1 << self.block_bits
    }

    /// Mean nonzeros per block (the HiCOO paper's alpha_b; hyper-sparse
    /// tensors have alpha_b near 1, which is where gHiCOO helps).
    pub fn mean_nnz_per_block(&self) -> f64 {
        if self.num_blocks() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.num_blocks() as f64
        }
    }

    /// Nonzeros of the longest block — the GPU Mttkrp load-imbalance
    /// indicator (paper §3.4.2).
    pub fn max_nnz_per_block(&self) -> usize {
        (0..self.num_blocks())
            .map(|b| (self.bptr()[b + 1] - self.bptr()[b]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Half-open nonzero range of block `b`.
    #[inline]
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.bptr()[b] as usize..self.bptr()[b + 1] as usize
    }

    /// Block coordinate of block `b` in `mode`.
    #[inline]
    pub fn block_ind(&self, b: usize, mode: usize) -> u32 {
        self.binds()[mode][b]
    }

    /// The per-mode block coordinate arrays.
    #[inline]
    pub fn binds(&self) -> &[Vec<u32>] {
        &self.blocks.binds
    }

    /// The per-mode element (within-block) offset arrays.
    #[inline]
    pub fn einds(&self) -> &[Vec<u8>] {
        &self.blocks.einds
    }

    /// The block pointer array.
    #[inline]
    pub fn bptr(&self) -> &[u64] {
        &self.blocks.bptr
    }

    /// The values.
    #[inline]
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// The values, mutably (structure is immutable through this).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [S] {
        &mut self.vals
    }

    /// Reconstruct the full coordinate of nonzero `x` inside block `b`.
    #[inline]
    pub fn coord_of(&self, b: usize, x: usize, buf: &mut [u32]) {
        for mode in 0..self.order() {
            buf[mode] = (self.binds()[mode][b] << self.block_bits) | self.einds()[mode][x] as u32;
        }
    }

    /// Expand to COO (Morton storage order preserved).
    pub fn to_coo(&self) -> CooTensor<S> {
        let order = self.order();
        let m = self.nnz();
        let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(m); order];
        for b in 0..self.num_blocks() {
            for x in self.block_range(b) {
                for (mode, arr) in inds.iter_mut().enumerate() {
                    arr.push(
                        (self.binds()[mode][b] << self.block_bits) | self.einds()[mode][x] as u32,
                    );
                }
            }
        }
        CooTensor::from_parts_unchecked(
            self.shape.clone(),
            inds,
            self.vals.clone(),
            SortState::Morton {
                block_bits: self.block_bits,
            },
        )
    }

    /// Coordinate → value map (test helper).
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        self.to_coo().to_map()
    }

    /// `true` if two HiCOO tensors share block structure and element pattern
    /// (the same-pattern Tew fast-path requirement). Tensors that share
    /// their structure answer without a scan; separately converted ones are
    /// compared array by array.
    pub fn same_pattern(&self, other: &HicooTensor<S>) -> bool {
        self.shape == other.shape
            && self.block_bits == other.block_bits
            && (Arc::ptr_eq(&self.blocks, &other.blocks) || self.blocks == other.blocks)
    }

    /// Storage bytes: `u64` block pointers, `u32` block indices per mode,
    /// `u8` element indices per mode, plus values. This is the quantity the
    /// paper's HiCOO column of Table 1 builds on (`20 n_b + 7M` for order 3
    /// ignoring the `+8` sentinel).
    pub fn storage_bytes(&self) -> u64 {
        let n = self.order() as u64;
        let nb = self.num_blocks() as u64;
        let m = self.nnz() as u64;
        8 * (nb + 1) + 4 * n * nb + n * m + m * S::BYTES
    }

    /// Check structural invariants: block bits in range, monotone `bptr`,
    /// nonempty blocks, per-mode array lengths, element indices below the
    /// block edge, blocks in Morton order without adjacent duplicates, and
    /// reconstructed coordinates in bounds. Cheap enough to run after any
    /// conversion or untrusted load.
    pub fn validate(&self) -> Result<()> {
        check_block_bits(self.block_bits)?;
        let nb = self.num_blocks();
        if self.bptr().first() != Some(&0) || *self.bptr().last().unwrap_or(&0) != self.nnz() as u64
        {
            return Err(TensorError::InvalidStructure(
                "bptr must start at 0 and end at nnz".into(),
            ));
        }
        for b in 0..nb {
            if self.bptr()[b] >= self.bptr()[b + 1] {
                return Err(TensorError::InvalidStructure(format!(
                    "block {b} is empty or bptr not strictly increasing"
                )));
            }
        }
        if self.binds().len() != self.order() || self.einds().len() != self.order() {
            return Err(TensorError::InvalidStructure(format!(
                "{} binds / {} einds arrays for order-{} tensor",
                self.binds().len(),
                self.einds().len(),
                self.order()
            )));
        }
        for (mode, arr) in self.binds().iter().enumerate() {
            if arr.len() != nb {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{mode} binds length {} != block count {nb}",
                    arr.len()
                )));
            }
        }
        let edge = self.block_size();
        for (mode, arr) in self.einds().iter().enumerate() {
            if arr.len() != self.nnz() {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{mode} einds length {} != nnz {}",
                    arr.len(),
                    self.nnz()
                )));
            }
            if let Some(&bad) = arr.iter().find(|&&e| (e as u32) >= edge) {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{mode} element index {bad} outside block edge {edge}"
                )));
            }
        }
        // Blocks must be strictly sorted — Morton order from COO conversion,
        // or lexicographic order from kernels that rebuild block lists (Ttv's
        // scheduled variant sorts surviving block coords lexicographically).
        // Either way adjacent duplicates mean a failed construction merge.
        let mut morton_ok = true;
        let mut lex_ok = true;
        let mut prev = vec![0u32; self.order()];
        let mut curr = vec![0u32; self.order()];
        for b in 1..nb {
            for (mode, arr) in self.binds().iter().enumerate() {
                prev[mode] = arr[b - 1];
                curr[mode] = arr[b];
            }
            if prev == curr {
                return Err(TensorError::InvalidStructure(format!(
                    "blocks {} and {b} share a block coordinate",
                    b - 1
                )));
            }
            if morton::morton_cmp(&prev, &curr) == std::cmp::Ordering::Greater {
                morton_ok = false;
            }
            if prev > curr {
                lex_ok = false;
            }
            if !morton_ok && !lex_ok {
                return Err(TensorError::InvalidStructure(format!(
                    "blocks up to {b} are in neither Morton nor lexicographic order"
                )));
            }
        }
        let mut buf = vec![0u32; self.order()];
        for b in 0..nb {
            for x in self.block_range(b) {
                self.coord_of(b, x, &mut buf);
                self.shape.check_coord(&buf)?;
            }
        }
        Ok(())
    }

    /// Count NaN/Inf values (see [`CooTensor::nonfinite_count`]).
    pub fn nonfinite_count(&self) -> usize {
        self.vals.iter().filter(|v| !v.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2(a) example: 8 nonzeros of a 4x4x4 tensor in
    /// 2x2x2 blocks.
    fn fig2_tensor() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 1], 2.0),
                (vec![0, 1, 0], 3.0),
                (vec![1, 0, 0], 4.0),
                (vec![1, 1, 2], 5.0),
                (vec![2, 2, 0], 6.0),
                (vec![2, 2, 2], 7.0),
                (vec![3, 3, 3], 8.0),
            ],
        )
        .unwrap()
    }

    /// The block structure, for writing, with fresh, empty schedule slots:
    /// the old schedules no longer describe what the caller writes.
    fn blocks_mut(t: &mut HicooTensor<f32>) -> &mut Blocks {
        t.scheds = sched::empty_slots(t.order());
        Arc::make_mut(&mut t.blocks)
    }

    #[test]
    fn round_trip_preserves_entries() {
        let coo = fig2_tensor();
        let h = HicooTensor::from_coo(&coo, 1).unwrap();
        assert_eq!(h.nnz(), 8);
        assert_eq!(h.to_map(), coo.to_map());
        assert!(h.validate().is_ok());
    }

    #[test]
    fn blocks_partition_the_nonzeros() {
        let h = HicooTensor::from_coo(&fig2_tensor(), 1).unwrap();
        // Blocks: (0,0,0) holds 4 nnz, (0,0,1) holds 1, (1,1,0) holds 1,
        // (1,1,1) holds 2.
        assert_eq!(h.num_blocks(), 4);
        let sizes: Vec<usize> = (0..h.num_blocks())
            .map(|b| h.block_range(b).len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert_eq!(h.max_nnz_per_block(), 4);
        assert_eq!(h.mean_nnz_per_block(), 2.0);
    }

    #[test]
    fn element_indices_fit_block() {
        let h = HicooTensor::from_coo(&fig2_tensor(), 1).unwrap();
        for arr in h.einds() {
            assert!(arr.iter().all(|&e| e < 2));
        }
    }

    #[test]
    fn rejects_block_bits_out_of_range() {
        let coo = fig2_tensor();
        assert!(matches!(
            HicooTensor::from_coo(&coo, 0),
            Err(TensorError::InvalidBlockBits(0))
        ));
        assert!(matches!(
            HicooTensor::from_coo(&coo, 9),
            Err(TensorError::InvalidBlockBits(9))
        ));
        assert!(HicooTensor::from_coo(&coo, 8).is_ok());
    }

    #[test]
    fn hicoo_compresses_blocked_tensors() {
        // A tensor whose nonzeros cluster in one block compresses well: a
        // 256^3 tensor with 512 nonzeros in the first 128^3 corner.
        let entries: Vec<(Vec<u32>, f32)> = (0..512)
            .map(|i| (vec![i % 8, (i / 8) % 8, i / 64], 1.0))
            .collect();
        let coo = CooTensor::from_entries(Shape::new(vec![256, 256, 256]), entries).unwrap();
        let h = HicooTensor::from_coo(&coo, 7).unwrap();
        assert_eq!(h.num_blocks(), 1);
        assert!(h.storage_bytes() < coo.storage_bytes());
    }

    #[test]
    fn coord_reconstruction_matches_source() {
        let coo = fig2_tensor();
        let h = HicooTensor::from_coo(&coo, 1).unwrap();
        let expanded = h.to_coo();
        assert!(expanded.validate().is_ok());
        assert_eq!(expanded.to_map(), coo.to_map());
        assert!(expanded.sort_state().is_morton(1));
    }

    #[test]
    fn same_pattern_ignores_values() {
        let coo = fig2_tensor();
        let a = HicooTensor::from_coo(&coo, 1).unwrap();
        let mut b = a.clone();
        b.vals_mut()[3] = -1.0;
        assert!(a.same_pattern(&b));
        let c = HicooTensor::from_coo(&coo, 2).unwrap();
        assert!(!a.same_pattern(&c));
    }

    #[test]
    fn validate_detects_corrupted_structure() {
        let good = HicooTensor::from_coo(&fig2_tensor(), 1).unwrap();

        // Element index at or above the block edge.
        let mut t = good.clone();
        let edge = t.block_size() as u8;
        blocks_mut(&mut t).einds[0][0] = edge;
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));

        // Duplicated adjacent block coordinate.
        let mut t = good.clone();
        for arr in &mut blocks_mut(&mut t).binds {
            let first = arr[0];
            arr[1] = first;
        }
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));

        // Blocks in neither Morton nor lexicographic order.
        let mut t = good.clone();
        let last = t.num_blocks() - 1;
        for arr in &mut blocks_mut(&mut t).binds {
            arr.swap(0, last);
        }
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));

        // einds array length out of sync with nnz.
        let mut t = good.clone();
        blocks_mut(&mut t).einds[1].pop();
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));
    }

    #[test]
    fn nonfinite_count_flags_poisoned_values() {
        let mut h = HicooTensor::from_coo(&fig2_tensor(), 1).unwrap();
        assert_eq!(h.nonfinite_count(), 0);
        h.vals_mut()[2] = f32::NAN;
        h.vals_mut()[5] = f32::INFINITY;
        assert_eq!(h.nonfinite_count(), 2);
    }

    #[test]
    fn empty_tensor_converts() {
        let coo = CooTensor::<f32>::empty(Shape::new(vec![8, 8]));
        let h = HicooTensor::from_coo(&coo, 2).unwrap();
        assert_eq!(h.num_blocks(), 0);
        assert_eq!(h.nnz(), 0);
        assert!(h.validate().is_ok());
    }
}
