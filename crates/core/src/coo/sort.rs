//! Nonzero ordering: lexicographic (per mode precedence) and Morton (block)
//! sorts, with sort-state tracking so kernels can skip redundant re-sorts.

use std::sync::Arc;

use crate::hicoo::morton;
use crate::par;
use crate::radix;
use crate::scalar::Scalar;

use super::CooTensor;

/// Backend selection for the COO sorts.
///
/// The default pipeline packs coordinates into little-endian integer keys
/// and runs the parallel stable LSD radix engine (`crate::radix`); the
/// comparator backend is the parallel merge sort over the same ordering
/// with an explicit index tie-break. Both produce the *identical*
/// permutation for every input (ties resolve to ascending original
/// position), which is what lets `verify` cross-check one against the
/// other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgo {
    /// Radix where a packed-key formulation exists, comparator otherwise.
    #[default]
    Auto,
    /// Same as `Auto` (named for benchmark readability): radix whenever a
    /// packed-key formulation exists.
    Radix,
    /// Force the comparator-based parallel merge sort.
    Comparator,
}

impl SortAlgo {
    fn use_radix(self) -> bool {
        !matches!(self, SortAlgo::Comparator)
    }
}

/// Tracks how the nonzeros of a [`CooTensor`] are currently ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortState {
    /// No known ordering.
    Unsorted,
    /// Lexicographic by the given mode precedence (first entry varies
    /// slowest).
    Lexicographic(Vec<usize>),
    /// Morton (Z-order) over block coordinates with the given block bits,
    /// lexicographic within each block — the HiCOO construction order.
    Morton {
        /// log2 of the block edge length.
        block_bits: u8,
    },
}

impl SortState {
    /// `true` if the state is lexicographic with exactly this precedence.
    pub fn is_lexicographic(&self, mode_order: &[usize]) -> bool {
        matches!(self, SortState::Lexicographic(o) if o == mode_order)
    }

    /// `true` if sorted with `mode` innermost and the remaining modes in
    /// ascending order (the fiber-kernel requirement).
    pub fn is_mode_last(&self, order: usize, mode: usize) -> bool {
        self.is_lexicographic(&crate::shape::mode_last_order(order, mode))
    }

    /// `true` if Morton-sorted with the given block bits.
    pub fn is_morton(&self, block_bits: u8) -> bool {
        matches!(self, SortState::Morton { block_bits: b } if *b == block_bits)
    }
}

/// Apply a gather permutation to every array of the tensor. Index arrays
/// shared with another tensor are gathered into new ones and left to their
/// other owners; a sole owner replaces its arrays one mode at a time, so at
/// most one extra index array is live.
fn apply_perm<S: Scalar>(t: &mut CooTensor<S>, perm: &[u32]) {
    let gather_u32 =
        |src: &[u32]| -> Vec<u32> { par::map_collect(perm.len(), 1, |i| src[perm[i] as usize]) };
    let inds = t.inds_mut();
    match Arc::get_mut(inds) {
        Some(arrs) => {
            for arr in arrs.iter_mut() {
                *arr = gather_u32(arr);
            }
        }
        None => *inds = inds.iter().map(|arr| gather_u32(arr)).collect(),
    }
    let vals = &t.vals;
    t.vals = par::map_collect(perm.len(), 1, |i| vals[perm[i] as usize]);
}

pub(super) fn sort_lexicographic<S: Scalar>(
    t: &mut CooTensor<S>,
    mode_order: &[usize],
    algo: SortAlgo,
) {
    assert_eq!(
        mode_order.len(),
        t.order(),
        "mode order must be a permutation"
    );
    if t.sort.is_lexicographic(mode_order) {
        return;
    }
    let _span = tenbench_obs::span!("coo.sort_lex");
    let m = t.nnz();
    let mut perm: Vec<u32> = (0..m as u32).collect();
    if algo.use_radix() {
        lex_perm_radix(&t.inds, t.shape.dims(), mode_order, &mut perm);
    } else {
        let inds: &[Vec<u32>] = &t.inds;
        par::sort_unstable_by(&mut perm, |&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for &mode in mode_order {
                let arr = &inds[mode];
                match arr[a].cmp(&arr[b]) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            // Deterministic tie-break so both backends agree exactly.
            a.cmp(&b)
        });
    }
    apply_perm(t, &perm);
    t.sort = SortState::Lexicographic(mode_order.to_vec());
}

/// Radix permutation for a lexicographic sort: pack the coordinates along
/// `mode_order` into one little-endian key when they fit 128 bits (always
/// true for order <= 4), otherwise run one stable per-mode radix pass from
/// the least significant mode up.
fn lex_perm_radix(inds: &[Vec<u32>], dims: &[u32], mode_order: &[usize], perm: &mut Vec<u32>) {
    // Per-mode key width; a mode of extent 1 contributes nothing.
    let width = |mode: usize| radix::bits_for(dims[mode].saturating_sub(1)) as usize;
    let total_bits: usize = mode_order.iter().map(|&mode| width(mode)).sum();
    if total_bits == 0 {
        return;
    }
    if total_bits <= 128 {
        let keys: Vec<u128> = par::map_collect(perm.len(), 4096, |i| {
            let mut key = 0u128;
            for &mode in mode_order {
                key = (key << width(mode)) | inds[mode][i] as u128;
            }
            key
        });
        let max_key = if total_bits == 128 {
            u128::MAX
        } else {
            (1u128 << total_bits) - 1
        };
        radix::sort_perm_by_u128_keys(perm, &keys, max_key);
    } else {
        for &mode in mode_order.iter().rev() {
            let arr = &inds[mode];
            radix::sort_perm_by_u32_key(perm, |p| arr[p as usize], dims[mode].saturating_sub(1));
        }
    }
}

pub(super) fn sort_morton<S: Scalar>(t: &mut CooTensor<S>, block_bits: u8, algo: SortAlgo) {
    if t.sort.is_morton(block_bits) {
        return;
    }
    let _span = tenbench_obs::span!("coo.sort_morton");
    let m = t.nnz();
    let order = t.order();
    let mut perm: Vec<u32> = (0..m as u32).collect();

    if algo.use_radix() && morton_radix_fits(t.shape.dims(), block_bits) {
        morton_perm_radix(&t.inds, t.shape.dims(), block_bits, &mut perm);
    } else if order <= 4 {
        // Packed 128-bit Morton block keys, comparator merge sort.
        let keys: Vec<u128> = par::map_collect(m, 1, |i| {
            let mut bc = [0u32; 4];
            for (mode, arr) in t.inds.iter().enumerate() {
                bc[mode] = arr[i] >> block_bits;
            }
            morton::interleave_key(&bc[..order])
        });
        let inds: &[Vec<u32>] = &t.inds;
        par::sort_unstable_by(&mut perm, |&a, &b| {
            let (a, b) = (a as usize, b as usize);
            keys[a]
                .cmp(&keys[b])
                .then_with(|| {
                    for arr in inds {
                        match arr[a].cmp(&arr[b]) {
                            std::cmp::Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    std::cmp::Ordering::Equal
                })
                // Deterministic tie-break so both backends agree exactly.
                .then(a.cmp(&b))
        });
    } else {
        // Orders above 4: the comparison-based most-significant-bit trick.
        let inds: &[Vec<u32>] = &t.inds;
        par::sort_unstable_by(&mut perm, |&a, &b| {
            let (a, b) = (a as usize, b as usize);
            let ba = |mode: usize| inds[mode][a] >> block_bits;
            let bb = |mode: usize| inds[mode][b] >> block_bits;
            let bca: Vec<u32> = (0..order).map(ba).collect();
            let bcb: Vec<u32> = (0..order).map(bb).collect();
            morton::morton_cmp(&bca, &bcb)
                .then_with(|| {
                    for arr in inds {
                        match arr[a].cmp(&arr[b]) {
                            std::cmp::Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    std::cmp::Ordering::Equal
                })
                .then(a.cmp(&b))
        });
    }

    apply_perm(t, &perm);
    t.sort = SortState::Morton { block_bits };
}

/// `true` if the Morton block key plus per-mode element offsets pack into
/// one 128-bit key (always for the paper's order-3/4 datasets).
fn morton_radix_fits(dims: &[u32], block_bits: u8) -> bool {
    let order = dims.len();
    if order == 0 || order > 4 {
        return false;
    }
    let maxbits = morton_block_bits_needed(dims, block_bits);
    order * (maxbits + block_bits as usize) <= 128
}

/// Bits needed for the widest block coordinate any mode can produce.
fn morton_block_bits_needed(dims: &[u32], block_bits: u8) -> usize {
    dims.iter()
        .map(|&d| radix::bits_for(d.saturating_sub(1) >> block_bits) as usize)
        .max()
        .unwrap_or(0)
}

/// Radix permutation for the Morton sort: one packed key per nonzero —
/// interleaved block coordinates in the high bits, per-mode element
/// offsets (mode 0 most significant) in the low bits — sorted by the
/// parallel stable LSD engine. Identical ordering to the comparator path:
/// equal packed keys imply equal coordinates, which stability resolves to
/// ascending original position.
fn morton_perm_radix(inds: &[Vec<u32>], dims: &[u32], block_bits: u8, perm: &mut Vec<u32>) {
    let order = inds.len();
    let bb = block_bits as usize;
    let maxbits = morton_block_bits_needed(dims, block_bits);
    let emask = (1u32 << block_bits) - 1;
    let ebits_total = order * bb;
    let total_bits = order * maxbits + ebits_total;
    if total_bits == 0 {
        return;
    }
    let keys: Vec<u128> = par::map_collect(perm.len(), 4096, |i| {
        let mut bc = [0u32; 4];
        let mut e = 0u128;
        for (mode, arr) in inds.iter().enumerate() {
            bc[mode] = arr[i] >> block_bits;
            e = (e << bb) | (arr[i] & emask) as u128;
        }
        (morton::interleave_key_bits(&bc[..order], maxbits) << ebits_total) | e
    });
    let max_key = if total_bits >= 128 {
        u128::MAX
    } else {
        (1u128 << total_bits) - 1
    };
    radix::sort_perm_by_u128_keys(perm, &keys, max_key);
}

#[cfg(test)]
mod tests {
    use crate::coo::CooTensor;
    use crate::shape::Shape;

    fn unsorted() -> CooTensor<f32> {
        CooTensor::from_parts(
            Shape::new(vec![4, 4, 4]),
            vec![vec![3, 0, 1, 0], vec![1, 2, 0, 0], vec![2, 1, 3, 0]],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn lexicographic_default_order() {
        let mut t = unsorted();
        t.sort_lexicographic(&[0, 1, 2]);
        assert_eq!(t.mode_inds(0), &[0, 0, 1, 3]);
        assert_eq!(t.mode_inds(1), &[0, 2, 0, 1]);
        assert_eq!(t.vals(), &[4.0, 2.0, 3.0, 1.0]);
        assert!(t.sort_state().is_lexicographic(&[0, 1, 2]));
    }

    #[test]
    fn mode_last_sort_groups_fibers() {
        let mut t = unsorted();
        t.sort_mode_last(0); // order [1, 2, 0]
        assert!(t.sort_state().is_mode_last(3, 0));
        // Sorted by (j, k, i): entries (0,0,0,i=0),(0,3,i=1),(1,2,i=3),(2,1,i=0)
        assert_eq!(t.mode_inds(1), &[0, 0, 1, 2]);
        assert_eq!(t.mode_inds(2), &[0, 3, 2, 1]);
        assert_eq!(t.mode_inds(0), &[0, 1, 3, 0]);
    }

    #[test]
    fn sort_is_idempotent_and_tracked() {
        let mut t = unsorted();
        t.sort_lexicographic(&[0, 1, 2]);
        let snapshot = t.clone();
        t.sort_lexicographic(&[0, 1, 2]); // no-op
        assert_eq!(t, snapshot);
    }

    #[test]
    fn morton_sort_groups_blocks() {
        // Block bits 1 => 2x2x2 blocks; entries in the same block must be
        // adjacent after the sort.
        let mut t = CooTensor::from_parts(
            Shape::new(vec![4, 4, 4]),
            vec![vec![0, 3, 1, 2], vec![0, 3, 1, 2], vec![0, 3, 1, 2]],
            vec![1.0f32, 2.0, 3.0, 4.0],
        )
        .unwrap();
        t.sort_morton(1);
        assert!(t.sort_state().is_morton(1));
        // Block coords: (0,0,0) for rows 0 and 1-as-(1,1,1)? No: (1,1,1)>>1=(0,0,0),
        // (2,2,2)>>1=(1,1,1), (3,3,3)>>1=(1,1,1). So order: {0,1} block then {2,3}.
        assert_eq!(t.mode_inds(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn values_follow_their_coordinates() {
        let mut t = unsorted();
        let before = t.to_map();
        t.sort_morton(1);
        assert_eq!(before, t.to_map());
        t.sort_lexicographic(&[2, 1, 0]);
        assert_eq!(before, t.to_map());
    }
}
