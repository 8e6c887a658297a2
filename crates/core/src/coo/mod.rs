//! Coordinate (COO) format for general sparse tensors, and its semi-sparse
//! variant sCOO (paper §3.1, Figure 1).
//!
//! COO stores one `u32` index array per mode plus one value array
//! (struct-of-arrays). It does not require any particular ordering, but the
//! fiber-based kernels (Ttv, Ttm) and the general element-wise merge sort the
//! tensor lexicographically first; [`CooTensor::sort_state`] tracks this so
//! repeated kernel calls skip the re-sort, mirroring the paper's
//! pre-processing stage.

mod build;
mod fiber;
mod scoo;
mod sort;

pub use fiber::FiberPartition;
pub use scoo::SemiSparseTensor;
pub use sort::{SortAlgo, SortState};

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::sched::{self, RowSlot};
use crate::shape::Shape;

/// A general sparse tensor of arbitrary order in coordinate format.
///
/// Storage is `4(N+1)M` bytes for an order-`N` tensor with `M` nonzeros and
/// `f32` values, matching the paper's accounting.
///
/// The index arrays are shared copy-on-write: a clone, and the output of a
/// value-only kernel (same-pattern Tew, Ts), points at the same arrays as
/// its source, and whichever side later sorts or relabels gets its own
/// copy first. Values are never shared. The schedules built for the index
/// arrays (see [`crate::sched`]) sit beside them and are shared with them.
#[derive(Debug, Clone)]
pub struct CooTensor<S: Scalar> {
    shape: Shape,
    /// One index array per mode; all have length `nnz()`. A slice rather
    /// than a `Vec` inside the `Arc`: the per-mode headers live in the
    /// `Arc`'s own allocation, so reaching an index array takes no more
    /// loads than through a plain `Vec`. Loops that re-read `mode_inds` per
    /// nonzero (atomic Mttkrp) measured 12–37 % slower with the extra hop.
    inds: Arc<[Vec<u32>]>,
    /// One schedule slot per mode, describing `inds`: shared exactly when
    /// `inds` is, and replaced by empty ones whenever it is written
    /// ([`CooTensor::inds_mut`]).
    scheds: Arc<[RowSlot]>,
    vals: Vec<S>,
    sort: SortState,
}

/// Equal shape, coordinates, values and sort state; schedules take no part.
impl<S: Scalar> PartialEq for CooTensor<S> {
    fn eq(&self, other: &Self) -> bool {
        self.same_pattern(other) && self.vals == other.vals && self.sort == other.sort
    }
}

impl<S: Scalar> CooTensor<S> {
    /// An empty tensor of the given shape.
    pub fn empty(shape: Shape) -> Self {
        let order = shape.order();
        CooTensor {
            shape,
            inds: Arc::from(vec![Vec::new(); order]),
            scheds: sched::empty_slots(order),
            vals: Vec::new(),
            sort: SortState::Unsorted,
        }
    }

    /// Build from `(coordinate, value)` entries.
    ///
    /// Entries are validated against the shape, sorted lexicographically, and
    /// duplicates are combined by summation (the usual COO assembly rule).
    /// Entries whose combined value is exactly zero are kept — COO stores
    /// whatever it was given, and several kernels (e.g. Tew on two patterns)
    /// rely on structural rather than numerical nonzeros.
    pub fn from_entries(shape: Shape, entries: Vec<(Vec<u32>, S)>) -> Result<Self> {
        build::from_entries(shape, entries)
    }

    /// Build directly from struct-of-arrays parts.
    ///
    /// Validates array lengths and index bounds; does *not* sort or dedup.
    pub fn from_parts(shape: Shape, inds: Vec<Vec<u32>>, vals: Vec<S>) -> Result<Self> {
        build::from_parts(shape, inds, vals)
    }

    /// Internal constructor for outputs whose structure is correct by
    /// construction (kernel outputs); skips validation.
    pub(crate) fn from_parts_unchecked(
        shape: Shape,
        inds: Vec<Vec<u32>>,
        vals: Vec<S>,
        sort: SortState,
    ) -> Self {
        debug_assert_eq!(inds.len(), shape.order());
        debug_assert!(inds.iter().all(|a| a.len() == vals.len()));
        CooTensor {
            scheds: sched::empty_slots(shape.order()),
            shape,
            inds: Arc::from(inds),
            vals,
            sort,
        }
    }

    /// A tensor with this one's index arrays and schedules (shared, not
    /// copied), shape and sort state, holding `vals` instead — the output of
    /// every value-only kernel.
    pub(crate) fn with_vals(&self, vals: Vec<S>) -> Self {
        debug_assert_eq!(vals.len(), self.nnz());
        CooTensor {
            shape: self.shape.clone(),
            inds: Arc::clone(&self.inds),
            scheds: Arc::clone(&self.scheds),
            vals,
            sort: self.sort.clone(),
        }
    }

    /// The index arrays, for writing. The schedule slots are replaced by
    /// empty ones first: whatever the caller does to the arrays, the old
    /// schedules no longer describe them. Every index write goes through
    /// here.
    fn inds_mut(&mut self) -> &mut Arc<[Vec<u32>]> {
        self.scheds = sched::empty_slots(self.order());
        &mut self.inds
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

    /// Number of stored nonzeros (`M` in the paper).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Density: `nnz / prod(dims)`.
    pub fn density(&self) -> f64 {
        self.shape.density(self.nnz())
    }

    /// The index array of one mode.
    #[inline]
    pub fn mode_inds(&self, mode: usize) -> &[u32] {
        &self.inds[mode]
    }

    /// All index arrays.
    #[inline]
    pub fn inds(&self) -> &[Vec<u32>] {
        &self.inds
    }

    /// The value array.
    #[inline]
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// The per-mode schedule slots of the index structure.
    #[inline]
    pub(crate) fn schedule_slots(&self) -> &[RowSlot] {
        &self.scheds
    }

    /// The value array, mutably (indices are immutable through this — value
    /// editing never invalidates the sort state).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [S] {
        &mut self.vals
    }

    /// Current sort state.
    #[inline]
    pub fn sort_state(&self) -> &SortState {
        &self.sort
    }

    /// Write the coordinate of nonzero `at` into `buf` (length = order).
    #[inline]
    pub(crate) fn coord_into(&self, at: usize, buf: &mut [u32]) {
        for (m, arr) in self.inds.iter().enumerate() {
            buf[m] = arr[at];
        }
    }

    /// The coordinate of nonzero `at` as a fresh `Vec`.
    pub(crate) fn coord(&self, at: usize) -> Vec<u32> {
        let mut buf = vec![0u32; self.order()];
        self.coord_into(at, &mut buf);
        buf
    }

    /// Iterate `(coordinate, value)` pairs (allocates one `Vec` per entry —
    /// convenience for tests and small tensors; kernels use the SoA arrays
    /// directly).
    pub fn iter_entries(&self) -> impl Iterator<Item = (Vec<u32>, S)> + '_ {
        (0..self.nnz()).map(move |i| (self.coord(i), self.vals[i]))
    }

    /// Sort nonzeros lexicographically in the given mode precedence order
    /// (`mode_order[0]` is the slowest-varying mode). No-op if the tensor is
    /// already in that order.
    pub fn sort_lexicographic(&mut self, mode_order: &[usize]) {
        sort::sort_lexicographic(self, mode_order, SortAlgo::Auto);
    }

    /// [`CooTensor::sort_lexicographic`] with an explicit sort backend —
    /// used by `tenbench verify` to cross-check the radix pipeline against
    /// the comparator reference.
    pub fn sort_lexicographic_with(&mut self, mode_order: &[usize], algo: SortAlgo) {
        sort::sort_lexicographic(self, mode_order, algo);
    }

    /// Sort so that `mode` is innermost with the remaining modes ascending —
    /// the order required by the mode-`n` fiber kernels (Ttv/Ttm).
    pub fn sort_mode_last(&mut self, mode: usize) {
        let order = crate::shape::mode_last_order(self.order(), mode);
        self.sort_lexicographic(&order);
    }

    /// Sort nonzeros by the Morton order of their block coordinates, the
    /// pre-processing step of HiCOO construction (paper §3.3).
    pub fn sort_morton(&mut self, block_bits: u8) {
        sort::sort_morton(self, block_bits, SortAlgo::Auto);
    }

    /// [`CooTensor::sort_morton`] with an explicit sort backend.
    pub fn sort_morton_with(&mut self, block_bits: u8, algo: SortAlgo) {
        sort::sort_morton(self, block_bits, algo);
    }

    /// Compute the mode-`n` fiber partition (requires, and if necessary
    /// performs, a mode-last sort). Returns the `fptr` array of Algorithm 1.
    pub fn fibers(&mut self, mode: usize) -> Result<FiberPartition> {
        self.shape.check_mode(mode)?;
        fiber::fibers(self, mode)
    }

    /// Compute the mode-`n` fiber partition assuming the tensor is already
    /// mode-last sorted; errors if it is not.
    pub(crate) fn fibers_sorted(&self, mode: usize) -> Result<FiberPartition> {
        self.shape.check_mode(mode)?;
        if !self.sort.is_mode_last(self.order(), mode) {
            return Err(TensorError::InvalidStructure(format!(
                "tensor is not sorted with mode {mode} innermost"
            )));
        }
        fiber::fibers_from_sorted(self, mode)
    }

    /// Relabel one mode's indices through a permutation (validated by the
    /// caller, `crate::reorder`); invalidates the sort state.
    pub(crate) fn relabel_mode(&mut self, mode: usize, perm: &[u32]) {
        for i in Arc::make_mut(self.inds_mut())[mode].iter_mut() {
            *i = perm[*i as usize];
        }
        self.sort = SortState::Unsorted;
    }

    /// Storage footprint in bytes: `order` index arrays of `u32` plus values.
    pub fn storage_bytes(&self) -> u64 {
        let m = self.nnz() as u64;
        m * (4 * self.order() as u64 + S::BYTES)
    }

    /// A cheap structural fingerprint for cache keying: FNV-1a over the
    /// shape, nnz, and a strided sample of up to 1024 coordinates and
    /// value bit patterns.
    ///
    /// Two tensors with the same fingerprint are treated as
    /// interchangeable by the serving layer's format/schedule cache, so
    /// the hash mixes values (not just the pattern); sampling keeps it
    /// O(1) regardless of nnz. Schedules need no key: they live on the
    /// tensor (see [`crate::sched`]), so a cached tensor keeps its schedules
    /// for as long as the serving layer holds it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for &d in self.shape.dims() {
            mix(d as u64);
        }
        let m = self.nnz();
        mix(m as u64);
        let stride = (m / 1024).max(1);
        let mut at = 0;
        while at < m {
            for inds in self.inds.iter() {
                mix(inds[at] as u64);
            }
            mix(self.vals[at].to_f64().to_bits());
            at += stride;
        }
        h
    }

    /// Collect into a coordinate → value map (sums duplicates). Primarily a
    /// test helper for comparing tensors across formats and kernels.
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        let mut map = BTreeMap::new();
        for (c, v) in self.iter_entries() {
            *map.entry(c).or_insert(0.0) += v.to_f64();
        }
        map
    }

    /// `true` if the two tensors have identical shapes and coordinates in
    /// storage order — i.e. they share a nonzero pattern in the strict sense
    /// required by the same-pattern Tew fast path. Values and the recorded
    /// sort state take no part. Tensors that share their index arrays (one
    /// is a clone or a value-only kernel output of the other) answer without
    /// a scan; any others are compared coordinate by coordinate.
    pub fn same_pattern(&self, other: &CooTensor<S>) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.inds, &other.inds) || self.inds == other.inds)
    }

    /// Validate internal structure: array lengths, index bounds, and — when
    /// the sort state claims an ordering — that the nonzeros actually follow
    /// it. Cheap enough to run after any conversion or untrusted load;
    /// kernels assume validity.
    pub fn validate(&self) -> Result<()> {
        if self.inds.len() != self.order() {
            return Err(TensorError::InvalidStructure(format!(
                "{} index arrays for order-{} tensor",
                self.inds.len(),
                self.order()
            )));
        }
        for (m, arr) in self.inds.iter().enumerate() {
            if arr.len() != self.vals.len() {
                return Err(TensorError::InvalidStructure(format!(
                    "mode-{m} index array length {} != nnz {}",
                    arr.len(),
                    self.vals.len()
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
        match &self.sort {
            SortState::Unsorted => {}
            SortState::Lexicographic(mode_order) => {
                if mode_order.len() != self.order() {
                    return Err(TensorError::InvalidStructure(format!(
                        "sort state names {} modes for an order-{} tensor",
                        mode_order.len(),
                        self.order()
                    )));
                }
                for i in 1..self.nnz() {
                    let mut cmp = std::cmp::Ordering::Equal;
                    for &m in mode_order {
                        cmp = self.inds[m][i - 1].cmp(&self.inds[m][i]);
                        if cmp != std::cmp::Ordering::Equal {
                            break;
                        }
                    }
                    if cmp == std::cmp::Ordering::Greater {
                        return Err(TensorError::InvalidStructure(format!(
                            "nonzeros {} and {} violate the claimed lexicographic order",
                            i - 1,
                            i
                        )));
                    }
                }
            }
            SortState::Morton { block_bits } => {
                let bits = *block_bits;
                let mut prev = vec![0u32; self.order()];
                let mut curr = vec![0u32; self.order()];
                for i in 1..self.nnz() {
                    for (m, arr) in self.inds.iter().enumerate() {
                        prev[m] = arr[i - 1] >> bits;
                        curr[m] = arr[i] >> bits;
                    }
                    if crate::hicoo::morton::morton_cmp(&prev, &curr) == std::cmp::Ordering::Greater
                    {
                        return Err(TensorError::InvalidStructure(format!(
                            "nonzeros {} and {} violate the claimed Morton block order",
                            i - 1,
                            i
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Count NaN/Inf values — untrusted inputs and misbehaving kernels both
    /// surface here; a trustworthy benchmark cell must report zero.
    pub fn nonfinite_count(&self) -> usize {
        self.vals.iter().filter(|v| !v.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![3, 1, 0], 4.0),
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 3], 2.0),
                (vec![0, 0, 0], 0.5), // duplicate, combined by summation
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_entries_sorts_and_combines_duplicates() {
        let t = small();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.coord(0), vec![0, 0, 0]);
        assert_eq!(t.vals()[0], 1.5);
        assert!(t.sort_state().is_lexicographic(&[0, 1, 2]));
    }

    #[test]
    fn from_entries_rejects_out_of_bounds() {
        let r = CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0, 2], 1.0f32)]);
        assert!(matches!(r, Err(TensorError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_entries_rejects_wrong_order_coord() {
        let r = CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0], 1.0f32)]);
        assert!(matches!(r, Err(TensorError::OrderMismatch { .. })));
    }

    #[test]
    fn storage_matches_paper_formula() {
        // 4(N+1)M bytes for f32: N=3, M=3 -> 48.
        let t = small();
        assert_eq!(t.storage_bytes(), 48);
    }

    #[test]
    fn to_map_round_trips_entries() {
        let t = small();
        let m = t.to_map();
        assert_eq!(m.len(), 3);
        assert_eq!(m[&vec![1, 2, 3]], 2.0);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(small().validate().is_ok());
    }

    #[test]
    fn validate_detects_false_sort_claims() {
        // Claims lexicographic order but the nonzeros are shuffled.
        let mut t = small();
        for arr in Arc::make_mut(t.inds_mut()) {
            arr.swap(0, 2);
        }
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));

        // Claims Morton block order but blocks run backwards.
        let mut t = small();
        t.sort_morton(1);
        for arr in Arc::make_mut(t.inds_mut()) {
            arr.reverse();
        }
        t.vals.reverse();
        assert!(matches!(
            t.validate(),
            Err(TensorError::InvalidStructure(_))
        ));
    }

    #[test]
    fn nonfinite_count_flags_poisoned_values() {
        let mut t = small();
        assert_eq!(t.nonfinite_count(), 0);
        t.vals_mut()[1] = f32::NAN;
        assert_eq!(t.nonfinite_count(), 1);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let r = CooTensor::from_parts(
            Shape::new(vec![2, 2]),
            vec![vec![0, 1], vec![0]],
            vec![1.0f32, 2.0],
        );
        assert!(r.is_err());
    }

    #[test]
    fn same_pattern_detects_match_and_mismatch() {
        let a = small();
        let mut b = small();
        assert!(a.same_pattern(&b));
        b.vals_mut()[0] = 9.0; // values may differ
        assert!(a.same_pattern(&b));
        let c = CooTensor::from_entries(Shape::new(vec![4, 4, 4]), vec![(vec![0, 0, 1], 1.0f32)])
            .unwrap();
        assert!(!a.same_pattern(&c));
    }

    #[test]
    fn empty_tensor_is_consistent() {
        let t = CooTensor::<f32>::empty(Shape::new(vec![5, 5]));
        assert_eq!(t.nnz(), 0);
        assert!(t.validate().is_ok());
        assert_eq!(t.storage_bytes(), 0);
    }
}
