//! Output-aware, conflict-free block schedules for HiCOO/COO kernels.
//!
//! The paper's reference Mttkrp parallelizes over nonzeros (COO) or blocks
//! (HiCOO) and protects the shared output with atomics — the scalability
//! bottleneck it flags on contended modes. Partitioning the *work* by
//! *output* index removes the synchronization entirely: if every parallel
//! task owns all the nonzeros that write a given output row range, the
//! inner loops write plain `&mut` rows with zero atomics and zero locks,
//! and the fixed accumulation order makes results bitwise-deterministic
//! across runs.
//!
//! Three schedule flavors cover the suite's kernels:
//!
//! * [`ModeSchedule`] — HiCOO blocks grouped by their mode-`n` block index
//!   (`block_ind(b, n)`). All blocks writing the same output row block land
//!   in the same group; groups are cut into nnz-balanced tasks. Used by
//!   scheduled HiCOO-Mttkrp.
//! * [`RowSchedule`] — COO nonzeros permuted (stable counting sort) so each
//!   output row's nonzeros are contiguous; rows are cut into
//!   nnz-balanced tasks. Used by [`crate::kernels::mttkrp::MttkrpStrategy::Scheduled`].
//! * [`ComplementSchedule`] — HiCOO blocks grouped by the block coordinates
//!   of every mode *except* `n`. Each group is exactly one output block of
//!   a mode-`n` contraction, so scheduled Ttv/Ttm assemble their sparse
//!   outputs group-by-group with no re-blocking conversion and no races.
//!
//! Schedules depend only on the sparsity structure, not the values, so each
//! is built once, on first use, and kept in a per-mode slot beside the
//! index structure it describes (see [`mode_schedule`] /
//! [`complement_schedule`] / [`row_schedule`]). A clone or a value-only
//! kernel output shares its source's structure and with it the schedules;
//! sorting or relabelling the indices gives the tensor fresh, empty slots.
//! So a schedule can only be reached through the tensor it was built from,
//! and it lives exactly as long as that structure does.
//!
//! Nothing stored depends on the pool width. The one width-dependent part,
//! the task partition, is cut per call from a per-group nonzero prefix
//! ([`ModeSchedule::tasks`], [`RowSchedule::tasks`]); since the
//! accumulation order is fixed per row and per group, the cut never changes
//! output bits. Construction is `O(nnz + n_b log n_b)` and the schedule
//! stores ~16 bytes per group and ~4 per block (plus 4 bytes per nonzero
//! for [`RowSchedule`]).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::coo::CooTensor;
use crate::hicoo::HicooTensor;
use crate::par::{current_threads, Schedule};
use crate::scalar::Scalar;

/// How many tasks to aim for per worker thread; more tasks means better
/// dynamic load balance at slightly higher scheduling overhead.
const TASKS_PER_THREAD: usize = 8;

/// Row boundaries a [`RowSchedule`] build fills per parallel piece.
const RPTR_PIECE: usize = 4096;
/// Nonzeros of one row a [`RowSchedule`] build steps over one at a time
/// before it gallops.
const ROW_WALK: usize = 8;

/// The first position at or after `j` whose element fails `below`, where
/// `below` holds on a prefix of `perm` that reaches at least `j`: probe
/// `j`, `j + 1`, `j + 3`, `j + 7`, … and binary-search the last stride.
fn gallop(perm: &[u32], mut j: usize, below: impl Fn(&u32) -> bool) -> usize {
    let (mut probe, mut stride) = (j, 1);
    while probe < perm.len() && below(&perm[probe]) {
        j = probe + 1;
        probe = j + stride - 1;
        stride *= 2;
    }
    j + perm[j..probe.min(perm.len())].partition_point(below)
}

/// Cut the groups `0..prefix.len() - 1`, whose running nonzero counts are
/// `prefix`, into at most `current_threads() * TASKS_PER_THREAD`
/// contiguous, non-empty, nnz-balanced tasks. Task `k` ends at the first
/// group boundary where the running count reaches `k / ntasks` of the
/// total, found by binary search; a cut that would leave a task empty is
/// skipped. Tasks never split a group (that would reintroduce write
/// conflicts).
fn cut_tasks<P: Copy + Into<u64>>(prefix: &[P]) -> Vec<Range<usize>> {
    let groups = prefix.len() - 1;
    let ntasks = (current_threads().max(1) * TASKS_PER_THREAD).min(groups);
    let total = prefix[groups].into() as u128;
    let mut tasks = Vec::with_capacity(ntasks);
    let mut start = 0;
    for k in 1..=ntasks {
        let end = if k == ntasks {
            groups
        } else {
            let target = (total * k as u128 / ntasks as u128) as u64;
            prefix.partition_point(|&p| p.into() < target)
        };
        if end > start {
            tasks.push(start..end);
            start = end;
        }
    }
    tasks
}

/// One mode's slots of a HiCOO block structure, filled on first use.
#[derive(Debug, Default)]
pub(crate) struct BlockSlots {
    mode: OnceLock<Arc<ModeSchedule>>,
    complement: OnceLock<Arc<ComplementSchedule>>,
}

/// One mode's slot of a COO index structure, filled on first use.
pub(crate) type RowSlot = OnceLock<Arc<RowSchedule>>;

/// Empty slots, one per mode, for a structure of order `order`.
pub(crate) fn empty_slots<T: Default>(order: usize) -> Arc<[T]> {
    (0..order).map(|_| T::default()).collect()
}

/// Output-partitioned block schedule for one mode of a HiCOO tensor.
///
/// Blocks are grouped by `block_ind(b, mode)`; groups are sorted by that
/// output block index (ascending) and cut into contiguous, nnz-balanced
/// tasks. Distinct tasks therefore own disjoint, ascending output row
/// ranges — the property scheduled kernels exploit to hand each task a
/// plain `&mut` sub-slice of the output.
#[derive(Debug, Clone)]
pub struct ModeSchedule {
    block_bits: u8,
    /// Permuted block ids: group `g` is `blocks[gptr[g]..gptr[g+1]]`, block
    /// ids ascending within a group (deterministic accumulation order).
    blocks: Vec<u32>,
    /// Group boundaries into `blocks` (`num_groups + 1` entries).
    gptr: Vec<u32>,
    /// Mode-`n` block index per group, strictly ascending.
    out_block: Vec<u32>,
    /// Nonzeros before each group (`num_groups + 1` entries).
    nnz_ptr: Vec<u64>,
}

impl ModeSchedule {
    /// Build a schedule from the mode-`n` block index array and the block
    /// pointer of a HiCOO tensor.
    pub(crate) fn build(binds_mode: &[u32], bptr: &[u64], block_bits: u8) -> Self {
        let nb = binds_mode.len();
        // Sort (output block, block id) pairs packed into u64: the id in the
        // low bits keeps blocks ascending within each group.
        let mut keyed: Vec<u64> = (0..nb)
            .map(|b| ((binds_mode[b] as u64) << 32) | b as u64)
            .collect();
        keyed.sort_unstable();

        let blocks: Vec<u32> = keyed.iter().map(|&k| k as u32).collect();
        let mut gptr = vec![0u32];
        let mut out_block = Vec::new();
        let mut nnz_ptr = vec![0u64];
        let mut nnz = 0u64;
        for (i, &k) in keyed.iter().enumerate() {
            let key = (k >> 32) as u32;
            if out_block.last() != Some(&key) {
                if i > 0 {
                    gptr.push(i as u32);
                    nnz_ptr.push(nnz);
                }
                out_block.push(key);
            }
            let b = k as u32 as usize;
            nnz += bptr[b + 1] - bptr[b];
        }
        if nb > 0 {
            gptr.push(nb as u32);
            nnz_ptr.push(nnz);
        }
        ModeSchedule {
            block_bits,
            blocks,
            gptr,
            out_block,
            nnz_ptr,
        }
    }

    /// Number of distinct output row blocks (groups).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.out_block.len()
    }

    /// Total nonzeros covered by the schedule.
    #[inline]
    pub fn nnz(&self) -> u64 {
        self.nnz_ptr[self.num_groups()]
    }

    /// The group ranges of this call's parallel tasks, cut for
    /// [`current_threads`]: non-empty, ascending, and together covering
    /// every group.
    pub fn tasks(&self) -> Vec<Range<usize>> {
        cut_tasks(&self.nnz_ptr)
    }

    /// Block ids of group `g`, ascending.
    #[inline]
    pub fn group_blocks(&self, g: usize) -> &[u32] {
        &self.blocks[self.gptr[g] as usize..self.gptr[g + 1] as usize]
    }

    /// Mode-`n` block index written by group `g`.
    #[inline]
    pub fn group_out_block(&self, g: usize) -> u32 {
        self.out_block[g]
    }

    /// First output row of group `g`.
    #[inline]
    pub fn group_row_base(&self, g: usize) -> usize {
        (self.out_block[g] as usize) << self.block_bits
    }

    /// Output row range written by the task owning `groups` (one range of
    /// [`ModeSchedule::tasks`]), clamped to `rows_n`. Ranges of successive
    /// tasks are disjoint and ascending (gaps stay zero).
    pub fn task_row_range(&self, groups: &Range<usize>, rows_n: usize) -> Range<usize> {
        if groups.is_empty() {
            return 0..0;
        }
        let lo = self.group_row_base(groups.start);
        let hi = ((self.out_block[groups.end - 1] as usize + 1) << self.block_bits).min(rows_n);
        lo.min(rows_n)..hi
    }

    /// Approximate resident size in bytes (for DESIGN.md accounting).
    pub fn storage_bytes(&self) -> usize {
        4 * (self.blocks.len() + self.gptr.len() + self.out_block.len()) + 8 * self.nnz_ptr.len()
    }
}

/// Output-partitioned nonzero schedule for one mode of a COO tensor.
///
/// A stable counting sort by output row yields a permutation in which each
/// row's nonzeros are contiguous (ascending original position within a
/// row); rows are cut into contiguous, nnz-balanced tasks.
#[derive(Debug, Clone)]
pub struct RowSchedule {
    /// Permuted nonzero positions: row `i` owns `perm[rptr[i]..rptr[i+1]]`.
    perm: Vec<u32>,
    /// Row boundaries into `perm` (`rows_n + 1` entries), which are also
    /// the running nonzero counts the task cut reads.
    rptr: Vec<u32>,
}

impl RowSchedule {
    /// Build from the mode-`n` index array of a COO tensor.
    pub(crate) fn build(rows: &[u32], rows_n: usize) -> Self {
        let m = rows.len();
        // Stable sort of nonzero positions by row index. The parallel LSD
        // radix engine produces exactly the permutation the old sequential
        // counting-sort scatter did (both are stable by original position).
        let mut perm: Vec<u32> = (0..m as u32).collect();
        crate::radix::sort_perm_by_u32_key(
            &mut perm,
            |p| rows[p as usize],
            (rows_n as u32).saturating_sub(1),
        );
        // Row boundaries from the sorted permutation: `rptr[i]` is the
        // number of sorted positions whose row is `< i`. Each piece of
        // `rptr` binary-searches its first boundary and walks forward from
        // there, galloping past a row longer than `ROW_WALK` nonzeros, so
        // one skewed row costs its piece a logarithmic search, not a scan.
        let below = |i: usize| move |&p: &u32| (rows[p as usize] as usize) < i;
        let mut rptr = vec![0u32; rows_n + 1];
        crate::par::chunks_mut(&mut rptr, RPTR_PIECE, Schedule::DYNAMIC, |c, piece| {
            let first = c * RPTR_PIECE;
            let mut j = perm.partition_point(below(first));
            for (i, slot) in (first..).zip(piece.iter_mut()) {
                let start = j;
                while j < m && below(i)(&perm[j]) {
                    j += 1;
                    if j - start == ROW_WALK {
                        j = gallop(&perm, j, below(i));
                        break;
                    }
                }
                *slot = j as u32;
            }
        });
        RowSchedule { perm, rptr }
    }

    /// The output row ranges of this call's parallel tasks, cut for
    /// [`current_threads`]: non-empty, ascending, and together covering
    /// every row.
    pub fn tasks(&self) -> Vec<Range<usize>> {
        cut_tasks(&self.rptr)
    }

    /// Positions (into the original nonzero arrays) of row `i`'s nonzeros,
    /// in ascending original order.
    #[inline]
    pub fn row_entries(&self, i: usize) -> &[u32] {
        &self.perm[self.rptr[i] as usize..self.rptr[i + 1] as usize]
    }
}

/// Complement-key block schedule: blocks grouped by the block coordinates
/// of every mode except `mode`.
///
/// Each group is exactly one output block of a mode-`n` contraction (Ttv,
/// Ttm): within a group the blocks differ only in their mode-`n` block
/// index, so their nonzeros fold into the same output fibers. Groups are
/// sorted lexicographically by complement coordinates; block ids ascend
/// within a group, fixing the accumulation order.
#[derive(Debug, Clone)]
pub struct ComplementSchedule {
    /// Permuted block ids: group `g` is `blocks[gptr[g]..gptr[g+1]]`.
    blocks: Vec<u32>,
    /// Group boundaries into `blocks` (`num_groups + 1` entries).
    gptr: Vec<u32>,
}

impl ComplementSchedule {
    /// Build from the full block index arrays of a HiCOO tensor.
    pub(crate) fn build(binds: &[Vec<u32>], num_blocks: usize, mode: usize) -> Self {
        let other: Vec<usize> = (0..binds.len()).filter(|&m| m != mode).collect();
        let mut blocks: Vec<u32> = (0..num_blocks as u32).collect();
        blocks.sort_unstable_by(|&a, &b| {
            for &m in &other {
                match binds[m][a as usize].cmp(&binds[m][b as usize]) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            a.cmp(&b)
        });
        let mut gptr = vec![0u32];
        for i in 1..num_blocks {
            let (a, b) = (blocks[i - 1] as usize, blocks[i] as usize);
            if other.iter().any(|&m| binds[m][a] != binds[m][b]) {
                gptr.push(i as u32);
            }
        }
        gptr.push(num_blocks as u32);
        if num_blocks == 0 {
            gptr = vec![0];
        }
        ComplementSchedule { blocks, gptr }
    }

    /// Number of output blocks (groups).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.gptr.len() - 1
    }

    /// Block ids of group `g`, ascending.
    #[inline]
    pub fn group_blocks(&self, g: usize) -> &[u32] {
        &self.blocks[self.gptr[g] as usize..self.gptr[g + 1] as usize]
    }
}

/// No-op (schedules live on their tensors); the next `benchmark/` change deletes it and its calls.
pub fn clear_cache() {}

/// `h`'s [`ModeSchedule`] for `mode`, built on first use.
pub fn mode_schedule<S: Scalar>(h: &HicooTensor<S>, mode: usize) -> Arc<ModeSchedule> {
    let slot = &h.schedule_slots()[mode].mode;
    Arc::clone(slot.get_or_init(|| {
        Arc::new(ModeSchedule::build(
            &h.binds()[mode],
            h.bptr(),
            h.block_bits(),
        ))
    }))
}

/// `x`'s [`RowSchedule`] for `mode`, built on first use.
pub fn row_schedule<S: Scalar>(x: &CooTensor<S>, mode: usize) -> Arc<RowSchedule> {
    let slot = &x.schedule_slots()[mode];
    Arc::clone(slot.get_or_init(|| {
        Arc::new(RowSchedule::build(
            x.mode_inds(mode),
            x.shape().dim(mode) as usize,
        ))
    }))
}

/// `h`'s [`ComplementSchedule`] for `mode`, built on first use.
pub fn complement_schedule<S: Scalar>(h: &HicooTensor<S>, mode: usize) -> Arc<ComplementSchedule> {
    let slot = &h.schedule_slots()[mode].complement;
    Arc::clone(
        slot.get_or_init(|| Arc::new(ComplementSchedule::build(h.binds(), h.num_blocks(), mode))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn sample_hicoo() -> HicooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..64)
            .map(|i| {
                (
                    vec![(i * 7) % 16, (i * 3) % 16, (i * 5) % 16],
                    i as f32 + 1.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![16, 16, 16]), entries).unwrap();
        HicooTensor::from_coo(&x, 2).unwrap()
    }

    #[test]
    fn mode_schedule_covers_every_block_once() {
        let h = sample_hicoo();
        for mode in 0..3 {
            let s = ModeSchedule::build(&h.binds()[mode], h.bptr(), h.block_bits());
            let mut seen: Vec<u32> = (0..s.num_groups())
                .flat_map(|g| s.group_blocks(g).iter().copied())
                .collect();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..h.num_blocks() as u32).collect();
            assert_eq!(seen, expect, "mode {mode}");
            assert_eq!(s.nnz(), h.nnz() as u64);
        }
    }

    #[test]
    fn mode_schedule_groups_share_output_block() {
        let h = sample_hicoo();
        let s = ModeSchedule::build(&h.binds()[0], h.bptr(), h.block_bits());
        for g in 0..s.num_groups() {
            for &b in s.group_blocks(g) {
                assert_eq!(h.block_ind(b as usize, 0), s.group_out_block(g));
            }
        }
        // Groups strictly ascending.
        for g in 1..s.num_groups() {
            assert!(s.group_out_block(g) > s.group_out_block(g - 1));
        }
    }

    #[test]
    fn task_row_ranges_are_disjoint_and_ascending() {
        let h = sample_hicoo();
        let rows_n = h.shape().dim(1) as usize;
        let s = ModeSchedule::build(&h.binds()[1], h.bptr(), h.block_bits());
        let mut prev_end = 0;
        for groups in crate::par::with_threads(3, || s.tasks()) {
            let r = s.task_row_range(&groups, rows_n);
            assert!(r.start >= prev_end, "task {groups:?} overlaps");
            assert!(r.end <= rows_n);
            assert!(!r.is_empty());
            prev_end = r.end;
        }
    }

    #[test]
    fn empty_tensor_schedules_are_empty() {
        let s = ModeSchedule::build(&[], &[0], 2);
        assert_eq!(s.num_groups(), 0);
        assert!(s.tasks().is_empty());
        assert_eq!(s.nnz(), 0);
        let rs = RowSchedule::build(&[], 5);
        assert_eq!(rs.row_entries(0), &[] as &[u32]);
        let cs = ComplementSchedule::build(&[vec![], vec![]], 0, 0);
        assert_eq!(cs.num_groups(), 0);
    }

    #[test]
    fn row_schedule_partitions_nonzeros_stably() {
        let rows = vec![2u32, 0, 2, 1, 0, 2];
        let s = RowSchedule::build(&rows, 3);
        assert_eq!(s.row_entries(0), &[1, 4]);
        assert_eq!(s.row_entries(1), &[3]);
        assert_eq!(s.row_entries(2), &[0, 2, 5]);
        // Task rows cover 0..3 contiguously.
        let mut covered = 0;
        for r in crate::par::with_threads(2, || s.tasks()) {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 3);
    }

    #[test]
    fn row_boundaries_match_a_sequential_count() {
        // A multiplicative hash of `k`, spread over 0..1.
        let unit =
            |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        let cases: [(&str, usize, Vec<u32>); 3] = [
            // Power-law rows: row 0 alone holds over a quarter of the
            // nonzeros, and the first piece of boundaries most of the rest.
            (
                "skewed",
                20_000,
                (0..60_000)
                    .map(|k| (unit(k).powi(8) * 20_000.0) as u32)
                    .collect(),
            ),
            // Only every seventh row is populated.
            (
                "empty rows",
                9_000,
                (0..20_000)
                    .map(|k| (k * 7 % 9_000) as u32 / 7 * 7)
                    .collect(),
            ),
            // Far more rows than nonzeros.
            (
                "rows >> nnz",
                1_000_000,
                (0..50).map(|k| (unit(k) * 1e6) as u32).collect(),
            ),
        ];
        for (what, rows_n, rows) in cases {
            let mut want = vec![0u32; rows_n + 1];
            for &r in &rows {
                want[r as usize + 1] += 1;
            }
            for i in 0..rows_n {
                want[i + 1] += want[i];
            }
            for threads in [1, 4] {
                let s = crate::par::with_threads(threads, || RowSchedule::build(&rows, rows_n));
                assert!(s.rptr == want, "{what} at {threads} threads");
            }
        }
    }

    #[test]
    fn complement_groups_match_output_blocks() {
        let h = sample_hicoo();
        for mode in 0..3 {
            let s = ComplementSchedule::build(h.binds(), h.num_blocks(), mode);
            let other: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let mut total = 0;
            for g in 0..s.num_groups() {
                let bs = s.group_blocks(g);
                total += bs.len();
                for w in bs.windows(2) {
                    assert!(w[0] < w[1], "blocks ascend within group");
                }
                for &b in bs {
                    for &m in &other {
                        assert_eq!(
                            h.block_ind(b as usize, m),
                            h.block_ind(bs[0] as usize, m),
                            "mode {mode} group {g}"
                        );
                    }
                }
            }
            assert_eq!(total, h.num_blocks());
        }
    }

    #[test]
    fn cut_tasks_never_split_groups_and_cover_all() {
        // Running counts of groups weighing 5, 1, 1, 1, 40, 2, 2, 2, 2, 9.
        let prefix: Vec<u64> = vec![0, 5, 6, 7, 8, 48, 50, 52, 54, 56, 65];
        for threads in [1, 2, 3] {
            let tasks = crate::par::with_threads(threads, || cut_tasks(&prefix));
            assert_eq!(tasks.first().unwrap().start, 0);
            assert_eq!(tasks.last().unwrap().end, prefix.len() - 1);
            for w in tasks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(tasks.iter().all(|t| !t.is_empty()));
        }
    }
}
