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
//!   in the same group; groups are packed into nnz-balanced tasks. Used by
//!   scheduled HiCOO-Mttkrp.
//! * [`RowSchedule`] — COO nonzeros permuted (stable counting sort) so each
//!   output row's nonzeros are contiguous; rows are packed into
//!   nnz-balanced tasks. Used by [`crate::kernels::mttkrp::MttkrpStrategy::Scheduled`].
//! * [`ComplementSchedule`] — HiCOO blocks grouped by the block coordinates
//!   of every mode *except* `n`. Each group is exactly one output block of
//!   a mode-`n` contraction, so scheduled Ttv/Ttm assemble their sparse
//!   outputs group-by-group with no re-blocking conversion and no races.
//!
//! Schedules depend only on the sparsity structure, not the values, so they
//! are built once and reused across kernel invocations — a global cache
//! keyed by `(tensor identity, mode, threads)` makes reuse automatic (see
//! [`mode_schedule`] / [`complement_schedule`] / [`row_schedule`]).
//! Construction is `O(nnz + n_b log n_b)` and the schedule stores ~8 bytes
//! per block (plus 4 bytes per nonzero for [`RowSchedule`]).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::coo::CooTensor;
use crate::hicoo::HicooTensor;
use crate::par::current_threads;
use crate::scalar::Scalar;

/// How many tasks to aim for per worker thread; more tasks means better
/// dynamic load balance at slightly higher scheduling overhead.
const TASKS_PER_THREAD: usize = 8;

/// Pack nnz-balanced task boundaries over `groups` weighted by `weight`.
/// Returns `tptr` with `tptr[t]..tptr[t+1]` the group range of task `t`;
/// tasks never split a group (that would reintroduce write conflicts).
fn balance_tasks(weights: &[u64], threads: usize) -> Vec<u32> {
    balance_tasks_by(weights.len(), |g| weights[g], threads)
}

/// [`balance_tasks`] over a weight function, so callers whose weights are
/// already derivable from an existing structure (e.g. adjacent `rptr`
/// differences) don't materialize an 8-bytes-per-group scratch array.
fn balance_tasks_by(ngroups: usize, weight: impl Fn(usize) -> u64, threads: usize) -> Vec<u32> {
    if ngroups == 0 {
        return vec![0];
    }
    let total: u64 = (0..ngroups).map(&weight).sum();
    let ntasks = (threads.max(1) * TASKS_PER_THREAD).min(ngroups).max(1);
    let target = total.div_ceil(ntasks as u64).max(1);
    let mut tptr = Vec::with_capacity(ntasks + 1);
    tptr.push(0u32);
    let mut acc = 0u64;
    for g in 0..ngroups {
        acc += weight(g);
        if acc >= target && g + 1 < ngroups {
            tptr.push((g + 1) as u32);
            acc = 0;
        }
    }
    tptr.push(ngroups as u32);
    tptr
}

/// Output-partitioned block schedule for one mode of a HiCOO tensor.
///
/// Blocks are grouped by `block_ind(b, mode)`; groups are sorted by that
/// output block index (ascending) and packed into contiguous, nnz-balanced
/// tasks. Distinct tasks therefore own disjoint, ascending output row
/// ranges — the property scheduled kernels exploit to hand each task a
/// plain `&mut` sub-slice of the output.
#[derive(Debug, Clone)]
pub struct ModeSchedule {
    mode: usize,
    threads: usize,
    block_bits: u8,
    /// Permuted block ids: group `g` is `blocks[gptr[g]..gptr[g+1]]`, block
    /// ids ascending within a group (deterministic accumulation order).
    blocks: Vec<u32>,
    /// Group boundaries into `blocks` (`num_groups + 1` entries).
    gptr: Vec<u32>,
    /// Mode-`n` block index per group, strictly ascending.
    out_block: Vec<u32>,
    /// Task boundaries into groups (`num_tasks + 1` entries).
    tptr: Vec<u32>,
    nnz: u64,
}

impl ModeSchedule {
    /// Build a schedule from the mode-`n` block index array and the block
    /// pointer of a HiCOO tensor.
    pub fn build(
        binds_mode: &[u32],
        bptr: &[u64],
        block_bits: u8,
        mode: usize,
        threads: usize,
    ) -> Self {
        let nb = binds_mode.len();
        // Sort (output block, block id) pairs packed into u64: the id in the
        // low bits keeps blocks ascending within each group.
        let mut keyed: Vec<u64> = (0..nb)
            .map(|b| ((binds_mode[b] as u64) << 32) | b as u64)
            .collect();
        keyed.sort_unstable();

        let mut blocks = Vec::with_capacity(nb);
        let mut gptr = vec![0u32];
        let mut out_block = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut prev_key = u64::MAX;
        for &k in &keyed {
            let key = k >> 32;
            let b = (k & 0xFFFF_FFFF) as usize;
            if key != prev_key {
                if !blocks.is_empty() {
                    gptr.push(blocks.len() as u32);
                }
                out_block.push(key as u32);
                weights.push(0);
                prev_key = key;
            }
            blocks.push(b as u32);
            *weights.last_mut().unwrap() += bptr[b + 1] - bptr[b];
        }
        gptr.push(blocks.len() as u32);
        if blocks.is_empty() {
            gptr = vec![0];
        }

        let tptr = balance_tasks(&weights, threads);
        ModeSchedule {
            mode,
            threads,
            block_bits,
            blocks,
            gptr,
            out_block,
            tptr,
            nnz: weights.iter().sum(),
        }
    }

    /// The mode this schedule partitions output rows of.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// The thread count the task partition was balanced for.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of distinct output row blocks (groups).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.out_block.len()
    }

    /// Number of parallel tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tptr.len() - 1
    }

    /// Total nonzeros covered by the schedule.
    #[inline]
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Group range owned by task `t`.
    #[inline]
    pub fn task_groups(&self, t: usize) -> Range<usize> {
        self.tptr[t] as usize..self.tptr[t + 1] as usize
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

    /// Output row range written by task `t`, clamped to `rows_n`. Ranges of
    /// successive tasks are disjoint and ascending (gaps stay zero).
    pub fn task_row_range(&self, t: usize, rows_n: usize) -> Range<usize> {
        let groups = self.task_groups(t);
        if groups.is_empty() {
            return 0..0;
        }
        let lo = self.group_row_base(groups.start);
        let hi = ((self.out_block[groups.end - 1] as usize + 1) << self.block_bits).min(rows_n);
        lo.min(rows_n)..hi
    }

    /// Approximate resident size in bytes (for DESIGN.md accounting).
    pub fn storage_bytes(&self) -> usize {
        4 * (self.blocks.len() + self.gptr.len() + self.out_block.len() + self.tptr.len())
    }
}

/// Output-partitioned nonzero schedule for one mode of a COO tensor.
///
/// A stable counting sort by output row yields a permutation in which each
/// row's nonzeros are contiguous (ascending original position within a
/// row); rows are packed into contiguous, nnz-balanced tasks.
#[derive(Debug, Clone)]
pub struct RowSchedule {
    mode: usize,
    threads: usize,
    /// Permuted nonzero positions: row `i` owns `perm[rptr[i]..rptr[i+1]]`.
    perm: Vec<u32>,
    /// Row boundaries into `perm` (`rows_n + 1` entries).
    rptr: Vec<u32>,
    /// Task boundaries over rows (`num_tasks + 1` entries).
    tptr: Vec<u32>,
}

impl RowSchedule {
    /// Build from the mode-`n` index array of a COO tensor.
    pub fn build(rows: &[u32], rows_n: usize, mode: usize, threads: usize) -> Self {
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
        // first sorted position whose row is `>= i`. Each boundary range
        // is owned by exactly one sorted position, so the fill runs in
        // parallel with disjoint writes — replacing the serial
        // per-nonzero counting pass plus prefix scan that used to front
        // every schedule build.
        let mut rptr = vec![0u32; rows_n + 1];
        if m > 0 {
            struct RawPtr(*mut u32);
            unsafe impl Sync for RawPtr {}
            let out = RawPtr(rptr.as_mut_ptr());
            let out_ref = &out;
            let perm_ref = &perm;
            crate::par::for_each(m, 4096, |j| {
                let r = rows[perm_ref[j] as usize] as usize;
                let lo = if j == 0 {
                    0
                } else {
                    let prev = rows[perm_ref[j - 1] as usize] as usize;
                    if prev == r {
                        return;
                    }
                    prev + 1
                };
                for i in lo..=r {
                    // SAFETY: sorted rows ascend, so `(prev_row, row]`
                    // ranges are disjoint across positions and in-bounds
                    // (`row < rows_n`).
                    unsafe { out_ref.0.add(i).write(j as u32) };
                }
            });
            let last = rows[perm[m - 1] as usize] as usize;
            rptr[last + 1..].fill(m as u32);
        }
        // Balance tasks over rows weighted by their nonzero counts, read
        // straight out of rptr.
        let tptr = balance_tasks_by(rows_n, |i| (rptr[i + 1] - rptr[i]) as u64, threads);
        RowSchedule {
            mode,
            threads,
            perm,
            rptr,
            tptr,
        }
    }

    /// The mode this schedule partitions output rows of.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// The thread count the task partition was balanced for.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of parallel tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tptr.len() - 1
    }

    /// Output row range owned by task `t`.
    #[inline]
    pub fn task_rows(&self, t: usize) -> Range<usize> {
        self.tptr[t] as usize..self.tptr[t + 1] as usize
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
    mode: usize,
    /// Permuted block ids: group `g` is `blocks[gptr[g]..gptr[g+1]]`.
    blocks: Vec<u32>,
    /// Group boundaries into `blocks` (`num_groups + 1` entries).
    gptr: Vec<u32>,
}

impl ComplementSchedule {
    /// Build from the full block index arrays of a HiCOO tensor.
    pub fn build(binds: &[Vec<u32>], num_blocks: usize, mode: usize) -> Self {
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
        ComplementSchedule { mode, blocks, gptr }
    }

    /// The contracted mode.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
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

// ---------------------------------------------------------------------------
// Schedule cache
// ---------------------------------------------------------------------------

/// Identity of one tensor's index structure, as the schedule cache sees it.
///
/// Ids come from a process-wide counter and are never reused: a tensor gets
/// a fresh one when it is constructed, when it is cloned, and whenever its
/// index arrays are reordered or relabelled, so a cached schedule can only
/// ever be found by the structure it was built from. Value edits keep the
/// id — schedules do not depend on values.
#[derive(Debug)]
pub struct StructureId(u64);

impl StructureId {
    /// A never-before-seen id.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        StructureId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for StructureId {
    fn clone(&self) -> Self {
        StructureId::fresh()
    }
}

/// Ids take no part in tensor equality: two tensors with equal contents
/// compare equal whatever their identities.
impl PartialEq for StructureId {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Identity of a cached schedule.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
struct CacheKey {
    tensor: u64,
    mode: usize,
    threads: usize,
    kind: u8,
}

const KIND_MODE: u8 = 0;
const KIND_ROW: u8 = 1;
const KIND_COMPLEMENT: u8 = 2;

/// Bounded FIFO cache: schedules are small, but tensors come and go.
const CACHE_CAPACITY: usize = 24;

enum CachedSchedule {
    Mode(Arc<ModeSchedule>),
    Row(Arc<RowSchedule>),
    Complement(Arc<ComplementSchedule>),
}

static CACHE: OnceLock<Mutex<Vec<(CacheKey, CachedSchedule)>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<Vec<(CacheKey, CachedSchedule)>> {
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

fn cache_get(key: &CacheKey) -> Option<CachedSchedule> {
    let guard = cache().lock().unwrap();
    let found = guard.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
        CachedSchedule::Mode(s) => CachedSchedule::Mode(Arc::clone(s)),
        CachedSchedule::Row(s) => CachedSchedule::Row(Arc::clone(s)),
        CachedSchedule::Complement(s) => CachedSchedule::Complement(Arc::clone(s)),
    });
    if found.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    found
}

fn cache_put(key: CacheKey, value: CachedSchedule) {
    let mut guard = cache().lock().unwrap();
    if guard.iter().any(|(k, _)| *k == key) {
        return;
    }
    if guard.len() >= CACHE_CAPACITY {
        guard.remove(0);
    }
    guard.push((key, value));
}

/// `(hits, misses)` counters of the schedule cache since process start.
pub fn cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Drop every cached schedule (used by tests and long-lived services that
/// cycle through many tensors).
pub fn clear_cache() {
    cache().lock().unwrap().clear();
}

/// Cached [`ModeSchedule`] for `(h, mode, current_threads())`.
pub fn mode_schedule<S: Scalar>(h: &HicooTensor<S>, mode: usize) -> Arc<ModeSchedule> {
    let threads = current_threads().max(1);
    let key = CacheKey {
        tensor: h.structure_id().0,
        mode,
        threads,
        kind: KIND_MODE,
    };
    if let Some(CachedSchedule::Mode(s)) = cache_get(&key) {
        return s;
    }
    let s = Arc::new(ModeSchedule::build(
        &h.binds()[mode],
        h.bptr(),
        h.block_bits(),
        mode,
        threads,
    ));
    cache_put(key, CachedSchedule::Mode(Arc::clone(&s)));
    s
}

/// Cached [`RowSchedule`] for `(x, mode, current_threads())`.
pub fn row_schedule<S: Scalar>(x: &CooTensor<S>, mode: usize) -> Arc<RowSchedule> {
    let threads = current_threads().max(1);
    let key = CacheKey {
        tensor: x.structure_id().0,
        mode,
        threads,
        kind: KIND_ROW,
    };
    if let Some(CachedSchedule::Row(s)) = cache_get(&key) {
        return s;
    }
    let s = Arc::new(RowSchedule::build(
        x.mode_inds(mode),
        x.shape().dim(mode) as usize,
        mode,
        threads,
    ));
    cache_put(key, CachedSchedule::Row(Arc::clone(&s)));
    s
}

/// Cached [`ComplementSchedule`] for `(h, mode)` (thread-independent).
pub fn complement_schedule<S: Scalar>(h: &HicooTensor<S>, mode: usize) -> Arc<ComplementSchedule> {
    let key = CacheKey {
        tensor: h.structure_id().0,
        mode,
        threads: 0,
        kind: KIND_COMPLEMENT,
    };
    if let Some(CachedSchedule::Complement(s)) = cache_get(&key) {
        return s;
    }
    let s = Arc::new(ComplementSchedule::build(h.binds(), h.num_blocks(), mode));
    cache_put(key, CachedSchedule::Complement(Arc::clone(&s)));
    s
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
            let s = ModeSchedule::build(&h.binds()[mode], h.bptr(), h.block_bits(), mode, 4);
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
        let s = ModeSchedule::build(&h.binds()[0], h.bptr(), h.block_bits(), 0, 4);
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
        let s = ModeSchedule::build(&h.binds()[1], h.bptr(), h.block_bits(), 1, 3);
        let mut prev_end = 0;
        for t in 0..s.num_tasks() {
            let r = s.task_row_range(t, rows_n);
            assert!(r.start >= prev_end, "task {t} overlaps");
            assert!(r.end <= rows_n);
            assert!(!r.is_empty());
            prev_end = r.end;
        }
    }

    #[test]
    fn empty_tensor_schedules_are_empty() {
        let s = ModeSchedule::build(&[], &[0], 2, 0, 4);
        assert_eq!(s.num_groups(), 0);
        assert_eq!(s.num_tasks(), 0);
        assert_eq!(s.nnz(), 0);
        let rs = RowSchedule::build(&[], 5, 0, 4);
        assert_eq!(rs.row_entries(0), &[] as &[u32]);
        let cs = ComplementSchedule::build(&[vec![], vec![]], 0, 0);
        assert_eq!(cs.num_groups(), 0);
    }

    #[test]
    fn row_schedule_partitions_nonzeros_stably() {
        let rows = vec![2u32, 0, 2, 1, 0, 2];
        let s = RowSchedule::build(&rows, 3, 0, 2);
        assert_eq!(s.row_entries(0), &[1, 4]);
        assert_eq!(s.row_entries(1), &[3]);
        assert_eq!(s.row_entries(2), &[0, 2, 5]);
        // Task rows cover 0..3 contiguously.
        let mut covered = 0;
        for t in 0..s.num_tasks() {
            let r = s.task_rows(t);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 3);
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
    fn cache_reuses_schedules_per_tensor_mode_threads() {
        clear_cache();
        let h = sample_hicoo();
        let (h0, m0) = cache_stats();
        let a = mode_schedule(&h, 0);
        let b = mode_schedule(&h, 0);
        assert!(Arc::ptr_eq(&a, &b));
        let (h1, m1) = cache_stats();
        assert_eq!(h1 - h0, 1);
        assert_eq!(m1 - m0, 1);
        // A different mode misses.
        let _ = mode_schedule(&h, 1);
        let (_, m2) = cache_stats();
        assert_eq!(m2 - m1, 1);
        clear_cache();
    }

    #[test]
    fn balanced_tasks_never_split_groups_and_cover_all() {
        let weights: Vec<u64> = vec![5, 1, 1, 1, 40, 2, 2, 2, 2, 9];
        let tptr = balance_tasks(&weights, 3);
        assert_eq!(*tptr.first().unwrap(), 0);
        assert_eq!(*tptr.last().unwrap() as usize, weights.len());
        for w in tptr.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
