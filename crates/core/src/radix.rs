//! Parallel stable LSD radix sorting over packed coordinate keys.
//!
//! Every reordering in the suite — lexicographic / mode-last COO sorts,
//! Morton block sorts for HiCOO, gHiCOO's mixed permutation sort, and the
//! counting sort behind `sched::RowSchedule` — reduces to "stably sort a
//! `u32` permutation by an integer key". This module provides that engine:
//! least-significant-digit radix passes over 8-bit digits, each pass built
//! from per-chunk histograms, one digit-major exclusive scan, and a
//! parallel stable scatter.
//!
//! Determinism: a pass scatters chunk `c`'s occurrences of digit `d` to
//! `offset[d] + (occurrences of d in chunks < c)`, preserving relative
//! order both within and across chunks. Every pass is therefore a *stable*
//! sort by its digit regardless of how many chunks (threads) participate,
//! so the final permutation is the unique stable order of the full key —
//! identical to a sequential comparator sort with an index tie-break.

use tenbench_obs as obs;

use crate::par;

/// Number of distinct 8-bit digits.
const BUCKETS: usize = 256;

/// Below this many elements a parallel pass is all overhead.
const PAR_MIN: usize = 1 << 14;

/// Smallest per-chunk share worth a dedicated histogram.
const MIN_CHUNK: usize = 1 << 12;

/// Chunk count at which the digit-major exclusive scan over the
/// `nchunks x 256` histogram matrix is merged in parallel (per-digit
/// columns) instead of one sequential sweep. Below this the matrix fits
/// in cache and a parallel region is pure overhead.
const SCAN_PAR_MIN_CHUNKS: usize = 32;

/// Number of 8-bit passes needed to cover `max_key`.
#[inline]
pub(crate) fn passes_for(max_key: u128) -> usize {
    if max_key == 0 {
        0
    } else {
        (128 - max_key.leading_zeros() as usize).div_ceil(8)
    }
}

/// Bits needed to represent every value in `0..=max_value`.
#[inline]
pub(crate) fn bits_for(max_value: u32) -> u32 {
    32 - max_value.leading_zeros()
}

/// Write-only shared pointer for the disjoint scatter phase.
struct RawOut(*mut u32);
unsafe impl Sync for RawOut {}
unsafe impl Send for RawOut {}

/// Stably sort `perm` by an abstract little-endian key, 8 bits per pass.
///
/// `digit(p, pass)` must return byte `pass` (0 = least significant) of
/// element `p`'s key and be pure: the engine may evaluate it repeatedly and
/// from any thread. `passes` bounds the key width; use [`passes_for`].
pub(crate) fn sort_perm_by_digits<D>(perm: &mut Vec<u32>, passes: usize, digit: D)
where
    D: Fn(u32, usize) -> u8 + Sync,
{
    let n = perm.len();
    if n <= 1 || passes == 0 {
        return;
    }
    let _span = obs::span!("radix.sort");
    obs::counters::SORT_KEYS.add(n as u64);
    let threads = par::current_threads().max(1);
    if threads > 1 && n >= PAR_MIN {
        // First-touch the scratch from the pool workers: the scatter is
        // bandwidth-bound, and pages committed by the allocating thread
        // would otherwise serve every worker's writes from one node.
        let mut buf: Vec<u32> = par::first_touch_filled(n, 0);
        for pass in 0..passes {
            if !parallel_pass(perm, &mut buf, pass, &digit, threads) {
                std::mem::swap(perm, &mut buf);
            }
        }
    } else {
        sequential_sort(perm, passes, &digit);
    }
}

/// Sequential LSD sort with every pass's histogram fused into one sweep.
///
/// Digit counts are permutation-invariant, so pass `k`'s histogram taken
/// on the *original* order is still valid when pass `k` runs. Computing
/// them all up front turns each pass into a scatter-only sweep: one read
/// of the key array per pass instead of two, which is the dominant cost
/// for multi-byte keys.
fn sequential_sort<D>(perm: &mut Vec<u32>, passes: usize, digit: &D)
where
    D: Fn(u32, usize) -> u8,
{
    let n = perm.len();
    let mut hists = vec![[0u32; BUCKETS]; passes];
    for &p in perm.iter() {
        for (pass, h) in hists.iter_mut().enumerate() {
            h[digit(p, pass) as usize] += 1;
        }
    }
    let mut buf: Vec<u32> = vec![0u32; n];
    for (pass, hist) in hists.iter().enumerate() {
        // A pass where one digit owns every element is a stable no-op.
        if hist.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offs = [0u32; BUCKETS];
        let mut running = 0u32;
        for (o, &c) in offs.iter_mut().zip(hist.iter()) {
            *o = running;
            running += c;
        }
        for &p in perm.iter() {
            let d = digit(p, pass) as usize;
            buf[offs[d] as usize] = p;
            offs[d] += 1;
        }
        std::mem::swap(perm, &mut buf);
    }
}

/// One parallel stable counting pass: per-chunk histograms, a digit-major
/// exclusive scan, then a disjoint scatter. Returns `true` if skipped.
fn parallel_pass<D>(perm: &[u32], buf: &mut [u32], pass: usize, digit: &D, threads: usize) -> bool
where
    D: Fn(u32, usize) -> u8 + Sync,
{
    let n = perm.len();
    let nchunks = threads.min(n / MIN_CHUNK).max(1);
    let bounds: Vec<usize> = (0..=nchunks).map(|c| c * n / nchunks).collect();

    // Per-chunk digit histograms.
    let mut hists: Vec<[u32; BUCKETS]> = par::map_collect(nchunks, 1, |c| {
        let mut h = [0u32; BUCKETS];
        for &p in &perm[bounds[c]..bounds[c + 1]] {
            h[digit(p, pass) as usize] += 1;
        }
        h
    });

    // Skip the pass outright when a single digit owns every element.
    let mut totals = [0u32; BUCKETS];
    for h in &hists {
        for d in 0..BUCKETS {
            totals[d] += h[d];
        }
    }
    if totals.iter().any(|&t| t as usize == n) {
        return true;
    }

    // Digit-major exclusive scan turns each chunk's histogram into its
    // private start offsets; chunk c's digit-d run lands directly after
    // every earlier chunk's digit-d run, which is what makes the scatter
    // stable for any chunk count.
    if nchunks >= SCAN_PAR_MIN_CHUNKS {
        // Wide pools: the nchunks x 256 merge matrix is big enough that a
        // single sequential scan serializes the pass. Each digit's column
        // is independent once its base offset is known, so compute digit
        // bases from the totals, then scan the columns in parallel.
        let mut bases = [0u32; BUCKETS];
        let mut running = 0u32;
        for (b, &t) in bases.iter_mut().zip(totals.iter()) {
            *b = running;
            running += t;
        }
        let cells = RawOut(hists.as_mut_ptr() as *mut u32);
        let cells_ref = &cells;
        par::for_each(BUCKETS, 16, |d| {
            let mut running = bases[d];
            for c in 0..nchunks {
                // SAFETY: digit d's column touches exactly the cells
                // `c * BUCKETS + d`, disjoint across digits, and `hists`
                // is borrowed mutably for the whole region.
                unsafe {
                    let cell = cells_ref.0.add(c * BUCKETS + d);
                    let count = *cell;
                    *cell = running;
                    running += count;
                }
            }
        });
    } else {
        let mut running = 0u32;
        for d in 0..BUCKETS {
            for h in hists.iter_mut() {
                let count = h[d];
                h[d] = running;
                running += count;
            }
        }
    }

    let out = RawOut(buf.as_mut_ptr());
    let out_ref = &out;
    let hists_ref = &hists;
    let bounds_ref = &bounds;
    par::for_each(nchunks, 1, |c| {
        let mut offs = hists_ref[c];
        for &p in &perm[bounds_ref[c]..bounds_ref[c + 1]] {
            let d = digit(p, pass) as usize;
            // SAFETY: the scan above assigns every (chunk, digit) run a
            // slice of `buf` disjoint from all others, and `buf` has
            // length n >= the sum of all runs.
            unsafe { out_ref.0.add(offs[d] as usize).write(p) };
            offs[d] += 1;
        }
    });
    false
}

/// Stably sort `perm` by precomputed packed keys (`keys[p]`), processing
/// only the bytes up to the highest set byte of `max_key`.
pub(crate) fn sort_perm_by_u128_keys(perm: &mut Vec<u32>, keys: &[u128], max_key: u128) {
    let passes = passes_for(max_key);
    sort_perm_by_digits(perm, passes, |p, pass| {
        (keys[p as usize] >> (8 * pass)) as u8
    });
}

/// Stably sort `perm` by a `u32` key, processing only the bytes up to the
/// highest set byte of `max_value`.
pub(crate) fn sort_perm_by_u32_key<K>(perm: &mut Vec<u32>, key: K, max_value: u32)
where
    K: Fn(u32) -> u32 + Sync,
{
    let passes = passes_for(max_value as u128);
    sort_perm_by_digits(perm, passes, |p, pass| (key(p) >> (8 * pass)) as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn reference_perm(keys: &[u128]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        perm.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
        perm
    }

    #[test]
    fn matches_stable_comparator_sort() {
        let mut rng = splitmix(7);
        for &n in &[0usize, 1, 2, 100, 5_000, 40_000] {
            let keys: Vec<u128> = (0..n).map(|_| (rng() % 10_000) as u128).collect();
            let max = keys.iter().copied().max().unwrap_or(0);
            let mut perm: Vec<u32> = (0..n as u32).collect();
            sort_perm_by_u128_keys(&mut perm, &keys, max);
            assert_eq!(perm, reference_perm(&keys), "n = {n}");
        }
    }

    #[test]
    fn identical_result_for_any_thread_count() {
        let mut rng = splitmix(42);
        let keys: Vec<u128> = (0..60_000)
            .map(|_| (rng() as u128) << 64 | rng() as u128)
            .collect();
        let max = keys.iter().copied().max().unwrap();
        let expect = reference_perm(&keys);
        for threads in [1usize, 2, 3, 4, 8] {
            let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
            with_threads(threads, || sort_perm_by_u128_keys(&mut perm, &keys, max));
            assert_eq!(perm, expect, "threads = {threads}");
        }
    }

    #[test]
    fn wide_pools_use_the_parallel_scan_merge() {
        // Enough elements for >= SCAN_PAR_MIN_CHUNKS per-chunk histograms
        // at 48 threads, so the digit-major merge takes the parallel
        // per-column path and must still produce the stable order.
        let mut rng = splitmix(11);
        let n = 48 * super::MIN_CHUNK;
        let keys: Vec<u128> = (0..n).map(|_| (rng() as u32) as u128).collect();
        let max = keys.iter().copied().max().unwrap();
        let expect = reference_perm(&keys);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        with_threads(48, || sort_perm_by_u128_keys(&mut perm, &keys, max));
        assert_eq!(perm, expect);
    }

    #[test]
    fn u32_key_sort_is_stable() {
        // Many duplicates: stability means ties stay in index order.
        let keys: Vec<u32> = (0..50_000u32).map(|i| i % 17).collect();
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        with_threads(4, || {
            sort_perm_by_u32_key(&mut perm, |p| keys[p as usize], 16)
        });
        for w in perm.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ka, kb) = (keys[a as usize], keys[b as usize]);
            assert!(ka < kb || (ka == kb && a < b));
        }
    }

    #[test]
    fn skips_constant_digit_passes() {
        // All keys equal: every pass is skippable and the permutation must
        // come back untouched (stable sort of a constant key).
        let keys = vec![0xABu128; 30_000];
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        let expect = perm.clone();
        with_threads(4, || sort_perm_by_u128_keys(&mut perm, &keys, 0xAB));
        assert_eq!(perm, expect);
    }

    #[test]
    fn zero_max_key_is_a_no_op() {
        let mut perm: Vec<u32> = vec![3, 1, 2];
        sort_perm_by_u128_keys(&mut perm, &[0, 0, 0, 0], 0);
        assert_eq!(perm, vec![3, 1, 2]);
    }

    #[test]
    fn helpers_compute_widths() {
        assert_eq!(passes_for(0), 0);
        assert_eq!(passes_for(1), 1);
        assert_eq!(passes_for(255), 1);
        assert_eq!(passes_for(256), 2);
        assert_eq!(passes_for(u128::MAX), 16);
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(u32::MAX), 32);
    }
}
