//! The suite's parallel runtime — its stand-in for the paper's OpenMP
//! `parallel for` (§5.1.2: static or dynamic chunking, a thread count).
//!
//! One persistent pool (`pool`: parked workers, a shared chunk counter per
//! region, the submitting caller always participating) and five loop
//! functions on top of it, one per loop shape the suite has:
//! [`for_each`] and [`map_collect`] over an index range, [`map_chunks`] for
//! ordered per-chunk results, [`chunks_mut`] for disjoint output rows under
//! a [`Schedule`], and the comparator [`sort_unstable_by`]. Each passes its
//! `(len, grain)` straight to the pool, so the way a loop is cut into chunks
//! is decided in exactly one place.

use std::ops::Range;
use std::sync::Mutex;

mod pool;
mod sort;

pub use pool::{current_threads, pool_snapshot, with_threads};
pub use sort::sort_unstable_by;

/// Loop scheduling strategy, mirroring OpenMP's `schedule(static)` /
/// `schedule(dynamic, grain)` clauses that the paper tunes per kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous range per worker thread.
    Static,
    /// Chunks of at least `grain` iterations, claimed off a shared counter.
    Dynamic {
        /// Minimum chunk size handed to a worker.
        grain: usize,
    },
}

impl Schedule {
    /// Dynamic chunking with no minimum of the loop's own: rows that are
    /// already coarse (value chunks, stripes, tasks) take the pool's cut.
    pub const DYNAMIC: Schedule = Schedule::Dynamic { grain: 1 };
}

impl Default for Schedule {
    fn default() -> Self {
        // Dynamic claiming absorbs the skew of power-law fiber lengths; a
        // modest grain keeps the per-chunk claim cheap for short fibers.
        Schedule::Dynamic { grain: 64 }
    }
}

/// A raw pointer the loop functions share with their workers. Each use
/// argues why the elements written through it are disjoint.
struct SharedPtr<T>(*mut T);

// SAFETY: only used to hand disjoint elements of a `T: Send` buffer to the
// participants of one region, which the caller outlives.
unsafe impl<T: Send> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `f(i)` for every `i` in `0..n`, in chunks of at least `grain`
/// indices.
pub fn for_each(n: usize, grain: usize, f: impl Fn(usize) + Sync) {
    pool::run_region(n, grain, &|r: Range<usize>| r.for_each(&f));
}

/// `(0..n).map(f).collect()`, in chunks of at least `grain` indices; the
/// result is in index order whatever the width. With `n = current_threads()`
/// and `grain = 1` this is the once-per-logical-worker loop.
pub fn map_collect<T: Send>(n: usize, grain: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    let slots = SharedPtr(out.as_mut_ptr());
    pool::run_region(n, grain, &|r: Range<usize>| {
        for i in r {
            // SAFETY: the region yields each index exactly once, and slot
            // `i` lies inside the capacity reserved above.
            unsafe { slots.get().add(i).write(f(i)) };
        }
    });
    // SAFETY: every slot in 0..n was initialized by the region, which has
    // joined.
    unsafe { out.set_len(n) };
    out
}

/// Run `f` once per chunk of `0..n` (chunks of at least `grain` indices)
/// and return the results in chunk order.
pub fn map_chunks<T: Send>(n: usize, grain: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    let parts: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    pool::run_region(n, grain, &|r: Range<usize>| {
        let start = r.start;
        let v = f(r);
        // Held across the push only, so it is never poisoned.
        parts.lock().expect("unpoisoned").push((start, v));
    });
    let mut parts = parts.into_inner().expect("unpoisoned");
    parts.sort_unstable_by_key(|&(start, _)| start);
    parts.into_iter().map(|(_, v)| v).collect()
}

/// Cut `slice` into rows of `width` elements (the last may be short) and
/// run `f(row, &mut slice[row * width..][..width])` for every row under the
/// given schedule. This is the shape of every fiber-, stripe- and
/// nonzero-parallel loop in the suite: disjoint output rows, shared
/// read-only inputs indexed by the row number.
pub fn chunks_mut<T: Send>(
    slice: &mut [T],
    width: usize,
    sched: Schedule,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(width > 0, "row width must be positive");
    let len = slice.len();
    let rows = len.div_ceil(width);
    let base = SharedPtr(slice.as_mut_ptr());
    let row = |i: usize| {
        let lo = i * width;
        // SAFETY: rows are disjoint in-bounds pieces of `slice`, which is
        // exclusively borrowed for the call, and the region yields each row
        // index exactly once.
        f(i, unsafe {
            std::slice::from_raw_parts_mut(base.get().add(lo), width.min(len - lo))
        })
    };
    match sched {
        Schedule::Dynamic { grain } => {
            pool::run_region(rows, grain, &|r: Range<usize>| r.for_each(&row))
        }
        Schedule::Static => {
            let per = rows.div_ceil(current_threads().max(1)).max(1);
            pool::run_region(rows.div_ceil(per), 1, &|r: Range<usize>| {
                for piece in r {
                    (piece * per..((piece + 1) * per).min(rows)).for_each(&row);
                }
            });
        }
    }
}

/// Elements per first-touch chunk: large enough to span whole pages so the
/// page-fault cost (the real work of a fresh allocation) is what gets
/// distributed, small enough to load-balance across workers.
const FIRST_TOUCH_GRAIN: usize = 1 << 15;

/// Allocate a `Vec` of `n` copies of `value`, writing (first-touching) the
/// backing pages from parallel workers instead of the allocating thread.
///
/// `vec![v; n]` commits every page from the calling thread: on a NUMA
/// machine the whole buffer lands on that thread's node, and the serial
/// fill is an Amdahl term in front of every parallel kernel that writes a
/// large output (zeroing a 64 MB MTTKRP output serially costs more than
/// the scheduled kernel itself at 8 threads). Touching pages from the
/// workers that will write them spreads both the fault cost and the page
/// placement.
pub fn first_touch_filled<T: Copy + Send + Sync>(n: usize, value: T) -> Vec<T> {
    let mut v: Vec<T> = Vec::with_capacity(n);
    let spare = &mut v.spare_capacity_mut()[..n];
    chunks_mut(spare, FIRST_TOUCH_GRAIN, Schedule::DYNAMIC, |_, chunk| {
        for slot in chunk {
            slot.write(value);
        }
    });
    // SAFETY: every slot in 0..n was initialized by exactly one chunk.
    unsafe { v.set_len(n) };
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule_covers_every_index() {
        let mut v = vec![0usize; 1000];
        chunks_mut(&mut v, 1, Schedule::Static, |i, x| x[0] = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn dynamic_schedule_covers_every_index() {
        let mut v = vec![0usize; 1000];
        chunks_mut(&mut v, 1, Schedule::Dynamic { grain: 16 }, |i, x| {
            x[0] = i + 1
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn zero_grain_is_clamped() {
        let mut v = vec![0u8; 10];
        chunks_mut(&mut v, 1, Schedule::Dynamic { grain: 0 }, |_, x| x[0] = 1);
        assert_eq!(v, vec![1; 10]);
    }

    #[test]
    fn with_threads_controls_pool_size() {
        let n = with_threads(3, current_threads);
        assert_eq!(n, 3);
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut v: Vec<u32> = vec![];
        chunks_mut(&mut v, 1, Schedule::Static, |_, _| unreachable!());
        chunks_mut(&mut v, 4, Schedule::default(), |_, _| unreachable!());
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = map_collect(10_000, 1, |i| i * 2);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn filter_collect_preserves_order() {
        let v: Vec<usize> =
            map_chunks(10_000, 1, |r| r.filter(|&i| i % 3 == 0).collect::<Vec<_>>()).concat();
        let expect: Vec<usize> = (0..10_000).filter(|&i| i % 3 == 0).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn mut_iteration_covers_every_slot() {
        let mut v = vec![0u32; 5_000];
        chunks_mut(&mut v, 1, Schedule::Dynamic { grain: 64 }, |i, x| {
            x[0] = i as u32 + 1
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    }

    #[test]
    fn chunked_zip_matches_sequential_triad() {
        let n = 4096 + 17; // a short last row
        let b: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let c: Vec<f32> = (0..n).map(|i| (i * 3) as f32).collect();
        let mut a = vec![0.0f32; n];
        chunks_mut(&mut a, 128, Schedule::DYNAMIC, |row, ac| {
            let lo = row * 128;
            let (bc, cc) = (&b[lo..lo + ac.len()], &c[lo..lo + ac.len()]);
            for i in 0..ac.len() {
                ac[i] = bc[i] * 2.0 + cc[i];
            }
        });
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, &x)| x == (i as f32) * 2.0 + (i * 3) as f32));
    }

    #[test]
    fn for_each_visits_every_index_once() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let seen: Vec<AtomicU8> = (0..3_000).map(|_| AtomicU8::new(0)).collect();
        with_threads(3, || {
            for_each(seen.len(), 7, |i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn first_touch_filled_matches_plain_fill() {
        let v = first_touch_filled(100_000, 7u32);
        assert_eq!(v.len(), 100_000);
        assert!(v.iter().all(|&x| x == 7));
        let w = with_threads(4, || first_touch_filled(70_001, 1.5f64));
        assert!(w.iter().all(|&x| x == 1.5));
        let empty: Vec<f32> = first_touch_filled(0, 0.0);
        assert!(empty.is_empty());
    }
}
