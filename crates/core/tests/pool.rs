//! Tests of the pool behind `core::par` that read process-wide state: the
//! telemetry switch and counters, the number of workers ever spawned, which
//! OS threads serve a region. They get their own process and run one at a
//! time; inside `tenbench-core`'s unit-test binary hundreds of kernel tests
//! submit regions (and spawn workers) concurrently.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use tenbench_core::par::{self, Schedule};

/// Serializes the tests of this binary.
static POOL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `par::pool`'s chunks-per-worker target; `chunk_geometry_is_pinned` is
/// the test that notices when it changes.
const CHUNKS_PER_WORKER: usize = 8;

/// Worker threads the pool has spawned so far (the snapshot's last lane is
/// the callers').
fn spawned_workers() -> usize {
    par::pool_snapshot().workers.len() - 1
}

#[test]
fn worker_threads_are_reused_across_regions() {
    let _g = lock();
    let region_ids = || -> HashSet<thread::ThreadId> {
        par::with_threads(2, || {
            // The barrier forces both chunks onto distinct threads, so
            // every region genuinely involves one pool worker.
            let barrier = Barrier::new(2);
            let ids = Mutex::new(HashSet::new());
            par::for_each(2, 1, |_| {
                ids.lock().unwrap().insert(thread::current().id());
                barrier.wait();
            });
            ids.into_inner().unwrap()
        })
    };
    let main_id = thread::current().id();
    // Prime the pool so the worker serving the first region is already
    // spawned, then count OS threads across the remaining regions.
    let _ = region_ids();
    thread::sleep(Duration::from_millis(2));
    let spawned_before = spawned_workers();
    for _ in 0..10 {
        let ids = region_ids();
        assert_eq!(ids.len(), 2, "two distinct threads participate");
        assert!(ids.contains(&main_id), "caller participates");
        // Give the helper a moment to park again so the next region
        // finds it idle instead of spawning a replacement.
        thread::sleep(Duration::from_millis(2));
    }
    // A spawn-per-region implementation would burn a fresh OS thread
    // for every one of the 10 regions; the persistent pool parks and
    // re-seats workers instead (which parked worker serves a given
    // region is unspecified). Allow a little slack for a region that
    // raced a still-unparking helper.
    let grown = spawned_workers() - spawned_before;
    assert!(
        grown <= 2,
        "pool reused parked workers across regions, spawned {grown} new"
    );
}

#[test]
fn panics_propagate_and_pool_stays_usable() {
    let _g = lock();
    let r = catch_unwind(|| {
        par::with_threads(4, || {
            par::for_each(10_000, 16, |i| {
                if i == 7_777 {
                    panic!("injected fault");
                }
            });
        })
    });
    assert!(r.is_err(), "panic crosses the parallel region boundary");
    let v: Vec<usize> = par::with_threads(4, || par::map_collect(1_000, 1, |i| i + 1));
    assert_eq!(v[999], 1_000, "pool still functional after a panic");
}

#[test]
fn with_threads_restores_width_after_panic() {
    let _g = lock();
    let own = par::current_threads();
    let wide = own + 3;
    let r = catch_unwind(|| par::with_threads(wide, || panic!("injected fault")));
    assert!(r.is_err());
    assert_eq!(
        par::current_threads(),
        own,
        "a caught panic must not leave the override installed"
    );

    // The same for a helper: one that ran a panicking chunk under a
    // non-default width serves the next region at that region's width. The
    // barrier puts the two chunks on two threads; the helper's one panics.
    let barrier = Barrier::new(2);
    let panicked = Mutex::new(None);
    let caller = thread::current().id();
    let r = catch_unwind(AssertUnwindSafe(|| {
        par::with_threads(wide, || {
            par::for_each(2, 1, |_| {
                barrier.wait();
                let me = thread::current().id();
                if me != caller {
                    *panicked.lock().unwrap() = Some(me);
                    panic!("injected fault on helper {me:?}");
                }
            })
        })
    }));
    assert!(r.is_err());
    assert_eq!(par::current_threads(), own);
    let panicked = panicked.into_inner().unwrap().expect("a helper joined");
    // A region as wide as the whole pool, every chunk held at a barrier,
    // seats every parked worker, the one that panicked included (retry
    // while it is still on its way back to the park).
    let mut served = false;
    for _ in 0..50 {
        thread::sleep(Duration::from_millis(2));
        let width = spawned_workers() + 1;
        let barrier = Barrier::new(width);
        let seen = Mutex::new(Vec::new());
        par::with_threads(width, || {
            par::for_each(width, 1, |_| {
                // An override that unwinds inside a chunk leaves the
                // participant at the region's width too.
                let r = catch_unwind(|| par::with_threads(width + 2, || panic!("nested fault")));
                assert!(r.is_err());
                seen.lock()
                    .unwrap()
                    .push((thread::current().id(), par::current_threads()));
                barrier.wait();
            })
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), width);
        assert!(
            seen.iter().all(|&(_, threads)| threads == width),
            "every participant runs at the region's width: {seen:?}"
        );
        if seen.iter().any(|&(w, _)| w == panicked) {
            served = true;
            break;
        }
    }
    assert!(served, "helper {panicked:?} never served another region");
    assert_eq!(par::current_threads(), own);
}

#[test]
fn pool_telemetry_accounts_regions_and_chunks() {
    let _g = lock();
    // Warm the pool up first so worker spawning isn't measured.
    par::with_threads(4, || par::for_each(1000, 1, |_| {}));
    par::reset_pool_stats();
    let prev = par::set_pool_telemetry(true);
    par::with_threads(4, || {
        par::for_each(100_000, 16, |i| {
            std::hint::black_box(i);
        });
    });
    par::set_pool_telemetry(prev);
    let stats = par::pool_snapshot();
    assert!(stats.regions >= 1, "region counted");
    assert!(stats.chunks_total >= 1, "chunks counted");
    let executed: u64 = stats.workers.iter().map(|w| w.chunks).sum();
    assert_eq!(
        executed, stats.chunks_total,
        "every scheduled chunk executed exactly once"
    );
    assert!(
        stats.chunks_stolen <= stats.chunks_total,
        "stolen is a subset of total"
    );
    let caller = stats.workers.last().unwrap();
    assert_eq!(caller.worker, usize::MAX, "the caller lane comes last");
    assert!(caller.busy_ns > 0, "caller lane accumulated busy time");
}

#[test]
fn chunk_claims_balance_across_workers() {
    let _g = lock();
    // N chunks on T participants: dynamic claims off the shared
    // counter must spread the work, with no participant hogging more
    // than ~2x its fair share. The barrier holds every participant at
    // its first chunk until all four have joined, so the caller can't
    // race ahead and drain the region before the helpers arrive.
    const T: usize = 4;
    let n = T * CHUNKS_PER_WORKER; // chunk size 1 => n chunks
    let barrier = Barrier::new(T);
    let first = Mutex::new(HashSet::new());
    let counts = Mutex::new(HashMap::new());
    par::with_threads(T, || {
        par::for_each(n, 1, |_| {
            let id = thread::current().id();
            if first.lock().unwrap().insert(id) {
                barrier.wait();
            }
            thread::sleep(Duration::from_millis(2));
            *counts.lock().unwrap().entry(id).or_insert(0usize) += 1;
        });
    });
    let counts = counts.into_inner().unwrap();
    assert_eq!(counts.len(), T, "all participants executed chunks");
    let total: usize = counts.values().sum();
    assert_eq!(total, n, "every chunk executed exactly once");
    let max = counts.values().copied().max().unwrap();
    assert!(
        max <= 2 * (n / T),
        "no participant may exceed ~2x its fair share: max {max} of {n} chunks on {T} workers"
    );
}

#[test]
fn pool_telemetry_consistent_with_wall_time() {
    let _g = lock();
    // Warm the pool so worker spawning isn't inside the window.
    par::with_threads(4, || par::for_each(64, 1, |_| {}));
    let outer_t0 = Instant::now();
    par::reset_pool_stats();
    let prev = par::set_pool_telemetry(true);
    let chunks = 64u64;
    let per_chunk = Duration::from_millis(1);
    par::with_threads(4, || {
        par::for_each(chunks as usize, 1, |_| thread::sleep(per_chunk));
    });
    par::set_pool_telemetry(prev);
    let stats = par::pool_snapshot();
    let outer = outer_t0.elapsed();

    // A worker is one OS thread, so neither its busy nor its park time
    // can exceed the wall-clock telemetry window (2x slack for clock
    // granularity).
    let cap = outer.as_nanos() as u64 * 2;
    let (caller, workers) = stats.workers.split_last().unwrap();
    for w in workers {
        assert!(
            w.busy_ns <= cap,
            "worker {} busy {}ns exceeds window {}ns",
            w.worker,
            w.busy_ns,
            outer.as_nanos()
        );
        assert!(
            w.park_ns <= cap,
            "worker {} park {}ns exceeds window",
            w.worker,
            w.park_ns
        );
    }
    // And the lanes together must account for at least the sleep work
    // the region actually performed.
    let busy_total: u64 = caller.busy_ns + workers.iter().map(|w| w.busy_ns).sum::<u64>();
    let floor = chunks * per_chunk.as_nanos() as u64 / 2;
    assert!(
        busy_total >= floor,
        "lanes under-report busy time: {busy_total}ns < {floor}ns"
    );
}

#[test]
fn pool_telemetry_off_accumulates_nothing() {
    let _g = lock();
    let prev = par::set_pool_telemetry(false);
    par::reset_pool_stats();
    par::for_each(10_000, 8, |_| {});
    let stats = par::pool_snapshot();
    assert_eq!(stats.regions, 0);
    assert_eq!(stats.chunks_total, 0);
    assert_eq!(stats.workers.last().unwrap().busy_ns, 0);
    par::set_pool_telemetry(prev);
}

/// The cut every loop function inherits from the pool: chunks of
/// `max(grain, ceil(len / (threads * 8)))` indices, or the whole range in
/// one piece on the sequential fast path. Changing it changes every
/// kernel's timing; this table makes that a deliberate act.
#[test]
fn chunk_geometry_is_pinned() {
    let _g = lock();
    let table = [
        (1usize, 1usize, 4usize),
        (47, 1, 2),
        (4096, 64, 2),
        (1_000_000, 1024, 8),
        (3, 16, 4),
        (4, 1, 4), // the once-per-worker loop
        (4096, 64, 1),
    ];
    for (len, grain, threads) in table {
        let got: Vec<Range<usize>> =
            par::with_threads(threads, || par::map_chunks(len, grain, |r| r));
        let chunk = if threads == 1 || len <= grain {
            len
        } else {
            grain.max(len.div_ceil(threads * CHUNKS_PER_WORKER))
        };
        let nchunks = len.div_ceil(chunk);
        let want: Vec<Range<usize>> = (0..nchunks)
            .map(|c| c * chunk..((c + 1) * chunk).min(len))
            .collect();
        assert_eq!(got, want, "len {len}, grain {grain}, {threads} threads");
        assert!(
            got.into_iter().flatten().eq(0..len),
            "every index exactly once"
        );
    }

    // `Schedule::Static` hands out `ceil(rows / threads)`-row pieces, each
    // one chunk of its region.
    for (rows, width, threads) in [
        (10usize, 1usize, 4usize),
        (1000, 3, 3),
        (5, 2, 8),
        (64, 1, 1),
    ] {
        let mut v = vec![0usize; rows * width];
        par::reset_pool_stats();
        let prev = par::set_pool_telemetry(true);
        par::with_threads(threads, || {
            par::chunks_mut(&mut v, width, Schedule::Static, |row, s| s.fill(row + 1))
        });
        par::set_pool_telemetry(prev);
        let pieces = rows.div_ceil(rows.div_ceil(threads));
        let stats = par::pool_snapshot();
        assert_eq!(
            (stats.regions, stats.chunks_total),
            (1, pieces as u64),
            "{rows} rows on {threads} threads"
        );
        assert!(v.iter().enumerate().all(|(i, &x)| x == i / width + 1));
    }
}

#[test]
fn sequential_ghicoo_ttv_opens_no_region() {
    use tenbench_core::kernels::ttv::ttv_ghicoo_seq;
    use tenbench_core::prelude::*;

    let _g = lock();
    // Every coordinate of a 16 x 16 x 4 box: 256 mode-2 fibers.
    let entries: Vec<(Vec<u32>, f32)> = (0..16u32)
        .flat_map(|i| (0..16).flat_map(move |j| (0..4).map(move |k| (vec![i, j, k], 1.0))))
        .collect();
    let x = CooTensor::from_entries(Shape::new(vec![16, 16, 4]), entries).unwrap();
    let g = GHicooTensor::from_coo_for_mode(&x, 2, 2).unwrap();
    let fp = g.fibers(2).unwrap();
    assert!(fp.num_fibers() > 64);
    let v = DenseVector::from_fn(4, |i| i as f32 + 1.0);
    par::reset_pool_stats();
    let prev = par::set_pool_telemetry(true);
    let out = par::with_threads(4, || ttv_ghicoo_seq(&g, &fp, &v)).unwrap();
    par::set_pool_telemetry(prev);
    assert_eq!(out.nnz(), fp.num_fibers());
    assert_eq!(
        par::pool_snapshot().regions,
        0,
        "the sequential kernel submitted a parallel region"
    );
}
