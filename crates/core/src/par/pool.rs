//! The persistent worker pool behind every parallel region.
//!
//! A single process-wide registry owns a queue of open regions ("jobs")
//! and a set of detached worker threads parked on a condvar. Submitting
//! a region enqueues a job with `helpers` open claim slots and wakes
//! workers (spawning new ones only when fewer are idle than slots, up to
//! a process cap). Each participant — the submitting caller is always
//! participant 0 — drains chunks off the job's shared atomic counter
//! until the region is exhausted, so progress never depends on a worker
//! showing up. The caller then retracts the job (freezing the set of
//! joined helpers), waits for each of them to signal completion, and
//! finally re-throws the first captured panic, if any. Because the
//! caller blocks until every helper has detached, the job's borrowed,
//! lifetime-erased body pointer never outlives the closure it points to.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use tenbench_obs::report::{PoolSnapshot, WorkerSnap};

thread_local! {
    /// Logical width parallel calls on this thread use; `None` means the
    /// host's available parallelism. Set by `with_threads` and, on a
    /// helper, by the region it is draining.
    static CURRENT_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel calls on this thread will use.
pub fn current_threads() -> usize {
    CURRENT_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f` with [`current_threads`] equal to `threads` on this thread (and
/// so in every region it submits, nested ones included). The previous
/// width comes back when `f` returns or unwinds.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_THREADS.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Telemetry for one pool participant. All relaxed and monotone: a
/// reader diffs two [`pool_snapshot`]s taken after the regions of
/// interest have joined.
struct StatCell {
    busy_ns: AtomicU64,
    park_ns: AtomicU64,
    regions: AtomicU64,
    chunks: AtomicU64,
}

impl StatCell {
    const fn new() -> Self {
        StatCell {
            busy_ns: AtomicU64::new(0),
            park_ns: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        }
    }
}

/// Parallel regions executed (pool path and sequential fast path).
static REGIONS: AtomicU64 = AtomicU64::new(0);
/// Chunks scheduled across all regions.
static CHUNKS_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Chunks executed by a pool helper rather than the submitting
/// caller, i.e. taken off the region's shared chunk counter.
static CHUNKS_STOLEN: AtomicU64 = AtomicU64::new(0);
/// Aggregate lane for every submitting caller (the main thread, test
/// threads, or a worker submitting a nested region).
static CALLER_STATS: StatCell = StatCell::new();

fn worker_stats() -> &'static [StatCell] {
    static CELLS: OnceLock<Vec<StatCell>> = OnceLock::new();
    CELLS.get_or_init(|| (0..MAX_WORKERS).map(|_| StatCell::new()).collect())
}

/// One lane of a [`pool_snapshot`]; `open_park_ns` is the part of a park
/// still in progress.
fn snap_cell(worker: usize, cell: &StatCell, open_park_ns: u64) -> WorkerSnap {
    WorkerSnap {
        worker,
        busy_ns: cell.busy_ns.load(Ordering::Relaxed),
        park_ns: cell.park_ns.load(Ordering::Relaxed) + open_park_ns,
        regions: cell.regions.load(Ordering::Relaxed),
        chunks: cell.chunks.load(Ordering::Relaxed),
    }
}

/// Snapshot the pool telemetry counters: one lane per worker spawned so
/// far, in spawn order, then the aggregate lane of every submitting caller
/// (main and test threads, workers submitting nested regions), labelled
/// `usize::MAX`. Times are monotonic-clock nanoseconds, and a parked
/// worker's lane includes its park so far. Every total only grows; read a
/// window as `PoolSnapshot::since` its opening snapshot.
pub fn pool_snapshot() -> PoolSnapshot {
    // Parks begin and end under the registry lock, so holding it makes
    // every lane's park time consistent with `now`.
    let q = registry().queue.lock().unwrap();
    let now = Instant::now();
    let open_park = |i: usize| q.parked_at[i].map_or(0, |t0| (now - t0).as_nanos() as u64);
    PoolSnapshot {
        workers: worker_stats()
            .iter()
            .take(q.spawned)
            .enumerate()
            .map(|(i, cell)| snap_cell(i, cell, open_park(i)))
            .chain([snap_cell(usize::MAX, &CALLER_STATS, 0)])
            .collect(),
        regions: REGIONS.load(Ordering::Relaxed),
        chunks_total: CHUNKS_TOTAL.load(Ordering::Relaxed),
        chunks_stolen: CHUNKS_STOLEN.load(Ordering::Relaxed),
    }
}

/// Charge a caller-lane region to the telemetry totals.
fn note_caller_region(elapsed_ns: u64, scheduled_chunks: u64, executed_chunks: u64) {
    CALLER_STATS
        .busy_ns
        .fetch_add(elapsed_ns, Ordering::Relaxed);
    CALLER_STATS.regions.fetch_add(1, Ordering::Relaxed);
    CALLER_STATS
        .chunks
        .fetch_add(executed_chunks, Ordering::Relaxed);
    REGIONS.fetch_add(1, Ordering::Relaxed);
    CHUNKS_TOTAL.fetch_add(scheduled_chunks, Ordering::Relaxed);
}

/// Hard cap on pool worker (helper) threads for the whole process.
const MAX_WORKERS: usize = 255;

type Body = dyn Fn(Range<usize>) + Sync;

struct JobState {
    /// Helpers that have claimed a slot on this job so far.
    joined: usize,
    /// Helpers that have finished working on it.
    finished: usize,
}

/// One parallel region: a chunk counter plus a lifetime-erased body.
struct Job {
    /// Next chunk index to claim.
    counter: AtomicUsize,
    nchunks: usize,
    chunk: usize,
    len: usize,
    /// Logical width of the region; propagated into workers so nested
    /// parallel calls observe the installed thread count.
    threads: usize,
    /// Causal context of the submitting thread, relayed onto every
    /// helper for the duration of its participation (thread-locals do
    /// not inherit, so the handoff must be explicit).
    ctx: Option<tenbench_obs::ctx::TraceCtx>,
    /// Erased pointer to the caller's chunk body.
    body: *const Body,
    state: Mutex<JobState>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` is only dereferenced while the submitting caller is
// blocked inside `run_region` — the caller retracts the job and waits
// for every joined helper before returning, so the erased borrow never
// dangles. The closure itself is `Sync`, and all other fields are
// thread-safe primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Pull chunks off the shared counter until the region is
    /// drained; returns how many chunks this participant executed.
    fn drain(&self) -> u64 {
        // SAFETY: see `unsafe impl Send for Job`.
        let body = unsafe { &*self.body };
        let mut executed = 0u64;
        loop {
            let c = self.counter.fetch_add(1, Ordering::Relaxed);
            if c >= self.nchunks {
                break;
            }
            executed += 1;
            let lo = c * self.chunk;
            body(lo..(lo + self.chunk).min(self.len));
        }
        executed
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

struct Queue {
    /// Open jobs, each with its remaining helper claim slots.
    jobs: Vec<(Arc<Job>, usize)>,
    /// Workers currently parked waiting for a job.
    idle: usize,
    /// Worker threads ever spawned (they never exit).
    spawned: usize,
    /// When each worker parked, by worker id; `None` while it is not
    /// parked.
    parked_at: Vec<Option<Instant>>,
}

struct Registry {
    queue: Mutex<Queue>,
    work: Condvar,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        queue: Mutex::new(Queue {
            jobs: Vec::new(),
            idle: 0,
            spawned: 0,
            parked_at: vec![None; MAX_WORKERS],
        }),
        work: Condvar::new(),
    })
}

fn worker_loop(reg: &'static Registry, worker_id: usize) {
    loop {
        // Claim a helper slot on some open, undrained job.
        let job = {
            let mut q = reg.queue.lock().unwrap();
            loop {
                let pos = q.jobs.iter().position(|(j, slots)| {
                    *slots > 0 && j.counter.load(Ordering::Relaxed) < j.nchunks
                });
                if let Some(pos) = pos {
                    let job = q.jobs[pos].0.clone();
                    q.jobs[pos].1 -= 1;
                    if q.jobs[pos].1 == 0 {
                        q.jobs.remove(pos);
                    }
                    // Registering under the registry lock means the
                    // caller's retract() happens strictly before or
                    // after this join — `joined` is frozen once the
                    // job has left the queue.
                    job.state.lock().unwrap().joined += 1;
                    break job;
                }
                q.idle += 1;
                q.parked_at[worker_id] = Some(Instant::now());
                q = reg.work.wait(q).unwrap();
                if let Some(t0) = q.parked_at[worker_id].take() {
                    worker_stats()[worker_id]
                        .park_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                q.idle -= 1;
            }
        };

        let prev_threads = CURRENT_THREADS.with(|c| c.replace(Some(job.threads)));
        let ctx_guard = tenbench_obs::ctx::install_opt(job.ctx);
        let busy_t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| job.drain()));
        let cell = &worker_stats()[worker_id];
        cell.busy_ns
            .fetch_add(busy_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        cell.regions.fetch_add(1, Ordering::Relaxed);
        if let Ok(executed) = &result {
            cell.chunks.fetch_add(*executed, Ordering::Relaxed);
            CHUNKS_STOLEN.fetch_add(*executed, Ordering::Relaxed);
            if *executed > 0 {
                // One flight event per region-join, not per chunk.
                tenbench_obs::flight::note(tenbench_obs::flight::FlightKind::Steal, *executed);
            }
        }
        drop(ctx_guard);
        CURRENT_THREADS.with(|c| c.set(prev_threads));
        if let Err(payload) = result {
            job.record_panic(payload);
        }
        let mut st = job.state.lock().unwrap();
        st.finished += 1;
        job.done.notify_all();
    }
}

fn submit(job: Arc<Job>, helpers: usize) {
    let reg = registry();
    let mut q = reg.queue.lock().unwrap();
    q.jobs.push((job, helpers));
    // Reserve spawn indices under the lock but create the OS threads
    // after releasing it: thread creation is microseconds of kernel
    // work, and doing it inside the critical section serialized every
    // concurrent submitter (and every worker trying to claim a job)
    // behind one region's cold-start.
    let deficit = helpers
        .saturating_sub(q.idle)
        .min(MAX_WORKERS.saturating_sub(q.spawned));
    let first_id = q.spawned;
    q.spawned += deficit;
    // Wake only as many parked workers as this job can seat.
    // `notify_all` stampeded every parked worker through the queue
    // lock on every submit; the ones that found no open slot just
    // re-parked, so wide pools paid a herd of wakeups per region.
    let wake = helpers.min(q.idle);
    drop(q);
    for _ in 0..wake {
        reg.work.notify_one();
    }
    for id in first_id..first_id + deficit {
        let spawned = std::thread::Builder::new()
            .name(format!("tenbench-pool-{id}"))
            .spawn(move || worker_loop(registry(), id))
            .is_ok();
        if !spawned {
            // Out of OS threads: the reserved index stays dead (its
            // stats lane reads zero) and the caller still drains the
            // region. Indices are never reused, so each telemetry lane
            // belongs to one thread.
            break;
        }
    }
}

fn retract(job: &Arc<Job>) {
    let reg = registry();
    let mut q = reg.queue.lock().unwrap();
    q.jobs.retain(|(j, _)| !Arc::ptr_eq(j, job));
}

/// Target chunks per logical worker. Enough slack that a worker stuck
/// on an expensive chunk sheds the rest of its share to its peers, few
/// enough that claims on the region's shared counter stay cheap: the
/// counter is one `fetch_add` per chunk, so a region costs
/// `threads * CHUNKS_PER_WORKER` contended RMWs at most.
const CHUNKS_PER_WORKER: usize = 8;

/// Execute `body` over `0..len` in chunks of at least `grain` items,
/// using up to [`current_threads`] logical workers.
pub(super) fn run_region(len: usize, grain: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    if len == 0 {
        return;
    }
    let threads = current_threads().max(1);
    let grain = grain.max(1);
    // Aim for CHUNKS_PER_WORKER chunks per worker for load balance,
    // but never below the requested minimum chunk length.
    let chunk = grain.max(len.div_ceil(threads * CHUNKS_PER_WORKER)).max(1);
    let nchunks = len.div_ceil(chunk);
    let helpers = (threads - 1)
        .min(nchunks.saturating_sub(1))
        .min(MAX_WORKERS);
    if threads == 1 || len <= grain || helpers == 0 {
        let t0 = Instant::now();
        body(0..len);
        note_caller_region(t0.elapsed().as_nanos() as u64, 1, 1);
        return;
    }

    // SAFETY: the erased 'static lifetime is a lie confined to this
    // function — the caller blocks below until every helper that joined
    // the job has finished, so `body` outlives all uses.
    let raw: *const (dyn Fn(Range<usize>) + Sync + '_) = body;
    let erased: *const Body = unsafe { std::mem::transmute(raw) };
    let job = Arc::new(Job {
        counter: AtomicUsize::new(0),
        nchunks,
        chunk,
        len,
        threads,
        ctx: tenbench_obs::ctx::current(),
        body: erased,
        state: Mutex::new(JobState {
            joined: 0,
            finished: 0,
        }),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    submit(job.clone(), helpers);

    // The caller is participant 0 and always drains; a region finishes
    // even if no worker ever picks it up.
    let t0 = Instant::now();
    let caller_result = catch_unwind(AssertUnwindSafe(|| job.drain()));
    let executed = *caller_result.as_ref().ok().unwrap_or(&0);
    note_caller_region(t0.elapsed().as_nanos() as u64, nchunks as u64, executed);

    retract(&job);
    {
        let mut st = job.state.lock().unwrap();
        while st.finished < st.joined {
            st = job.done.wait(st).unwrap();
        }
    }

    if let Some(payload) = job.panic.lock().unwrap().take() {
        std::panic::resume_unwind(payload);
    }
    if let Err(payload) = caller_result {
        std::panic::resume_unwind(payload);
    }
}
