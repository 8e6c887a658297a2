//! Long-running CP-ALS jobs with checkpoint/resume.
//!
//! The kernel service answers single requests in milliseconds; a CP-ALS
//! decomposition runs for *many* sweeps and must survive the faults a long
//! run attracts: a panicking kernel, a hung sweep, a corrupted checkpoint.
//! [`JobService`] runs it sweep by sweep, each step under
//! [`run_guarded`] (its own thread, `catch_unwind`, a watchdog — the same
//! guard every supervised kernel attempt runs under), checkpoints the
//! factor state after every accepted iteration into an in-memory `TNC1`
//! container
//! ([`tenbench_io::ckpt`]), and on any step fault resumes from the newest
//! checkpoint that still passes its CRCs.
//!
//! The contract that makes this useful as a *benchmark* fixture and not
//! just a reliability feature:
//!
//! - **Typed terminals.** Every submitted job ends in exactly one of
//!   `Ok(JobOutcome)` or `Err(JobError)` — never silence. A dropped
//!   worker surfaces as [`JobError::Lost`], which the chaos gates require
//!   to be zero.
//! - **Bitwise resume determinism.** [`CpAlsState`] carries everything
//!   one sweep hands the next; derived quantities are recomputed at step
//!   entry. `TNC1` round-trips `f32` factors and the
//!   `f64` fit bit-exactly, so a run resumed from a checkpoint produces
//!   factors bitwise-identical to an uninterrupted run at the same
//!   iteration count — at any fixed thread count, because CP-ALS's COO
//!   backend runs the deterministic
//!   [`mttkrp_sched`](tenbench_core::kernels::mttkrp::mttkrp_sched).
//! - **Injectable faults.** A [`FaultInjector`] decides, per (job,
//!   iteration), whether the step panics, hangs, or the checkpoint written
//!   after it gets a byte flipped — the hooks the chaos harness drives.
//!
//! State machine per job:
//!
//! ```text
//! queued -> running -> (checkpointed <-> running)* -> completed
//!                \-> fault -> resumed(newest valid ckpt) -> running
//!                \-> fault budget exhausted -> failed (typed)
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::methods::{cp_als_init, cp_als_step, CpAlsBackend, CpAlsOptions, CpAlsState};
use tenbench_io::ckpt::{read_ckpt, write_ckpt, Checkpoint, CheckpointMatrix};
use tenbench_obs as obs;

use crate::guard::{panic_message, run_guarded, Guarded};
use crate::queue::{Bounded, PushError};

/// A CP-ALS job: the tensor and the decomposition's parameters. Sweeps
/// run on the COO backend, whose
/// [`mttkrp_sched`](tenbench_core::kernels::mttkrp::mttkrp_sched) is
/// bitwise-deterministic, as the resume-determinism guarantee requires.
#[derive(Clone)]
pub struct JobSpec {
    /// The input tensor (shared, never copied per job).
    pub tensor: Arc<CooTensor<f32>>,
    /// Decomposition rank.
    pub rank: usize,
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Fit-delta convergence tolerance.
    pub tol: f64,
    /// Factor initialization seed.
    pub seed: u64,
}

/// Checkpoint generations kept per job; recovery tries the newest first.
const KEEP_CHECKPOINTS: usize = 2;

/// Configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Worker threads running jobs.
    pub workers: usize,
    /// Admission bound of the job queue.
    pub queue_bound: usize,
    /// Watchdog budget per iteration, in seconds; a budget that is not
    /// finite and > 0 means no watchdog.
    pub max_step_seconds: f64,
    /// Fault budget per job: one more fault than this fails the job with
    /// [`JobError::RetriesExhausted`].
    pub max_recoveries: u32,
    /// Thread count installed around every step (`None` = ambient pool).
    /// Fixing this makes CP-ALS runs bitwise-reproducible across hosts.
    pub threads: Option<usize>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            workers: 2,
            queue_bound: 16,
            max_step_seconds: 30.0,
            max_recoveries: 8,
            threads: None,
        }
    }
}

/// Why a job did not produce an outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job queue was full at submit; nothing was enqueued.
    Rejected {
        /// Queue depth at rejection.
        depth: usize,
        /// The admission bound.
        bound: usize,
    },
    /// The service is shutting down; nothing was enqueued.
    ShuttingDown,
    /// The spec was rejected before the first iteration.
    Init(String),
    /// The fault budget ran out; `last` is the final step verdict.
    RetriesExhausted {
        /// Faults absorbed before giving up.
        recoveries: u32,
        /// Description of the last fault.
        last: String,
    },
    /// The run terminated but its progress metric is not a finite number.
    InvalidFit {
        /// The offending value.
        fit: f64,
    },
    /// The worker disappeared without a terminal message. The chaos gates
    /// require this to never happen (zero lost jobs).
    Lost,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Rejected { depth, bound } => {
                write!(f, "job queue full: depth {depth} at bound {bound}")
            }
            JobError::ShuttingDown => write!(f, "job service shutting down"),
            JobError::Init(msg) => write!(f, "job init failed: {msg}"),
            JobError::RetriesExhausted { recoveries, last } => {
                write!(
                    f,
                    "fault budget exhausted after {recoveries} recoveries: {last}"
                )
            }
            JobError::InvalidFit { fit } => write!(f, "non-finite progress metric {fit}"),
            JobError::Lost => write!(f, "job worker lost without a terminal state"),
        }
    }
}

impl std::error::Error for JobError {}

/// One accepted iteration's progress sample (see [`JobOutcome::progress`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Completed iterations after this step.
    pub iteration: u64,
    /// CP-ALS fit after this sweep.
    pub fit: f64,
    /// `true` when this is the first accepted iteration after a
    /// checkpoint resume — the boundary the determinism gates inspect.
    pub resumed: bool,
}

/// Terminal state of a successful job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Completed iterations.
    pub iterations: u64,
    /// Final CP-ALS fit.
    pub fit: f64,
    /// Faults absorbed via checkpoint resume or reinit.
    pub recoveries: u32,
    /// Recoveries that found no valid checkpoint and restarted from
    /// iteration 0 (still bitwise-deterministic — same seed, same path).
    pub reinits: u32,
    /// The final state serialized as `TNC1` bytes. Two runs of the same
    /// spec at the same thread count — interrupted or not — produce
    /// byte-identical values here; tests compare them directly.
    pub final_checkpoint: Vec<u8>,
    /// Every accepted iteration's sample, in order.
    pub progress: Vec<JobProgress>,
}

/// Handle to a submitted job.
pub struct JobTicket {
    job_id: u64,
    rx: mpsc::Receiver<Result<JobOutcome, JobError>>,
}

impl JobTicket {
    /// The service-assigned job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> Result<JobOutcome, JobError> {
        self.rx.recv().unwrap_or(Err(JobError::Lost))
    }
}

/// A fault the chaos harness injects into one (job, iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The step panics before doing any work.
    PanicInStep,
    /// The step sleeps this long before doing any work (trips the
    /// watchdog when it exceeds [`JobConfig::max_step_seconds`]).
    HangInStep {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// The checkpoint written after this iteration gets one byte XORed —
    /// a later resume must detect it and fall back a generation.
    CorruptCheckpoint {
        /// Byte offset (taken modulo the checkpoint length).
        byte: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
}

/// Decides which fault, if any, to inject into one (job, iteration).
pub trait FaultInjector: Send + Sync {
    /// Called once per attempted iteration, before the step runs.
    fn next_fault(&self, job_id: u64, iteration: usize) -> Option<InjectedFault>;
}

/// A [`FaultInjector`] that fires each scripted `(job_id, iteration,
/// fault)` entry exactly once, so the retried iteration runs clean.
pub struct ScriptedFaults {
    plan: Mutex<Vec<(u64, usize, InjectedFault)>>,
}

impl ScriptedFaults {
    /// Build from a fault plan.
    pub fn new(plan: Vec<(u64, usize, InjectedFault)>) -> Self {
        ScriptedFaults {
            plan: Mutex::new(plan),
        }
    }

    /// The entries no step has asked for yet: faults planned for
    /// iterations a job never attempted (it failed first, or never ran).
    pub fn unfired(&self) -> Vec<(u64, usize, InjectedFault)> {
        self.plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl FaultInjector for ScriptedFaults {
    fn next_fault(&self, job_id: u64, iteration: usize) -> Option<InjectedFault> {
        let mut g = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        let pos = g
            .iter()
            .position(|&(j, i, _)| j == job_id && i == iteration)?;
        Some(g.remove(pos).2)
    }
}

// ------------------------------------------------------------------
// CP-ALS state <-> `TNC1` bytes.
// ------------------------------------------------------------------

/// Serialize a CP-ALS state as `TNC1` bytes: one section per factor, then
/// lambda as a column.
fn encode(state: &CpAlsState<f32>) -> Result<Vec<u8>, String> {
    let mut matrices: Vec<CheckpointMatrix<f32>> = state
        .factors
        .iter()
        .map(|f| CheckpointMatrix {
            rows: f.rows(),
            cols: f.cols(),
            data: f.data().to_vec(),
        })
        .collect();
    matrices.push(CheckpointMatrix {
        rows: state.lambda.len(),
        cols: 1,
        data: state.lambda.clone(),
    });
    let ckpt = Checkpoint {
        iteration: state.iteration as u64,
        fit: state.fit,
        matrices,
    };
    let mut bytes = Vec::new();
    write_ckpt(&ckpt, &mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Rebuild a CP-ALS state of `x` at `rank` from `TNC1` bytes. Any CRC
/// failure, parse error, or shape mismatch is an `Err` — the caller falls
/// back to an older generation, never resumes from damage.
fn restore(x: &CooTensor<f32>, rank: usize, bytes: &[u8]) -> Result<CpAlsState<f32>, String> {
    let ckpt: Checkpoint<f32> = read_ckpt(bytes).map_err(|e| e.to_string())?;
    let order = x.order();
    if ckpt.matrices.len() != order + 1 {
        return Err(format!(
            "cp_als checkpoint holds {} sections, want {}",
            ckpt.matrices.len(),
            order + 1
        ));
    }
    let mut factors = Vec::with_capacity(order);
    for (m, sec) in ckpt.matrices[..order].iter().enumerate() {
        if sec.rows != x.shape().dim(m) as usize || sec.cols != rank {
            return Err(format!("factor {m} has wrong dimensions"));
        }
        factors.push(DenseMatrix::from_vec(sec.rows, sec.cols, sec.data.clone()));
    }
    let lam = &ckpt.matrices[order];
    if lam.rows != rank || lam.cols != 1 {
        return Err("lambda section has wrong dimensions".into());
    }
    Ok(CpAlsState {
        factors,
        lambda: lam.data.clone(),
        fit: ckpt.fit,
        iteration: ckpt.iteration as usize,
    })
}

// ------------------------------------------------------------------
// The service.
// ------------------------------------------------------------------

/// Aggregate accounting across every job the service ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobServiceReport {
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs refused at submit (queue full).
    pub(crate) rejected: u64,
    /// Jobs that reached `Ok(JobOutcome)`.
    pub(crate) completed: u64,
    /// Jobs that reached a typed `Err(JobError)`.
    pub(crate) failed: u64,
    /// Step faults, the one that exhausts a job's budget included.
    pub recoveries: u64,
    /// Faults absorbed by resuming from a valid checkpoint.
    pub resumes: u64,
    /// Faults absorbed by restarting from iteration 0.
    pub reinits: u64,
    /// Corrupted checkpoint generations detected.
    pub corrupt_detected: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

impl JobServiceReport {
    /// Jobs that were admitted but never produced a terminal state. The
    /// robustness contract is that this is always zero.
    pub fn lost(&self) -> u64 {
        self.submitted.saturating_sub(self.completed + self.failed)
    }
}

struct JobShared {
    cfg: JobConfig,
    injector: Option<Arc<dyn FaultInjector>>,
    tally: Mutex<JobServiceReport>,
}

impl JobShared {
    fn tally(&self) -> MutexGuard<'_, JobServiceReport> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct QueuedJob {
    job_id: u64,
    /// Causal identity minted at admission; the job worker installs it so
    /// checkpoint writes, faults, and recoveries are charged to this job.
    ctx: obs::TraceCtx,
    spec: JobSpec,
    tx: mpsc::Sender<Result<JobOutcome, JobError>>,
}

/// Supervisor for long-running decomposition jobs: bounded admission,
/// per-iteration supervision, checkpoint/resume recovery, typed terminals.
pub struct JobService {
    queue: Arc<Bounded<QueuedJob>>,
    shared: Arc<JobShared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl JobService {
    /// Start the worker threads. `injector` is `None` in production; the
    /// chaos harness passes its fault source.
    pub fn start(cfg: JobConfig, injector: Option<Arc<dyn FaultInjector>>) -> Self {
        let queue = Arc::new(Bounded::new(cfg.queue_bound));
        let shared = Arc::new(JobShared {
            cfg,
            injector,
            tally: Mutex::new(JobServiceReport::default()),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let q = queue.clone();
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("job-worker-{i}"))
                    .spawn(move || worker_loop(&q, &sh))
                    .expect("spawn job worker")
            })
            .collect();
        JobService {
            queue,
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// Submit a job. Full queues reject with [`JobError::Rejected`]
    /// instead of queueing unboundedly — the same admission-control policy
    /// as the kernel service.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, JobError> {
        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let ctx = obs::TraceCtx::mint("job");
        let _g = obs::ctx::install(ctx);
        match self.queue.try_push(QueuedJob {
            job_id,
            ctx,
            spec,
            tx,
        }) {
            Ok(_) => {
                self.shared.tally().submitted += 1;
                obs::counters::JOB_SUBMITTED.add(1);
                obs::ctx::async_begin("job", ctx);
                obs::ctx::flow_send("job.queue", ctx);
                Ok(JobTicket { job_id, rx })
            }
            Err((_, PushError::Full)) => {
                self.shared.tally().rejected += 1;
                Err(JobError::Rejected {
                    depth: self.queue.depth(),
                    bound: self.queue.bound(),
                })
            }
            Err((_, PushError::Closed)) => Err(JobError::ShuttingDown),
        }
    }

    /// Close admission, drain every queued job to a terminal state, join
    /// the workers, and report.
    pub fn shutdown(self) -> JobServiceReport {
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        *self.shared.tally()
    }
}

fn worker_loop(queue: &Bounded<QueuedJob>, shared: &JobShared) {
    while let Some(job) = queue.pop() {
        let tx = job.tx.clone();
        // The worker thread did not inherit the submitter's trace context;
        // install the one carried on the job so everything the engine does
        // — checkpoints, faults, recoveries — charges to the right job.
        let ctx = job.ctx;
        let _ctx_guard = obs::ctx::install(ctx);
        obs::ctx::flow_recv("job.queue", ctx);
        // The engine is panic-free by construction (steps run guarded),
        // but a worker must never die silently even if that breaks: the
        // catch turns an engine bug into a typed failed job.
        let result = catch_unwind(AssertUnwindSafe(|| run_job(job, shared))).unwrap_or_else(|p| {
            Err(JobError::Init(format!(
                "job engine panicked: {}",
                panic_message(p.as_ref())
            )))
        });
        obs::ctx::async_end("job", ctx);
        {
            let mut t = shared.tally();
            match &result {
                Ok(_) => {
                    t.completed += 1;
                    obs::counters::JOB_COMPLETED.add(1);
                }
                Err(_) => {
                    t.failed += 1;
                    obs::counters::JOB_FAILED.add(1);
                }
            }
        }
        let _ = tx.send(result);
    }
}

/// The checkpoint/resume engine for one job.
fn run_job(job: QueuedJob, shared: &JobShared) -> Result<JobOutcome, JobError> {
    let cfg = &shared.cfg;
    let spec = &job.spec;
    if spec.rank == 0 {
        return Err(JobError::Init("cp_als rank must be positive".into()));
    }
    let x = spec.tensor.clone();
    let opts = CpAlsOptions {
        rank: spec.rank,
        max_iters: spec.max_iters,
        tol: spec.tol,
        seed: spec.seed,
        backend: CpAlsBackend::Coo,
    };
    let mut state = cp_als_init(&x, &opts);

    // Generation ring, oldest first. Iteration 0 is checkpointed too, so
    // even a fault on the very first step resumes instead of reinits.
    let mut ckpts: VecDeque<Vec<u8>> = VecDeque::new();
    let mut checkpoints = 0u64;
    let push_ckpt = |ckpts: &mut VecDeque<Vec<u8>>, bytes: Vec<u8>, count: &mut u64| {
        ckpts.push_back(bytes);
        while ckpts.len() > KEEP_CHECKPOINTS {
            ckpts.pop_front();
        }
        *count += 1;
        obs::counters::JOB_CHECKPOINTS.add(1);
        obs::flight::note(obs::flight::FlightKind::CkptWrite, *count);
        shared.tally().checkpoints += 1;
    };
    match encode(&state) {
        Ok(b) => push_ckpt(&mut ckpts, b, &mut checkpoints),
        Err(e) => return Err(JobError::Init(format!("initial checkpoint failed: {e}"))),
    }

    let mut recoveries = 0u32;
    let mut reinits = 0u32;
    let mut progress: Vec<JobProgress> = Vec::new();
    let mut resumed_flag = false;
    let mut done = opts.max_iters == 0;

    while !done && state.iteration < opts.max_iters {
        let fault = shared
            .injector
            .as_ref()
            .and_then(|f| f.next_fault(job.job_id, state.iteration));
        if fault.is_some() {
            obs::counters::CHAOS_FAULTS.add(1);
        }
        let ckpt_fault = match fault {
            Some(InjectedFault::CorruptCheckpoint { byte, mask }) => Some((byte, mask)),
            _ => None,
        };

        // Faults fire *before* the math, so the retried iteration redoes
        // the identical computation; the thread override wraps the whole
        // step so every parallel region inside sees the pinned pool. The
        // step advances a copy of the state: the engine's own copy only
        // moves forward when the guarded step returns, so a faulted
        // attempt leaves it exactly where the last checkpoint says it is.
        let (step_x, step_opts, mut next) = (x.clone(), opts.clone(), state.clone());
        let threads = cfg.threads;
        let name = format!("job {} iteration {}", job.job_id, state.iteration);
        let step = move || {
            match fault {
                Some(InjectedFault::PanicInStep) => panic!("chaos: injected step panic"),
                Some(InjectedFault::HangInStep { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
            let done = match threads {
                Some(n) => tenbench_core::par::with_threads(n, || {
                    cp_als_step(&step_x, &step_opts, &mut next)
                }),
                None => cp_als_step(&step_x, &step_opts, &mut next),
            };
            done.map(|fin| (next, fin)).map_err(|e| e.to_string())
        };

        let fault_text = match run_guarded(&name, step, cfg.max_step_seconds) {
            Guarded::Done(Ok((advanced, fin)), _) => {
                state = advanced;
                done = fin;
                progress.push(JobProgress {
                    iteration: state.iteration as u64,
                    fit: state.fit,
                    resumed: resumed_flag,
                });
                resumed_flag = false;
                match encode(&state) {
                    Ok(mut bytes) => {
                        if let Some((byte, mask)) = ckpt_fault {
                            if !bytes.is_empty() {
                                let at = byte % bytes.len();
                                bytes[at] ^= mask;
                            }
                        }
                        push_ckpt(&mut ckpts, bytes, &mut checkpoints);
                        None
                    }
                    Err(e) => Some(format!("checkpoint write failed: {e}")),
                }
            }
            Guarded::Done(Err(e), _) => Some(format!("failed: {e}")),
            Guarded::Panicked(e) => Some(format!("panicked: {e}")),
            Guarded::TimedOut => Some("timed out".to_string()),
        };

        if let Some(last) = fault_text {
            recoveries += 1;
            shared.tally().recoveries += 1;
            obs::flight::note(obs::flight::FlightKind::Retry, recoveries as u64);
            if recoveries > cfg.max_recoveries {
                return Err(JobError::RetriesExhausted { recoveries, last });
            }
            // Walk generations newest-first; damage falls back, and a
            // fully damaged ring reinits from iteration 0.
            let mut restored = false;
            while let Some(bytes) = ckpts.pop_back() {
                match restore(&x, opts.rank, &bytes) {
                    Ok(s) => {
                        state = s;
                        ckpts.push_back(bytes);
                        restored = true;
                        break;
                    }
                    Err(e) => {
                        shared.tally().corrupt_detected += 1;
                        obs::counters::JOB_CKPT_CORRUPT.add(1);
                        obs::flight::dump(
                            "ckpt_corrupt",
                            obs::flight::FlightKind::CkptCorrupt,
                            job.ctx.id,
                            &format!(
                                "job {}: checkpoint generation rejected at iteration {}: {e}",
                                job.job_id, state.iteration
                            ),
                        );
                    }
                }
            }
            if restored {
                shared.tally().resumes += 1;
                obs::counters::JOB_RESUMES.add(1);
                obs::flight::note(obs::flight::FlightKind::Resume, state.iteration as u64);
            } else {
                // Deterministic: same seed, same path as the original run.
                state = cp_als_init(&x, &opts);
                reinits += 1;
                shared.tally().reinits += 1;
                obs::flight::note(obs::flight::FlightKind::Reinit, reinits as u64);
                match encode(&state) {
                    Ok(b) => push_ckpt(&mut ckpts, b, &mut checkpoints),
                    Err(e) => return Err(JobError::Init(format!("reinit checkpoint failed: {e}"))),
                }
            }
            resumed_flag = true;
            done = false;
        }
    }

    let fit = state.fit;
    if !fit.is_finite() {
        return Err(JobError::InvalidFit { fit });
    }
    let final_checkpoint =
        encode(&state).map_err(|e| JobError::Init(format!("final checkpoint failed: {e}")))?;
    Ok(JobOutcome {
        iterations: state.iteration as u64,
        fit,
        recoveries,
        reinits,
        final_checkpoint,
        progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::shape::Shape;

    fn tensor(seed: u32) -> Arc<CooTensor<f32>> {
        Arc::new(
            CooTensor::from_entries(
                Shape::new(vec![16, 16, 16]),
                (0..300u32)
                    .map(|i| {
                        (
                            vec![(i * 7 + seed) % 16, (i * 13) % 16, (i * 29 + seed) % 16],
                            (i % 89) as f32 * 0.25 + 1.0,
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        )
    }

    fn cp_spec(x: &Arc<CooTensor<f32>>) -> JobSpec {
        JobSpec {
            tensor: x.clone(),
            rank: 4,
            max_iters: 6,
            tol: 0.0,
            seed: 42,
        }
    }

    fn quick_cfg() -> JobConfig {
        JobConfig {
            workers: 1,
            max_step_seconds: 20.0,
            ..JobConfig::default()
        }
    }

    #[test]
    fn cp_als_job_completes_without_faults() {
        let x = tensor(1);
        let svc = JobService::start(quick_cfg(), None);
        let out = svc
            .submit(cp_spec(&x))
            .expect("admitted")
            .wait()
            .expect("job completed");
        assert!(out.iterations > 0);
        assert!(out.fit.is_finite());
        assert_eq!(out.recoveries, 0);
        assert!(!out.final_checkpoint.is_empty());
        let report = svc.shutdown();
        assert!(report.checkpoints as usize >= out.progress.len());
        assert_eq!(report.completed, 1);
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn progress_streams_per_iteration_fits() {
        let x = tensor(2);
        let svc = JobService::start(quick_cfg(), None);
        let t = svc.submit(cp_spec(&x)).unwrap();
        let out = t.wait().unwrap();
        assert_eq!(out.progress.len(), out.iterations as usize);
        for (i, p) in out.progress.iter().enumerate() {
            assert_eq!(p.iteration, i as u64 + 1);
            assert!(p.fit.is_finite());
            assert!(!p.resumed);
        }
        assert_eq!(
            out.progress.last().unwrap().fit.to_bits(),
            out.fit.to_bits()
        );
        svc.shutdown();
    }

    /// The core robustness contract: a job hit by a panic, a hang, and a
    /// corrupted checkpoint still completes, and its final factors are
    /// bitwise-identical to an undisturbed run of the same spec.
    #[test]
    fn faulted_run_matches_clean_run_bitwise() {
        let x = tensor(3);
        let clean_svc = JobService::start(quick_cfg(), None);
        let clean = clean_svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        clean_svc.shutdown();

        // Corrupt the checkpoint written after iteration 2, then panic in
        // iteration 3: recovery must detect the damage, fall back to the
        // iteration-1 generation, and recompute forward.
        let faults = ScriptedFaults::new(vec![
            (
                1,
                2,
                InjectedFault::CorruptCheckpoint {
                    byte: 33,
                    mask: 0x40,
                },
            ),
            (1, 3, InjectedFault::PanicInStep),
        ]);
        let svc = JobService::start(
            JobConfig {
                max_recoveries: 4,
                ..quick_cfg()
            },
            Some(Arc::new(faults)),
        );
        let out = svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        let report = svc.shutdown();

        assert_eq!(out.recoveries, 1, "panic absorbed via resume");
        assert_eq!(out.reinits, 0, "older generation was intact");
        assert!(out.progress.iter().any(|p| p.resumed));
        assert_eq!(out.iterations, clean.iterations);
        assert_eq!(out.fit.to_bits(), clean.fit.to_bits());
        assert_eq!(
            out.final_checkpoint, clean.final_checkpoint,
            "resumed factors are not bitwise-identical"
        );
        assert_eq!(report.corrupt_detected, 1, "damaged generation detected");
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn hang_trips_watchdog_and_resumes() {
        let x = tensor(4);
        let faults = ScriptedFaults::new(vec![(1, 1, InjectedFault::HangInStep { ms: 2_000 })]);
        let svc = JobService::start(
            JobConfig {
                max_step_seconds: 0.05,
                ..quick_cfg()
            },
            Some(Arc::new(faults)),
        );
        // With a 50 ms watchdog the clean steps must still fit; a tiny
        // tensor at rank 2 is well under that.
        let t = svc
            .submit(JobSpec {
                tensor: x.clone(),
                rank: 2,
                max_iters: 3,
                tol: 0.0,
                seed: 5,
            })
            .unwrap();
        let out = t.wait().expect("job survives a hung step");
        assert!(out.recoveries >= 1);
        assert_eq!(out.iterations, 3);
        svc.shutdown();
    }

    #[test]
    fn fault_budget_exhaustion_is_typed() {
        let x = tensor(5);
        // Panic on every attempt of iteration 0 (entries for repeated
        // attempts of the same iteration index).
        let faults = ScriptedFaults::new(vec![
            (1, 0, InjectedFault::PanicInStep),
            (1, 0, InjectedFault::PanicInStep),
            (1, 0, InjectedFault::PanicInStep),
        ]);
        let svc = JobService::start(
            JobConfig {
                max_recoveries: 2,
                ..quick_cfg()
            },
            Some(Arc::new(faults)),
        );
        let err = svc.submit(cp_spec(&x)).unwrap().wait().unwrap_err();
        match err {
            JobError::RetriesExhausted {
                recoveries,
                ref last,
            } => {
                assert_eq!(recoveries, 3);
                assert!(last.contains("panicked"), "{last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        let report = svc.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn every_generation_corrupt_reinits_from_scratch() {
        let x = tensor(6);
        // Corrupt both kept generations, then panic: the ring holds only
        // damage, so recovery must reinit from iteration 0 and still
        // finish deterministically.
        let faults = ScriptedFaults::new(vec![
            (1, 1, InjectedFault::CorruptCheckpoint { byte: 40, mask: 1 }),
            (1, 2, InjectedFault::CorruptCheckpoint { byte: 41, mask: 2 }),
            (1, 3, InjectedFault::PanicInStep),
        ]);
        let svc = JobService::start(
            JobConfig {
                max_recoveries: 4,
                ..quick_cfg()
            },
            Some(Arc::new(faults)),
        );
        let out = svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        assert_eq!(out.reinits, 1);
        assert_eq!(svc.shutdown().corrupt_detected, 2);

        let clean_svc = JobService::start(quick_cfg(), None);
        let clean = clean_svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        clean_svc.shutdown();
        assert_eq!(out.final_checkpoint, clean.final_checkpoint);
    }

    #[test]
    fn queue_full_rejects_typed_and_invalid_spec_fails_init() {
        let x = tensor(7);
        let svc = JobService::start(
            JobConfig {
                workers: 1,
                queue_bound: 1,
                ..quick_cfg()
            },
            None,
        );
        let mut admitted = Vec::new();
        let mut rejected = 0;
        for _ in 0..12 {
            match svc.submit(cp_spec(&x)) {
                Ok(t) => admitted.push(t),
                Err(JobError::Rejected { bound, .. }) => {
                    assert_eq!(bound, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected > 0, "queue bound never engaged");

        // Rank 0 is a typed init failure, not a crash.
        match svc.submit(JobSpec {
            rank: 0,
            ..cp_spec(&x)
        }) {
            Ok(t) => assert!(matches!(t.wait(), Err(JobError::Init(_)))),
            Err(JobError::Rejected { .. }) => rejected += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
        for t in admitted {
            t.wait().expect("admitted jobs complete");
        }
        let report = svc.shutdown();
        assert_eq!(report.lost(), 0);
        assert_eq!(report.rejected, rejected);
    }

    #[test]
    fn shutdown_drains_queued_jobs_to_terminals() {
        let x = tensor(8);
        let svc = JobService::start(
            JobConfig {
                workers: 1,
                queue_bound: 8,
                ..quick_cfg()
            },
            None,
        );
        let tickets: Vec<JobTicket> = (0..4)
            .map(|_| svc.submit(cp_spec(&x)).expect("admitted"))
            .collect();
        let report = svc.shutdown();
        assert_eq!(report.completed, 4);
        assert_eq!(report.lost(), 0);
        for t in tickets {
            t.wait().expect("drained to a terminal");
        }
    }
}
