//! Long-running decomposition jobs with checkpoint/resume.
//!
//! The kernel service answers single requests in milliseconds; the
//! decomposition methods (CP-ALS, the tensor power method, the TTM-chain)
//! run for *many* iterations and must survive the faults a long run
//! attracts: a panicking kernel, a hung sweep, a corrupted checkpoint.
//! [`JobService`] runs them iteration by iteration through a pluggable
//! [`StepRunner`] (the bench crate plugs in the PR-2 supervisor; tests and
//! the in-crate default use [`InlineStepRunner`], a thread +
//! `catch_unwind` + watchdog), checkpoints the factor state after every
//! accepted iteration into an in-memory `TNC1` container
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
//! - **Bitwise resume determinism.** The method states
//!   ([`CpAlsState`], [`PowerMethodState`], [`TtmChainState`]) carry
//!   everything one iteration hands the next; derived quantities are
//!   recomputed at step entry. `TNC1` round-trips `f32` factors and the
//!   `f64` fit bit-exactly, so a run resumed from a checkpoint produces
//!   factors bitwise-identical to an uninterrupted run at the same
//!   iteration count — at any fixed thread count, enforced by pinning
//!   CP-ALS to the deterministic [`MttkrpStrategy::Scheduled`].
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
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::kernels::mttkrp::MttkrpStrategy;
use tenbench_core::methods::{
    cp_als_init, cp_als_step, power_method_init, power_method_step, ttm_chain_init, ttm_chain_step,
    CpAlsBackend, CpAlsOptions, CpAlsState, PowerMethodState, TtmChainState,
};
use tenbench_io::ckpt::{read_ckpt, write_ckpt, Checkpoint, CheckpointMatrix};
use tenbench_obs as obs;

use crate::queue::{Bounded, PushError};

/// Which decomposition a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// CP-ALS via Mttkrp sweeps. Pinned to [`MttkrpStrategy::Scheduled`]
    /// internally: the atomic strategy is not bitwise-deterministic, which
    /// would void the resume-determinism guarantee.
    CpAls {
        /// Decomposition rank.
        rank: usize,
        /// Maximum ALS sweeps.
        max_iters: usize,
        /// Fit-delta convergence tolerance.
        tol: f64,
        /// Factor initialization seed.
        seed: u64,
    },
    /// Tensor power method via repeated Ttv (requires a cubical tensor).
    PowerMethod {
        /// Maximum iterations.
        max_iters: usize,
        /// Eigenvalue-delta convergence tolerance.
        tol: f64,
        /// Iterate initialization seed.
        seed: u64,
    },
    /// Staged TTM-chain over every mode (a Tucker core computation); one
    /// iteration per mode product.
    TtmChain {
        /// Core rank per mode.
        rank: usize,
        /// Factor generation seed.
        seed: u64,
    },
}

impl JobKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::CpAls { .. } => "cp_als",
            JobKind::PowerMethod { .. } => "power_method",
            JobKind::TtmChain { .. } => "ttm_chain",
        }
    }
}

/// A decomposition job: what to run and on which tensor.
#[derive(Clone)]
pub struct JobSpec {
    /// The method and its parameters.
    pub kind: JobKind,
    /// The input tensor (shared, never copied per job).
    pub tensor: Arc<CooTensor<f32>>,
}

/// Configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Worker threads running jobs.
    pub workers: usize,
    /// Admission bound of the job queue.
    pub queue_bound: usize,
    /// Watchdog budget per iteration, in seconds.
    pub max_step_seconds: f64,
    /// Fault budget per job: one more fault than this fails the job with
    /// [`JobError::RetriesExhausted`].
    pub max_recoveries: u32,
    /// Checkpoint generations kept per job (newest first wins recovery).
    pub keep_checkpoints: usize,
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
            keep_checkpoints: 2,
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
    /// The method rejected its input before the first iteration.
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

/// One accepted iteration's progress sample, streamed through the ticket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Completed iterations after this step.
    pub iteration: u64,
    /// Progress metric: CP-ALS fit, power-method eigenvalue, 0 for TTM.
    pub fit: f64,
    /// `true` when this is the first accepted iteration after a
    /// checkpoint resume — the boundary the determinism gates inspect.
    pub resumed: bool,
}

/// Terminal state of a successful job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-assigned job id.
    pub job_id: u64,
    /// [`JobKind::label`] of the method.
    pub kind: &'static str,
    /// Completed iterations.
    pub iterations: u64,
    /// Final progress metric (CP-ALS fit, eigenvalue, 0 for TTM).
    pub fit: f64,
    /// `true` when the method converged before its iteration cap.
    pub converged: bool,
    /// Faults absorbed via checkpoint resume or reinit.
    pub recoveries: u32,
    /// Recoveries that found no valid checkpoint and restarted from
    /// iteration 0 (still bitwise-deterministic — same seed, same path).
    pub reinits: u32,
    /// Corrupted checkpoint generations detected (CRC/parse rejection).
    pub corrupt_detected: u32,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// The final state serialized as `TNC1` bytes. Two runs of the same
    /// spec at the same thread count — interrupted or not — produce
    /// byte-identical values here; tests compare them directly.
    pub final_checkpoint: Vec<u8>,
    /// Every accepted iteration's sample, in order.
    pub progress: Vec<JobProgress>,
}

enum JobMsg {
    Progress(JobProgress),
    Done(Box<Result<JobOutcome, JobError>>),
}

/// Pollable handle to a submitted job.
pub struct JobTicket {
    job_id: u64,
    rx: mpsc::Receiver<JobMsg>,
    progress: Vec<JobProgress>,
}

impl JobTicket {
    /// The service-assigned job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Drain any progress streamed so far without blocking; returns every
    /// sample received since submission (cumulative).
    pub fn poll_progress(&mut self) -> &[JobProgress] {
        while let Ok(JobMsg::Progress(p)) = self.rx.try_recv() {
            self.progress.push(p);
        }
        &self.progress
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> Result<JobOutcome, JobError> {
        loop {
            match self.rx.recv() {
                Ok(JobMsg::Progress(_)) => {}
                Ok(JobMsg::Done(r)) => return *r,
                Err(_) => return Err(JobError::Lost),
            }
        }
    }
}

/// Verdict of running one iteration through a [`StepRunner`].
#[derive(Debug, Clone)]
pub enum StepVerdict {
    /// The step finished and published its output.
    Done,
    /// The step returned a typed error.
    Failed(String),
    /// The step panicked (caught).
    Panicked(String),
    /// The watchdog fired before the step reported.
    TimedOut,
}

/// Runs one job iteration under supervision. The step closure owns every
/// input it needs and publishes its output through a shared slot, so a
/// runner may execute it on any thread; a step abandoned by its watchdog
/// writes into a slot nobody reads.
pub trait StepRunner: Send + Sync {
    /// Execute `step` with a `max_seconds` wall-clock budget.
    fn run_step(
        &self,
        label: &str,
        step: Arc<dyn Fn() -> Result<(), String> + Send + Sync>,
        max_seconds: f64,
    ) -> StepVerdict;
}

/// Default [`StepRunner`]: a dedicated thread under
/// [`std::panic::catch_unwind`] with an [`mpsc::Receiver::recv_timeout`]
/// watchdog — the same guard shape as the bench supervisor, without its
/// retry/fallback policy (the job engine owns recovery).
pub struct InlineStepRunner;

impl StepRunner for InlineStepRunner {
    fn run_step(
        &self,
        label: &str,
        step: Arc<dyn Fn() -> Result<(), String> + Send + Sync>,
        max_seconds: f64,
    ) -> StepVerdict {
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name(format!("job-step-{label}"))
            .spawn(move || {
                let verdict = match catch_unwind(AssertUnwindSafe(|| step())) {
                    Ok(Ok(())) => StepVerdict::Done,
                    Ok(Err(e)) => StepVerdict::Failed(e),
                    Err(p) => StepVerdict::Panicked(panic_message(p.as_ref())),
                };
                let _ = tx.send(verdict);
            });
        if let Err(e) = spawned {
            return StepVerdict::Failed(format!("could not spawn step thread: {e}"));
        }
        match rx.recv_timeout(Duration::from_secs_f64(max_seconds.max(0.001))) {
            Ok(v) => v,
            Err(mpsc::RecvTimeoutError::Timeout) => StepVerdict::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                StepVerdict::Panicked("step thread died without reporting".into())
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
// Method engine: the three decompositions behind one stepping interface.
// ------------------------------------------------------------------

const KIND_CP_ALS: u8 = 1;
const KIND_POWER: u8 = 2;
const KIND_TTM: u8 = 3;

#[derive(Clone)]
enum StateSnap {
    CpAls(CpAlsState<f32>),
    Power(PowerMethodState<f32>),
    Ttm(TtmChainState<f32>),
}

/// Output slot a step closure publishes into: the advanced state and the
/// method's "finished" flag. Abandoned slots (watchdog fired) are dropped
/// unread.
type Slot = Arc<Mutex<Option<(StateSnap, bool)>>>;

enum Method {
    CpAls {
        x: Arc<CooTensor<f32>>,
        opts: CpAlsOptions,
        state: CpAlsState<f32>,
    },
    Power {
        x: Arc<CooTensor<f32>>,
        tol: f64,
        max_iters: usize,
        seed: u64,
        state: PowerMethodState<f32>,
    },
    Ttm {
        x: Arc<CooTensor<f32>>,
        factors: Arc<Vec<DenseMatrix<f32>>>,
        state: TtmChainState<f32>,
    },
}

/// Deterministic TTM-chain factor matrices: a cheap integer hash of
/// (seed, mode, row, col) keeps them reproducible without carrying them
/// in checkpoints.
fn ttm_factors(x: &CooTensor<f32>, rank: usize, seed: u64) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, rank, |i, j| {
                let mut h = seed
                    ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ ((i as u64) << 32)
                    ^ j as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 33;
                ((h % 1000) as f32) * 1e-3 + 0.05
            })
        })
        .collect()
}

fn cp_opts(rank: usize, max_iters: usize, tol: f64, seed: u64) -> CpAlsOptions {
    CpAlsOptions {
        rank,
        max_iters,
        tol,
        seed,
        // Scheduled is bitwise-deterministic at a fixed thread count;
        // Atomic is not. Jobs guarantee resume determinism, so the
        // strategy is pinned, not configurable.
        strategy: MttkrpStrategy::Scheduled,
        backend: CpAlsBackend::Coo,
    }
}

impl Method {
    fn init(spec: &JobSpec) -> Result<Method, JobError> {
        match spec.kind {
            JobKind::CpAls {
                rank,
                max_iters,
                tol,
                seed,
            } => {
                if rank == 0 {
                    return Err(JobError::Init("cp_als rank must be positive".into()));
                }
                let opts = cp_opts(rank, max_iters, tol, seed);
                let state = cp_als_init(&spec.tensor, &opts);
                Ok(Method::CpAls {
                    x: spec.tensor.clone(),
                    opts,
                    state,
                })
            }
            JobKind::PowerMethod {
                max_iters,
                tol,
                seed,
            } => {
                let state = power_method_init(&spec.tensor, seed)
                    .map_err(|e| JobError::Init(e.to_string()))?;
                Ok(Method::Power {
                    x: spec.tensor.clone(),
                    tol,
                    max_iters,
                    seed,
                    state,
                })
            }
            JobKind::TtmChain { rank, seed } => {
                if rank == 0 {
                    return Err(JobError::Init("ttm_chain rank must be positive".into()));
                }
                Ok(Method::Ttm {
                    x: spec.tensor.clone(),
                    factors: Arc::new(ttm_factors(&spec.tensor, rank, seed)),
                    state: ttm_chain_init(&spec.tensor),
                })
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Method::CpAls { .. } => "cp_als",
            Method::Power { .. } => "power_method",
            Method::Ttm { .. } => "ttm_chain",
        }
    }

    fn iteration(&self) -> usize {
        match self {
            Method::CpAls { state, .. } => state.iteration,
            Method::Power { state, .. } => state.iteration,
            Method::Ttm { state, .. } => state.stage,
        }
    }

    fn max_iters(&self) -> usize {
        match self {
            Method::CpAls { opts, .. } => opts.max_iters,
            Method::Power { max_iters, .. } => *max_iters,
            Method::Ttm { factors, .. } => factors.len(),
        }
    }

    fn fit(&self) -> f64 {
        match self {
            Method::CpAls { state, .. } => state.fit,
            Method::Power { state, .. } => state.eigenvalue as f64,
            Method::Ttm { .. } => 0.0,
        }
    }

    /// Build the closure that runs exactly one iteration. It captures a
    /// *clone* of the current state and publishes the advanced state into
    /// `slot`; the engine's own state only moves forward when the runner
    /// reports [`StepVerdict::Done`], so a faulted attempt leaves the
    /// engine exactly where the last checkpoint says it is.
    fn make_step(
        &self,
        slot: Slot,
        fault: Option<InjectedFault>,
        threads: Option<usize>,
    ) -> Arc<dyn Fn() -> Result<(), String> + Send + Sync> {
        let body: Arc<dyn Fn() -> Result<(), String> + Send + Sync> = match self {
            Method::CpAls { x, opts, state } => {
                let (x, opts, state) = (x.clone(), opts.clone(), state.clone());
                Arc::new(move || {
                    let mut s = state.clone();
                    let done = cp_als_step(&x, &opts, &mut s).map_err(|e| e.to_string())?;
                    publish(&slot, StateSnap::CpAls(s), done);
                    Ok(())
                })
            }
            Method::Power { x, tol, state, .. } => {
                let (x, tol, state) = (x.clone(), *tol, state.clone());
                Arc::new(move || {
                    let mut s = state.clone();
                    let done = power_method_step(&x, tol, &mut s).map_err(|e| e.to_string())?;
                    publish(&slot, StateSnap::Power(s), done);
                    Ok(())
                })
            }
            Method::Ttm { factors, state, .. } => {
                let (factors, state) = (factors.clone(), state.clone());
                Arc::new(move || {
                    let mut s = state.clone();
                    let modes: Vec<(usize, &DenseMatrix<f32>)> =
                        factors.iter().enumerate().collect();
                    let done = ttm_chain_step(&modes, &mut s).map_err(|e| e.to_string())?;
                    publish(&slot, StateSnap::Ttm(s), done);
                    Ok(())
                })
            }
        };
        // Faults fire *before* the math, so the retried iteration redoes
        // the identical computation; the thread override wraps the whole
        // step so every parallel region inside sees the pinned pool.
        Arc::new(move || {
            match fault {
                Some(InjectedFault::PanicInStep) => panic!("chaos: injected step panic"),
                Some(InjectedFault::HangInStep { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
            match threads {
                Some(n) => tenbench_core::par::with_threads(n, || body()),
                None => body(),
            }
        })
    }

    fn install(&mut self, snap: StateSnap) -> Result<(), String> {
        match (self, snap) {
            (Method::CpAls { state, .. }, StateSnap::CpAls(s)) => {
                *state = s;
                Ok(())
            }
            (Method::Power { state, .. }, StateSnap::Power(s)) => {
                *state = s;
                Ok(())
            }
            (Method::Ttm { state, .. }, StateSnap::Ttm(s)) => {
                *state = s;
                Ok(())
            }
            _ => Err("step published a state of the wrong kind".into()),
        }
    }

    /// Serialize the current state as `TNC1` bytes.
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, String> {
        let ckpt = match self {
            Method::CpAls { state, .. } => {
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
                Checkpoint {
                    kind: KIND_CP_ALS,
                    iteration: state.iteration as u64,
                    fit: state.fit,
                    matrices,
                    blob: Vec::new(),
                }
            }
            Method::Power { state, .. } => Checkpoint {
                kind: KIND_POWER,
                iteration: state.iteration as u64,
                // f32 -> f64 is exact, so the eigenvalue round-trips
                // bitwise through the f64 fit field.
                fit: state.eigenvalue as f64,
                matrices: vec![CheckpointMatrix {
                    rows: state.v.len(),
                    cols: 1,
                    data: state.v.as_slice().to_vec(),
                }],
                blob: vec![u8::from(state.converged)],
            },
            Method::Ttm { state, .. } => {
                let mut blob = Vec::new();
                tenbench_io::bin::write_bin(&state.current, &mut blob)
                    .map_err(|e| e.to_string())?;
                Checkpoint {
                    kind: KIND_TTM,
                    iteration: state.stage as u64,
                    fit: 0.0,
                    matrices: Vec::new(),
                    blob,
                }
            }
        };
        let mut bytes = Vec::new();
        write_ckpt(&ckpt, &mut bytes).map_err(|e| e.to_string())?;
        Ok(bytes)
    }

    /// Rebuild the state from `TNC1` bytes. Any CRC failure, parse error,
    /// or structural mismatch is an `Err` — the caller falls back to an
    /// older generation, never resumes from damage.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let ckpt: Checkpoint<f32> = read_ckpt(bytes).map_err(|e| e.to_string())?;
        match self {
            Method::CpAls { x, state, opts } => {
                if ckpt.kind != KIND_CP_ALS {
                    return Err(format!("checkpoint kind {} is not cp_als", ckpt.kind));
                }
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
                    if sec.rows != x.shape().dim(m) as usize || sec.cols != opts.rank {
                        return Err(format!("factor {m} has wrong dimensions"));
                    }
                    factors.push(DenseMatrix::from_vec(sec.rows, sec.cols, sec.data.clone()));
                }
                let lam = &ckpt.matrices[order];
                if lam.rows != opts.rank || lam.cols != 1 {
                    return Err("lambda section has wrong dimensions".into());
                }
                *state = CpAlsState {
                    factors,
                    lambda: lam.data.clone(),
                    fit: ckpt.fit,
                    iteration: ckpt.iteration as usize,
                };
                Ok(())
            }
            Method::Power { x, state, .. } => {
                if ckpt.kind != KIND_POWER {
                    return Err(format!("checkpoint kind {} is not power_method", ckpt.kind));
                }
                let [sec] = ckpt.matrices.as_slice() else {
                    return Err("power checkpoint must hold exactly one section".into());
                };
                if sec.rows != x.shape().dim(0) as usize || sec.cols != 1 {
                    return Err("iterate section has wrong dimensions".into());
                }
                let [converged] = ckpt.blob.as_slice() else {
                    return Err("power checkpoint blob must hold the converged flag".into());
                };
                *state = PowerMethodState {
                    v: DenseVector::from_vec(sec.data.clone()),
                    eigenvalue: ckpt.fit as f32,
                    iteration: ckpt.iteration as usize,
                    converged: *converged != 0,
                };
                Ok(())
            }
            Method::Ttm { state, .. } => {
                if ckpt.kind != KIND_TTM {
                    return Err(format!("checkpoint kind {} is not ttm_chain", ckpt.kind));
                }
                let current =
                    tenbench_io::bin::read_bin(ckpt.blob.as_slice()).map_err(|e| e.to_string())?;
                *state = TtmChainState {
                    stage: ckpt.iteration as usize,
                    current,
                };
                Ok(())
            }
        }
    }

    /// Throw the state away and reseed from iteration 0 — the last resort
    /// when every checkpoint generation is damaged. Deterministic: same
    /// seed, same path as the original run.
    fn reinit(&mut self) {
        match self {
            Method::CpAls { x, opts, state } => *state = cp_als_init(x, opts),
            Method::Power { x, seed, state, .. } => {
                // init validated the tensor once already; it cannot fail now.
                if let Ok(s) = power_method_init(x, *seed) {
                    *state = s;
                }
            }
            Method::Ttm { x, state, .. } => *state = ttm_chain_init(x),
        }
    }
}

fn publish(slot: &Slot, snap: StateSnap, done: bool) {
    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some((snap, done));
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
    pub rejected: u64,
    /// Jobs that reached `Ok(JobOutcome)`.
    pub completed: u64,
    /// Jobs that reached a typed `Err(JobError)`.
    pub failed: u64,
    /// Faults absorbed via checkpoint resume.
    pub recoveries: u64,
    /// Recoveries that restarted from iteration 0.
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
    runner: Arc<dyn StepRunner>,
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
    tx: mpsc::Sender<JobMsg>,
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
    pub fn start(
        cfg: JobConfig,
        runner: Arc<dyn StepRunner>,
        injector: Option<Arc<dyn FaultInjector>>,
    ) -> Self {
        let queue = Arc::new(Bounded::new(cfg.queue_bound));
        let shared = Arc::new(JobShared {
            cfg,
            runner,
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

    /// Start with the default [`InlineStepRunner`] and no fault injection.
    pub fn start_default(cfg: JobConfig) -> Self {
        JobService::start(cfg, Arc::new(InlineStepRunner), None)
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
                Ok(JobTicket {
                    job_id,
                    rx,
                    progress: Vec::new(),
                })
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
        let _ = tx.send(JobMsg::Done(Box::new(result)));
    }
}

fn verdict_text(v: &StepVerdict) -> String {
    match v {
        StepVerdict::Done => "done".into(),
        StepVerdict::Failed(e) => format!("failed: {e}"),
        StepVerdict::Panicked(e) => format!("panicked: {e}"),
        StepVerdict::TimedOut => "timed out".into(),
    }
}

/// The checkpoint/resume engine for one job.
fn run_job(job: QueuedJob, shared: &JobShared) -> Result<JobOutcome, JobError> {
    let cfg = &shared.cfg;
    let mut method = Method::init(&job.spec)?;
    let keep = cfg.keep_checkpoints.max(1);

    // Generation ring, oldest first. Iteration 0 is checkpointed too, so
    // even a fault on the very first step resumes instead of reinits.
    let mut ckpts: VecDeque<Vec<u8>> = VecDeque::new();
    let mut checkpoints = 0u64;
    let push_ckpt = |ckpts: &mut VecDeque<Vec<u8>>, bytes: Vec<u8>, count: &mut u64| {
        ckpts.push_back(bytes);
        while ckpts.len() > keep {
            ckpts.pop_front();
        }
        *count += 1;
        obs::counters::JOB_CHECKPOINTS.add(1);
        obs::flight::note(obs::flight::FlightKind::CkptWrite, *count);
        shared.tally().checkpoints += 1;
    };
    match method.checkpoint_bytes() {
        Ok(b) => push_ckpt(&mut ckpts, b, &mut checkpoints),
        Err(e) => return Err(JobError::Init(format!("initial checkpoint failed: {e}"))),
    }

    let mut recoveries = 0u32;
    let mut reinits = 0u32;
    let mut corrupt_detected = 0u32;
    let mut progress: Vec<JobProgress> = Vec::new();
    let mut resumed_flag = false;
    let mut done = method.max_iters() == 0;

    while !done && method.iteration() < method.max_iters() {
        let fault = shared
            .injector
            .as_ref()
            .and_then(|f| f.next_fault(job.job_id, method.iteration()));
        if fault.is_some() {
            obs::counters::CHAOS_FAULTS.add(1);
        }
        let ckpt_fault = match fault {
            Some(InjectedFault::CorruptCheckpoint { byte, mask }) => Some((byte, mask)),
            _ => None,
        };

        let slot: Slot = Arc::new(Mutex::new(None));
        let step = method.make_step(slot.clone(), fault, cfg.threads);
        let verdict = shared
            .runner
            .run_step(method.label(), step, cfg.max_step_seconds);

        let fault_text = match verdict {
            StepVerdict::Done => {
                let published = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                match published {
                    Some((snap, fin)) => match method.install(snap) {
                        Ok(()) => {
                            done = fin;
                            let sample = JobProgress {
                                iteration: method.iteration() as u64,
                                fit: method.fit(),
                                resumed: resumed_flag,
                            };
                            resumed_flag = false;
                            progress.push(sample);
                            let _ = job.tx.send(JobMsg::Progress(sample));
                            match method.checkpoint_bytes() {
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
                        Err(e) => Some(e),
                    },
                    None => Some("step reported done without publishing a state".into()),
                }
            }
            other => Some(verdict_text(&other)),
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
                match method.restore(&bytes) {
                    Ok(()) => {
                        ckpts.push_back(bytes);
                        restored = true;
                        break;
                    }
                    Err(e) => {
                        corrupt_detected += 1;
                        shared.tally().corrupt_detected += 1;
                        obs::counters::JOB_CKPT_CORRUPT.add(1);
                        obs::flight::dump(
                            "ckpt_corrupt",
                            obs::flight::FlightKind::CkptCorrupt,
                            job.ctx.id,
                            &format!(
                                "job {} ({}): checkpoint generation rejected at iteration {}: {e}",
                                job.job_id,
                                method.label(),
                                method.iteration()
                            ),
                        );
                    }
                }
            }
            if restored {
                obs::counters::JOB_RESUMES.add(1);
                obs::flight::note(obs::flight::FlightKind::Resume, method.iteration() as u64);
            } else {
                method.reinit();
                reinits += 1;
                shared.tally().reinits += 1;
                obs::flight::note(obs::flight::FlightKind::Reinit, reinits as u64);
                match method.checkpoint_bytes() {
                    Ok(b) => push_ckpt(&mut ckpts, b, &mut checkpoints),
                    Err(e) => return Err(JobError::Init(format!("reinit checkpoint failed: {e}"))),
                }
            }
            resumed_flag = true;
            done = false;
        }
    }

    let fit = method.fit();
    if !fit.is_finite() {
        return Err(JobError::InvalidFit { fit });
    }
    let final_checkpoint = method
        .checkpoint_bytes()
        .map_err(|e| JobError::Init(format!("final checkpoint failed: {e}")))?;
    Ok(JobOutcome {
        job_id: job.job_id,
        kind: method.label(),
        iterations: method.iteration() as u64,
        fit,
        converged: done,
        recoveries,
        reinits,
        corrupt_detected,
        checkpoints,
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
            kind: JobKind::CpAls {
                rank: 4,
                max_iters: 6,
                tol: 0.0,
                seed: 42,
            },
            tensor: x.clone(),
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
    fn all_three_kinds_complete_without_faults() {
        let x = tensor(1);
        let svc = JobService::start_default(quick_cfg());
        let specs = [
            cp_spec(&x),
            JobSpec {
                kind: JobKind::PowerMethod {
                    max_iters: 8,
                    tol: 0.0,
                    seed: 7,
                },
                tensor: x.clone(),
            },
            JobSpec {
                kind: JobKind::TtmChain { rank: 3, seed: 9 },
                tensor: x.clone(),
            },
        ];
        let tickets: Vec<JobTicket> = specs
            .iter()
            .map(|s| svc.submit(s.clone()).expect("admitted"))
            .collect();
        for t in tickets {
            let out = t.wait().expect("job completed");
            assert!(out.iterations > 0);
            assert!(out.fit.is_finite());
            assert_eq!(out.recoveries, 0);
            assert!(out.checkpoints as usize >= out.progress.len());
            assert!(!out.final_checkpoint.is_empty());
        }
        let report = svc.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn progress_streams_per_iteration_fits() {
        let x = tensor(2);
        let svc = JobService::start_default(quick_cfg());
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
        let clean_svc = JobService::start_default(quick_cfg());
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
            Arc::new(InlineStepRunner),
            Some(Arc::new(faults)),
        );
        let out = svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        let report = svc.shutdown();

        assert_eq!(out.recoveries, 1, "panic absorbed via resume");
        assert_eq!(out.corrupt_detected, 1, "damaged generation detected");
        assert_eq!(out.reinits, 0, "older generation was intact");
        assert!(out.progress.iter().any(|p| p.resumed));
        assert_eq!(out.iterations, clean.iterations);
        assert_eq!(out.fit.to_bits(), clean.fit.to_bits());
        assert_eq!(
            out.final_checkpoint, clean.final_checkpoint,
            "resumed factors are not bitwise-identical"
        );
        assert_eq!(report.corrupt_detected, 1);
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
            Arc::new(InlineStepRunner),
            Some(Arc::new(faults)),
        );
        // With a 50 ms watchdog the clean steps must still fit; a tiny
        // tensor at rank 2 is well under that.
        let t = svc
            .submit(JobSpec {
                kind: JobKind::CpAls {
                    rank: 2,
                    max_iters: 3,
                    tol: 0.0,
                    seed: 5,
                },
                tensor: x.clone(),
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
            Arc::new(InlineStepRunner),
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
                keep_checkpoints: 2,
                max_recoveries: 4,
                ..quick_cfg()
            },
            Arc::new(InlineStepRunner),
            Some(Arc::new(faults)),
        );
        let out = svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        assert_eq!(out.reinits, 1);
        assert_eq!(out.corrupt_detected, 2);

        let clean_svc = JobService::start_default(quick_cfg());
        let clean = clean_svc.submit(cp_spec(&x)).unwrap().wait().unwrap();
        clean_svc.shutdown();
        assert_eq!(out.final_checkpoint, clean.final_checkpoint);
        svc.shutdown();
    }

    #[test]
    fn queue_full_rejects_typed_and_invalid_tensor_fails_init() {
        let x = tensor(7);
        let svc = JobService::start(
            JobConfig {
                workers: 1,
                queue_bound: 1,
                ..quick_cfg()
            },
            Arc::new(InlineStepRunner),
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

        // A non-cubical tensor is a typed init failure for the power
        // method, not a crash.
        let flat = Arc::new(
            CooTensor::from_entries(
                Shape::new(vec![4, 8]),
                vec![(vec![0, 0], 1.0f32), (vec![3, 7], 2.0)],
            )
            .unwrap(),
        );
        match svc.submit(JobSpec {
            kind: JobKind::PowerMethod {
                max_iters: 4,
                tol: 0.0,
                seed: 1,
            },
            tensor: flat,
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
            Arc::new(InlineStepRunner),
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
