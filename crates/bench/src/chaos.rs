//! The chaos harness: try to kill a live service, prove nothing is lost.
//!
//! [`run_chaos`] stands up the full serving stack — a [`KernelService`]
//! under Zipf-skewed closed-loop kernel traffic *and* a
//! [`JobService`] running CP-ALS decomposition jobs, each step guarded by
//! a watchdog — then injects faults into the
//! jobs while they run: step panics, step hangs that trip the watchdog,
//! checkpoint corruption that the resume path must detect, and queue-full
//! submission bursts against both services.
//!
//! The harness then checks the robustness contract the PR series builds
//! toward (ROADMAP item 5):
//!
//! - **Zero lost jobs**: every admitted job reaches a terminal state —
//!   completed with a finite fit or failed with a typed [`JobError`].
//! - **Recovery really happened**: at least one fault was absorbed via
//!   checkpoint resume (the CI floor makes this a hard gate, proving the
//!   injector was live).
//! - **Determinism across resume boundaries**: every completed job is
//!   re-run uninterrupted in-process and must match bitwise — final fit,
//!   final `TNC1` checkpoint (all factor matrices), and every
//!   per-iteration fit sample. A run in which no job completed has
//!   checked nothing, so the CLI fails that gate too.
//! - **Monotone fit**: fit residuals never increase across a
//!   resume boundary (a resumed iteration recomputes exactly what the
//!   uninterrupted run would have produced).
//!
//! Recovery counters flow through `tenbench_obs::counters` and are
//! included in the report as deltas over the chaos run itself (the
//! reference re-runs come after the closing snapshot), so they agree with
//! the report's own totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;
use tenbench_gen::KroneckerGenerator;
use tenbench_obs as obs;
use tenbench_serve::{
    burst, closed_loop, FaultInjector, InjectedFault, JobConfig, JobError, JobOutcome, JobProgress,
    JobService, JobSpec, JobTicket, KernelService, ServeConfig, StressConfig, Tally, Transport,
};

use crate::serve_exec::SupervisedExecutor;
use crate::supervisor::SupervisorConfig;

/// Knobs for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Kernel-traffic phase length (jobs run concurrently and may outlive
    /// it; the run ends when every job reaches a terminal state).
    pub duration: Duration,
    /// Master seed: tensor pool, job parameters, fault schedule.
    pub seed: u64,
    /// CP-ALS jobs submitted up front (cycling over the pool), each with
    /// its own seed.
    pub jobs: usize,
    /// Pool tensor side (shape `dim x dim x dim`).
    pub dim: u32,
    /// Nonzeros per pool tensor.
    pub nnz: usize,
    /// Pool size (Zipf popularity ranges over these).
    pub tensors: usize,
    /// Zipf skew of the kernel traffic.
    pub alpha: f64,
    /// Closed-loop kernel client workers.
    pub clients: usize,
    /// CP-ALS decomposition rank.
    pub rank: usize,
    /// CP-ALS sweep budget per job.
    pub max_iters: usize,
    /// Probability a job iteration draws a fault.
    pub fault_rate: f64,
    /// Watchdog budget per job iteration, in seconds. Injected hangs
    /// sleep for twice this, so every hang trips the watchdog.
    pub max_step_seconds: f64,
    /// Job worker threads.
    pub job_workers: usize,
    /// Fault budget per job before a typed `RetriesExhausted` failure.
    pub max_recoveries: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            duration: Duration::from_secs(3),
            seed: 42,
            jobs: 9,
            dim: 24,
            nnz: 2_000,
            tensors: 4,
            alpha: 1.1,
            clients: 2,
            rank: 4,
            max_iters: 6,
            fault_rate: 0.25,
            max_step_seconds: 2.0,
            job_workers: 2,
            max_recoveries: 8,
        }
    }
}

/// Seeded random fault source. Each iteration draws against
/// `fault_rate`; firing faults cycle panic → hang → corruption so a run
/// with three or more faults provably exercises every kind.
pub struct RandomFaults {
    rng: Mutex<StdRng>,
    rate: f64,
    hang_ms: u64,
    fired: AtomicU64,
    panics: AtomicU64,
    hangs: AtomicU64,
    corruptions: AtomicU64,
}

impl RandomFaults {
    /// A fault source with the given per-iteration rate.
    pub fn new(seed: u64, rate: f64, hang_ms: u64) -> Self {
        RandomFaults {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            rate,
            hang_ms,
            fired: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            hangs: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// (panics, hangs, corruptions) injected so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.panics.load(Ordering::Relaxed),
            self.hangs.load(Ordering::Relaxed),
            self.corruptions.load(Ordering::Relaxed),
        )
    }
}

impl FaultInjector for RandomFaults {
    fn next_fault(&self, _job_id: u64, _iteration: usize) -> Option<InjectedFault> {
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        if rng.random::<f64>() >= self.rate {
            return None;
        }
        let n = self.fired.fetch_add(1, Ordering::Relaxed);
        match n % 3 {
            0 => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                Some(InjectedFault::PanicInStep)
            }
            1 => {
                self.hangs.fetch_add(1, Ordering::Relaxed);
                Some(InjectedFault::HangInStep { ms: self.hang_ms })
            }
            _ => {
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                Some(InjectedFault::CorruptCheckpoint {
                    byte: rng.next_u64() as usize,
                    mask: (rng.next_u64() % 255 + 1) as u8,
                })
            }
        }
    }
}

/// One job's terminal line in the report.
#[derive(Debug, Clone)]
pub struct ChaosJobLine {
    /// Service-assigned job id.
    pub job_id: u64,
    /// `"completed"` or `"failed: <typed error>"` — never anything else.
    pub terminal: String,
    /// Iterations completed (0 for failed jobs).
    pub iterations: u64,
    /// Final fit (NaN for failed jobs; completed jobs are gated finite).
    pub fit: f64,
    /// Faults this job absorbed.
    pub recoveries: u32,
    /// Progress samples flagged as resume boundaries.
    pub resume_boundaries: u32,
}

/// Everything one chaos run observed; the CLI formats and gates it.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Jobs admitted (initial wave plus admitted burst jobs).
    pub admitted: u64,
    /// Burst submissions refused with a typed queue-full rejection.
    pub burst_rejected: u64,
    /// Admitted jobs that completed with a finite fit.
    pub completed: u64,
    /// Admitted jobs that failed with a typed error.
    pub failed: u64,
    /// Admitted jobs with no terminal state: the headline gate, always 0.
    pub lost: u64,
    /// Step faults (checkpoint resumes + reinits + the faults that
    /// exhausted a job's budget).
    pub recoveries: u64,
    /// Recoveries that resumed from a valid checkpoint.
    pub resumes: u64,
    /// Recoveries that found every generation damaged and restarted.
    pub reinits: u64,
    /// Corrupted checkpoint generations detected and refused.
    pub corrupt_detected: u64,
    /// Checkpoints written across all jobs.
    pub checkpoints: u64,
    /// Step panics injected.
    pub injected_panics: u64,
    /// Step hangs injected.
    pub injected_hangs: u64,
    /// Checkpoint corruptions injected.
    pub injected_corruptions: u64,
    /// Kernel-traffic client tally from the closed-loop phase.
    pub kernel: Tally,
    /// Kernel overload burst against the service.
    pub kernel_probe: Tally,
    /// Completed jobs whose uninterrupted re-run differs bitwise (gate:
    /// 0). Every completed job is re-run.
    pub mismatched: u64,
    /// Resume boundaries observed across all completed jobs.
    pub resume_boundaries: u64,
    /// Fit-residual increases across a resume boundary (gate: 0).
    pub residual_violations: u64,
    /// Per-job terminal lines, in submission order.
    pub job_lines: Vec<ChaosJobLine>,
    /// Deltas of the `job.*` / `chaos.*` obs counters over the run,
    /// reference re-runs excluded.
    pub counters: Vec<(&'static str, u64)>,
}

impl ChaosReport {
    /// Machine-readable JSON object (validated by the caller before disk).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut field = |name: &str, v: String, first: bool| {
            if !first {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{name}\": {v}"));
        };
        field("admitted", self.admitted.to_string(), true);
        field("burst_rejected", self.burst_rejected.to_string(), false);
        field("completed", self.completed.to_string(), false);
        field("failed", self.failed.to_string(), false);
        field("lost", self.lost.to_string(), false);
        field("recoveries", self.recoveries.to_string(), false);
        field("resumes", self.resumes.to_string(), false);
        field("reinits", self.reinits.to_string(), false);
        field("corrupt_detected", self.corrupt_detected.to_string(), false);
        field("checkpoints", self.checkpoints.to_string(), false);
        field("injected_panics", self.injected_panics.to_string(), false);
        field("injected_hangs", self.injected_hangs.to_string(), false);
        field(
            "injected_corruptions",
            self.injected_corruptions.to_string(),
            false,
        );
        field("kernel", self.kernel.to_json(), false);
        field("kernel_probe", self.kernel_probe.to_json(), false);
        field("mismatched", self.mismatched.to_string(), false);
        field(
            "resume_boundaries",
            self.resume_boundaries.to_string(),
            false,
        );
        field(
            "residual_violations",
            self.residual_violations.to_string(),
            false,
        );
        let jobs = self
            .job_lines
            .iter()
            .map(|l| {
                format!(
                    "{{\"job_id\": {}, \"terminal\": \"{}\", \"iterations\": {}, \"fit\": {}, \"recoveries\": {}, \"resume_boundaries\": {}}}",
                    l.job_id,
                    obs::json::escape_json(&l.terminal),
                    l.iterations,
                    obs::json::json_f64(l.fit),
                    l.recoveries,
                    l.resume_boundaries
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        field("jobs", format!("[{jobs}]"), false);
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| format!("{{\"name\": \"{n}\", \"delta\": {v}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        field("counters", format!("[{counters}]"), false);
        s.push('}');
        s
    }
}

/// The CP-ALS job in slot `j`: pool tensor `j mod tensors`, a seed
/// derived from the master seed and the slot.
fn job_spec(cfg: &ChaosConfig, pool: &[Arc<CooTensor<f32>>], j: usize) -> JobSpec {
    JobSpec {
        tensor: pool[j % pool.len()].clone(),
        rank: cfg.rank,
        max_iters: cfg.max_iters,
        tol: 0.0,
        seed: cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(j as u64),
    }
}

/// Collapse a chaotic progress stream to the accepted per-iteration
/// samples. A resume that falls back past a damaged generation re-emits
/// the recomputed iterations (flagged `resumed`), so the raw stream can
/// contain an iteration twice; the engine's state rolled back to the
/// restore point, so the *last* occurrence is the accepted one. Popping
/// every sample at or past the re-emitted iteration replays that
/// rollback, leaving the stream an uninterrupted run would have produced.
fn accepted_progress(raw: &[JobProgress]) -> Vec<JobProgress> {
    let mut out: Vec<JobProgress> = Vec::with_capacity(raw.len());
    for p in raw {
        while out.last().is_some_and(|l| l.iteration >= p.iteration) {
            out.pop();
        }
        out.push(*p);
    }
    out
}

fn terminal_text(r: &Result<JobOutcome, JobError>) -> String {
    match r {
        Ok(_) => "completed".to_string(),
        Err(e) => format!("failed: {e}"),
    }
}

/// Uninterrupted in-process reference for one spec, at the same ambient
/// thread count as the chaos run. Returns `None` if the clean run fails —
/// which the caller counts as a mismatch, since the chaotic run completed.
fn reference_outcome(spec: &JobSpec) -> Option<JobOutcome> {
    let svc = JobService::start(
        JobConfig {
            workers: 1,
            queue_bound: 1,
            max_step_seconds: f64::INFINITY,
            max_recoveries: 0,
            threads: None,
        },
        None,
    );
    let out = svc.submit(spec.clone()).ok()?.wait().ok();
    svc.shutdown();
    out
}

/// Run the chaos scenario and collect the evidence. Pure observation — the
/// CLI layer applies the gates so a violated gate renders the full report
/// first.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let snap0 = obs::counters::snapshot();

    // Cubical pool shared by kernel traffic and jobs: the job tensors are
    // the *same* Arcs the kernel service is hammering, so cache reuse and
    // decomposition state coexist.
    let shape = vec![cfg.dim.max(2); 3];
    let pool: Vec<Arc<CooTensor<f32>>> = (0..cfg.tensors.max(1) as u64)
        .map(|i| {
            Arc::new(
                KroneckerGenerator::rmat_like(Shape::new(shape.clone()), cfg.nnz)
                    .generate(cfg.seed.wrapping_add(i)),
            )
        })
        .collect();

    let injector = Arc::new(RandomFaults::new(
        cfg.seed,
        cfg.fault_rate,
        (cfg.max_step_seconds * 2_000.0).max(100.0) as u64,
    ));
    let job_cfg = JobConfig {
        workers: cfg.job_workers.max(1),
        queue_bound: cfg.jobs.max(1),
        max_step_seconds: cfg.max_step_seconds,
        max_recoveries: cfg.max_recoveries,
        threads: None,
    };
    let jsvc = JobService::start(job_cfg, Some(injector.clone() as Arc<dyn FaultInjector>));

    let ksvc = KernelService::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Box::new(SupervisedExecutor::new(SupervisorConfig {
            max_seconds: cfg.max_step_seconds.max(5.0),
            ..SupervisorConfig::default()
        })),
    );

    let mut burst_rejected = 0u64;

    let ((kernel, kernel_probe), results) = std::thread::scope(|s| {
        // Kernel traffic + overload burst on a sibling thread while the
        // jobs run and the fault thread (the injector, pulled from inside
        // the job workers) fires.
        let kernel_phase = s.spawn(|| {
            let transport = Transport::InProcess(&ksvc);
            let stress = StressConfig {
                duration: cfg.duration,
                concurrency: cfg.clients.max(1),
                alpha: cfg.alpha,
                rank: cfg.rank,
                deadline_ms: 250,
                seed: cfg.seed,
                ..StressConfig::default()
            };
            let tally = closed_loop(&transport, &pool, &stress);
            let (_, probe) = burst(&transport, &pool, stress.concurrency);
            (tally, probe)
        });

        // The initial wave is sized to the queue bound, so all of it is
        // admitted; the burst behind it slams the queue three times past
        // its bound. Typed rejections are the expected, correct answer;
        // anything admitted is tracked and must terminate like the rest.
        let mut tickets: Vec<(JobSpec, JobTicket)> = Vec::new();
        for j in 0..cfg.jobs.max(1) * 4 {
            let spec = job_spec(cfg, &pool, j);
            match jsvc.submit(spec.clone()) {
                Ok(t) => tickets.push((spec, t)),
                Err(JobError::Rejected { .. }) => {
                    burst_rejected += 1;
                    obs::counters::CHAOS_FAULTS.add(1);
                }
                Err(_) => {}
            }
        }

        let results: Vec<(JobSpec, u64, Result<JobOutcome, JobError>)> = tickets
            .into_iter()
            .map(|(spec, t)| (spec, t.job_id(), t.wait()))
            .collect();
        let (tally, probe) = kernel_phase.join().expect("kernel phase panicked");
        ((tally, probe), results)
    });

    let job_report = jsvc.shutdown();
    ksvc.shutdown();

    // Close the counter window before the reference re-runs below, which
    // go through a `JobService` of their own.
    let (injected_panics, injected_hangs, injected_corruptions) = injector.counts();
    let counters: Vec<(&'static str, u64)> = obs::counters::since(&snap0)
        .into_iter()
        .filter(|(name, _)| name.starts_with("job.") || name.starts_with("chaos."))
        .collect();

    // Gates evidence: terminal accounting, reference comparison, residual
    // monotonicity at resume boundaries.
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut mismatched = 0u64;
    let mut resume_boundaries = 0u64;
    let mut residual_violations = 0u64;
    let mut job_lines = Vec::with_capacity(results.len());

    for (spec, job_id, result) in &results {
        let (iterations, fit, recoveries, boundaries) = match result {
            Ok(out) => {
                completed += 1;
                let boundaries = out.progress.iter().filter(|p| p.resumed).count() as u32;
                resume_boundaries += boundaries as u64;
                // Residual = 1 - fit: non-increasing across a resume
                // boundary means fit never drops when recovery recomputes
                // an iteration.
                for w in out.progress.windows(2) {
                    if w[1].resumed && w[1].fit < w[0].fit - 1e-6 {
                        residual_violations += 1;
                    }
                }
                let accepted = accepted_progress(&out.progress);
                match reference_outcome(spec) {
                    Some(clean)
                        if clean.fit.to_bits() == out.fit.to_bits()
                            && clean.final_checkpoint == out.final_checkpoint
                            && clean.progress.len() == accepted.len()
                            && clean.progress.iter().zip(accepted.iter()).all(|(a, b)| {
                                a.iteration == b.iteration && a.fit.to_bits() == b.fit.to_bits()
                            }) => {}
                    _ => mismatched += 1,
                }
                (out.iterations, out.fit, out.recoveries, boundaries)
            }
            Err(_) => {
                failed += 1;
                (0, f64::NAN, 0, 0)
            }
        };
        job_lines.push(ChaosJobLine {
            job_id: *job_id,
            terminal: terminal_text(result),
            iterations,
            fit,
            recoveries,
            resume_boundaries: boundaries,
        });
    }

    ChaosReport {
        admitted: job_report.submitted,
        burst_rejected,
        completed,
        failed,
        lost: job_report.submitted.saturating_sub(completed + failed),
        recoveries: job_report.recoveries,
        resumes: job_report.resumes,
        reinits: job_report.reinits,
        corrupt_detected: job_report.corrupt_detected,
        checkpoints: job_report.checkpoints,
        injected_panics,
        injected_hangs,
        injected_corruptions,
        kernel,
        kernel_probe,
        mismatched,
        resume_boundaries,
        residual_violations,
        job_lines,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accepted-progress rollback replay: re-emitted iterations
    /// supersede everything at or past their index.
    #[test]
    fn accepted_progress_replays_rollbacks() {
        let p = |iteration: u64, fit: f64, resumed: bool| JobProgress {
            iteration,
            fit,
            resumed,
        };
        let raw = [
            p(1, 0.1, false),
            p(2, 0.2, false),
            p(3, 0.3, false),
            // Resume fell back past the iteration-3 generation.
            p(3, 0.31, true),
            p(4, 0.4, false),
            // A later reinit replays from scratch.
            p(1, 0.11, true),
            p(2, 0.21, false),
        ];
        let accepted = accepted_progress(&raw);
        let got: Vec<(u64, f64)> = accepted.iter().map(|q| (q.iteration, q.fit)).collect();
        assert_eq!(got, vec![(1, 0.11), (2, 0.21)]);
        let full = accepted_progress(&raw[..5]);
        let got: Vec<(u64, f64)> = full.iter().map(|q| (q.iteration, q.fit)).collect();
        assert_eq!(got, vec![(1, 0.1), (2, 0.2), (3, 0.31), (4, 0.4)]);
    }
}
