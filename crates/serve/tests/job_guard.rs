//! Job steps run under the same guard as supervised kernel attempts
//! (`serve::guard::run_guarded`), so they share its rules: a budget that
//! is not finite and > 0 means no watchdog, a step panic writes one
//! `panic` flight dump charged to the job, and the step's thread runs
//! under the job's trace context.
//!
//! The flight dump sink and the panic hook are process-wide, so the tests
//! serialize through a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;
use tenbench_obs as obs;
use tenbench_serve::{
    FaultInjector, InjectedFault, JobConfig, JobService, JobSpec, ScriptedFaults,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cp_spec() -> JobSpec {
    let x = CooTensor::from_entries(
        Shape::new(vec![12, 10, 8]),
        (0..200u32)
            .map(|i| {
                (
                    vec![(i * 7) % 12, (i * 13) % 10, (i * 5) % 8],
                    (i % 41) as f32 * 0.25 + 0.5,
                )
            })
            .collect(),
    )
    .unwrap();
    JobSpec {
        tensor: Arc::new(x),
        rank: 3,
        max_iters: 4,
        tol: 0.0,
        seed: 7,
    }
}

/// Records the trace context installed where the engine asks for a fault
/// (the job worker, under the job's ctx), then follows a script.
struct CtxProbe {
    job_ctx: AtomicU64,
    script: ScriptedFaults,
}

impl FaultInjector for CtxProbe {
    fn next_fault(&self, job_id: u64, iteration: usize) -> Option<InjectedFault> {
        self.job_ctx
            .store(obs::ctx::current_id(), Ordering::Relaxed);
        self.script.next_fault(job_id, iteration)
    }
}

/// A panic at iteration 1 of the service's first job.
fn panic_probe() -> Arc<CtxProbe> {
    Arc::new(CtxProbe {
        job_ctx: AtomicU64::new(0),
        script: ScriptedFaults::new(vec![(1, 1, InjectedFault::PanicInStep)]),
    })
}

#[test]
fn an_infinite_step_budget_means_no_watchdog() {
    let _g = lock();
    let svc = JobService::start(
        JobConfig {
            workers: 1,
            max_step_seconds: f64::INFINITY,
            ..JobConfig::default()
        },
        None,
    );
    let out = svc.submit(cp_spec()).unwrap().wait();
    let out = out.expect("an uncapped job completes");
    assert_eq!(out.iterations, 4);
    assert_eq!(out.recoveries, 0);
    assert_eq!(svc.shutdown().lost(), 0);
}

#[test]
fn a_step_panic_writes_one_panic_dump_charged_to_the_job() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("tenbench-job-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    obs::flight::set_dump_dir(Some(dir.clone())).expect("dump dir created");

    let probe = panic_probe();
    let svc = JobService::start(
        JobConfig {
            workers: 1,
            ..JobConfig::default()
        },
        Some(probe.clone()),
    );
    let out = svc.submit(cp_spec()).unwrap().wait();
    svc.shutdown();
    obs::flight::set_dump_dir(None).unwrap();
    assert_eq!(out.expect("the job resumes").recoveries, 1);

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir readable")
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with("-panic.json"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one panic dump: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    let summary = obs::flight::validate_flight_dump(&text).expect("dump validates");
    let job_ctx = probe.job_ctx.load(Ordering::Relaxed);
    assert_ne!(job_ctx, 0, "the job worker runs under a ctx");
    assert_eq!(summary.ctx, job_ctx, "the dump names the job");
    assert!(
        summary.detail.contains("injected step panic"),
        "{}",
        summary.detail
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_step_runs_under_the_jobs_trace_context() {
    let _g = lock();
    // The injected panic fires on the step's own thread; the hook reads
    // the ctx installed there.
    let step_ctx = Arc::new(AtomicU64::new(u64::MAX));
    let seen = step_ctx.clone();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() == Some(&"chaos: injected step panic") {
            seen.store(obs::ctx::current_id(), Ordering::Relaxed);
        } else {
            prev(info);
        }
    }));
    let probe = panic_probe();
    let svc = JobService::start(
        JobConfig {
            workers: 1,
            ..JobConfig::default()
        },
        Some(probe.clone()),
    );
    let out = svc.submit(cp_spec()).unwrap().wait();
    svc.shutdown();
    drop(std::panic::take_hook());
    assert_eq!(out.expect("the job resumes").recoveries, 1);
    let job_ctx = probe.job_ctx.load(Ordering::Relaxed);
    assert_ne!(job_ctx, 0, "the job worker runs under a ctx");
    assert_eq!(step_ctx.load(Ordering::Relaxed), job_ctx);
}
