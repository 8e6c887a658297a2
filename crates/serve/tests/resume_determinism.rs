//! Resume-determinism acceptance: a CP-ALS job interrupted at iteration k
//! and resumed from its checkpoint produces factors bitwise-identical to
//! an uninterrupted run of the same spec — at 1 thread and at 4 threads.
//!
//! The comparison is on the serialized `TNC1` final checkpoint, which
//! holds every factor matrix, lambda, the fit (f64 bits), and the
//! iteration count: byte equality there IS bitwise factor equality.
//! Thread-count determinism rests on CP-ALS running the scheduled
//! `mttkrp_sched` and on jobs installing a fixed-size pool around every
//! step (`JobConfig::threads`).

use std::sync::Arc;

use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;
use tenbench_serve::{InjectedFault, JobConfig, JobOutcome, JobService, JobSpec, ScriptedFaults};

fn tensor() -> Arc<CooTensor<f32>> {
    Arc::new(
        CooTensor::from_entries(
            Shape::new(vec![20, 18, 16]),
            (0..600u32)
                .map(|i| {
                    (
                        vec![(i * 7 + 3) % 20, (i * 13 + 1) % 18, (i * 29) % 16],
                        (i % 97) as f32 * 0.125 + 0.5,
                    )
                })
                .collect(),
        )
        .unwrap(),
    )
}

fn spec(x: &Arc<CooTensor<f32>>) -> JobSpec {
    JobSpec {
        tensor: x.clone(),
        rank: 5,
        max_iters: 7,
        tol: 0.0,
        seed: 42,
    }
}

fn cfg(threads: usize) -> JobConfig {
    JobConfig {
        workers: 1,
        max_step_seconds: 30.0,
        max_recoveries: 4,
        threads: Some(threads),
        ..JobConfig::default()
    }
}

fn run_clean(x: &Arc<CooTensor<f32>>, threads: usize) -> JobOutcome {
    let svc = JobService::start(cfg(threads), None);
    let out = svc.submit(spec(x)).unwrap().wait().unwrap();
    svc.shutdown();
    out
}

/// Interrupt iteration `k` with a panic; the engine resumes from the
/// checkpoint written after iteration `k-1` and recomputes forward.
fn run_interrupted(x: &Arc<CooTensor<f32>>, threads: usize, k: usize) -> JobOutcome {
    let faults = ScriptedFaults::new(vec![(1, k, InjectedFault::PanicInStep)]);
    let svc = JobService::start(cfg(threads), Some(Arc::new(faults)));
    let out = svc.submit(spec(x)).unwrap().wait().unwrap();
    let report = svc.shutdown();
    assert_eq!(report.lost(), 0);
    assert!(report.recoveries >= 1, "the injected fault never fired");
    out
}

fn assert_bitwise_match(clean: &JobOutcome, resumed: &JobOutcome, label: &str) {
    assert!(resumed.recoveries >= 1, "{label}: no recovery recorded");
    assert!(
        resumed.progress.iter().any(|p| p.resumed),
        "{label}: no resume boundary in the progress stream"
    );
    assert_eq!(
        resumed.iterations, clean.iterations,
        "{label}: iteration count"
    );
    assert_eq!(
        resumed.fit.to_bits(),
        clean.fit.to_bits(),
        "{label}: final fit differs"
    );
    assert_eq!(
        resumed.final_checkpoint, clean.final_checkpoint,
        "{label}: resumed factors are not bitwise-identical to the clean run"
    );
    // Per-iteration fits from the resume boundary onward retrace the
    // clean run sample-for-sample (earlier samples match trivially: the
    // faulted attempt published nothing).
    for (a, b) in clean.progress.iter().zip(resumed.progress.iter()) {
        assert_eq!(a.iteration, b.iteration, "{label}: progress iteration");
        assert_eq!(
            a.fit.to_bits(),
            b.fit.to_bits(),
            "{label}: fit at iteration {} differs",
            a.iteration
        );
    }
}

#[test]
fn resume_is_bitwise_identical_at_1_thread() {
    let x = tensor();
    let clean = run_clean(&x, 1);
    let resumed = run_interrupted(&x, 1, 3);
    assert_bitwise_match(&clean, &resumed, "1 thread, interrupt at k=3");
}

#[test]
fn resume_is_bitwise_identical_at_4_threads() {
    let x = tensor();
    let clean = run_clean(&x, 4);
    let resumed = run_interrupted(&x, 4, 3);
    assert_bitwise_match(&clean, &resumed, "4 threads, interrupt at k=3");
}

#[test]
fn resume_at_first_iteration_is_bitwise_identical() {
    // A fault on the very first step resumes from the iteration-0
    // checkpoint (seeded init), not a reinit.
    let x = tensor();
    let clean = run_clean(&x, 2);
    let resumed = run_interrupted(&x, 2, 0);
    assert_eq!(
        resumed.reinits, 0,
        "iteration-0 checkpoint should cover this"
    );
    assert_bitwise_match(&clean, &resumed, "2 threads, interrupt at k=0");
}

#[test]
fn clean_runs_are_reproducible_across_services() {
    // Baseline sanity for the comparisons above: two services, same spec,
    // same thread count, byte-identical final checkpoints.
    let x = tensor();
    let a = run_clean(&x, 4);
    let b = run_clean(&x, 4);
    assert_eq!(a.final_checkpoint, b.final_checkpoint);
}
