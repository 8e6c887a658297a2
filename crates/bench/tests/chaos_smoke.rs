//! Tier-1 chaos smoke. The obs counters are process-wide and always on, and
//! every reader takes its own delta, so other counter readers may run beside
//! a chaos run — one test here does exactly that. What still needs a binary
//! of its own is the `job.*` counters: a chaos run's deltas equal its own
//! job totals only while no other job service runs in the process, so the
//! two chaos runs here take turns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use tenbench_bench::chaos::{run_chaos, ChaosConfig, ChaosReport};
use tenbench_bench::metrics::Capture;
use tenbench_bench::suite::measure_cell;
use tenbench_obs as obs;

/// Serializes the chaos runs of this binary: both read `job.*` deltas.
static JOBS: Mutex<()> = Mutex::new(());

fn small() -> ChaosConfig {
    ChaosConfig {
        duration: Duration::from_millis(300),
        jobs: 6,
        dim: 12,
        nnz: 400,
        tensors: 2,
        clients: 1,
        rank: 3,
        max_iters: 4,
        fault_rate: 0.35,
        max_step_seconds: 0.5,
        ..ChaosConfig::default()
    }
}

/// The chaos report's `job.*` counter deltas cover the chaos run, not the
/// reference re-runs, and a resume is counted only when a checkpoint was
/// restored.
fn assert_counter_deltas_match(report: &ChaosReport) {
    let delta = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(delta("job.submitted"), report.admitted);
    assert_eq!(delta("job.checkpoints"), report.checkpoints);
    assert_eq!(delta("job.resumes"), report.resumes);
}

/// A short, fault-heavy scenario must lose nothing, stay
/// bitwise-deterministic, report counter deltas that agree with its own
/// totals, and emit valid report JSON.
#[test]
fn chaos_smoke_loses_nothing_and_stays_deterministic() {
    let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = small();
    let report = run_chaos(&cfg);
    assert!(report.admitted >= cfg.jobs as u64, "initial wave admitted");
    assert_eq!(
        report.lost, 0,
        "every admitted job reached a terminal state"
    );
    assert_eq!(report.completed + report.failed, report.admitted);
    assert!(
        report.burst_rejected >= 1,
        "the queue-full burst must see a typed rejection"
    );
    assert!(report.completed >= 1, "some job completed");
    assert_eq!(
        report.mismatched, 0,
        "completed jobs must bitwise-match the uninterrupted reference"
    );
    assert_counter_deltas_match(&report);
    assert_eq!(report.residual_violations, 0);
    for line in &report.job_lines {
        assert!(
            line.terminal == "completed" || line.terminal.starts_with("failed: "),
            "terminal state is typed: {}",
            line.terminal
        );
    }
    obs::json::Value::parse(&report.to_json()).expect("report JSON is schema-valid");
}

const FLOPS_PER_CALL: u64 = 1000;

/// A chaos run, trace captures and measured cells read the same
/// process-wide counters at once. None may switch the counters off or zero
/// them under another: the chaos deltas still equal the chaos totals, and
/// every cell sees at least the work it charged (chaos's kernel traffic
/// charges `kernel.flops` too, so exact equality cannot hold here).
#[test]
fn concurrent_counter_readers_keep_their_own_deltas() {
    let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Both readers are running before the chaos run starts, and keep
    // reading until it has ended.
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let (report, captures, cells) = std::thread::scope(|s| {
        let captures = s.spawn(|| {
            start.wait();
            let mut n = 0u64;
            while !done.load(Ordering::Relaxed) {
                let cap = Capture::begin();
                obs::counters::FLOPS.add(FLOPS_PER_CALL);
                let (_, metrics) = cap.finish();
                let flops = metrics.counters.iter().find(|(n, _)| n == "kernel.flops");
                assert!(flops.is_some_and(|&(_, v)| v >= FLOPS_PER_CALL));
                n += 1;
            }
            n
        });
        let cells = s.spawn(|| {
            start.wait();
            let mut n = 0u64;
            while !done.load(Ordering::Relaxed) {
                let cell = measure_cell(2, || obs::counters::FLOPS.add(FLOPS_PER_CALL));
                assert!(
                    cell.flops >= cell.calls * FLOPS_PER_CALL,
                    "cell {n}: {} flops over {} calls",
                    cell.flops,
                    cell.calls
                );
                n += 1;
            }
            n
        });
        start.wait();
        let report = run_chaos(&small());
        done.store(true, Ordering::Relaxed);
        (report, captures.join().unwrap(), cells.join().unwrap())
    });
    assert!(captures >= 1 && cells >= 1);
    assert!(report.admitted >= 1 && report.checkpoints >= 1);
    assert_counter_deltas_match(&report);
}

/// The fault plan is a function of the seed: two runs with one seed give
/// every job of the initial wave the same fault list, another seed gives
/// a different one, and each planned corruption is refused exactly once
/// on the resume its following fault forces. (How many burst jobs get
/// admitted depends on timing; they run clean.)
#[test]
fn the_seed_replays_the_fault_lists() {
    let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let faults = |seed: u64| {
        let cfg = ChaosConfig { seed, ..small() };
        let report = run_chaos(&cfg);
        let corruptions = report.planned[2];
        assert_eq!(report.injected, report.planned, "every planned fault fired");
        assert_eq!(report.corrupt_detected, corruptions);
        let lists: Vec<_> = report
            .job_lines
            .into_iter()
            .filter(|l| l.job_id <= cfg.jobs as u64 || !l.faults.is_empty())
            .map(|l| (l.job_id, l.faults))
            .collect();
        (lists, corruptions)
    };
    let (first, corruptions) = faults(42);
    assert!(corruptions >= 1, "seed 42 plans a corruption: {first:?}");
    assert_eq!(faults(42).0, first);
    assert_ne!(faults(7).0, first);
}
