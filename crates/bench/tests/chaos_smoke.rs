//! Tier-1 chaos smoke. The obs counters are process-wide and other bench
//! tests enable, disable and reset them, so the counter-delta checks run
//! here, in a test binary of their own.

use std::time::Duration;

use tenbench_bench::chaos::{run_chaos, ChaosConfig};
use tenbench_obs as obs;

/// A short, fault-heavy scenario must lose nothing, stay
/// bitwise-deterministic, report counter deltas that agree with its own
/// totals, and emit valid report JSON.
#[test]
fn chaos_smoke_loses_nothing_and_stays_deterministic() {
    let cfg = ChaosConfig {
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
    };
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
    // The counter deltas cover the chaos run, not the reference re-runs,
    // and a resume is counted only when a checkpoint was restored.
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
