//! Non-finite float regression: every hand-rolled JSON emitter in the
//! suite must map NaN/Infinity to `null` (the documented policy in
//! `tenbench_obs::json`) so the artifacts always parse. Before the fix,
//! `format!("{}", f64::NAN)` wrote the bare token `NaN` into reports —
//! invalid JSON that broke every downstream consumer of `BENCH_*.json`.

use tenbench_bench::supervisor::{Attempt, AttemptOutcome, RunReport, RunStatus};
use tenbench_obs::json::{json_f64, json_f64_fixed, Value};

/// A report whose every float slot is poisoned with a non-finite value —
/// exactly what a shed, failed, or zero-duration cell can produce.
fn poisoned_report() -> RunReport {
    RunReport {
        cell: "mttkrp/coo/scheduled/mode0".to_string(),
        status: RunStatus::Ok,
        attempts: vec![
            Attempt {
                strategy: "scheduled".to_string(),
                outcome: AttemptOutcome::Ok { time_s: f64::NAN },
            },
            Attempt {
                strategy: "atomic".to_string(),
                outcome: AttemptOutcome::Ok {
                    time_s: f64::INFINITY,
                },
            },
        ],
        strategy: Some("scheduled".to_string()),
        time_s: Some(f64::NAN),
        validate_s: Some(f64::NEG_INFINITY),
        checksum: Some(f64::INFINITY),
    }
}

#[test]
fn run_report_with_non_finite_floats_still_emits_valid_json() {
    let json = poisoned_report().to_json();
    let v =
        Value::parse(&json).unwrap_or_else(|e| panic!("report JSON failed to parse: {e}\n{json}"));
    // The poisoned slots must surface as null, not as bare NaN/inf tokens.
    assert!(matches!(v.get("time_s"), Some(Value::Null)), "{json}");
    assert!(matches!(v.get("checksum"), Some(Value::Null)), "{json}");
    // Neither the report nor its attempts have a `backend` key.
    assert!(!json.contains("backend"), "{json}");
}

#[test]
fn healthy_floats_round_trip_exactly() {
    for x in [
        0.0,
        -0.0,
        1.5,
        -2.25e-17,
        std::f64::consts::PI,
        1e300,
        5e-324,
    ] {
        let s = json_f64(x);
        let v = Value::parse(&s).unwrap();
        assert_eq!(v.as_f64(), Some(x), "{x} -> {s}");
    }
    assert_eq!(json_f64(f64::NAN), "null");
    assert_eq!(json_f64(f64::INFINITY), "null");
    assert_eq!(json_f64_fixed(f64::NAN, 3), "null");
    assert_eq!(json_f64_fixed(2.0 / 3.0, 3), "0.667");
}

#[test]
fn serve_report_json_parses_even_for_a_zero_work_service() {
    use tenbench_serve::{DirectExecutor, KernelService, ServeConfig};
    // A service that never ran a request has all-zero tallies; duration and
    // ratios must still be emitted as valid JSON.
    let svc = KernelService::start(ServeConfig::default(), Box::new(DirectExecutor));
    let report = svc.shutdown();
    let json = report.to_json();
    let v = Value::parse(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
    assert_eq!(v.get("completed").and_then(|c| c.as_f64()), Some(0.0));
}
