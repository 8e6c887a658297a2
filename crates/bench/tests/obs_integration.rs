//! Observability integration over the real pool and kernels: span
//! structure must be identical at 1 and N pool threads, a traced suite
//! run must export a schema-valid chrome trace with pool telemetry, and
//! every suite row must carry Roofline annotations derived from the
//! instrumented counters.
//!
//! Capture state (spans, counters, pool telemetry) is process-wide, so
//! tests serialize through [`obs_lock`]; cargo runs this binary's tests
//! on parallel threads.

use std::sync::{Mutex, MutexGuard};

use tenbench_bench::metrics::Capture;
use tenbench_bench::suite::{run_cpu_suite, MachineModel};
use tenbench_core::coo::CooTensor;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::par::with_threads;
use tenbench_core::shape::Shape;
use tenbench_obs as obs;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn make_tensor(n: u32) -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![32, 32, 32]),
        (0..n)
            .map(|i| {
                let j = i.wrapping_mul(2654435761);
                (
                    vec![j % 32, (j / 32) % 32, (j / 1024) % 32],
                    (i % 97) as f32 * 0.5 + 1.0,
                )
            })
            .collect(),
    )
    .unwrap()
}

fn machine() -> MachineModel {
    MachineModel {
        name: "test".into(),
        ert_dram_gbs: 50.0,
        peak_gflops: 500.0,
    }
}

/// The instrumented conversion path (Morton sort + block build under a
/// `convert.hicoo` span) records its spans at phase level on the calling
/// thread, so the structure must not change with the pool width — only
/// the timings and pool telemetry may.
#[test]
fn conversion_span_structure_is_identical_at_1_and_4_threads() {
    let _g = obs_lock();
    let x = make_tensor(4000);
    let capture_structure = |threads: usize| {
        obs::start_trace();
        with_threads(threads, || {
            let h = HicooTensor::from_coo(&x, 4).unwrap();
            std::hint::black_box(h);
        });
        obs::stop_trace().span_structure()
    };
    let at1 = capture_structure(1);
    let at4 = capture_structure(4);
    assert_eq!(
        at1, at4,
        "phase-level span structure must be thread-count invariant"
    );
    assert!(
        at1.keys().any(|k| k.starts_with("convert.hicoo")),
        "conversion span missing: {at1:?}"
    );
}

/// A traced suite run end-to-end: chrome trace validates, pool telemetry
/// is attached, kernel counters are non-zero, and nested spans from the
/// kernels appear under their phases.
#[test]
fn traced_suite_run_exports_valid_chrome_trace_with_pool_telemetry() {
    let _g = obs_lock();
    let x = make_tensor(3000);
    let cap = Capture::begin();
    let rows = with_threads(2, || run_cpu_suite(&x, &machine(), 8, 4, 2));
    let (trace, report) = cap.finish();

    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.time_s > 0.0);
        assert!(r.gflops > 0.0, "{:?}: gflops from counters", r.kernel);
        assert!(r.ai_measured > 0.0, "{:?}: measured AI", r.kernel);
        assert!(r.pct_of_roof > 0.0, "{:?}: pct of roof", r.kernel);
        assert!(r.bound_by == "memory" || r.bound_by == "compute");
    }

    let json = trace.to_chrome_json();
    let summary = obs::json::validate_chrome_trace(&json).expect("trace validates");
    assert!(summary.duration_events > 0);

    let aggs = trace.span_aggregates();
    for expected in ["mttkrp.atomic", "ttv.coo", "convert.hicoo", "radix.sort"] {
        assert!(
            aggs.iter().any(|s| s.name == expected),
            "span {expected:?} missing from traced suite run"
        );
    }
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("kernel.flops") > 0);
    assert!(counter("kernel.bytes") > 0);
    assert!(counter("kernel.calls") > 0);
    assert!(counter("radix.keys_sorted") > 0);

    let pool = report.pool.as_ref().expect("pool telemetry attached");
    assert!(pool.regions > 0, "parallel regions recorded");
    assert!(pool.chunks_total > 0);
    assert_eq!(pool.workers.last().unwrap().worker, usize::MAX);
}

/// Spans opened inside pool worker closures land on the worker's own
/// lane and still close properly when the region joins, including for
/// nested regions.
#[test]
fn spans_inside_nested_pool_regions_close_cleanly() {
    use tenbench_core::par;
    let _g = obs_lock();
    obs::start_trace();
    {
        let _outer = obs::span!("nested.outer");
        par::for_each(4, 1, |_| {
            let _worker = obs::span!("nested.region");
            par::for_each(64, 16, |i| {
                std::hint::black_box(i * 3);
            });
        });
    }
    let trace = obs::stop_trace();
    let json = trace.to_chrome_json();
    obs::json::validate_chrome_trace(&json).expect("nested-region trace validates");
    let aggs = trace.span_aggregates();
    let outer = aggs.iter().find(|s| s.name == "nested.outer").unwrap();
    let region = aggs.iter().find(|s| s.name == "nested.region").unwrap();
    assert_eq!(outer.count, 1);
    assert_eq!(region.count, 4);
}
