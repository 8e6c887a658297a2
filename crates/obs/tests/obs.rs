//! Integration tests for the obs crate: capture lifecycle, multi-thread
//! span recording, chrome-trace validity, counter merge associativity,
//! and span-structure determinism across thread counts.
//!
//! Tracing and counters are process-wide, so every test that starts a
//! capture serializes through [`obs_lock`]. Cargo runs tests within one
//! binary on parallel threads; without the lock one test's `stop_trace`
//! would drain another's events.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use tenbench_obs as obs;
use tenbench_obs::json::{validate_chrome_trace, Value};
use tenbench_obs::report::{MetricsReport, PoolSnapshot, WorkerSnap};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test poisons the mutex; later tests still need the
    // exclusion, not the poison.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Phase-level instrumented workload: one outer span on the calling
/// thread, `total` leaf spans split across `threads` std threads. The
/// span *structure* (path -> completed count) must not depend on how the
/// leaves were distributed.
fn run_workload(threads: usize, total: usize) {
    let _outer = obs::span!("work.outer");
    let per = total / threads;
    assert_eq!(per * threads, total, "total must divide evenly");
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per {
                    let _leaf = obs::span!("work.chunk");
                    std::hint::black_box(0u64);
                }
            });
        }
    });
}

#[test]
fn disabled_span_records_nothing() {
    let _g = obs_lock();
    assert!(!obs::is_tracing());
    {
        let _s = obs::span!("should.not.appear");
    }
    obs::start_trace();
    let trace = obs::stop_trace();
    assert!(trace
        .span_aggregates()
        .iter()
        .all(|s| s.name != "should.not.appear"));
}

#[test]
fn nested_spans_aggregate_with_self_time() {
    let _g = obs_lock();
    obs::start_trace();
    {
        let _outer = obs::span!("t.outer");
        for _ in 0..3 {
            let _inner = obs::span!("t.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let trace = obs::stop_trace();
    let aggs = trace.span_aggregates();
    let outer = aggs.iter().find(|s| s.name == "t.outer").unwrap();
    let inner = aggs.iter().find(|s| s.name == "t.inner").unwrap();
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 3);
    // The outer span's total covers its children; its self time does not.
    assert!(outer.total_ns >= inner.total_ns);
    assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
    let structure = trace.span_structure();
    assert_eq!(structure.get("t.outer"), Some(&1));
    assert_eq!(structure.get("t.outer/t.inner"), Some(&3));
}

#[test]
fn multithreaded_capture_produces_valid_chrome_trace() {
    let _g = obs_lock();
    obs::start_trace();
    run_workload(4, 12);
    obs::counters::FLOPS.add(7);
    let trace = obs::stop_trace();
    assert_eq!(trace.dropped_events, 0);
    let json = trace.to_chrome_json();
    let summary = validate_chrome_trace(&json).expect("emitted trace validates");
    // 1 outer + 12 leaves, a B and an E each.
    assert_eq!(summary.duration_events, 2 * 13);
    assert!(summary.threads >= 1);
    assert!(summary.max_depth >= 1);
    // Counters ride along in otherData.
    let doc = Value::parse(&json).unwrap();
    let flops = doc
        .get("otherData")
        .and_then(|o| o.get("kernel.flops"))
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(flops, 7.0, "the trace carries the delta since start_trace");
}

#[test]
fn span_structure_is_deterministic_across_thread_counts() {
    let _g = obs_lock();
    let mut structures = Vec::new();
    for threads in [1usize, 2, 3, 4] {
        obs::start_trace();
        run_workload(threads, 12);
        let trace = obs::stop_trace();
        structures.push(trace.span_structure());
    }
    for s in &structures[1..] {
        assert_eq!(
            s, &structures[0],
            "span structure must not depend on thread count"
        );
    }
    assert_eq!(structures[0].get("work.outer"), Some(&1));
    assert_eq!(structures[0].get("work.chunk"), Some(&12));
}

#[test]
fn validator_rejects_malformed_traces() {
    // Mismatched close name.
    let bad = r#"{"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0.0,"name":"a"},
        {"ph":"E","pid":1,"tid":0,"ts":1.0,"name":"b"}
    ]}"#;
    assert!(validate_chrome_trace(bad).is_err());
    // Unclosed begin.
    let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":0,"ts":0.0,"name":"a"}]}"#;
    assert!(validate_chrome_trace(bad).is_err());
    // Backwards timestamps on one lane.
    let bad = r#"{"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":5.0,"name":"a"},
        {"ph":"E","pid":1,"tid":0,"ts":1.0,"name":"a"}
    ]}"#;
    assert!(validate_chrome_trace(bad).is_err());
    // Not JSON at all.
    assert!(validate_chrome_trace("nonsense").is_err());
    // A well-formed minimal trace passes.
    let good = r#"{"traceEvents":[
        {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"t"}},
        {"ph":"B","pid":1,"tid":0,"ts":0.0,"name":"a"},
        {"ph":"E","pid":1,"tid":0,"ts":1.0,"name":"a"}
    ]}"#;
    let s = validate_chrome_trace(good).unwrap();
    assert_eq!(s.total_events, 3);
    assert_eq!(s.duration_events, 2);
}

/// Async/flow phases (`b`/`e`/`s`/`f`) are legal outside the B/E span
/// stack but still require a name, a finite timestamp, and an id.
#[test]
fn validator_accepts_flow_phases_and_requires_their_ids() {
    let good = r#"{"traceEvents":[
        {"ph":"b","pid":1,"tid":0,"ts":0.0,"name":"request","cat":"tenbench.flow","id":7},
        {"ph":"s","pid":1,"tid":0,"ts":1.0,"name":"request.queue","cat":"tenbench.flow","id":7},
        {"ph":"f","pid":1,"tid":3,"ts":2.0,"name":"request.queue","cat":"tenbench.flow","id":7,"bp":"e"},
        {"ph":"e","pid":1,"tid":3,"ts":3.0,"name":"request","cat":"tenbench.flow","id":7}
    ]}"#;
    let s = validate_chrome_trace(good).expect("flow-only trace validates");
    assert_eq!(s.total_events, 4);
    assert_eq!(s.flow_events, 4);
    assert_eq!(s.duration_events, 0);
    // Flow events do not perturb span-stack checking on the same lane.
    let mixed = r#"{"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0.0,"name":"a"},
        {"ph":"s","pid":1,"tid":0,"ts":1.0,"name":"request.queue","id":"0x7"},
        {"ph":"E","pid":1,"tid":0,"ts":2.0,"name":"a"}
    ]}"#;
    let s = validate_chrome_trace(mixed).expect("mixed trace validates");
    assert_eq!(s.duration_events, 2);
    assert_eq!(s.flow_events, 1);
    // Missing id is a schema violation.
    let bad = r#"{"traceEvents":[{"ph":"b","pid":1,"tid":0,"ts":0.0,"name":"request"}]}"#;
    assert!(validate_chrome_trace(bad).is_err());
    // Non-finite timestamp too.
    let bad = r#"{"traceEvents":[{"ph":"f","pid":1,"tid":0,"ts":1e999,"name":"x","id":1}]}"#;
    assert!(validate_chrome_trace(bad).is_err());
}

/// A capture with installed trace contexts exports the request lifecycle
/// as async/flow events carrying the minted id, and the result still
/// passes the validator.
#[test]
fn captured_flow_events_export_with_their_ctx_id() {
    let _g = obs_lock();
    obs::start_trace();
    let ctx = obs::TraceCtx::mint("request");
    obs::ctx::async_begin("request", ctx);
    obs::ctx::flow_send("request.queue", ctx);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _guard = obs::ctx::install(ctx);
            obs::ctx::flow_recv("request.queue", ctx);
            let _span = obs::span!("request.exec");
            obs::ctx::async_end("request", ctx);
        });
    });
    let trace = obs::stop_trace();
    let json = trace.to_chrome_json();
    let summary = validate_chrome_trace(&json).expect("flow trace validates");
    assert_eq!(summary.flow_events, 4);
    assert_eq!(summary.duration_events, 2);
    // Every flow event carries the minted id, stitching the lanes.
    let doc = Value::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let mut phases = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap();
        if matches!(ph, "b" | "e" | "s" | "f") {
            phases.push(ph.to_string());
            assert_eq!(ev.get("id").and_then(Value::as_f64), Some(ctx.id as f64));
            assert_eq!(ev.get("cat").and_then(Value::as_str), Some("tenbench.flow"));
        }
    }
    phases.sort();
    assert_eq!(phases, ["b", "e", "f", "s"]);
}

#[test]
fn metrics_report_json_parses_and_renders() {
    let _g = obs_lock();
    obs::start_trace();
    {
        let _s = obs::span!("r.span");
        obs::counters::BYTES.add(4096);
    }
    let trace = obs::stop_trace();
    let report = MetricsReport::from_trace(&trace);
    assert!(report
        .counters
        .iter()
        .any(|(n, v)| n == "kernel.bytes" && *v == 4096));
    let json = report.to_json();
    let doc = Value::parse(&json).expect("report JSON parses");
    assert!(doc.get("counters").is_some());
    assert!(doc.get("spans").is_some());
    let text = report.render();
    assert!(text.contains("kernel.bytes"));
    assert!(text.contains("r.span"));
}

#[test]
fn counter_windows_overlap_without_disturbing_each_other() {
    let _g = obs_lock();
    let outer = obs::counters::snapshot();
    obs::counters::VALIDATIONS.add(2);
    obs::start_trace();
    obs::counters::VALIDATIONS.add(3);
    let trace = obs::stop_trace();
    obs::counters::VALIDATIONS.add(5);
    let name = obs::counters::VALIDATIONS.name();
    let traced = trace.counters.iter().find(|(n, _)| n == name);
    assert_eq!(
        traced.map(|(_, v)| *v),
        Some(3),
        "the trace reads its own window"
    );
    let enclosing = obs::counters::since(&outer);
    assert_eq!(
        enclosing.iter().find(|(n, _)| *n == name).map(|&(_, v)| v),
        Some(10),
        "the enclosing window still sees everything, the capture's included"
    );
}

#[test]
fn pool_snapshot_since_diffs_each_lane() {
    let lane = |worker, busy_ns, park_ns| WorkerSnap {
        worker,
        busy_ns,
        park_ns,
        regions: busy_ns / 10,
        chunks: busy_ns / 5,
    };
    let before = PoolSnapshot {
        workers: vec![lane(0, 100, 50), lane(usize::MAX, 40, 0)],
        regions: 3,
        chunks_total: 30,
        chunks_stolen: 10,
    };
    let after = PoolSnapshot {
        workers: vec![lane(0, 150, 80), lane(1, 20, 5), lane(usize::MAX, 60, 0)],
        regions: 5,
        chunks_total: 44,
        chunks_stolen: 15,
    };
    let d = after.since(&before);
    let lanes: Vec<(usize, u64, u64, u64, u64)> = d
        .workers
        .iter()
        .map(|w| (w.worker, w.busy_ns, w.park_ns, w.regions, w.chunks))
        .collect();
    // Worker 1 was spawned inside the window: it counts from zero.
    assert_eq!(
        lanes,
        [
            (0, 50, 30, 5, 10),
            (1, 20, 5, 2, 4),
            (usize::MAX, 20, 0, 2, 4)
        ]
    );
    assert_eq!((d.regions, d.chunks_total, d.chunks_stolen), (2, 14, 5));
}

proptest! {
    /// Counter totals are the sum of contributions no matter how they are
    /// partitioned across threads: splitting one stream of increments
    /// into k concurrent streams leaves the drained total unchanged.
    #[test]
    fn counter_merge_is_associative(amounts in prop::collection::vec(0u64..1_000, 1..64), k in 1usize..8) {
        let _g = obs_lock();
        let expected: u64 = amounts.iter().sum();

        obs::start_trace();
        let chunk = amounts.len().div_ceil(k);
        std::thread::scope(|s| {
            for part in amounts.chunks(chunk) {
                s.spawn(move || {
                    for &a in part {
                        obs::counters::SORT_KEYS.add(a);
                    }
                });
            }
        });
        let trace = obs::stop_trace();

        let total = trace
            .counters
            .iter()
            .find(|(n, _)| n == "radix.keys_sorted")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        prop_assert_eq!(total, expected);
    }

    /// The minimal JSON parser accepts what `escape_json` produces, for
    /// arbitrary strings (including control characters and quotes).
    #[test]
    fn escape_json_round_trips(codes in prop::collection::vec(0u32..0x1_0000, 0..48)) {
        let s: String = codes
            .iter()
            .map(|&c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect();
        let doc = format!("{{\"k\":\"{}\"}}", obs::json::escape_json(&s));
        let v = Value::parse(&doc).expect("escaped string parses");
        prop_assert_eq!(v.get("k").and_then(Value::as_str), Some(s.as_str()));
    }
}
