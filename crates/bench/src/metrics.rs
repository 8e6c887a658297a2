//! Capture lifecycle for the harness: spans, plus the growth of the
//! always-on counters and pool telemetry over the capture's window.
//!
//! `tenbench-obs` cannot depend on the pool (the pool instruments itself
//! *with* obs), so the pool's delta is attached to the report here, in a
//! crate that sees both sides.

use tenbench_core::par;
use tenbench_obs as obs;
use tenbench_obs::report::{MetricsReport, PoolSnapshot};

/// An in-flight observability capture: spans recording, counters and pool
/// telemetry snapshotted. End it with [`Capture::finish`]. Captures run one
/// at a time (they share [`obs::start_trace`]'s span sink and baseline).
pub struct Capture {
    pool: PoolSnapshot,
}

impl Capture {
    /// Start recording: snapshot the pool telemetry and the counters.
    pub fn begin() -> Capture {
        obs::counters::POOL_WORKERS.set(par::current_threads() as u64);
        let pool = par::pool_snapshot();
        obs::start_trace();
        Capture { pool }
    }

    /// Stop recording and return the drained trace plus the merged
    /// metrics report (counter deltas + span aggregates + pool delta).
    pub fn finish(self) -> (obs::Trace, MetricsReport) {
        let trace = obs::stop_trace();
        let mut report = MetricsReport::from_trace(&trace);
        report.pool = Some(par::pool_snapshot().since(&self.pool));
        (trace, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_spans_counters_and_pool_telemetry() {
        let cap = Capture::begin();
        {
            let _outer = obs::span!("test.outer");
            let v: Vec<usize> = par::map_collect(50_000, 1, |i| i * 2);
            std::hint::black_box(v);
            obs::counters::FLOPS.add(123);
        }
        let (trace, report) = cap.finish();
        assert!(trace
            .span_aggregates()
            .iter()
            .any(|s| s.name == "test.outer"));
        assert!(report
            .counters
            .iter()
            .any(|(n, v)| n == "kernel.flops" && *v >= 123));
        let pool = report.pool.as_ref().expect("pool snapshot attached");
        assert!(pool.regions >= 1);
        // The caller lane is always present, as the final entry.
        assert_eq!(pool.workers.last().unwrap().worker, usize::MAX);
        let json = report.to_json();
        assert!(json.contains("\"pool\""), "{json}");
        tenbench_obs::json::Value::parse(&json).expect("metrics JSON parses");
    }
}
