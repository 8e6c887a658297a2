//! Capture lifecycle for the harness: spans, counters and pool telemetry
//! behind one switch.
//!
//! `tenbench-obs` cannot depend on the pool (the pool instruments itself
//! *with* obs), so the pool's snapshot is attached to the report here, in
//! a crate that sees both sides.

use tenbench_core::par;
use tenbench_obs as obs;
use tenbench_obs::report::MetricsReport;

/// An in-flight observability capture: spans, counters, and pool
/// telemetry all recording. End it with [`Capture::finish`].
pub struct Capture {
    telemetry_was_on: bool,
}

impl Capture {
    /// Start recording: clears previous pool telemetry and counter state.
    pub fn begin() -> Capture {
        let telemetry_was_on = par::set_pool_telemetry(true);
        par::reset_pool_stats();
        obs::counters::POOL_WORKERS.set(par::current_threads() as u64);
        obs::start_trace();
        Capture { telemetry_was_on }
    }

    /// Stop recording and return the drained trace plus the merged
    /// metrics report (counters + span aggregates + pool snapshot).
    pub fn finish(self) -> (obs::Trace, MetricsReport) {
        let trace = obs::stop_trace();
        let mut report = MetricsReport::from_trace(&trace);
        report.pool = Some(par::pool_snapshot());
        par::set_pool_telemetry(self.telemetry_was_on);
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
