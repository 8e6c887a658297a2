//! Machine-readable metrics report.
//!
//! A [`MetricsReport`] condenses one capture — counter deltas, per-span
//! aggregates, and an optional pool-telemetry delta supplied by the
//! embedder (`tenbench_core::par::pool_snapshot()` returns the
//! [`PoolSnapshot`] defined here, and [`PoolSnapshot::since`] diffs two of
//! them) — into a structure the supervisor can merge into its
//! `SweepReport` JSON and `tenbench report` can render.

use std::fmt::Write as _;

use crate::json::escape_json;
use crate::trace::{fmt_ns, SpanAgg, Trace};

/// Telemetry for one pool participant.
#[derive(Clone, Debug, Default)]
pub struct WorkerSnap {
    /// Worker index (spawn order); `usize::MAX` labels the caller lane.
    pub worker: usize,
    /// Nanoseconds spent executing region chunks.
    pub busy_ns: u64,
    /// Nanoseconds spent parked waiting for work.
    pub park_ns: u64,
    /// Regions this participant joined.
    pub regions: u64,
    /// Chunks this participant executed.
    pub chunks: u64,
}

/// A snapshot of the process-wide pool's telemetry. The totals only grow:
/// read a window as [`PoolSnapshot::since`] its opening snapshot.
#[derive(Clone, Debug, Default)]
pub struct PoolSnapshot {
    /// Per-worker telemetry (spawned workers, then the caller lane).
    pub workers: Vec<WorkerSnap>,
    /// Parallel regions executed.
    pub regions: u64,
    /// Total chunks scheduled across regions.
    pub chunks_total: u64,
    /// Chunks executed by a participant other than the submitting caller
    /// (i.e. stolen from the region's shared chunk counter).
    pub chunks_stolen: u64,
}

impl PoolSnapshot {
    /// The growth from `before` (an earlier snapshot) to this one, lane by
    /// lane. A worker spawned in between has no lane in `before` and counts
    /// from zero.
    pub fn since(&self, before: &PoolSnapshot) -> PoolSnapshot {
        let zero = WorkerSnap::default();
        let lane = |w: &WorkerSnap| {
            let w0 = before.workers.iter().find(|b| b.worker == w.worker);
            let w0 = w0.unwrap_or(&zero);
            WorkerSnap {
                worker: w.worker,
                busy_ns: w.busy_ns.wrapping_sub(w0.busy_ns),
                park_ns: w.park_ns.wrapping_sub(w0.park_ns),
                regions: w.regions.wrapping_sub(w0.regions),
                chunks: w.chunks.wrapping_sub(w0.chunks),
            }
        };
        PoolSnapshot {
            workers: self.workers.iter().map(lane).collect(),
            regions: self.regions.wrapping_sub(before.regions),
            chunks_total: self.chunks_total.wrapping_sub(before.chunks_total),
            chunks_stolen: self.chunks_stolen.wrapping_sub(before.chunks_stolen),
        }
    }
}

/// One capture's metrics in machine-readable form.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// Counter deltas over the capture (gauges at its end).
    pub counters: Vec<(String, u64)>,
    /// Per-span aggregates merged across threads, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Pool telemetry, when the embedder supplied it.
    pub pool: Option<PoolSnapshot>,
    /// Events dropped during the capture.
    pub dropped_events: u64,
}

impl MetricsReport {
    /// Build a report from a drained trace (no pool snapshot; attach one
    /// via the `pool` field if available).
    pub fn from_trace(trace: &Trace) -> MetricsReport {
        MetricsReport {
            counters: trace.counters.clone(),
            spans: trace.span_aggregates(),
            pool: None,
            dropped_events: trace.dropped_events,
        }
    }

    /// Serialize to a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(name), value);
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                escape_json(&s.name),
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        out.push_str("],");
        if let Some(pool) = &self.pool {
            out.push_str("\"pool\":{\"workers\":[");
            for (i, w) in pool.workers.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let worker = if w.worker == usize::MAX {
                    "\"caller\"".to_string()
                } else {
                    w.worker.to_string()
                };
                let _ = write!(
                    out,
                    "{{\"worker\":{},\"busy_ns\":{},\"park_ns\":{},\"regions\":{},\"chunks\":{}}}",
                    worker, w.busy_ns, w.park_ns, w.regions, w.chunks
                );
            }
            let _ = write!(
                out,
                "],\"regions\":{},\"chunks_total\":{},\"chunks_stolen\":{}}},",
                pool.regions, pool.chunks_total, pool.chunks_stolen
            );
        }
        let _ = write!(out, "\"dropped_events\":{}", self.dropped_events);
        out.push('}');
        out
    }

    /// Render a human-readable summary (counters, top spans by total
    /// time, pool utilization).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        if !spans.is_empty() {
            out.push_str("spans (by total time):\n");
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>12} {:>12}",
                "name", "calls", "total", "self"
            );
            for s in spans.iter().take(20) {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8} {:>12} {:>12}",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.self_ns)
                );
            }
        }
        if let Some(pool) = &self.pool {
            let _ = writeln!(
                out,
                "pool: {} regions, {} chunks ({} stolen)",
                pool.regions, pool.chunks_total, pool.chunks_stolen
            );
            for w in &pool.workers {
                let total = w.busy_ns + w.park_ns;
                let util = if total > 0 {
                    100.0 * w.busy_ns as f64 / total as f64
                } else {
                    0.0
                };
                let lane = if w.worker == usize::MAX {
                    "caller".to_string()
                } else {
                    format!("worker {}", w.worker)
                };
                let _ = writeln!(
                    out,
                    "  {:<10} busy {:>12} park {:>12} ({:>5.1}% busy), {} regions, {} chunks",
                    lane,
                    fmt_ns(w.busy_ns),
                    fmt_ns(w.park_ns),
                    util,
                    w.regions,
                    w.chunks
                );
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "dropped events: {}", self.dropped_events);
        }
        out
    }
}
