//! In-process tracing and metrics for the tenbench suite.
//!
//! The crate has three layers:
//!
//! 1. **Span recording** ([`mod@span`]): RAII guards created with
//!    [`span!("name")`](crate::span!) push `Begin`/`End` events into a
//!    per-thread buffer. A *disabled* span costs one relaxed atomic load;
//!    an enabled one costs two `Vec` pushes and two monotonic clock reads.
//!    Buffers register themselves in a process-wide sink and are drained
//!    by [`stop_trace`].
//! 2. **Counters** ([`counters`]): named monotonic `AtomicU64` counters
//!    (FLOPs, bytes moved, retries, ...) and settable gauges. Counters
//!    always accumulate (one relaxed `fetch_add`) and are never reset; a
//!    reader snapshots them when its window opens and reads the window by
//!    difference ([`counters::since`]), so overlapping readers cannot
//!    switch each other off or zero each other.
//! 3. **Exporters** (`trace`, [`report`]): a drained [`Trace`] (spans
//!    plus the counter deltas since [`start_trace`]) renders
//!    to chrome-trace JSON (loadable in `chrome://tracing` / Perfetto), a
//!    plain-text hierarchical profile (self/total time per span, per
//!    thread), or a machine-readable [`report::MetricsReport`].
//! 4. **Causal tracing** ([`ctx`], [`flight`], `hist`): request/job
//!    [`TraceCtx`] ids explicitly relayed across thread boundaries and
//!    rendered as chrome-trace async/flow lanes; an always-on per-thread
//!    flight-recorder ring snapshotted into a JSON dump when a fault is
//!    recorded; and a bounded-memory log-bucketed latency histogram.
//!
//! The crate deliberately has no dependencies so that every other crate
//! in the workspace — including the thread pool in `tenbench-core` — can
//! instrument itself without creating an import cycle.
//!
//! # Quick start
//!
//! ```
//! tenbench_obs::start_trace();
//! {
//!     let _outer = tenbench_obs::span!("outer");
//!     let _inner = tenbench_obs::span!("inner");
//!     tenbench_obs::counters::FLOPS.add(128);
//! }
//! let trace = tenbench_obs::stop_trace();
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```
#![warn(missing_docs)]

mod claim;
pub mod counters;
pub mod ctx;
pub mod flight;
pub(crate) mod hist;
pub mod json;
pub mod report;
pub mod span;
pub(crate) mod trace;

pub use ctx::TraceCtx;
pub use hist::LogHistogram;
pub use span::{enter, SpanGuard};
pub use trace::{is_tracing, start_trace, stop_trace, Trace};

/// Open a named span, returning an RAII guard that closes it on drop.
///
/// The name must be a `&'static str`. When tracing is disabled the whole
/// expression is one relaxed atomic load.
///
/// ```
/// let _g = tenbench_obs::span!("mttkrp.kernel");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}
