//! Named monotonic counters and settable gauges.
//!
//! Counters are plain `AtomicU64`s that always accumulate: [`Counter::add`]
//! is one relaxed `fetch_add`, and nothing ever resets them. A reader takes
//! a [`snapshot`] when its window opens and reads the window as [`since`]
//! that snapshot, so readers (a measured bench cell, a chaos run, a
//! `scale-bench` window, one trace capture) can overlap in one process
//! without silencing or zeroing each other. Trace captures themselves run
//! one at a time: [`crate::start_trace`] drains the shared span sink and
//! replaces the capture baseline. The hot kernels charge FLOP/byte amounts from
//! `core::analysis`'s cost model here, once per call, which is what lets
//! the bench suite compute *achieved* arithmetic intensity per cell
//! instead of the modelled one.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter. Increments are relaxed; totals are only
/// meaningful once concurrent writers have quiesced (e.g. after a
/// parallel region joins).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Create a counter (normally used via the statics in this module).
    pub(crate) const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Add `n`: one relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A named settable gauge (last-write-wins), for values that are levels
/// rather than accumulations — e.g. the installed pool width.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Create a gauge (normally used via the statics in this module).
    pub(crate) const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Set the gauge (unconditional; gauges are cheap and rare).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The gauge's registered name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }
}

/// Floating-point operations executed by kernels (cost-model accounting).
pub static FLOPS: Counter = Counter::new("kernel.flops");
/// Bytes moved by kernels per the paper's per-kernel cost model.
pub static BYTES: Counter = Counter::new("kernel.bytes");
/// Kernel entry points invoked.
pub static KERNEL_CALLS: Counter = Counter::new("kernel.calls");
/// Keys routed through the radix sort engine.
pub static SORT_KEYS: Counter = Counter::new("radix.keys_sorted");
/// HiCOO blocks materialized during COO→HiCOO conversion.
pub static CONVERT_BLOCKS: Counter = Counter::new("convert.blocks_built");
/// Supervisor retry attempts (after panic/timeout/invalid output).
pub static SUPERVISOR_RETRIES: Counter = Counter::new("supervisor.retries");
/// Output validations performed by the supervisor.
pub static VALIDATIONS: Counter = Counter::new("supervisor.validations");

/// Decomposition jobs submitted to a job service.
pub static JOB_SUBMITTED: Counter = Counter::new("job.submitted");
/// Decomposition jobs that reached a completed terminal state.
pub static JOB_COMPLETED: Counter = Counter::new("job.completed");
/// Decomposition jobs that reached a failed terminal state (typed error).
pub static JOB_FAILED: Counter = Counter::new("job.failed");
/// Checkpoints written after accepted job iterations.
pub static JOB_CHECKPOINTS: Counter = Counter::new("job.checkpoints");
/// Successful resume-from-checkpoint recoveries after a step fault.
pub static JOB_RESUMES: Counter = Counter::new("job.resumes");
/// Corrupted checkpoints detected (CRC/parse rejection) during recovery.
pub static JOB_CKPT_CORRUPT: Counter = Counter::new("job.checkpoint_corrupt");
/// Faults injected by a chaos harness (panics, hangs, corruptions, bursts).
pub static CHAOS_FAULTS: Counter = Counter::new("chaos.faults_injected");

/// Connections accepted by the networked serving tier.
pub static NET_CONNECTIONS: Counter = Counter::new("net.connections");
/// Request frames decoded off the wire.
pub static NET_REQUESTS: Counter = Counter::new("net.requests");
/// Response frames written to the wire (completions and typed statuses).
pub static NET_RESPONSES: Counter = Counter::new("net.responses");
/// Protocol-level error frames written (corrupt/undecodable requests).
pub static NET_PROTOCOL_ERRORS: Counter = Counter::new("net.protocol_errors");
/// Payload bytes received in request frames.
pub static NET_BYTES_IN: Counter = Counter::new("net.bytes_in");
/// Payload bytes sent in response and error frames.
pub static NET_BYTES_OUT: Counter = Counter::new("net.bytes_out");

/// Worker threads installed in the process-wide pool (gauge).
pub static POOL_WORKERS: Gauge = Gauge::new("pool.workers");

/// All registered counters, in a stable order.
pub(crate) fn all() -> [&'static Counter; 20] {
    [
        &FLOPS,
        &BYTES,
        &KERNEL_CALLS,
        &SORT_KEYS,
        &CONVERT_BLOCKS,
        &SUPERVISOR_RETRIES,
        &VALIDATIONS,
        &JOB_SUBMITTED,
        &JOB_COMPLETED,
        &JOB_FAILED,
        &JOB_CHECKPOINTS,
        &JOB_RESUMES,
        &JOB_CKPT_CORRUPT,
        &CHAOS_FAULTS,
        &NET_CONNECTIONS,
        &NET_REQUESTS,
        &NET_RESPONSES,
        &NET_PROTOCOL_ERRORS,
        &NET_BYTES_IN,
        &NET_BYTES_OUT,
    ]
}

/// Snapshot every counter (and gauge) as `(name, value)` pairs.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = all().iter().map(|c| (c.name(), c.get())).collect();
    out.push((POOL_WORKERS.name(), POOL_WORKERS.get()));
    out
}

/// Every counter's growth since `before` (an earlier [`snapshot`]), in
/// [`snapshot`]'s order. Gauges are levels, so they keep their current
/// value. The counters are process-wide: a window also sees what
/// concurrent work charged while it was open.
pub fn since(before: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    let mut out = snapshot();
    for ((_, value), (_, v0)) in out.iter_mut().zip(before).take(all().len()) {
        *value = value.wrapping_sub(*v0);
    }
    out
}
