//! Lock-free per-thread span recording.
//!
//! Each thread owns a buffer of `Event`s in a `claim` cell (the same
//! single-owner claim as the [`crate::flight`] rings): the owning thread
//! claims it for the duration of a push, the drain in
//! [`crate::stop_trace`] claims it to `mem::take` the contents. There are
//! no locks on the recording path; the registry mutex is touched only
//! once per thread (registration) and once per drain.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::claim::{Claimed, Registry};

/// Soft cap on buffered events per thread. `Begin` events past the cap
/// are dropped (and counted); `End` events for already-recorded spans are
/// always pushed so no recorded span is left unclosed.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A span was entered.
    Begin,
    /// A span was exited.
    End,
    /// An async/flow edge tied to a [`crate::ctx::TraceCtx`] id.
    Flow(FlowPhase),
}

/// Which chrome-trace async/flow phase a [`EventKind::Flow`] event maps
/// to. Async begin/end pairs draw one logical lane per context id; flow
/// send/recv pairs draw arrows between the threads that handed work off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlowPhase {
    /// Async event begin (`ph:"b"`).
    AsyncBegin,
    /// Async event end (`ph:"e"`).
    AsyncEnd,
    /// Flow start: work leaves this thread (`ph:"s"`).
    Send,
    /// Flow finish: work lands on this thread (`ph:"f"`).
    Recv,
}

impl FlowPhase {
    /// The chrome-trace `ph` string for this phase.
    pub(crate) fn ph(self) -> &'static str {
        match self {
            FlowPhase::AsyncBegin => "b",
            FlowPhase::AsyncEnd => "e",
            FlowPhase::Send => "s",
            FlowPhase::Recv => "f",
        }
    }
}

/// One recorded span edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// Begin, end, or async/flow edge.
    pub(crate) kind: EventKind,
    /// The span name passed to [`enter`].
    pub(crate) name: &'static str,
    /// Nanoseconds since the process-wide trace epoch.
    pub(crate) ts_ns: u64,
    /// Context id for [`EventKind::Flow`] events; 0 for span edges.
    pub(crate) id: u64,
}

/// The events recorded by one thread, in program order.
#[derive(Clone, Debug)]
pub(crate) struct ThreadEvents {
    /// Stable trace-local thread id (registration order, 0-based).
    pub(crate) tid: u32,
    /// The OS thread name at registration time, if any.
    pub(crate) name: String,
    /// Recorded events, oldest first.
    pub(crate) events: Vec<Event>,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Registry<Vec<Event>> = Registry::new();

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (first call wins as time zero).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Is span recording currently enabled?
#[inline]
pub(crate) fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub(crate) fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

pub(crate) fn dropped_and_reset() -> u64 {
    DROPPED.swap(0, Ordering::Relaxed)
}

thread_local! {
    static LOCAL: OnceCell<Arc<Claimed<Vec<Event>>>> = const { OnceCell::new() };
}

fn with_local<R>(f: impl FnOnce(&Claimed<Vec<Event>>) -> R) -> R {
    REGISTRY.with_local(&LOCAL, Vec::new, f)
}

/// Record a `Begin` edge; returns whether it was actually buffered.
fn record_begin(name: &'static str) -> bool {
    let ts_ns = now_ns();
    let pushed = with_local(|buf| {
        buf.try_with(|events| {
            if events.len() >= MAX_EVENTS_PER_THREAD {
                false
            } else {
                events.push(Event {
                    kind: EventKind::Begin,
                    name,
                    ts_ns,
                    id: 0,
                });
                true
            }
        })
        .unwrap_or(false)
    });
    if !pushed {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    pushed
}

/// Record an `End` edge for a span whose `Begin` was buffered. Ignores
/// the soft cap so recorded spans always close; if the buffer cannot be
/// claimed the drop is counted and the exporter synthesizes the close.
fn record_end(name: &'static str) {
    let ts_ns = now_ns();
    let pushed = with_local(|buf| {
        buf.try_with(|events| {
            events.push(Event {
                kind: EventKind::End,
                name,
                ts_ns,
                id: 0,
            });
        })
        .is_some()
    });
    if !pushed {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Record an async/flow edge for a context id on the calling thread.
/// One relaxed load when tracing is disabled; cap-checked like a `Begin`
/// when enabled (flow edges have no close to synthesize).
pub(crate) fn record_flow(phase: FlowPhase, name: &'static str, id: u64) {
    if !TRACING.load(Ordering::Relaxed) {
        return;
    }
    let ts_ns = now_ns();
    let pushed = with_local(|buf| {
        buf.try_with(|events| {
            if events.len() >= MAX_EVENTS_PER_THREAD {
                false
            } else {
                events.push(Event {
                    kind: EventKind::Flow(phase),
                    name,
                    ts_ns,
                    id,
                });
                true
            }
        })
        .unwrap_or(false)
    });
    if !pushed {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`enter`] / [`crate::span!`]. Closes the span
/// when dropped. If the `Begin` edge was not recorded (tracing disabled,
/// buffer full) the drop is free.
#[must_use = "a span guard closes its span when dropped; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record_end(name);
        }
    }
}

/// Open a named span. Equivalent to the [`crate::span!`] macro.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !TRACING.load(Ordering::Relaxed) {
        return SpanGuard { name: None };
    }
    SpanGuard {
        name: record_begin(name).then_some(name),
    }
}

/// Drain every registered thread buffer, returning the recorded events
/// and the number of events dropped since the last drain.
pub(crate) fn drain_all() -> (Vec<ThreadEvents>, u64) {
    let registry = REGISTRY.cells();
    let mut out = Vec::with_capacity(registry.len());
    for buf in registry.iter() {
        out.push(ThreadEvents {
            tid: buf.tid as u32,
            name: buf.name.clone(),
            events: buf.with(std::mem::take),
        });
    }
    out.sort_by_key(|t| t.tid);
    (out, DROPPED.swap(0, Ordering::Relaxed))
}
