//! Request-scoped causal trace contexts.
//!
//! A [`TraceCtx`] names one unit of externally-visible work — a serve
//! request or a decomposition job — with a process-unique id plus the id
//! of the context that caused it (0 for roots). The current context lives
//! in a thread-local and is *explicitly* propagated across thread
//! boundaries (watchdog threads, pool workers) by capturing
//! [`current`] before the spawn and [`install`]ing it inside the spawned
//! closure: thread-locals do not inherit, so nothing propagates by
//! accident.
//!
//! While a span capture is running, the context also drives chrome-trace
//! **async/flow events** ([`async_begin`]/[`async_end`] and
//! [`flow_send`]/[`flow_recv`]) keyed on the context id, so one request's
//! lifecycle renders as a single connected lane across every thread that
//! touched it. When tracing is off, each of these calls is one relaxed
//! atomic load.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::span::{self, FlowPhase};

/// Ids start at 1 so that 0 unambiguously means "no context".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The causal identity of one request or job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the causing context, or 0 for a root.
    pub(crate) parent: u64,
    /// What kind of work this names (`"request"`, `"job"`, ...).
    pub(crate) kind: &'static str,
}

impl TraceCtx {
    /// Mint a fresh root context of the given kind.
    pub fn mint(kind: &'static str) -> TraceCtx {
        TraceCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            kind,
        }
    }

    /// Mint a child context caused by `self`.
    pub fn child(&self, kind: &'static str) -> TraceCtx {
        TraceCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: self.id,
            kind,
        }
    }

    /// Mint a context whose parent arrived as a raw id — the shape of a
    /// trace id carried over the wire in a frame header, where the
    /// originating [`TraceCtx`] lives in another process. A parent of 0
    /// mints a root.
    pub fn mint_with_parent(kind: &'static str, parent: u64) -> TraceCtx {
        TraceCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            kind,
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The context installed on this thread, if any.
#[inline]
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// The id of the installed context, or 0.
#[inline]
pub fn current_id() -> u64 {
    CURRENT.with(Cell::get).map(|c| c.id).unwrap_or(0)
}

/// RAII guard restoring the previously-installed context on drop.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Install `ctx` as this thread's current context until the guard drops.
pub fn install(ctx: TraceCtx) -> CtxGuard {
    CtxGuard {
        prev: CURRENT.with(|c| c.replace(Some(ctx))),
    }
}

/// Install an *optional* context (a no-op guard for `None`), the common
/// shape when relaying a captured `current()` across a thread boundary.
pub fn install_opt(ctx: Option<TraceCtx>) -> CtxGuard {
    match ctx {
        Some(ctx) => install(ctx),
        None => CtxGuard {
            prev: CURRENT.with(Cell::get),
        },
    }
}

/// Record a chrome-trace async-begin (`ph:"b"`) for `ctx` on this thread.
#[inline]
pub fn async_begin(name: &'static str, ctx: TraceCtx) {
    span::record_flow(FlowPhase::AsyncBegin, name, ctx.id);
}

/// Record a chrome-trace async-end (`ph:"e"`) for `ctx` on this thread.
#[inline]
pub fn async_end(name: &'static str, ctx: TraceCtx) {
    span::record_flow(FlowPhase::AsyncEnd, name, ctx.id);
}

/// Record a flow-send (`ph:"s"`): work for `ctx` leaves this thread.
#[inline]
pub fn flow_send(name: &'static str, ctx: TraceCtx) {
    span::record_flow(FlowPhase::Send, name, ctx.id);
}

/// Record a flow-receive (`ph:"f"`): work for `ctx` lands on this thread.
#[inline]
pub fn flow_recv(name: &'static str, ctx: TraceCtx) {
    span::record_flow(FlowPhase::Recv, name, ctx.id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_child_links_parent() {
        let a = TraceCtx::mint("request");
        let b = TraceCtx::mint("request");
        assert_ne!(a.id, b.id);
        assert_eq!(a.parent, 0);
        let c = a.child("job");
        assert_eq!(c.parent, a.id);
        assert_ne!(c.id, a.id);
        // Wire-carried parent ids link the same way, and 0 mints a root.
        let d = TraceCtx::mint_with_parent("request", c.id);
        assert_eq!(d.parent, c.id);
        assert_ne!(d.id, c.id);
        assert_eq!(TraceCtx::mint_with_parent("request", 0).parent, 0);
    }

    #[test]
    fn install_nests_and_restores() {
        assert_eq!(current(), None);
        let a = TraceCtx::mint("request");
        let b = TraceCtx::mint("request");
        {
            let _g = install(a);
            assert_eq!(current_id(), a.id);
            {
                let _g2 = install(b);
                assert_eq!(current_id(), b.id);
            }
            assert_eq!(current_id(), a.id);
            {
                let _g3 = install_opt(None);
                assert_eq!(current_id(), a.id);
            }
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn ctx_does_not_cross_threads_implicitly() {
        let a = TraceCtx::mint("request");
        let _g = install(a);
        let seen = std::thread::spawn(current_id).join().unwrap();
        assert_eq!(seen, 0, "thread-locals must not inherit");
        let captured = current();
        let seen = std::thread::spawn(move || {
            let _g = install_opt(captured);
            current_id()
        })
        .join()
        .unwrap();
        assert_eq!(seen, a.id, "explicit relay must");
    }
}
