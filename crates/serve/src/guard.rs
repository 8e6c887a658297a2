//! The one guarded run: every supervised kernel attempt and every
//! decomposition-job iteration executes through [`run_guarded`].
//!
//! The closure runs on a fresh [`THREAD_NAME`] thread under
//! [`std::panic::catch_unwind`] while the caller waits on an
//! [`mpsc::Receiver::recv_timeout`] watchdog. On timeout the thread is
//! detached, not killed — Rust offers no safe thread cancellation — so a
//! hung closure keeps its CPU until it returns, but the caller moves on.
//! A panic or a timeout also snapshots the flight recorder
//! ([`obs::flight::dump`]), charged to the caller's trace context.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tenbench_obs as obs;

/// Name of every thread [`run_guarded`] spawns (a panic hook can use it
/// to silence contained panics).
pub const THREAD_NAME: &str = "tenbench-guarded";

/// How a guarded run ended.
pub enum Guarded<T> {
    /// The closure returned, with its wall-clock seconds.
    Done(Result<T, String>, f64),
    /// The closure panicked (caught); the payload text.
    Panicked(String),
    /// The watchdog fired first.
    TimedOut,
}

/// The text of a panic payload (`&str` or `String`).
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `run` under the guard with a `max_seconds` wall-clock budget; a
/// budget that is not finite and > 0 means no watchdog. `name` labels the
/// run in flight dumps. The caller's [`obs::TraceCtx`] is installed on the
/// guarded thread, since thread-locals do not inherit across spawns.
pub fn run_guarded<T: Send + 'static>(
    name: &str,
    run: impl FnOnce() -> Result<T, String> + Send + 'static,
    max_seconds: f64,
) -> Guarded<T> {
    let (tx, rx) = mpsc::channel();
    let ctx = obs::ctx::current();
    let spawned = std::thread::Builder::new()
        .name(THREAD_NAME.into())
        .spawn(move || {
            let _ctx_guard = obs::ctx::install_opt(ctx);
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(run));
            // The receiver is gone iff the watchdog already fired.
            let _ = tx.send((result, t0.elapsed().as_secs_f64()));
        });
    if let Err(e) = spawned {
        return Guarded::Done(Err(format!("could not spawn guarded thread: {e}")), 0.0);
    }
    let received = if max_seconds.is_finite() && max_seconds > 0.0 {
        // `recv_timeout` waits like `recv` when the deadline overflows.
        rx.recv_timeout(Duration::try_from_secs_f64(max_seconds).unwrap_or(Duration::MAX))
    } else {
        rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
    };
    let message = match received {
        Ok((Ok(r), dt)) => return Guarded::Done(r, dt),
        Ok((Err(p), _)) => panic_message(p.as_ref()),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            "guarded thread died without reporting".to_string()
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            obs::flight::dump(
                "timeout",
                obs::flight::FlightKind::Timeout,
                obs::ctx::current_id(),
                &format!("{name} exceeded the {max_seconds:.1}s watchdog"),
            );
            return Guarded::TimedOut;
        }
    };
    obs::flight::dump(
        "panic",
        obs::flight::FlightKind::Panic,
        obs::ctx::current_id(),
        &format!("{name} panicked: {message}"),
    );
    Guarded::Panicked(message)
}
