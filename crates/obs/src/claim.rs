//! The per-thread claim cell both recorders are built on.
//!
//! Each recording thread owns one [`Claimed`] value (the span buffer's
//! event `Vec`, the flight recorder's ring), registered once in a
//! process-wide [`Registry`]. An `AtomicBool` CAS claim serializes the
//! owner's record against a drain or snapshot from another thread: there
//! are no locks on the recording path, and the registry mutex is touched
//! only at registration and by the drain.

use std::cell::{OnceCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::LocalKey;

/// One thread's recorder state behind a CAS claim flag.
pub(crate) struct Claimed<T> {
    /// Registration order in its [`Registry`], 0-based.
    pub(crate) tid: u64,
    /// The OS thread name at registration time, if any.
    pub(crate) name: String,
    busy: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is only touched while `busy` is held via CAS, which
// serializes the owning thread's records against a drain or snapshot.
unsafe impl<T: Send> Send for Claimed<T> {}
unsafe impl<T: Send> Sync for Claimed<T> {}

impl<T> Claimed<T> {
    /// Claim the value and run `f`; `None` if the claim could not be won
    /// within a short bounded spin (a drain or snapshot holds it).
    pub(crate) fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        for _ in 0..256 {
            if self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS above grants exclusive access.
                let r = f(unsafe { &mut *self.value.get() });
                self.busy.store(false, Ordering::Release);
                return Some(r);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Claim the value however long it takes. The owner holds the claim
    /// only across one record, so a drain or snapshot yields until it wins.
    pub(crate) fn with<R>(&self, mut f: impl FnMut(&mut T) -> R) -> R {
        loop {
            if let Some(r) = self.try_with(&mut f) {
                return r;
            }
            std::thread::yield_now();
        }
    }
}

/// The process-wide list of every thread's [`Claimed`] value.
pub(crate) struct Registry<T> {
    next_tid: AtomicU64,
    cells: Mutex<Vec<Arc<Claimed<T>>>>,
}

impl<T> Registry<T> {
    /// An empty registry.
    pub(crate) const fn new() -> Self {
        Registry {
            next_tid: AtomicU64::new(0),
            cells: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on the calling thread's cell in `local`, creating it from
    /// `init` and registering it here on the thread's first call.
    pub(crate) fn with_local<R>(
        &self,
        local: &'static LocalKey<OnceCell<Arc<Claimed<T>>>>,
        init: impl FnOnce() -> T,
        f: impl FnOnce(&Claimed<T>) -> R,
    ) -> R {
        local.with(|cell| {
            let claimed = cell.get_or_init(|| {
                let claimed = Arc::new(Claimed {
                    tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                    name: std::thread::current().name().unwrap_or("").to_string(),
                    busy: AtomicBool::new(false),
                    value: UnsafeCell::new(init()),
                });
                self.cells().push(Arc::clone(&claimed));
                claimed
            });
            f(claimed)
        })
    }

    /// Every registered cell, in registration order.
    pub(crate) fn cells(&self) -> MutexGuard<'_, Vec<Arc<Claimed<T>>>> {
        self.cells.lock().unwrap_or_else(|e| e.into_inner())
    }
}
