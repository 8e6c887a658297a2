//! A bounded MPMC queue with admission control.
//!
//! The service's backpressure policy lives here: producers never block and
//! never queue unboundedly — [`Bounded::try_push`] fails fast with
//! [`PushError::Full`] when the queue holds `bound` items, and the caller
//! turns that into a typed rejection. Consumers block in [`Bounded::pop`]
//! until an item or shutdown arrives, and can claim a same-key batch with
//! [`Bounded::drain_where`]. After [`Bounded::close`], pops drain what is
//! left and then return `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tenbench_obs::flight::{self, FlightKind};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue already held its bound of items.
    Full,
    /// The queue was closed by [`Bounded::close`].
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// The bounded MPMC queue. `T` is typically the service's pending-request
/// record.
pub(crate) struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    bound: usize,
}

impl<T> Bounded<T> {
    /// Lock the queue state, recovering from poisoning. Every critical
    /// section in this module finishes its state mutation before any call
    /// that could unwind, so a guard poisoned by a panicking worker still
    /// protects a consistent queue — recovering it keeps the service up
    /// instead of cascading panics through every later request.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A queue admitting at most `bound` items (at least 1).
    pub(crate) fn new(bound: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// The admission bound.
    pub(crate) fn bound(&self) -> usize {
        self.bound
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// High-water mark of the queue depth since construction.
    pub(crate) fn max_depth(&self) -> usize {
        self.lock().max_depth
    }

    /// Try to enqueue. Returns the depth after the push, or the item back
    /// with the reason it was refused.
    ///
    /// Admission is also where the flight recorder sees the item: the
    /// outcome is charged to the submitter's installed
    /// [`tenbench_obs::TraceCtx`] (callers mint and install one before
    /// pushing), so a later fault dump shows when and how deep each
    /// request entered the system.
    pub(crate) fn try_push(&self, item: T) -> Result<usize, (T, PushError)> {
        let mut g = self.lock();
        if g.closed {
            drop(g);
            flight::note(FlightKind::Reject, 0);
            return Err((item, PushError::Closed));
        }
        if g.items.len() >= self.bound {
            drop(g);
            flight::note(FlightKind::Reject, self.bound as u64);
            return Err((item, PushError::Full));
        }
        g.items.push_back(item);
        let depth = g.items.len();
        g.max_depth = g.max_depth.max(depth);
        drop(g);
        flight::note(FlightKind::Admit, depth as u64);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Block until an item is available and dequeue it. Returns `None`
    /// once the queue is closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Remove up to `max` queued items matching `pred`, preserving the
    /// order of everything else. Never blocks — this is how a worker
    /// claims batch-mates for the request it just popped.
    ///
    /// The scan is in place: each item is popped off the front and either
    /// taken or rotated to the back, and once `max` items are claimed the
    /// unscanned remainder is rotated past in one bulk `rotate_left`. No
    /// replacement deque is allocated and the predicate stops running as
    /// soon as the batch is full, so admission (which contends on the same
    /// lock) is stalled for work proportional to the scanned depth, not
    /// for a full rebuild of the queue on every batch claim.
    pub(crate) fn drain_where(&self, max: usize, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut g = self.lock();
        let len = g.items.len();
        let mut taken = Vec::new();
        let mut scanned = 0;
        while scanned < len && taken.len() < max {
            scanned += 1;
            // The pop cannot fail: `scanned` never exceeds the starting
            // length and only scanned items leave the deque.
            let item = g.items.pop_front().expect("scan within bounds");
            if pred(&item) {
                taken.push(item);
            } else {
                g.items.push_back(item);
            }
        }
        // Kept items sit behind the unscanned ones; one rotation restores
        // the original relative order.
        let unscanned = len - scanned;
        g.items.rotate_left(unscanned);
        taken
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`];
    /// consumers drain the remaining items and then observe `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bound_is_enforced_and_typed() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err((4, PushError::Closed)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_where_takes_matches_in_order() {
        let q = Bounded::new(10);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let even = q.drain_where(2, |x| x % 2 == 0);
        assert_eq!(even, vec![0, 2]);
        // 4 stayed queued because max was 2; order preserved.
        assert_eq!(q.depth(), 4);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn drain_where_scan_is_depth_proportional_and_in_place() {
        let q = Bounded::new(1024);
        for i in 0..1000 {
            q.try_push(i).unwrap();
        }
        let cap_before = q.lock().items.capacity();
        // The batch fills after the first three matches: the predicate
        // must stop running there instead of walking the whole queue.
        let mut calls = 0;
        let taken = q.drain_where(3, |x| {
            calls += 1;
            x % 2 == 0
        });
        assert_eq!(taken, vec![0, 2, 4]);
        assert_eq!(calls, 5, "predicate ran past the filled batch");
        // Order of everything else is preserved exactly…
        let expect: Vec<i32> = (0..1000).filter(|x| !taken.contains(x)).collect();
        let got: Vec<i32> = std::iter::from_fn(|| {
            let mut g = q.lock();
            g.items.pop_front()
        })
        .collect();
        assert_eq!(got, expect);
        // …and no replacement deque was allocated for the claim.
        assert_eq!(q.lock().items.capacity(), cap_before);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
