//! Lock-free floating-point accumulation.
//!
//! The paper's parallel COO-Mttkrp protects its output matrix with
//! `omp atomic` on CPUs and `atomicAdd` on GPUs. Rust has no atomic floats in
//! the standard library, so this module provides CAS-loop `fetch_add` cells
//! with the same layout as the underlying float, allowing a `&mut [f32]` to
//! be viewed as `&[AtomicF32]` for the duration of a parallel region.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An atomic cell holding a floating-point value, supporting relaxed
/// `fetch_add` via a compare-and-swap loop.
///
/// Relaxed ordering is sufficient here: the additions commute, nothing is
/// published through the cells, and the join of the surrounding parallel
/// region forms the happens-before edge back to the owning thread (see
/// *Rust Atomics and Locks*, ch. 2–3).
pub trait AtomicScalar: Sync + Send + Sized {
    /// The plain value type stored in the cell.
    type Value: Copy;

    /// Atomically add `v` to the cell and return the previous value.
    fn fetch_add(&self, v: Self::Value) -> Self::Value;
    /// Reinterpret a mutable slice of plain values as a slice of cells.
    fn from_mut_slice(slice: &mut [Self::Value]) -> &[Self];
}

macro_rules! atomic_float {
    ($name:ident, $float:ty, $atomic:ty, $bits:ty, $doc:literal) => {
        #[doc = $doc]
        #[repr(transparent)]
        pub struct $name($atomic);

        impl AtomicScalar for $name {
            type Value = $float;

            #[inline]
            fn fetch_add(&self, v: $float) -> $float {
                let mut cur = self.0.load(Ordering::Relaxed);
                loop {
                    let new = (<$float>::from_bits(cur) + v).to_bits();
                    match self.0.compare_exchange_weak(
                        cur,
                        new,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(prev) => return <$float>::from_bits(prev),
                        Err(actual) => cur = actual,
                    }
                }
            }

            #[inline]
            fn from_mut_slice(slice: &mut [$float]) -> &[Self] {
                // SAFETY: `$name` is `repr(transparent)` over the atomic
                // integer, which has the same size and alignment as `$float`
                // (IEEE-754 bit layout). The `&mut` receiver guarantees the
                // caller holds the only reference, so converting to a shared
                // slice of atomic cells cannot alias non-atomic accesses.
                unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const Self, slice.len()) }
            }
        }
    };
}

atomic_float!(
    AtomicF32,
    f32,
    AtomicU32,
    u32,
    "Atomic `f32` cell backed by `AtomicU32` (same layout as `f32`)."
);
atomic_float!(
    AtomicF64,
    f64,
    AtomicU64,
    u64,
    "Atomic `f64` cell backed by `AtomicU64` (same layout as `f64`)."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_returns_previous() {
        let mut data = [1.5f32];
        let a = &AtomicF32::from_mut_slice(&mut data)[0];
        assert_eq!(a.fetch_add(2.0), 1.5);
        assert_eq!(data[0], 3.5);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        use std::sync::atomic::AtomicUsize;
        let mut data = vec![0.0f64; 1];
        let cells = AtomicF64::from_mut_slice(&mut data);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        cells[0].fetch_add(1.0);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(data[0], 80_000.0);
    }

    #[test]
    fn slice_view_preserves_length() {
        let mut data = vec![1.0f32, 2.0, 3.0];
        let cells = AtomicF32::from_mut_slice(&mut data);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].fetch_add(0.0), 3.0);
    }
}
