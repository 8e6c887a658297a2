//! 64-byte-aligned heap buffers for vector-friendly value storage.
//!
//! `Vec<f32>` only guarantees the allocator's natural alignment (16 bytes
//! on most 64-bit targets), so a buffer handed to a 256-bit kernel may
//! straddle cache lines on every load. [`AlignedVec`] allocates at
//! [`SIMD_ALIGN`] (one cache line, and ≥ any vector width up to AVX-512)
//! so vectorized inner loops can assume aligned, non-line-splitting
//! starts. The element type is restricted to `Copy` — the suite only
//! stores plain scalars and indices here — which keeps growth, clone, and
//! drop trivially correct (no element drops).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Alignment (bytes) guaranteed by [`AlignedVec`]: one cache line, which
/// also covers every vector width this suite targets (AVX2 needs 32).
pub const SIMD_ALIGN: usize = 64;

/// A fixed-length heap buffer whose first element is 64-byte aligned.
///
/// Unlike `Vec`, an `AlignedVec` does not grow: it is built at its final
/// length (`filled` / `from_slice` / `first_touch_filled`) and then only
/// read or written in place, which is exactly the lifecycle of kernel
/// scratch and factor-matrix storage.
pub struct AlignedVec<T: Copy> {
    ptr: *mut T,
    len: usize,
}

// Safety: the buffer is uniquely owned and `T: Copy` values carry no
// thread affinity; access rules are those of `&[T]` / `&mut [T]`.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<T>() * len;
        let align = SIMD_ALIGN.max(std::mem::align_of::<T>());
        Layout::from_size_align(size, align).expect("aligned layout overflow")
    }

    /// Allocate an uninitialized buffer of `len` elements. Private: every
    /// public constructor fully initializes before handing the value out.
    fn alloc_uninit(len: usize) -> Self {
        if len == 0 {
            // Dangling-but-aligned pointer, matching Vec's ZST/empty idiom.
            return AlignedVec {
                ptr: SIMD_ALIGN as *mut T,
                len: 0,
            };
        }
        let layout = Self::layout(len);
        let ptr = unsafe { alloc(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        AlignedVec { ptr, len }
    }

    /// Buffer of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self {
        let v = Self::alloc_uninit(len);
        for i in 0..len {
            unsafe { v.ptr.add(i).write(value) };
        }
        v
    }

    /// Copy of an existing slice, re-homed to aligned storage.
    pub fn from_slice(src: &[T]) -> Self {
        let v = Self::alloc_uninit(src.len());
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), v.ptr, src.len()) };
        v
    }

    /// Like [`filled`](Self::filled), but the backing pages are written
    /// (first-touched) by the current pool's workers, mirroring
    /// `par::first_touch_filled` for plain `Vec`s: large outputs get their
    /// fault cost distributed and their pages placed near the workers that
    /// will write them.
    pub fn first_touch_filled(len: usize, value: T) -> Self
    where
        T: Send + Sync,
    {
        let v = Self::alloc_uninit(len);
        if len > 0 {
            // Safety: the buffer is uniquely owned and chunks are disjoint;
            // every element is written exactly once before `v` is returned.
            let slice = unsafe { std::slice::from_raw_parts_mut(v.ptr, len) };
            let sched = crate::par::Schedule::DYNAMIC;
            crate::par::chunks_mut(slice, 1 << 15, sched, |_, chunk| chunk.fill(value));
        }
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole buffer as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The whole buffer as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.len)) };
        }
    }
}

impl<T: Copy> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy> From<Vec<T>> for AlignedVec<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_slice(&v)
    }
}

impl<T: Copy> From<&[T]> for AlignedVec<T> {
    fn from(s: &[T]) -> Self {
        Self::from_slice(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_aligned<T: Copy>(v: &AlignedVec<T>) {
        assert_eq!(
            v.as_slice().as_ptr() as usize % SIMD_ALIGN,
            0,
            "AlignedVec start must be {SIMD_ALIGN}-byte aligned"
        );
    }

    #[test]
    fn filled_is_aligned_and_initialized() {
        for len in [1usize, 7, 64, 1000] {
            let v = AlignedVec::filled(len, 2.5f32);
            assert_aligned(&v);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 2.5));
        }
    }

    #[test]
    fn empty_buffer_is_safe() {
        let v: AlignedVec<f64> = AlignedVec::filled(0, 0.0);
        assert_aligned(&v);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        let c = v.clone();
        assert_eq!(v, c);
    }

    #[test]
    fn from_slice_round_trips() {
        let src = vec![1u32, 2, 3, 4, 5];
        let v = AlignedVec::from_slice(&src);
        assert_aligned(&v);
        assert_eq!(v.as_slice(), src.as_slice());
        let back: AlignedVec<u32> = src.clone().into();
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn clone_and_eq_follow_contents() {
        let mut a = AlignedVec::filled(16, 1.0f64);
        let b = a.clone();
        assert_aligned(&b);
        assert_eq!(a, b);
        a[3] = 2.0;
        assert_ne!(a, b);
    }

    #[test]
    fn mutation_through_deref_sticks() {
        let mut v = AlignedVec::filled(8, 0.0f32);
        v.fill(3.0);
        v[0] = 1.0;
        assert_eq!(v[0], 1.0);
        assert_eq!(v[7], 3.0);
        assert_eq!(v.iter().sum::<f32>(), 1.0 + 7.0 * 3.0);
    }

    #[test]
    fn first_touch_filled_matches_plain_fill() {
        let v = AlignedVec::first_touch_filled(100_001, 7u32);
        assert_aligned(&v);
        assert_eq!(v.len(), 100_001);
        assert!(v.iter().all(|&x| x == 7));
        let w = crate::par::with_threads(4, || AlignedVec::first_touch_filled(70_003, 1.5f64));
        assert_aligned(&w);
        assert!(w.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn many_sizes_stay_aligned() {
        // Alignment must hold regardless of allocation size class.
        for len in 1..128usize {
            let v = AlignedVec::filled(len, 0u8);
            assert_aligned(&v);
        }
    }
}
