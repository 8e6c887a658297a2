//! Offline drop-in subset of [bytes](https://crates.io/crates/bytes).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the APIs it uses as path crates under `crates/shims/`. `Bytes`
//! and `BytesMut` are plain owned buffers (no refcounted slabs); the
//! `Buf`/`BufMut` little-endian accessors match upstream byte-for-byte,
//! which is all the binary tensor format needs.

use std::ops::{Deref, DerefMut};

/// Read-side cursor API (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Copy `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Read a little-endian f32.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
    /// Read a little-endian f64.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write-side cursor API (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian f32.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
    /// Append a little-endian f64.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Growable byte buffer (subset of `bytes::BytesMut`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.data
    }
}

/// Immutable byte buffer with a read cursor (subset of `bytes::Bytes`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Total length (including already-consumed bytes).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer was empty to begin with.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The unconsumed bytes as a contiguous slice (upstream `Buf::chunk`).
    /// This is the zero-copy handoff point: a parser that wants a `&[u8]`
    /// view of the rest of the buffer borrows it here instead of copying.
    pub fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// Consume `cnt` bytes without copying them (upstream `Buf::advance`).
    ///
    /// # Panics
    /// If `cnt` exceeds [`Buf::remaining`], matching upstream.
    pub fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.remaining(),
            "advance out of bounds: need {} have {}",
            cnt,
            self.remaining()
        );
        self.pos += cnt;
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.remaining(),
            "copy_to_slice out of bounds: need {} have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_slice(b"abc");
        w.put_f32_le(1.5);
        w.put_f64_le(-2.25);
        let mut r = Bytes::from(Vec::from(w));
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        let mut s = [0u8; 3];
        r.copy_to_slice(&mut s);
        assert_eq!(&s, b"abc");
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -2.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn chunk_and_advance_track_the_cursor() {
        let mut r = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(r.chunk(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.chunk(), &[2, 3, 4, 5]);
        r.advance(2);
        assert_eq!(r.chunk(), &[4, 5]);
        assert_eq!(r.remaining(), 2);
        r.advance(2);
        assert_eq!(r.chunk(), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_past_end_panics_like_upstream() {
        let mut r = Bytes::from(vec![1u8]);
        r.advance(2);
    }

    #[test]
    fn bytesmut_derefs_to_slice() {
        let mut w = BytesMut::with_capacity(3);
        w.put_slice(&[1, 2, 3]);
        let as_slice: &[u8] = &w;
        assert_eq!(as_slice, &[1, 2, 3]);
    }
}
