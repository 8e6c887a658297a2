//! The one little-endian decoder behind every binary format: `TNB2`,
//! `TNC1`, the `TNF1` header, and the serving tier's request and response
//! payloads.

use crate::{IoError, Result};

/// A bounds-checked little-endian cursor over untrusted bytes. Every
/// accessor returns [`IoError::Corrupt`] naming `section` on underflow
/// instead of panicking, so corrupt input can never reach a panicking
/// slice path.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The unread bytes, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(IoError::Corrupt {
                section,
                detail: format!(
                    "truncated: need {n} more bytes, {} remain",
                    self.remaining()
                ),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, section: &'static str) -> Result<u8> {
        Ok(self.take(1, section)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self, section: &'static str) -> Result<u16> {
        let b = self.take(2, section)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, section: &'static str) -> Result<u32> {
        let b = self.take(4, section)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, section: &'static str) -> Result<u64> {
        let b = self.take(8, section)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}
