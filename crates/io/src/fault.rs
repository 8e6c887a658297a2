//! Fault-injection wrappers for testing reader/writer hardening.
//!
//! The suite treats on-disk tensors as untrusted input: every corruption a
//! filesystem or interrupted transfer can produce must surface as an
//! [`crate::IoError`], never a panic or an unbounded allocation. These
//! wrappers make that testable by injecting the corruptions
//! deterministically:
//!
//! * [`Fault::Truncate`] — the stream ends early (partial download,
//!   `ENOSPC` during the original write),
//! * [`Fault::BitFlip`] — bytes are damaged in place (bit rot, bad RAM),
//! * [`Fault::ShortReads`] — `read` returns fewer bytes than asked (pipes,
//!   network filesystems),
//! * [`Fault::FailAfter`] — a hard I/O error mid-stream.
//!
//! `crates/io/tests/corruption.rs` drives these systematically over every
//! byte offset of a small tensor.

use std::io::{self, Read, Write};

/// One injected fault. Offsets are absolute stream positions in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// End the stream after `at` bytes (reader) or silently drop everything
    /// past `at` bytes (writer).
    Truncate {
        /// Stream offset at which the data ends.
        at: u64,
    },
    /// XOR the byte at offset `at` with `mask` as it passes through.
    BitFlip {
        /// Offset of the damaged byte.
        at: u64,
        /// Bits to flip (must be nonzero to have any effect).
        mask: u8,
    },
    /// Deliver at most `max` bytes per `read` call (never an error, just
    /// smaller chunks — exercises callers that assume full reads).
    ShortReads {
        /// Per-call byte cap; must be at least 1.
        max: usize,
    },
    /// Return `io::ErrorKind::Other` once the stream position reaches `at`.
    FailAfter {
        /// Offset at which the hard error fires.
        at: u64,
    },
}

/// A `Read` adapter that injects the configured faults.
#[derive(Debug)]
pub struct FaultReader<R> {
    inner: R,
    faults: Vec<Fault>,
    pos: u64,
}

impl<R: Read> FaultReader<R> {
    /// Wrap `inner`, injecting `faults`.
    pub fn new(inner: R, faults: Vec<Fault>) -> Self {
        FaultReader {
            inner,
            faults,
            pos: 0,
        }
    }

    /// Convenience: truncate the stream at `at`.
    pub fn truncated(inner: R, at: u64) -> Self {
        Self::new(inner, vec![Fault::Truncate { at }])
    }

    /// Convenience: flip `mask` bits of the byte at `at`.
    pub fn bit_flipped(inner: R, at: u64, mask: u8) -> Self {
        Self::new(inner, vec![Fault::BitFlip { at, mask }])
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut limit = buf.len();
        for f in &self.faults {
            match *f {
                Fault::ShortReads { max } => limit = limit.min(max.max(1)),
                Fault::Truncate { at } => {
                    limit = limit.min(at.saturating_sub(self.pos) as usize);
                }
                Fault::FailAfter { at } => {
                    if self.pos >= at {
                        return Err(io::Error::other(format!("injected failure at {at}")));
                    }
                    limit = limit.min(at.saturating_sub(self.pos) as usize);
                }
                Fault::BitFlip { .. } => {}
            }
        }
        // A truncation fault reached its offset: report clean EOF.
        if limit == 0 && !buf.is_empty() {
            let truncated = self
                .faults
                .iter()
                .any(|f| matches!(*f, Fault::Truncate { at } if at <= self.pos));
            if truncated {
                return Ok(0);
            }
        }
        let n = self.inner.read(&mut buf[..limit])?;
        for f in &self.faults {
            if let Fault::BitFlip { at, mask } = *f {
                if at >= self.pos && at < self.pos + n as u64 {
                    buf[(at - self.pos) as usize] ^= mask;
                }
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// A `Write` adapter that injects the configured faults.
#[derive(Debug)]
pub struct FaultWriter<W> {
    inner: W,
    faults: Vec<Fault>,
    pos: u64,
}

impl<W: Write> FaultWriter<W> {
    /// Wrap `inner`, injecting `faults`.
    pub(crate) fn new(inner: W, faults: Vec<Fault>) -> Self {
        FaultWriter {
            inner,
            faults,
            pos: 0,
        }
    }

    /// Convenience: drop everything past `at` bytes (simulates `ENOSPC`
    /// with a sloppy caller that ignores the error — the resulting file is
    /// silently truncated, which the readers must then detect).
    pub fn truncated(inner: W, at: u64) -> Self {
        Self::new(inner, vec![Fault::Truncate { at }])
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut limit = buf.len();
        let mut dropped = false;
        for f in &self.faults {
            match *f {
                Fault::Truncate { at } => {
                    let keep = at.saturating_sub(self.pos) as usize;
                    if keep < limit {
                        limit = keep;
                        dropped = true;
                    }
                }
                Fault::FailAfter { at } => {
                    if self.pos >= at {
                        return Err(io::Error::other(format!("injected failure at {at}")));
                    }
                    limit = limit.min(at.saturating_sub(self.pos) as usize);
                }
                Fault::ShortReads { max } => limit = limit.min(max.max(1)),
                Fault::BitFlip { .. } => {}
            }
        }
        let mut chunk = buf[..limit].to_vec();
        for f in &self.faults {
            if let Fault::BitFlip { at, mask } = *f {
                if at >= self.pos && at < self.pos + limit as u64 {
                    chunk[(at - self.pos) as usize] ^= mask;
                }
            }
        }
        if !chunk.is_empty() {
            self.inner.write_all(&chunk)?;
        }
        // Pretend a dropped tail was written so `write_all` callers finish
        // and the truncated artifact lands on disk for the reader to reject.
        let claimed = if dropped { buf.len() } else { limit };
        self.pos += claimed as u64;
        Ok(claimed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_reader_ends_early() {
        let data = vec![7u8; 100];
        let mut r = FaultReader::truncated(data.as_slice(), 10);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn bit_flip_damages_exactly_one_byte() {
        let data: Vec<u8> = (0..32).collect();
        let mut r = FaultReader::bit_flipped(data.as_slice(), 5, 0x80);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out[5], 5 ^ 0x80);
        let intact: Vec<u8> = out
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 5)
            .map(|(_, &b)| b)
            .collect();
        assert_eq!(intact, (0..32).filter(|&b| b != 5).collect::<Vec<u8>>());
    }

    #[test]
    fn short_reads_still_deliver_everything() {
        let data: Vec<u8> = (0..=255).collect();
        let mut r = FaultReader::new(data.as_slice(), vec![Fault::ShortReads { max: 3 }]);
        let mut buf = [0u8; 64];
        assert_eq!(r.read(&mut buf).unwrap(), 3);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(3 + rest.len(), 256);
    }

    #[test]
    fn fail_after_errors_hard() {
        let data = vec![0u8; 64];
        let mut r = FaultReader::new(data.as_slice(), vec![Fault::FailAfter { at: 16 }]);
        let mut out = Vec::new();
        assert!(r.read_to_end(&mut out).is_err());
    }

    #[test]
    fn truncating_writer_drops_the_tail() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::truncated(&mut sink, 6);
            w.write_all(&[1, 2, 3, 4]).unwrap();
            w.write_all(&[5, 6, 7, 8]).unwrap(); // bytes 7..8 dropped
            w.flush().unwrap();
        }
        assert_eq!(sink, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn bit_flipping_writer_damages_stream() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::new(&mut sink, vec![Fault::BitFlip { at: 2, mask: 0x01 }]);
            w.write_all(&[0, 0, 0, 0]).unwrap();
        }
        assert_eq!(sink, vec![0, 0, 1, 0]);
    }
}
