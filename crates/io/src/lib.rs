//! # tenbench-io
//!
//! Tensor I/O for the `tenbench` suite:
//!
//! * [`tns`] — the FROSTT `.tns` text format (one 1-based coordinate tuple
//!   plus value per line), the interchange format of the paper's dataset
//!   collections ("the benchmark suite can be run against any set of
//!   tensors provided that they are expressed using coordinate format").
//! * [`bin`] — a compact little-endian binary format for fast reloads of
//!   generated tensors: `TNB2` with per-section CRC-32s.
//! * [`ckpt`] — the `TNC1` factor-matrix checkpoint container used by
//!   long-running decomposition jobs, with the same CRC-32-per-section
//!   discipline as `TNB2`.
//! * [`frame`] — the `TNF1` length-prefixed wire frame used by the
//!   networked serving tier, carrying the same CRC-32-per-section
//!   discipline onto the socket.
//! * [`crc32`] — the CRC-32 used by `TNB2`, `TNC1`, and `TNF1`.
//! * [`cursor`] — the checked little-endian reader every binary decoder
//!   (here and in the serving tier's payload codec) goes through.
//! * [`fault`] — fault-injection `Read`/`Write` wrappers for corruption
//!   testing.
//!
//! All readers treat their input as untrusted: malformed, truncated, or
//! bit-flipped files must produce an [`IoError`], never a panic or an
//! allocation sized from an unvalidated header.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bin;
pub mod ckpt;
pub mod crc32;
pub mod cursor;
pub mod fault;
pub mod frame;
pub mod tns;

use std::fmt;

/// Errors produced by tensor readers and writers.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input (message includes the line number where relevant).
    Parse(String),
    /// The parsed structure was rejected by the core validators.
    Tensor(tenbench_core::TensorError),
    /// A section failed its integrity check (CRC mismatch, truncation,
    /// trailing garbage) — the bytes do not match what was written.
    Corrupt {
        /// Which section of the file failed (`"header"`, `"indices"`, ...).
        section: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// The header asked for more memory than the configured allocation
    /// budget allows; nothing was allocated.
    BudgetExceeded {
        /// Bytes the header implies the payload needs.
        needed: u64,
        /// The configured cap.
        budget: u64,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(msg) => write!(f, "parse error: {msg}"),
            IoError::Tensor(e) => write!(f, "tensor error: {e}"),
            IoError::Corrupt { section, detail } => {
                write!(f, "corrupt {section} section: {detail}")
            }
            IoError::BudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "header requests {needed} bytes, over the {budget}-byte allocation budget"
                )
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<tenbench_core::TensorError> for IoError {
    fn from(e: tenbench_core::TensorError) -> Self {
        IoError::Tensor(e)
    }
}

/// Convenience alias.
pub(crate) type Result<T> = std::result::Result<T, IoError>;
