//! Factor-matrix checkpoint container for long-running decomposition jobs.
//!
//! One on-disk layout, `TNC1` (little-endian), following the same
//! CRC-32-per-section discipline as the `TNB2` tensor format in
//! [`crate::bin`]:
//!
//! ```text
//! magic     [u8; 4] = b"TNC1"
//! vwidth    u8           value width in bytes (4 = f32, 8 = f64)
//! iteration u64          completed iterations at checkpoint time
//! fit       u64          f64 bits of the per-iteration progress metric
//! nsec      u16          number of factor-matrix sections
//! secdims   [u32; 2*nsec] rows, cols per section
//! hcrc      u32          CRC-32 of every header byte above
//! per section: rows*cols values (vwidth each), then its CRC-32
//! ```
//!
//! A checkpoint is the unit of recovery for a supervised decomposition job,
//! so a *damaged* checkpoint must never resume silently wrong: readers
//! treat the input as untrusted exactly like the tensor reader — header
//! fields are validated against the remaining input and an allocation
//! budget *before* any size-derived allocation, all arithmetic is checked,
//! every section must pass its CRC, and trailing bytes are rejected.
//! Damage at any byte offset surfaces as [`IoError`], never a panic and
//! never a wrong state (see `crates/io/tests/corruption.rs`).

use std::io::{Read, Write};

use tenbench_core::scalar::Scalar;

use crate::bin::ReadOptions;
use crate::crc32::crc32;
use crate::cursor::Cursor;
use crate::{IoError, Result};

const MAGIC: &[u8; 4] = b"TNC1";

/// Highest number of factor-matrix sections a checkpoint may carry. The
/// decomposition methods top out at one factor per mode plus a weight
/// vector; 64 leaves generous headroom while keeping a lying header from
/// requesting huge dimension tables.
pub(crate) const MAX_SECTIONS: usize = 64;

/// One checkpointed factor matrix (row-major). A vector is `cols == 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMatrix<S: Scalar> {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major values, `rows * cols` of them.
    pub data: Vec<S>,
}

/// A decomposition-job checkpoint: iteration counter, progress metric and
/// factor matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<S: Scalar> {
    /// Completed iterations at checkpoint time.
    pub iteration: u64,
    /// Progress metric (the CP-ALS fit); stored as raw f64 bits so
    /// round-trips are bitwise-exact.
    pub fit: f64,
    /// Factor matrices, in method-defined order.
    pub matrices: Vec<CheckpointMatrix<S>>,
}

/// Serialize a checkpoint into the `TNC1` format.
pub fn write_ckpt<S: Scalar, W: Write>(c: &Checkpoint<S>, mut writer: W) -> Result<()> {
    if c.matrices.len() > MAX_SECTIONS {
        return Err(IoError::Parse(format!(
            "checkpoint has {} sections, max {MAX_SECTIONS}",
            c.matrices.len()
        )));
    }
    let mut header = Vec::with_capacity(24 + c.matrices.len() * 8);
    header.extend_from_slice(MAGIC);
    header.push(S::BYTES as u8);
    header.extend_from_slice(&c.iteration.to_le_bytes());
    header.extend_from_slice(&c.fit.to_bits().to_le_bytes());
    header.extend_from_slice(&(c.matrices.len() as u16).to_le_bytes());
    for m in &c.matrices {
        if m.rows.checked_mul(m.cols) != Some(m.data.len()) {
            return Err(IoError::Parse(format!(
                "section claims {}x{} but holds {} values",
                m.rows,
                m.cols,
                m.data.len()
            )));
        }
        if m.rows > u32::MAX as usize || m.cols > u32::MAX as usize {
            return Err(IoError::Parse(format!(
                "section dimensions {}x{} exceed u32",
                m.rows, m.cols
            )));
        }
        header.extend_from_slice(&(m.rows as u32).to_le_bytes());
        header.extend_from_slice(&(m.cols as u32).to_le_bytes());
    }
    writer.write_all(&header)?;
    writer.write_all(&crc32(&header).to_le_bytes())?;
    for m in &c.matrices {
        let mut sec = Vec::with_capacity(m.data.len() * S::BYTES as usize);
        for &v in &m.data {
            match S::BYTES {
                4 => sec.extend_from_slice(&(v.to_f64() as f32).to_le_bytes()),
                _ => sec.extend_from_slice(&v.to_f64().to_le_bytes()),
            }
        }
        writer.write_all(&sec)?;
        writer.write_all(&crc32(&sec).to_le_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// Deserialize a checkpoint with default limits.
pub fn read_ckpt<S: Scalar, R: Read>(reader: R) -> Result<Checkpoint<S>> {
    read_ckpt_with(reader, ReadOptions::default())
}

/// Deserialize a checkpoint with an explicit allocation budget.
pub(crate) fn read_ckpt_with<S: Scalar, R: Read>(
    reader: R,
    opts: ReadOptions,
) -> Result<Checkpoint<S>> {
    // Never buffer more than the budget (plus header slack) even if the
    // input claims otherwise.
    let header_slack = 64 + 8 * MAX_SECTIONS as u64 + 4 * (MAX_SECTIONS as u64 + 1);
    let file_cap = opts.max_bytes.saturating_add(header_slack);
    let mut raw = Vec::new();
    reader.take(file_cap + 1).read_to_end(&mut raw)?;
    if raw.len() as u64 > file_cap {
        return Err(IoError::BudgetExceeded {
            needed: raw.len() as u64,
            budget: opts.max_bytes,
        });
    }

    let mut cur = Cursor::new(&raw);
    let mut magic = [0u8; 4];
    magic.copy_from_slice(cur.take(4, "header")?);
    if &magic != MAGIC {
        return Err(IoError::Parse(format!("bad checkpoint magic {magic:?}")));
    }
    let vwidth = cur.u8("header")?;
    if vwidth as u64 != S::BYTES {
        return Err(IoError::Parse(format!(
            "value width {vwidth} does not match requested scalar ({} bytes)",
            S::BYTES
        )));
    }
    let iteration = cur.u64("header")?;
    let fit = f64::from_bits(cur.u64("header")?);
    let nsec = cur.u16("header")? as usize;
    if nsec > MAX_SECTIONS {
        return Err(IoError::Parse(format!(
            "{nsec} sections exceed the supported maximum {MAX_SECTIONS}"
        )));
    }

    // Sanity caps BEFORE any size-derived allocation: the payload the
    // header implies must fit both the remaining input and the budget.
    let overflow = || IoError::Tensor(tenbench_core::TensorError::SizeOverflow);
    let mut dims = Vec::with_capacity(nsec);
    let mut payload = 0u64;
    for _ in 0..nsec {
        let rows = cur.u32("header")?;
        let cols = cur.u32("header")?;
        let bytes = (rows as u64 * cols as u64)
            .checked_mul(S::BYTES)
            .ok_or_else(overflow)?;
        payload = payload.checked_add(bytes).ok_or_else(overflow)?;
        dims.push((rows, cols));
    }
    if payload > opts.max_bytes {
        return Err(IoError::BudgetExceeded {
            needed: payload,
            budget: opts.max_bytes,
        });
    }
    let crc_overhead = 4 * nsec as u64;
    if payload + crc_overhead > cur.remaining() as u64 {
        return Err(IoError::Corrupt {
            section: "header",
            detail: format!(
                "header claims {payload} payload bytes but only {} bytes follow",
                cur.remaining()
            ),
        });
    }

    let header_end = cur.pos();
    let expect = cur.u32("header")?;
    let got = crc32(&raw[..header_end]);
    if got != expect {
        return Err(IoError::Corrupt {
            section: "header",
            detail: format!("crc mismatch: stored {expect:#010x}, computed {got:#010x}"),
        });
    }

    let mut matrices = Vec::with_capacity(nsec);
    for &(rows, cols) in &dims {
        let n = rows as usize * cols as usize;
        let start = cur.pos();
        let sec = cur.take(n * S::BYTES as usize, "factors")?;
        let data: Vec<S> = match vwidth {
            4 => sec
                .chunks_exact(4)
                .map(|b| S::from_f64(f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64))
                .collect(),
            _ => sec
                .chunks_exact(8)
                .map(|b| {
                    S::from_f64(f64::from_le_bytes([
                        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                    ]))
                })
                .collect(),
        };
        let expect = cur.u32("factors")?;
        let got = crc32(&raw[start..start + n * S::BYTES as usize]);
        if got != expect {
            return Err(IoError::Corrupt {
                section: "factors",
                detail: format!("crc mismatch: stored {expect:#010x}, computed {got:#010x}"),
            });
        }
        matrices.push(CheckpointMatrix {
            rows: rows as usize,
            cols: cols as usize,
            data,
        });
    }

    if cur.remaining() != 0 {
        return Err(IoError::Corrupt {
            section: "factors",
            detail: format!("{} trailing bytes after final crc", cur.remaining()),
        });
    }

    Ok(Checkpoint {
        iteration,
        fit,
        matrices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint<f32> {
        Checkpoint {
            iteration: 7,
            fit: 0.987654321,
            matrices: vec![
                CheckpointMatrix {
                    rows: 3,
                    cols: 2,
                    data: vec![1.0, -2.5, 0.125, 3.75, -0.5, 9.0],
                },
                CheckpointMatrix {
                    rows: 4,
                    cols: 1,
                    data: vec![0.1, 0.2, 0.3, 0.4],
                },
            ],
        }
    }

    fn bytes_of(c: &Checkpoint<f32>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_ckpt(c, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_bitwise_exact_f32() {
        let c = sample();
        let back: Checkpoint<f32> = read_ckpt(bytes_of(&c).as_slice()).unwrap();
        assert_eq!(back.iteration, c.iteration);
        assert_eq!(back.fit.to_bits(), c.fit.to_bits());
        for (a, b) in back.matrices.iter().zip(&c.matrices) {
            assert_eq!((a.rows, a.cols), (b.rows, b.cols));
            let ab: Vec<u32> = a.data.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn round_trip_f64_and_empty() {
        let c = Checkpoint::<f64> {
            iteration: 0,
            fit: std::f64::consts::PI,
            matrices: vec![],
        };
        let mut buf = Vec::new();
        write_ckpt(&c, &mut buf).unwrap();
        let back: Checkpoint<f64> = read_ckpt(buf.as_slice()).unwrap();
        assert_eq!(back.fit.to_bits(), c.fit.to_bits());
        assert!(back.matrices.is_empty());
    }

    #[test]
    fn rejects_wrong_scalar_width() {
        let buf = bytes_of(&sample());
        let r: Result<Checkpoint<f64>> = read_ckpt(buf.as_slice());
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn rejects_dims_data_mismatch_on_write() {
        let mut c = sample();
        c.matrices[0].rows = 5;
        let mut buf = Vec::new();
        assert!(matches!(write_ckpt(&c, &mut buf), Err(IoError::Parse(_))));
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let buf = bytes_of(&sample());
        for cut in 0..buf.len() {
            let r: Result<Checkpoint<f32>> = read_ckpt(&buf[..cut]);
            assert!(r.is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let buf = bytes_of(&sample());
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            let r: Result<Checkpoint<f32>> = read_ckpt(bad.as_slice());
            assert!(r.is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = bytes_of(&sample());
        buf.extend_from_slice(&[0u8; 5]);
        let r: Result<Checkpoint<f32>> = read_ckpt(buf.as_slice());
        assert!(matches!(r, Err(IoError::Corrupt { .. })));
    }

    #[test]
    fn rejects_allocation_bomb_headers() {
        // A tiny input whose header claims gigantic sections: must be
        // rejected before any size-derived allocation.
        for (rows, cols) in [(u32::MAX, u32::MAX), (1 << 30, 1 << 30)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.push(4);
            buf.extend_from_slice(&0u64.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            buf.extend_from_slice(&1u16.to_le_bytes());
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.extend_from_slice(&cols.to_le_bytes());
            let r: Result<Checkpoint<f32>> = read_ckpt(buf.as_slice());
            assert!(
                matches!(
                    r,
                    Err(IoError::Corrupt { .. })
                        | Err(IoError::BudgetExceeded { .. })
                        | Err(IoError::Tensor(_))
                ),
                "bomb ({rows}, {cols}) accepted: {r:?}"
            );
        }
    }

    #[test]
    fn rejects_excessive_section_count() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(4);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(MAX_SECTIONS as u16 + 1).to_le_bytes());
        let r: Result<Checkpoint<f32>> = read_ckpt(buf.as_slice());
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn budget_is_enforced() {
        let buf = bytes_of(&sample());
        let r: Result<Checkpoint<f32>> =
            read_ckpt_with(buf.as_slice(), ReadOptions { max_bytes: 4 });
        assert!(matches!(r, Err(IoError::BudgetExceeded { .. })));
    }
}
