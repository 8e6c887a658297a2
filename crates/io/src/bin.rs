//! Compact binary tensor format.
//!
//! The `.tnb` layout, `TNB2` (little-endian, written by [`write_bin`]):
//!
//! ```text
//! magic   [u8; 4] = b"TNB2"
//! vwidth  u8           value width in bytes (4 = f32, 8 = f64)
//! order   u8
//! dims    [u32; order]
//! nnz     u64
//! hcrc    u32          CRC-32 of every header byte above
//! inds    order arrays of nnz u32
//! icrc    u32          CRC-32 of the inds section
//! vals    nnz values (f32 or f64 bits)
//! vcrc    u32          CRC-32 of the vals section
//! ```
//!
//! Any other magic — including the CRC-less `TNB1` layout that preceded
//! this one — is rejected as a bad magic.
//!
//! Reloading a tensor from this format is orders of magnitude faster than
//! re-parsing `.tns`, and a file may arrive damaged or hostile (from disk
//! or over the wire). Readers therefore treat the input as untrusted:
//! the header's `order`/`dims`/`nnz` are validated against the remaining
//! input length and a configurable allocation budget *before* any
//! size-derived allocation, all arithmetic is checked, and every section
//! must pass its CRC. Corruption surfaces as [`IoError`],
//! never a panic or an OOM.

use std::io::{Read, Write};

use tenbench_core::coo::CooTensor;
use tenbench_core::scalar::Scalar;
use tenbench_core::shape::Shape;

use crate::crc32::crc32;
use crate::cursor::Cursor;
use crate::{IoError, Result};

const MAGIC: &[u8; 4] = b"TNB2";

/// Highest tensor order the binary reader accepts. The suite's kernels and
/// generators top out at order 4; 16 leaves generous headroom while keeping
/// a lying header from requesting gigabytes of index arrays.
pub(crate) const MAX_ORDER: usize = 16;

/// Options controlling how much a reader is willing to allocate.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Upper bound, in bytes, on the payload (indices + values) a header
    /// may request. Headers over this return [`IoError::BudgetExceeded`]
    /// before anything is allocated.
    pub max_bytes: u64,
}

impl Default for ReadOptions {
    fn default() -> Self {
        // 4 GiB: comfortably above the largest bench dataset, far below
        // anything that would OOM the sweep host on a lying header.
        ReadOptions { max_bytes: 4 << 30 }
    }
}

fn checked_payload_bytes(nnz: u64, order: usize, vwidth: u8) -> Result<u64> {
    let per_nnz = 4u64
        .checked_mul(order as u64)
        .and_then(|b| b.checked_add(vwidth as u64))
        .ok_or(IoError::Tensor(tenbench_core::TensorError::SizeOverflow))?;
    nnz.checked_mul(per_nnz)
        .ok_or(IoError::Tensor(tenbench_core::TensorError::SizeOverflow))
}

/// Serialize a tensor into the `TNB2` binary format.
pub fn write_bin<S: Scalar, W: Write>(tensor: &CooTensor<S>, mut writer: W) -> Result<()> {
    let order = tensor.order();
    let nnz = tensor.nnz();

    let mut header = Vec::with_capacity(18 + order * 4);
    header.extend_from_slice(MAGIC);
    header.push(S::BYTES as u8);
    header.push(order as u8);
    for &d in tensor.shape().dims() {
        header.extend_from_slice(&d.to_le_bytes());
    }
    header.extend_from_slice(&(nnz as u64).to_le_bytes());

    let mut inds = Vec::with_capacity(nnz * order * 4);
    for m in 0..order {
        for &i in tensor.mode_inds(m) {
            inds.extend_from_slice(&i.to_le_bytes());
        }
    }

    let mut vals = Vec::with_capacity(nnz * S::BYTES as usize);
    for &v in tensor.vals() {
        match S::BYTES {
            4 => vals.extend_from_slice(&(v.to_f64() as f32).to_le_bytes()),
            _ => vals.extend_from_slice(&v.to_f64().to_le_bytes()),
        }
    }

    writer.write_all(&header)?;
    writer.write_all(&crc32(&header).to_le_bytes())?;
    writer.write_all(&inds)?;
    writer.write_all(&crc32(&inds).to_le_bytes())?;
    writer.write_all(&vals)?;
    writer.write_all(&crc32(&vals).to_le_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Deserialize a tensor from the binary format with default limits.
pub fn read_bin<S: Scalar, R: Read>(reader: R) -> Result<CooTensor<S>> {
    read_bin_with(reader, ReadOptions::default())
}

/// Deserialize a tensor with an explicit allocation budget.
pub fn read_bin_with<S: Scalar, R: Read>(reader: R, opts: ReadOptions) -> Result<CooTensor<S>> {
    // Never buffer more than the budget (plus header slack) even if the
    // file claims otherwise: a multi-terabyte file cannot OOM the reader.
    let mut raw = Vec::new();
    reader.take(input_cap(opts) + 1).read_to_end(&mut raw)?;
    decode_bin(&raw, opts)
}

/// The most input bytes a reader with `opts` accepts: the budget plus
/// header and CRC slack.
fn input_cap(opts: ReadOptions) -> u64 {
    opts.max_bytes
        .saturating_add(64 + 4 * MAX_ORDER as u64 + 12)
}

/// Decode a tensor from `TNB2` bytes already in memory (a file read by
/// [`read_bin_with`], or a frame payload), under the same budget.
pub fn decode_bin<S: Scalar>(raw: &[u8], opts: ReadOptions) -> Result<CooTensor<S>> {
    if raw.len() as u64 > input_cap(opts) {
        return Err(IoError::BudgetExceeded {
            needed: raw.len() as u64,
            budget: opts.max_bytes,
        });
    }

    let mut cur = Cursor::new(raw);
    let mut magic = [0u8; 4];
    magic.copy_from_slice(cur.take(4, "header")?);
    if &magic != MAGIC {
        return Err(IoError::Parse(format!("bad magic {magic:?}")));
    }

    let vwidth = cur.u8("header")?;
    if vwidth as u64 != S::BYTES {
        return Err(IoError::Parse(format!(
            "value width {vwidth} does not match requested scalar ({} bytes)",
            S::BYTES
        )));
    }
    let order = cur.u8("header")? as usize;
    if order == 0 {
        return Err(IoError::Parse("zero-order tensor".into()));
    }
    if order > MAX_ORDER {
        return Err(IoError::Parse(format!(
            "order {order} exceeds the supported maximum {MAX_ORDER}"
        )));
    }
    let mut dims = Vec::with_capacity(order);
    for _ in 0..order {
        dims.push(cur.u32("header")?);
    }
    if dims.contains(&0) {
        return Err(IoError::Parse("zero dimension".into()));
    }
    let nnz64 = cur.u64("header")?;

    // Sanity caps BEFORE any size-derived allocation: the payload the
    // header implies must fit both the remaining input and the budget.
    let payload = checked_payload_bytes(nnz64, order, vwidth)?;
    if payload > opts.max_bytes {
        return Err(IoError::BudgetExceeded {
            needed: payload,
            budget: opts.max_bytes,
        });
    }
    // The header and indices CRC words precede the last payload byte.
    if payload + 8 > cur.remaining() as u64 {
        return Err(IoError::Corrupt {
            section: "header",
            detail: format!(
                "header claims {nnz64} nonzeros ({payload} payload bytes) but only {} bytes follow",
                cur.remaining()
            ),
        });
    }
    let nnz = nnz64 as usize;

    let header_end = cur.pos();
    let expect = cur.u32("header")?;
    let got = crc32(&raw[..header_end]);
    if got != expect {
        return Err(IoError::Corrupt {
            section: "header",
            detail: format!("crc mismatch: stored {expect:#010x}, computed {got:#010x}"),
        });
    }

    let ind_start = cur.pos();
    let mut inds: Vec<Vec<u32>> = Vec::with_capacity(order);
    for _ in 0..order {
        let sec = cur.take(nnz * 4, "indices")?;
        inds.push(
            sec.chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        );
    }
    let expect = cur.u32("indices")?;
    let got = crc32(&raw[ind_start..ind_start + nnz * 4 * order]);
    if got != expect {
        return Err(IoError::Corrupt {
            section: "indices",
            detail: format!("crc mismatch: stored {expect:#010x}, computed {got:#010x}"),
        });
    }

    let val_start = cur.pos();
    let vals: Vec<S> = match vwidth {
        4 => cur
            .take(nnz * 4, "values")?
            .chunks_exact(4)
            .map(|b| S::from_f64(f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64))
            .collect(),
        _ => cur
            .take(nnz * 8, "values")?
            .chunks_exact(8)
            .map(|b| {
                S::from_f64(f64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ]))
            })
            .collect(),
    };
    let expect = cur.u32("values")?;
    let got = crc32(&raw[val_start..val_start + nnz * vwidth as usize]);
    if got != expect {
        return Err(IoError::Corrupt {
            section: "values",
            detail: format!("crc mismatch: stored {expect:#010x}, computed {got:#010x}"),
        });
    }
    if cur.remaining() != 0 {
        return Err(IoError::Corrupt {
            section: "values",
            detail: format!("{} trailing bytes after final crc", cur.remaining()),
        });
    }

    Ok(CooTensor::from_parts(Shape::new(dims), inds, vals)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![10, 20, 30]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![9, 19, 29], -2.5),
                (vec![3, 7, 11], 0.125),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_f32() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC);
        let back: CooTensor<f32> = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.to_map(), t.to_map());
    }

    #[test]
    fn round_trip_f64() {
        let t = CooTensor::<f64>::from_entries(
            Shape::new(vec![4, 4]),
            vec![(vec![1, 2], std::f64::consts::PI)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back: CooTensor<f64> = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back.vals()[0], std::f64::consts::PI);
    }

    /// The header of `sample()` in the CRC-less layout that preceded
    /// `TNB2`, claiming `nnz` nonzeros.
    fn tnb1_header(nnz: u64) -> Vec<u8> {
        let mut buf = b"TNB1\x04\x03".to_vec();
        for d in [10u32, 20, 30] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.extend_from_slice(&nnz.to_le_bytes());
        buf
    }

    #[test]
    fn tnb1_magic_is_rejected_before_its_header_is_trusted() {
        // A well-formed legacy file, and forged ones whose `nnz` would be
        // an allocation bomb: all stop at the magic.
        let mut whole = tnb1_header(3);
        whole.extend_from_slice(&[0u8; 3 * (3 * 4 + 4)]);
        for buf in [whole, tnb1_header(1 << 40), tnb1_header(u64::MAX)] {
            let r: Result<CooTensor<f32>> = read_bin(buf.as_slice());
            assert!(
                matches!(&r, Err(IoError::Parse(m)) if m.contains("bad magic")),
                "{r:?}"
            );
        }
    }

    #[test]
    fn rejects_wrong_scalar_width() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let r: Result<CooTensor<f64>> = read_bin(buf.as_slice());
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn rejects_truncated_input() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        for cut in [3usize, 10, buf.len() - 1] {
            let r: Result<CooTensor<f32>> = read_bin(&buf[..cut]);
            assert!(r.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let r: Result<CooTensor<f32>> = read_bin(&b"XXXX\x04\x02"[..]);
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn empty_tensor_round_trips() {
        let t = CooTensor::<f32>::empty(Shape::new(vec![5, 5]));
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let back: CooTensor<f32> = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back.nnz(), 0);
        assert_eq!(back.shape().dims(), &[5, 5]);
    }

    /// The original allocation-bomb: a tiny file whose header claims a
    /// gigantic `nnz`. Must be rejected before any allocation, including
    /// values that overflow `nnz * bytes_per_nnz`.
    #[test]
    fn rejects_allocation_bomb_headers() {
        for nnz in [u64::MAX, u64::MAX / 8, 1u64 << 61, 1u64 << 40] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.push(4); // f32
            buf.push(3); // order
            for d in [10u32, 10, 10] {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            buf.extend_from_slice(&nnz.to_le_bytes());
            let r: Result<CooTensor<f32>> = read_bin(buf.as_slice());
            assert!(
                matches!(
                    r,
                    Err(IoError::Corrupt { .. })
                        | Err(IoError::BudgetExceeded { .. })
                        | Err(IoError::Tensor(_))
                ),
                "nnz {nnz:#x} accepted"
            );
        }
    }

    #[test]
    fn rejects_excessive_order() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(4);
        buf.push(200); // order 200
        let r: Result<CooTensor<f32>> = read_bin(buf.as_slice());
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn budget_is_enforced() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        let r: Result<CooTensor<f32>> = read_bin_with(buf.as_slice(), ReadOptions { max_bytes: 8 });
        assert!(matches!(r, Err(IoError::BudgetExceeded { .. })));
    }

    #[test]
    fn bit_flip_anywhere_is_detected_in_tnb2() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            let r: Result<CooTensor<f32>> = read_bin(bad.as_slice());
            assert!(r.is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn rejects_trailing_garbage_in_tnb2() {
        let t = sample();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 7]);
        let r: Result<CooTensor<f32>> = read_bin(buf.as_slice());
        assert!(matches!(r, Err(IoError::Corrupt { .. })));
    }

    #[test]
    fn rejects_out_of_bounds_indices() {
        // Valid CRCs but an index outside the declared shape: caught by the
        // core validator at construction.
        let t =
            CooTensor::<f32>::from_entries(Shape::new(vec![100, 100]), vec![(vec![50, 99], 1.0)])
                .unwrap();
        let mut buf = Vec::new();
        write_bin(&t, &mut buf).unwrap();
        // Shrink the first dim (dims start at offset 6) and re-seal the
        // 22-byte header so only the index check can object.
        buf[6..10].copy_from_slice(&10u32.to_le_bytes());
        let hcrc = crc32(&buf[..22]);
        buf[22..26].copy_from_slice(&hcrc.to_le_bytes());
        let r: Result<CooTensor<f32>> = read_bin(buf.as_slice());
        assert!(matches!(
            r,
            Err(IoError::Tensor(
                tenbench_core::TensorError::IndexOutOfBounds { .. }
            ))
        ));
    }
}
