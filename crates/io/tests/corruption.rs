//! Fault-injection corpus: malformed, truncated, and bit-flipped `.tns`
//! and `.tnb` inputs must always produce an `Err`, never a panic and
//! never a header-driven allocation. The exhaustive sweeps drive
//! `FaultReader` systematically at every byte offset of a small tensor;
//! the proptest corpus adds randomized structural damage.
//!
//! Shared invariant: when a damaged read somehow still returns `Ok` (only
//! possible where no CRC covers the bytes, i.e. `.tns` text), the resulting
//! tensor must still pass `validate()`.

use proptest::prelude::*;
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;
use tenbench_io::bin::{read_bin, read_bin_with, write_bin, ReadOptions};
use tenbench_io::ckpt::{read_ckpt, write_ckpt, Checkpoint, CheckpointMatrix};
use tenbench_io::fault::{Fault, FaultReader, FaultWriter};
use tenbench_io::tns;
use tenbench_io::IoError;

fn sample_tensor() -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![6, 5, 4]),
        (0..24u32)
            .map(|i| (vec![i % 6, (i / 2) % 5, (i * 3) % 4], i as f32 * 0.5 - 3.0))
            .collect(),
    )
    .unwrap()
}

fn tnb2_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_bin(&sample_tensor(), &mut buf).unwrap();
    buf
}

/// The CRC-less layout that preceded `TNB2`, which nothing writes any more:
/// the `TNB2` bytes with the three CRC words cut out and the magic
/// relabelled.
fn tnb1_bytes() -> Vec<u8> {
    let t = sample_tensor();
    let b = tnb2_bytes();
    let header = 4 + 1 + 1 + 4 * t.order() + 8;
    let inds = 4 * t.order() * t.nnz();
    let vals = 4 * t.nnz();
    let mut out = b[..header].to_vec();
    out.extend_from_slice(&b[header + 4..][..inds]);
    out.extend_from_slice(&b[header + 4 + inds + 4..][..vals]);
    assert_eq!(out.len() + 12, b.len());
    out[..4].copy_from_slice(b"TNB1");
    out
}

fn is_bad_magic(r: &Result<CooTensor<f32>, IoError>) -> bool {
    matches!(r, Err(IoError::Parse(m)) if m.contains("bad magic"))
}

fn tns_text() -> String {
    let mut buf = Vec::new();
    tns::write_tns(&sample_tensor(), &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The shared invariant: no panic (enforced by the test harness), and an
/// `Ok` result implies a structurally valid tensor.
fn assert_err_or_valid(r: Result<CooTensor<f32>, IoError>, context: &str) {
    if let Ok(t) = r {
        assert!(t.validate().is_ok(), "invalid tensor accepted: {context}");
    }
}

#[test]
fn truncation_at_every_offset_is_rejected() {
    let bytes = tnb2_bytes();
    for at in 0..bytes.len() {
        let reader = FaultReader::truncated(bytes.as_slice(), at as u64);
        let r: Result<CooTensor<f32>, _> = read_bin(reader);
        assert!(r.is_err(), "tnb2 truncated at byte {at} was accepted");
    }
}

#[test]
fn tnb1_is_rejected_whole_and_at_every_truncation() {
    let bytes = tnb1_bytes();
    for at in 0..=bytes.len() {
        let reader = FaultReader::truncated(bytes.as_slice(), at as u64);
        let r = read_bin(reader);
        // Under four bytes there is no magic to object to yet.
        let typed = if at < 4 {
            matches!(
                r,
                Err(IoError::Corrupt {
                    section: "header",
                    ..
                })
            )
        } else {
            is_bad_magic(&r)
        };
        assert!(typed, "tnb1 cut at {at}: {r:?}");
    }
}

#[test]
fn bit_flip_at_every_offset_is_rejected_in_tnb2() {
    // TNB2 CRCs cover every byte, so any single-bit flip must be caught.
    let bytes = tnb2_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let reader = FaultReader::bit_flipped(bytes.as_slice(), at as u64, mask);
            let r: Result<CooTensor<f32>, _> = read_bin(reader);
            assert!(
                r.is_err(),
                "tnb2 bit flip at byte {at} mask {mask:#x} was accepted"
            );
        }
    }
}

#[test]
fn bit_flip_in_tnb1_is_a_typed_error() {
    // No flip may turn a legacy file into an accepted one — not even the
    // one that relabels its magic `TNB2` (0x03 on the version byte), which
    // leaves a file without the CRC words that layout requires.
    let bytes = tnb1_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x03, 0x80, 0xFF] {
            let reader = FaultReader::bit_flipped(bytes.as_slice(), at as u64, mask);
            let r = read_bin(reader);
            let typed = if (at, mask) == (3, 0x03) {
                matches!(r, Err(IoError::Corrupt { .. }))
            } else {
                is_bad_magic(&r)
            };
            assert!(typed, "tnb1 byte {at} xor {mask:#x}: {r:?}");
        }
    }
}

#[test]
fn short_reads_do_not_corrupt() {
    // Delivering the stream 3 bytes at a time is not a fault; the reader
    // must reassemble it losslessly.
    let bytes = tnb2_bytes();
    let reader = FaultReader::new(bytes.as_slice(), vec![Fault::ShortReads { max: 3 }]);
    let t: CooTensor<f32> = read_bin(reader).unwrap();
    assert_eq!(t.to_map(), sample_tensor().to_map());
}

#[test]
fn failing_stream_surfaces_io_error() {
    let bytes = tnb2_bytes();
    let mid = bytes.len() as u64 / 2;
    let reader = FaultReader::new(bytes.as_slice(), vec![Fault::FailAfter { at: mid }]);
    let r: Result<CooTensor<f32>, _> = read_bin(reader);
    assert!(matches!(r, Err(IoError::Io(_))));
}

#[test]
fn fault_writer_produces_a_rejected_artifact() {
    // A writer that silently truncates (a full disk that lies) must leave
    // an artifact the reader refuses to load.
    let full = tnb2_bytes();
    for at in [0u64, 4, 16, full.len() as u64 - 1] {
        let mut damaged = Vec::new();
        let mut w = FaultWriter::truncated(&mut damaged, at);
        write_bin(&sample_tensor(), &mut w).unwrap();
        drop(w);
        assert_eq!(damaged.len() as u64, at);
        let r: Result<CooTensor<f32>, _> = read_bin(damaged.as_slice());
        assert!(r.is_err(), "truncated artifact at {at} bytes was accepted");
    }
}

#[test]
fn truncated_tns_never_panics() {
    let text = tns_text();
    for at in 0..text.len() {
        let r: Result<CooTensor<f32>, _> = tns::read_tns(&text.as_bytes()[..at]);
        assert_err_or_valid(r, &format!("tns truncated at {at}"));
    }
}

#[test]
fn allocation_bombs_are_rejected_within_budget() {
    // A 64-byte header claiming 2^60 nonzeros must fail fast on the header
    // check, not by attempting the allocation.
    let nnz_off = 4 + 1 + 1 + 3 * 4; // magic, vwidth, order, dims
                                     // In-budget-arithmetic bomb: rejected against the allocation budget.
    let mut bytes = tnb2_bytes();
    bytes[nnz_off..nnz_off + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
    let r: Result<CooTensor<f32>, _> =
        read_bin_with(bytes.as_slice(), ReadOptions { max_bytes: 1 << 20 });
    assert!(matches!(r, Err(IoError::BudgetExceeded { .. })), "{r:?}");
    // Arithmetic-overflow bomb: rejected by checked size math.
    let mut bytes = tnb2_bytes();
    bytes[nnz_off..nnz_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let r: Result<CooTensor<f32>, _> =
        read_bin_with(bytes.as_slice(), ReadOptions { max_bytes: 1 << 20 });
    assert!(matches!(r, Err(IoError::Tensor(_))), "{r:?}");
    // The same forged count behind the legacy magic is never even read.
    let mut bytes = tnb1_bytes();
    bytes[nnz_off..nnz_off + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
    let r = read_bin_with(bytes.as_slice(), ReadOptions { max_bytes: 1 << 20 });
    assert!(is_bad_magic(&r), "{r:?}");
}

// ------------------------------------------------------------------
// TNC1 factor-matrix checkpoints: the resume path of the decomposition
// job engine. A damaged checkpoint must read back `Err` — never a panic,
// and never an `Ok` carrying silently-wrong factors, because the job
// engine treats `Ok` as "safe to resume from".
// ------------------------------------------------------------------

fn sample_ckpt() -> Checkpoint<f32> {
    Checkpoint {
        kind: 1,
        iteration: 5,
        fit: 0.875,
        matrices: vec![
            CheckpointMatrix {
                rows: 6,
                cols: 4,
                data: (0..24).map(|i| i as f32 * 0.125 - 1.0).collect(),
            },
            CheckpointMatrix {
                rows: 4,
                cols: 1,
                data: vec![1.0, 0.5, 0.25, 0.125],
            },
        ],
        blob: vec![7, 0, 1, 255, 3],
    }
}

fn ckpt_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_ckpt(&sample_ckpt(), &mut buf).unwrap();
    buf
}

#[test]
fn ckpt_truncation_at_every_offset_is_rejected() {
    let bytes = ckpt_bytes();
    for at in 0..bytes.len() {
        let reader = FaultReader::truncated(bytes.as_slice(), at as u64);
        let r: Result<Checkpoint<f32>, _> = read_ckpt(reader);
        assert!(r.is_err(), "ckpt truncated at byte {at} was accepted");
    }
}

#[test]
fn ckpt_bit_flip_at_every_offset_is_rejected() {
    // Header, every factor section, and the blob each carry a CRC-32, so
    // any single-bit flip anywhere in the container must be caught.
    let bytes = ckpt_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let reader = FaultReader::bit_flipped(bytes.as_slice(), at as u64, mask);
            let r: Result<Checkpoint<f32>, _> = read_ckpt(reader);
            assert!(
                r.is_err(),
                "ckpt bit flip at byte {at} mask {mask:#x} was accepted"
            );
        }
    }
}

#[test]
fn ckpt_fault_writer_produces_a_rejected_artifact() {
    // A lying writer (full disk, dying process) must leave an artifact
    // the resume path refuses rather than resumes-wrong from.
    let full = ckpt_bytes();
    for at in [0u64, 4, 21, full.len() as u64 - 1] {
        let mut damaged = Vec::new();
        let mut w = FaultWriter::truncated(&mut damaged, at);
        write_ckpt(&sample_ckpt(), &mut w).unwrap();
        drop(w);
        assert_eq!(damaged.len() as u64, at);
        let r: Result<Checkpoint<f32>, _> = read_ckpt(damaged.as_slice());
        assert!(
            r.is_err(),
            "truncated ckpt artifact at {at} bytes was accepted"
        );
    }
}

#[test]
fn ckpt_trailing_garbage_is_rejected() {
    let mut bytes = ckpt_bytes();
    bytes.extend_from_slice(b"junk");
    let r: Result<Checkpoint<f32>, _> = read_ckpt(bytes.as_slice());
    assert!(r.is_err(), "trailing garbage was accepted");
}

proptest! {
    #[test]
    fn ckpt_random_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = read_ckpt::<f32, _>(data.as_slice());
    }

    #[test]
    fn ckpt_random_multi_fault_reads_never_resume_wrong(
        at in 0u64..512,
        mask in 1u8..=255,
        trunc in 0u64..512,
    ) {
        let bytes = ckpt_bytes();
        let reader = FaultReader::new(
            bytes.as_slice(),
            vec![
                Fault::BitFlip { at, mask },
                Fault::Truncate { at: trunc },
                Fault::ShortReads { max: 5 },
            ],
        );
        let r: Result<Checkpoint<f32>, _> = read_ckpt(reader);
        // Every byte of TNC1 sits under a CRC: any in-bounds damage is Err.
        if (at as usize) < bytes.len() || (trunc as usize) < bytes.len() {
            prop_assert!(r.is_err());
        }
    }
}

proptest! {
    #[test]
    fn random_bytes_never_panic_bin(data in prop::collection::vec(0u8..=255, 0..256)) {
        let r: Result<CooTensor<f32>, _> = read_bin(data.as_slice());
        if let Ok(t) = r {
            prop_assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn random_bytes_never_panic_tns(data in prop::collection::vec(0u8..=255, 0..256)) {
        let r: Result<CooTensor<f32>, _> = tns::read_tns(data.as_slice());
        if let Ok(t) = r {
            prop_assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn random_multi_fault_reads_never_panic(
        at in 0u64..256,
        mask in 1u8..=255,
        trunc in 0u64..256,
    ) {
        let bytes = tnb2_bytes();
        let reader = FaultReader::new(
            bytes.as_slice(),
            vec![
                Fault::BitFlip { at, mask },
                Fault::Truncate { at: trunc },
                Fault::ShortReads { max: 7 },
            ],
        );
        let r: Result<CooTensor<f32>, _> = read_bin(reader);
        // Any fault inside the file bounds must be detected; the CRCs
        // cover every byte of TNB2.
        if (at as usize) < bytes.len() || (trunc as usize) < bytes.len() {
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn random_tns_line_damage_never_panics(
        line in 0usize..16,
        garbage in prop::collection::vec(32u8..127, 0..12),
    ) {
        let text = tns_text();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let i = line % lines.len();
        lines[i] = String::from_utf8_lossy(&garbage).into_owned();
        let damaged = lines.join("\n");
        let r: Result<CooTensor<f32>, _> = tns::read_tns(damaged.as_bytes());
        if let Ok(t) = r {
            prop_assert!(t.validate().is_ok());
        }
    }
}
