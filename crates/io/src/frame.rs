//! Length-prefixed wire frames for the networked serving tier.
//!
//! One `TNF1` frame per request or response, little-endian throughout,
//! with the same CRC-32 discipline as the `TNB2` tensor format: the
//! header and the payload are each covered by their own checksum, so a
//! flipped bit anywhere in a frame is caught before its contents are
//! interpreted.
//!
//! ```text
//! magic  [u8; 4] = b"TNF1"
//! kind   u8            frame kind (request / response / error)
//! ctx    u64           originating TraceCtx id (0 = none)
//! len    u32           payload length in bytes
//! hcrc   u32           CRC-32 of the 17 header bytes above
//! payload [u8; len]
//! pcrc   u32           CRC-32 of the payload
//! ```
//!
//! The reader treats the stream as untrusted, exactly like the file
//! readers in this crate: `len` is validated against the caller's
//! allocation budget *before* any allocation, truncation and CRC
//! mismatches surface as [`IoError::Corrupt`], and end-of-stream exactly
//! on a frame boundary is the clean-close signal `Ok(None)` — anything
//! mid-frame is corruption. The `ctx` word is how causal traces cross
//! the socket: the client stamps its `tenbench_obs::TraceCtx` id, the
//! server mints a child of it, and a flight-recorder dump stitches
//! client → shard → pool worker.

use std::io::{ErrorKind, Read, Write};
use std::ops::Deref;

use crate::crc32::crc32;
use crate::cursor::Cursor;
use crate::{IoError, Result};

const MAGIC: &[u8; 4] = b"TNF1";

/// Bytes before the payload: magic + kind + ctx + len + hcrc.
pub const HEADER_BYTES: usize = 4 + 1 + 8 + 4 + 4;

/// Fixed overhead a frame adds around its payload (header + payload CRC).
pub const FRAME_OVERHEAD: usize = HEADER_BYTES + 4;

/// What a frame carries. The wire value is the discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a kernel request.
    Request = 1,
    /// Server → client: a completed (or typed-rejected) response.
    Response = 2,
    /// Server → client: the request could not be understood at the
    /// protocol level (corrupt frame, oversized payload, bad encoding).
    Error = 3,
}

impl FrameKind {
    /// Decode a wire discriminant.
    pub(crate) fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// A decoded frame.
#[derive(Debug)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Trace-context id stamped by the sender (0 = none).
    pub ctx: u64,
    /// The verified payload; it derefs to `&[u8]`, so parsers borrow it.
    pub payload: Payload,
}

/// A frame's owned payload bytes. The inherent `chunk` exists only for
/// `benchmark/src/serve.rs`; ROADMAP item 6(a) replaces this with `Vec<u8>`.
#[derive(Debug)]
pub struct Payload(Vec<u8>);

impl Payload {
    /// The payload as a slice.
    pub fn chunk(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Write one frame. The payload must fit a `u32` length prefix.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, ctx: u64, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        IoError::Parse(format!(
            "frame payload of {} bytes exceeds the u32 length prefix",
            payload.len()
        ))
    })?;
    let mut head = Vec::with_capacity(HEADER_BYTES);
    head.extend_from_slice(MAGIC);
    head.push(kind as u8);
    head.extend_from_slice(&ctx.to_le_bytes());
    head.extend_from_slice(&len.to_le_bytes());
    let hcrc = crc32(&head);
    head.extend_from_slice(&hcrc.to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Read the next frame off the stream.
///
/// * `Ok(Some(frame))` — a verified frame.
/// * `Ok(None)` — the stream ended cleanly on a frame boundary.
/// * `Err(..)` — truncation mid-frame, bad magic/kind, CRC mismatch, or
///   a `len` over `max_payload` (rejected before allocating).
pub fn read_frame<R: Read>(r: &mut R, max_payload: u64) -> Result<Option<Frame>> {
    let mut head = [0u8; HEADER_BYTES];
    if !read_full(r, &mut head, "frame header")? {
        return Ok(None);
    }
    let mut cur = Cursor::new(&head);
    let magic = cur.take(4, "frame header")?;
    if magic != MAGIC {
        return Err(IoError::Corrupt {
            section: "frame header",
            detail: format!("bad magic {magic:02x?}"),
        });
    }
    let kind_raw = cur.u8("frame header")?;
    let ctx = cur.u64("frame header")?;
    let len = cur.u32("frame header")?;
    let hcrc = cur.u32("frame header")?;
    let computed = crc32(&head[..HEADER_BYTES - 4]);
    if hcrc != computed {
        return Err(IoError::Corrupt {
            section: "frame header",
            detail: format!("header crc {hcrc:#010x} != computed {computed:#010x}"),
        });
    }
    // The CRC passed, so `kind` and `len` are what the sender wrote;
    // anything still invalid is a protocol violation, not line noise.
    let kind = FrameKind::from_u8(kind_raw).ok_or(IoError::Corrupt {
        section: "frame header",
        detail: format!("unknown frame kind {kind_raw}"),
    })?;
    if u64::from(len) > max_payload {
        return Err(IoError::BudgetExceeded {
            needed: u64::from(len),
            budget: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload, "frame payload")? && len > 0 {
        return Err(IoError::Corrupt {
            section: "frame payload",
            detail: format!("stream ended before {len}-byte payload"),
        });
    }
    let mut pcrc_b = [0u8; 4];
    if !read_full(r, &mut pcrc_b, "frame payload crc")? {
        return Err(IoError::Corrupt {
            section: "frame payload",
            detail: "stream ended before payload crc".into(),
        });
    }
    let pcrc = u32::from_le_bytes(pcrc_b);
    let computed = crc32(&payload);
    if pcrc != computed {
        return Err(IoError::Corrupt {
            section: "frame payload",
            detail: format!("payload crc {pcrc:#010x} != computed {computed:#010x}"),
        });
    }
    Ok(Some(Frame {
        kind,
        ctx,
        payload: Payload(payload),
    }))
}

/// Fill `buf` from the stream. `Ok(true)` on success; `Ok(false)` when
/// the stream was already at EOF (nothing read); `Err` on a partial fill
/// (EOF mid-buffer is truncation, not a clean close).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], section: &'static str) -> Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(IoError::Corrupt {
                    section,
                    detail: format!("truncated after {filled} of {} bytes", buf.len()),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(IoError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(kind: FrameKind, ctx: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, ctx, payload).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_kind_ctx_payload() {
        let payload = b"tensor request body".to_vec();
        let bytes = frame_bytes(FrameKind::Request, 0xABCD_EF01_2345, &payload);
        assert_eq!(bytes.len(), FRAME_OVERHEAD + payload.len());
        let mut r = bytes.as_slice();
        let f = read_frame(&mut r, 1 << 20).unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Request);
        assert_eq!(f.ctx, 0xABCD_EF01_2345);
        assert_eq!(f.payload.chunk(), payload.as_slice());
        // The stream is now at a frame boundary: clean close.
        assert!(read_frame(&mut r, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn empty_payload_frames_work() {
        let bytes = frame_bytes(FrameKind::Error, 0, b"");
        let f = read_frame(&mut bytes.as_slice(), 16).unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Error);
        assert_eq!(f.payload.chunk().len(), 0);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut stream = frame_bytes(FrameKind::Request, 1, b"one");
        stream.extend(frame_bytes(FrameKind::Response, 2, b"two"));
        let mut r = stream.as_slice();
        let a = read_frame(&mut r, 64).unwrap().unwrap();
        let b = read_frame(&mut r, 64).unwrap().unwrap();
        assert_eq!((a.ctx, a.payload.chunk()), (1, b"one".as_slice()));
        assert_eq!((b.ctx, b.payload.chunk()), (2, b"two".as_slice()));
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A frame honestly declaring a payload over the reader's budget:
        // header CRC is valid, so this exercises the budget check alone.
        let bytes = frame_bytes(FrameKind::Request, 0, &vec![0u8; 4096]);
        let r = read_frame(&mut bytes.as_slice(), 1024);
        assert!(matches!(
            r,
            Err(IoError::BudgetExceeded {
                needed: 4096,
                budget: 1024
            })
        ));
    }

    #[test]
    fn giant_forged_length_fails_header_crc_not_allocation() {
        // Flipping the length field to 2^32-1 breaks the header CRC, so
        // the reader never even consults the budget for a forged length.
        let mut bytes = frame_bytes(FrameKind::Request, 0, b"x");
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = read_frame(&mut bytes.as_slice(), u64::MAX);
        assert!(matches!(r, Err(IoError::Corrupt { .. })), "{r:?}");
    }
}
