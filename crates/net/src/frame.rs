//! The frame codec: length-prefixed, CRC-framed messages.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [magic "XPLN" 4][kind 1][len 4][hcrc 4]  [payload len][pcrc 4]
//!  \------------ header, 13 bytes ------/
//! ```
//!
//! `hcrc` is CRC-32 over the first 9 header bytes, so a corrupt or
//! forged length field is rejected **before** it is trusted for
//! allocation — the same hostile-input discipline as the blocked
//! codec's decode-capacity clamp. `pcrc` is CRC-32 over the payload.
//! Decoding never panics: truncation, bad magic, an unknown kind, an
//! oversized length, and either CRC mismatch all surface as typed
//! [`NetError`]s.

use crate::{NetError, Transport};
use xpl_util::Crc32;

/// Frame magic: "XPLN".
pub(crate) const MAGIC: [u8; 4] = *b"XPLN";

/// Fixed header size: magic + kind + len + header CRC.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Trailing payload CRC size.
pub const TRAILER_LEN: usize = 4;

/// Default maximum payload size a peer will accept (1 MiB). Plenty for
/// digests and keys; a header claiming more is hostile or corrupt.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection preamble: the tenant this connection serves.
    Hello = 1,
    /// A client request (id + opaque request bytes).
    Request = 2,
    /// A server response (id + status + opaque body).
    Response = 3,
    /// A metrics-snapshot request (id + empty body). Answered before
    /// the draining check and outside the admission gate, so snapshots
    /// stay observable mid-storm and mid-drain.
    Stats = 4,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<FrameKind, NetError> {
        match b {
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Request),
            3 => Ok(FrameKind::Response),
            4 => Ok(FrameKind::Stats),
            other => Err(NetError::BadKind(other)),
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub payload: Vec<u8>,
}

/// Encode a frame.
pub fn encode(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let hcrc = Crc32::checksum(&out[..9]);
    out.extend_from_slice(&hcrc.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&Crc32::checksum(payload).to_le_bytes());
    out
}

/// Validate a header, returning the frame kind and payload length.
/// Order matters: magic, header CRC, kind, then the length bound — so a
/// forged length is never believed (the CRC has already vouched for it)
/// and an oversized one is refused before any allocation.
fn check_header(header: &[u8; HEADER_LEN], max_frame: u32) -> Result<(FrameKind, u32), NetError> {
    if header[..4] != MAGIC {
        return Err(NetError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let expected = u32::from_le_bytes(header[9..13].try_into().unwrap());
    let actual = Crc32::checksum(&header[..9]);
    if expected != actual {
        return Err(NetError::BadHeaderCrc { expected, actual });
    }
    let kind = FrameKind::from_byte(header[4])?;
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap());
    if len > max_frame {
        return Err(NetError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    Ok((kind, len))
}

fn check_payload(payload: &[u8], trailer: &[u8]) -> Result<(), NetError> {
    let expected = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = Crc32::checksum(payload);
    if expected != actual {
        return Err(NetError::BadPayloadCrc { expected, actual });
    }
    Ok(())
}

/// Decode one frame from a byte buffer, returning it and the number of
/// bytes consumed. Typed errors for every malformation; never panics,
/// never allocates more than the validated payload length.
pub fn decode(buf: &[u8], max_frame: u32) -> Result<(Frame, usize), NetError> {
    if buf.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
    let (kind, len) = check_header(header, max_frame)?;
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Err(NetError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len as usize];
    check_payload(payload, &buf[HEADER_LEN + len as usize..total])?;
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Read exactly `buf.len()` bytes from a transport. `Ok(false)` means
/// the peer closed cleanly before the first byte; EOF anywhere else is
/// a typed truncation.
fn read_full(t: &mut dyn Transport, buf: &mut [u8]) -> Result<bool, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = t.recv(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(NetError::Truncated {
                needed: buf.len(),
                have: filled,
            });
        }
        filled += n;
    }
    Ok(true)
}

/// Read one frame off a transport. `Ok(None)` is a clean close at a
/// frame boundary; a close mid-frame is [`NetError::Truncated`]. The
/// length field is validated (magic + header CRC + bound) before the
/// payload buffer is allocated.
pub fn read_frame(t: &mut dyn Transport, max_frame: u32) -> Result<Option<Frame>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(t, &mut header)? {
        return Ok(None);
    }
    let (kind, len) = check_header(&header, max_frame)?;
    let mut rest = vec![0u8; len as usize + TRAILER_LEN];
    if !read_full(t, &mut rest)? {
        return Err(NetError::Truncated {
            needed: rest.len(),
            have: 0,
        });
    }
    let payload = &rest[..len as usize];
    check_payload(payload, &rest[len as usize..])?;
    Ok(Some(Frame {
        kind,
        payload: payload.to_vec(),
    }))
}

/// Encode and send one frame.
pub fn write_frame(t: &mut dyn Transport, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
    t.send(&encode(kind, payload))
}

// --------------------------------------------- message-level payloads

/// Response status byte: the request was served.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the tenant's admission bound was full — a
/// typed wire response, never a dropped connection. Retry after
/// backoff.
pub const STATUS_OVERLOAD: u8 = 1;
/// Response status byte: the server is draining; do not retry here.
pub(crate) const STATUS_DRAINING: u8 = 2;
/// Response status byte: the service failed; the body is the message.
pub(crate) const STATUS_ERROR: u8 = 3;

/// `Request` payload: `[id u64 LE][body]`.
pub fn encode_request(id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Parse a `Request` payload.
pub(crate) fn decode_request(payload: &[u8]) -> Result<(u64, &[u8]), NetError> {
    if payload.len() < 8 {
        return Err(NetError::Malformed(format!(
            "request payload of {} bytes is shorter than its 8-byte id",
            payload.len()
        )));
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    Ok((id, &payload[8..]))
}

/// `Response` payload: `[id u64 LE][status u8][body]`.
pub(crate) fn encode_response(id: u64, status: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + body.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(status);
    out.extend_from_slice(body);
    out
}

/// Parse a `Response` payload.
pub fn decode_response(payload: &[u8]) -> Result<(u64, u8, &[u8]), NetError> {
    if payload.len() < 9 {
        return Err(NetError::Malformed(format!(
            "response payload of {} bytes is shorter than its 9-byte header",
            payload.len()
        )));
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    Ok((id, payload[8], &payload[9..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"hello wire", &[0u8; 4096]] {
            let bytes = encode(FrameKind::Request, payload);
            let (frame, used) = decode(&bytes, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame.kind, FrameKind::Request);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A header claiming 3 GiB with a *valid* header CRC: the only
        // defense is the max-frame bound, checked before allocating.
        let mut bytes = encode(FrameKind::Request, b"small");
        bytes[5..9].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let hcrc = Crc32::checksum(&bytes[..9]);
        bytes[9..13].copy_from_slice(&hcrc.to_le_bytes());
        assert_eq!(
            decode(&bytes, DEFAULT_MAX_FRAME),
            Err(NetError::FrameTooLarge {
                len: 3 << 30,
                max: DEFAULT_MAX_FRAME
            })
        );
    }

    #[test]
    fn forged_length_without_crc_is_caught_by_header_crc() {
        let mut bytes = encode(FrameKind::Request, b"small");
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME),
            Err(NetError::BadHeaderCrc { .. })
        ));
    }

    #[test]
    fn bad_kind_and_magic_are_typed() {
        let mut bytes = encode(FrameKind::Hello, b"t");
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes, 1024), Err(NetError::BadMagic(_))));

        let mut bytes = encode(FrameKind::Hello, b"t");
        bytes[4] = 0x7F;
        let hcrc = Crc32::checksum(&bytes[..9]);
        bytes[9..13].copy_from_slice(&hcrc.to_le_bytes());
        assert_eq!(decode(&bytes, 1024), Err(NetError::BadKind(0x7F)));
    }
}
