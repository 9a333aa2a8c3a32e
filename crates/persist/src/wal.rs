//! Write-ahead log framing and torn-tail-safe replay.
//!
//! Frame: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! Replay walks frames from the start and stops *cleanly* at the first
//! frame that cannot be validated — truncated header, payload length
//! past end-of-file, implausible length, or CRC mismatch. Everything
//! before the stop point is a fully intact record; everything after is
//! a torn tail (the in-flight write the crash interrupted) and is
//! dropped. A WAL record is therefore applied fully or not at all.
//!
//! Payloads are index operations:
//!
//! ```text
//! 0x01 Put     digest[32] segment:u32 offset:u64 len:u64
//! 0x02 AddRef  digest[32]
//! 0x03 Release digest[32]
//! ```

use xpl_util::{Crc32, Digest};

use crate::codec::{put_u32, put_u64, read_u32, read_u64};
use crate::PersistError;

/// Upper bound on a sane WAL payload; anything larger is torn-tail
/// garbage, not a record (real payloads are ≤ 61 bytes).
const MAX_PAYLOAD: u32 = 4096;

const FRAME_HEADER: usize = 8;

/// One logical index operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// A new blob was appended to `segment` at `offset` (record start)
    /// with `len` payload bytes; its refcount starts at 1.
    Put {
        digest: Digest,
        segment: u32,
        offset: u64,
        len: u64,
    },
    /// One more reference to an existing blob.
    AddRef { digest: Digest },
    /// One reference dropped; the blob dies at zero.
    Release { digest: Digest },
}

impl WalOp {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            WalOp::Put {
                digest,
                segment,
                offset,
                len,
            } => {
                out.push(0x01);
                out.extend_from_slice(&digest.0);
                put_u32(&mut out, *segment);
                put_u64(&mut out, *offset);
                put_u64(&mut out, *len);
            }
            WalOp::AddRef { digest } => {
                out.push(0x02);
                out.extend_from_slice(&digest.0);
            }
            WalOp::Release { digest } => {
                out.push(0x03);
                out.extend_from_slice(&digest.0);
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<WalOp, PersistError> {
        let bad = |what: &str| PersistError::Io(format!("undecodable WAL payload: {what}"));
        let digest_at = |at: usize| -> Result<Digest, PersistError> {
            payload
                .get(at..at + 32)
                .map(|s| Digest(s.try_into().unwrap()))
                .ok_or_else(|| bad("digest"))
        };
        match payload.first() {
            Some(0x01) => {
                if payload.len() != 1 + 32 + 4 + 8 + 8 {
                    return Err(bad("put arity"));
                }
                Ok(WalOp::Put {
                    digest: digest_at(1)?,
                    segment: read_u32(payload, 33).ok_or_else(|| bad("segment"))?,
                    offset: read_u64(payload, 37).ok_or_else(|| bad("offset"))?,
                    len: read_u64(payload, 45).ok_or_else(|| bad("len"))?,
                })
            }
            Some(0x02) if payload.len() == 33 => Ok(WalOp::AddRef {
                digest: digest_at(1)?,
            }),
            Some(0x03) if payload.len() == 33 => Ok(WalOp::Release {
                digest: digest_at(1)?,
            }),
            _ => Err(bad("tag")),
        }
    }

    /// Frame the op for appending to the log.
    pub(crate) fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, Crc32::checksum(&payload));
        out.extend_from_slice(&payload);
        out
    }
}

/// Outcome of a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WalReplay {
    pub ops: Vec<WalOp>,
    /// Byte offset of the first unparseable frame (== file length when
    /// the log ends cleanly).
    pub valid_bytes: u64,
    /// Whether bytes past `valid_bytes` were dropped as a torn tail.
    pub torn_tail: bool,
}

/// Replay a WAL image. Never fails on tail damage — a frame is either
/// intact (length plausible, payload complete, CRC matches, payload
/// decodes) or it and everything after it is dropped.
pub(crate) fn replay(buf: &[u8]) -> WalReplay {
    let mut ops = Vec::new();
    let mut at = 0usize;
    while let Some(len) = read_u32(buf, at) {
        let Some(crc) = read_u32(buf, at + 4) else {
            break;
        };
        if len > MAX_PAYLOAD {
            break;
        }
        let start = at + FRAME_HEADER;
        let Some(payload) = buf.get(start..start + len as usize) else {
            break;
        };
        if Crc32::checksum(payload) != crc {
            break;
        }
        let Ok(op) = WalOp::decode(payload) else {
            break;
        };
        ops.push(op);
        at = start + len as usize;
    }
    WalReplay {
        ops,
        valid_bytes: at as u64,
        torn_tail: at != buf.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_util::Sha256;

    fn sample_ops() -> Vec<WalOp> {
        let d1 = Sha256::digest(b"one");
        let d2 = Sha256::digest(b"two");
        vec![
            WalOp::Put {
                digest: d1,
                segment: 1,
                offset: 0,
                len: 3,
            },
            WalOp::AddRef { digest: d1 },
            WalOp::Put {
                digest: d2,
                segment: 1,
                offset: 51,
                len: 3,
            },
            WalOp::Release { digest: d1 },
        ]
    }

    fn log_bytes(ops: &[WalOp]) -> Vec<u8> {
        ops.iter().flat_map(|op| op.frame()).collect()
    }

    #[test]
    fn roundtrip_clean_log() {
        let ops = sample_ops();
        let replayed = replay(&log_bytes(&ops));
        assert_eq!(replayed.ops, ops);
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.valid_bytes, log_bytes(&ops).len() as u64);
    }

    #[test]
    fn every_truncation_replays_a_record_prefix() {
        let ops = sample_ops();
        let buf = log_bytes(&ops);
        // Record boundaries (cumulative frame ends).
        let mut boundaries = vec![0usize];
        for op in &ops {
            boundaries.push(boundaries.last().unwrap() + op.frame().len());
        }
        for cut in 0..=buf.len() {
            let replayed = replay(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replayed.ops.len(), whole, "cut at {cut}");
            assert_eq!(replayed.ops[..], ops[..whole]);
            assert_eq!(replayed.torn_tail, cut != boundaries[whole]);
        }
    }

    #[test]
    fn flipped_byte_stops_replay_cleanly() {
        let ops = sample_ops();
        let mut buf = log_bytes(&ops);
        // Corrupt one payload byte of the second record.
        let second_start = ops[0].frame().len() + FRAME_HEADER;
        buf[second_start + 3] ^= 0xFF;
        let replayed = replay(&buf);
        assert_eq!(replayed.ops.len(), 1, "only the first record survives");
        assert!(replayed.torn_tail);
    }

    #[test]
    fn garbage_tail_is_dropped() {
        let ops = sample_ops();
        let mut buf = log_bytes(&ops);
        let clean = buf.len() as u64;
        buf.extend_from_slice(&[0xA5; 11]); // looks like a huge length
        let replayed = replay(&buf);
        assert_eq!(replayed.ops, ops);
        assert!(replayed.torn_tail);
        assert_eq!(replayed.valid_bytes, clean);
    }
}
