//! Append-only blob segments.
//!
//! A segment file is a concatenation of self-validating records,
//! BGZF-style: each record can be read and checked in isolation given
//! its offset, so recovery and audits never need a scan of the whole
//! file. Record layout:
//!
//! ```text
//! [magic: u32 LE = "XSEG"][payload_len: u64 LE][crc32(payload): u32 LE]
//! [digest: 32 bytes][payload]
//! ```
//!
//! The digest is the blob's content address; a reader verifies magic,
//! digest identity and payload CRC and surfaces a typed
//! [`PersistError::CorruptRecord`] on any mismatch — corruption is an
//! error value, never a panic.

use xpl_util::{Crc32, Digest};

use crate::codec::{put_u32, put_u64, read_u32, read_u64};
use crate::vfs::Vfs;
use crate::PersistError;

pub(crate) const MAGIC: u32 = 0x5853_4547; // "XSEG" (LE bytes: G E S X)

/// Fixed bytes before the payload.
pub(crate) const RECORD_HEADER: u64 = 4 + 8 + 4 + 32;

/// File name of segment `id` under `prefix` (flat, sortable).
pub(crate) fn file_name(prefix: &str, id: u32) -> String {
    format!("{prefix}.seg-{id:06}")
}

/// Parse a segment file name back to its id.
pub(crate) fn parse_file_name(prefix: &str, name: &str) -> Option<u32> {
    let rest = name.strip_prefix(prefix)?.strip_prefix(".seg-")?;
    rest.parse().ok()
}

/// Encode one record.
pub(crate) fn encode_record(digest: &Digest, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER as usize + payload.len());
    put_u32(&mut out, MAGIC);
    put_u64(&mut out, payload.len() as u64);
    put_u32(&mut out, Crc32::checksum(payload));
    out.extend_from_slice(&digest.0);
    out.extend_from_slice(payload);
    out
}

/// Total on-disk length of a record holding `payload_len` bytes.
pub(crate) fn record_len(payload_len: u64) -> u64 {
    RECORD_HEADER + payload_len
}

/// Read and validate the record for `digest` at `offset` of segment
/// `id`; `payload_len` is the length the index recorded. Returns the
/// payload bytes.
pub(crate) fn read_record(
    vfs: &dyn Vfs,
    prefix: &str,
    id: u32,
    offset: u64,
    payload_len: u64,
    digest: &Digest,
) -> Result<Vec<u8>, PersistError> {
    let file = file_name(prefix, id);
    let corrupt = |detail: String| PersistError::CorruptRecord {
        file: file.clone(),
        offset,
        detail,
    };
    let buf = vfs.read_at(&file, offset, record_len(payload_len))?;
    let magic = read_u32(&buf, 0).ok_or_else(|| corrupt("short header".into()))?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#010x}")));
    }
    let len = read_u64(&buf, 4).ok_or_else(|| corrupt("short header".into()))?;
    if len != payload_len {
        return Err(corrupt(format!(
            "length mismatch: record says {len}, index says {payload_len}"
        )));
    }
    let crc = read_u32(&buf, 12).ok_or_else(|| corrupt("short header".into()))?;
    let stored_digest = &buf[16..48];
    if stored_digest != digest.0 {
        return Err(corrupt(format!(
            "digest mismatch: record holds {}",
            Digest(stored_digest.try_into().unwrap()).short()
        )));
    }
    let payload = &buf[RECORD_HEADER as usize..];
    if Crc32::checksum(payload) != crc {
        return Err(corrupt("payload CRC-32 mismatch".into()));
    }
    Ok(payload.to_vec())
}

/// Read bytes `[start, start+len)` of the payload stored for `digest`
/// at `offset` (clamped to the payload like a slice), validating the
/// record header (magic, length, digest identity) but **not** the
/// whole-payload CRC — checking it would require reading the payload
/// this function exists to avoid. Blocked payloads carry per-block
/// CRCs that the codec layer verifies on exactly the bytes returned
/// here; for unblocked payloads use [`read_record`] when end-to-end
/// integrity matters more than the partial read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_record_range(
    vfs: &dyn Vfs,
    prefix: &str,
    id: u32,
    offset: u64,
    payload_len: u64,
    digest: &Digest,
    start: u64,
    len: u64,
) -> Result<Vec<u8>, PersistError> {
    let file = file_name(prefix, id);
    let corrupt = |detail: String| PersistError::CorruptRecord {
        file: file.clone(),
        offset,
        detail,
    };
    let header = vfs.read_at(&file, offset, RECORD_HEADER)?;
    let magic = read_u32(&header, 0).ok_or_else(|| corrupt("short header".into()))?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#010x}")));
    }
    let rec_len = read_u64(&header, 4).ok_or_else(|| corrupt("short header".into()))?;
    if rec_len != payload_len {
        return Err(corrupt(format!(
            "length mismatch: record says {rec_len}, index says {payload_len}"
        )));
    }
    let stored_digest = &header[16..48];
    if stored_digest != digest.0 {
        return Err(corrupt(format!(
            "digest mismatch: record holds {}",
            Digest(stored_digest.try_into().unwrap()).short()
        )));
    }
    let end = start.saturating_add(len).min(payload_len);
    let start = start.min(end);
    if start == end {
        return Ok(Vec::new());
    }
    vfs.read_at(&file, offset + RECORD_HEADER + start, end - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;
    use xpl_util::Sha256;

    #[test]
    fn file_names_roundtrip_and_sort() {
        assert_eq!(file_name("pkg", 7), "pkg.seg-000007");
        assert_eq!(parse_file_name("pkg", "pkg.seg-000007"), Some(7));
        assert_eq!(parse_file_name("pkg", "pkg.wal"), None);
        assert_eq!(parse_file_name("data", "pkg.seg-000007"), None);
        assert!(file_name("s", 2) < file_name("s", 10));
    }

    #[test]
    fn record_roundtrip() {
        let fs = MemFs::new();
        let payload = b"the blob payload";
        let digest = Sha256::digest(payload);
        let rec = encode_record(&digest, payload);
        fs.append(&file_name("cas", 1), &rec).unwrap();
        let got = read_record(&fs, "cas", 1, 0, payload.len() as u64, &digest).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn flipped_payload_byte_is_a_typed_error() {
        let fs = MemFs::new();
        let payload = b"precious bytes";
        let digest = Sha256::digest(payload);
        let mut rec = encode_record(&digest, payload);
        let flip = RECORD_HEADER as usize + 3;
        rec[flip] ^= 0x01; // single bit in the payload
        fs.append(&file_name("cas", 1), &rec).unwrap();
        let err = read_record(&fs, "cas", 1, 0, payload.len() as u64, &digest).unwrap_err();
        match err {
            PersistError::CorruptRecord {
                file,
                offset,
                detail,
            } => {
                assert_eq!(file, "cas.seg-000001");
                assert_eq!(offset, 0);
                assert!(detail.contains("CRC-32"), "{detail}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn range_reads_slice_the_payload() {
        let fs = MemFs::new();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i.wrapping_mul(7)) as u8).collect();
        let digest = Sha256::digest(&payload);
        // Record at a nonzero offset, behind another record.
        let first = encode_record(&Sha256::digest(b"x"), b"x");
        let off = first.len() as u64;
        fs.append(&file_name("cas", 1), &first).unwrap();
        fs.append(&file_name("cas", 1), &encode_record(&digest, &payload))
            .unwrap();
        let n = payload.len() as u64;
        let spans = [
            (0, 0),
            (0, 1),
            (100, 256),
            (n - 1, 50),
            (n, 10),
            (n + 5, 1),
            (0, n),
            (0, u64::MAX), // saturating end
        ];
        for (s, l) in spans {
            let got = read_record_range(&fs, "cas", 1, off, n, &digest, s, l).unwrap();
            let end = s.saturating_add(l).min(n);
            let s = s.min(end);
            assert_eq!(got, &payload[s as usize..end as usize], "span ({s}, {l})");
        }
        // Header validation still applies to partial reads.
        let other = Sha256::digest(b"other");
        assert!(matches!(
            read_record_range(&fs, "cas", 1, off, n, &other, 0, 4),
            Err(PersistError::CorruptRecord { .. })
        ));
        assert!(matches!(
            read_record_range(&fs, "cas", 1, off, n + 1, &digest, 0, 4),
            Err(PersistError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn wrong_digest_is_detected() {
        let fs = MemFs::new();
        let payload = b"payload";
        let digest = Sha256::digest(payload);
        fs.append(&file_name("cas", 1), &encode_record(&digest, payload))
            .unwrap();
        let other = Sha256::digest(b"other");
        assert!(matches!(
            read_record(&fs, "cas", 1, 0, payload.len() as u64, &other),
            Err(PersistError::CorruptRecord { .. })
        ));
    }
}
