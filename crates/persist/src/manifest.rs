//! The checkpoint manifest: a full snapshot of the index, swapped
//! atomically.
//!
//! Layout (all integers LE):
//!
//! ```text
//! [magic: u32 = "XMAN"][version: u32 = 1]
//! [wal_epoch: u64][unique_bytes: u64][entry_count: u64]
//! entry*: [digest: 32][segment: u32][offset: u64][len: u64][refs: u32]
//! [crc32 of everything above: u32]
//! ```
//!
//! `wal_epoch` names the write-ahead-log generation this manifest
//! covers: recovery replays only `prefix.wal-{wal_epoch}`. A crash
//! between the manifest swap and the old log's cleanup therefore can
//! never double-apply a stale WAL — the new manifest simply points at
//! a log generation that does not exist yet (empty).
//!
//! Entries are sorted by digest so the same logical state always
//! produces the same manifest bytes (byte-determinism is what lets the
//! churn oracle compare recovered state across runs). The manifest is
//! written with [`crate::Vfs::write_atomic`] — temp file + rename — so
//! a crash during checkpoint leaves the previous manifest intact.

use xpl_util::{Crc32, Digest};

use crate::codec::{put_u32, put_u64, read_u32, read_u64};
use crate::PersistError;

const MAGIC: u32 = 0x584D_414E; // "XMAN"
const VERSION: u32 = 1;
const ENTRY_LEN: usize = 32 + 4 + 8 + 8 + 4;

/// File name of the manifest under `prefix`.
pub(crate) fn file_name(prefix: &str) -> String {
    format!("{prefix}.manifest")
}

/// One indexed blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub digest: Digest,
    pub segment: u32,
    pub offset: u64,
    pub len: u64,
    pub refs: u32,
}

/// A decoded manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// WAL generation this manifest covers (recovery replays only
    /// `prefix.wal-{wal_epoch}`).
    pub wal_epoch: u64,
    pub unique_bytes: u64,
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Canonical byte encoding (entries sorted by digest).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.digest.0);
        let mut out = Vec::with_capacity(32 + entries.len() * ENTRY_LEN + 4);
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, self.wal_epoch);
        put_u64(&mut out, self.unique_bytes);
        put_u64(&mut out, entries.len() as u64);
        for e in &entries {
            out.extend_from_slice(&e.digest.0);
            put_u32(&mut out, e.segment);
            put_u64(&mut out, e.offset);
            put_u64(&mut out, e.len);
            put_u32(&mut out, e.refs);
        }
        let crc = Crc32::checksum(&out);
        put_u32(&mut out, crc);
        out
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<Manifest, PersistError> {
        let bad = |what: String| PersistError::CorruptManifest(what);
        if buf.len() < 32 + 4 {
            return Err(bad(format!("too short: {} bytes", buf.len())));
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let want_crc = read_u32(tail, 0).unwrap();
        if Crc32::checksum(body) != want_crc {
            return Err(bad("body CRC-32 mismatch".into()));
        }
        if read_u32(body, 0) != Some(MAGIC) {
            return Err(bad("bad magic".into()));
        }
        if read_u32(body, 4) != Some(VERSION) {
            return Err(bad(format!("unsupported version {:?}", read_u32(body, 4))));
        }
        let wal_epoch = read_u64(body, 8).ok_or_else(|| bad("short header".into()))?;
        let unique_bytes = read_u64(body, 16).ok_or_else(|| bad("short header".into()))?;
        let count = read_u64(body, 24).ok_or_else(|| bad("short header".into()))? as usize;
        if body.len() != 32 + count * ENTRY_LEN {
            return Err(bad(format!(
                "entry count {count} disagrees with body length {}",
                body.len()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 32 + i * ENTRY_LEN;
            entries.push(ManifestEntry {
                digest: Digest(body[at..at + 32].try_into().unwrap()),
                segment: read_u32(body, at + 32).unwrap(),
                offset: read_u64(body, at + 36).unwrap(),
                len: read_u64(body, at + 44).unwrap(),
                refs: read_u32(body, at + 52).unwrap(),
            });
        }
        Ok(Manifest {
            wal_epoch,
            unique_bytes,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_util::Sha256;

    fn sample() -> Manifest {
        Manifest {
            wal_epoch: 3,
            unique_bytes: 1234,
            entries: vec![
                ManifestEntry {
                    digest: Sha256::digest(b"b"),
                    segment: 2,
                    offset: 48,
                    len: 100,
                    refs: 3,
                },
                ManifestEntry {
                    digest: Sha256::digest(b"a"),
                    segment: 1,
                    offset: 0,
                    len: 34,
                    refs: 1,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_and_canonical_order() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded.wal_epoch, 3);
        assert_eq!(decoded.unique_bytes, 1234);
        assert_eq!(decoded.entries.len(), 2);
        // Sorted by digest regardless of input order.
        assert!(decoded.entries[0].digest.0 < decoded.entries[1].digest.0);
        // Same logical state → same bytes.
        let mut swapped = m.clone();
        swapped.entries.reverse();
        assert_eq!(m.encode(), swapped.encode());
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = sample().encode();
        buf[30] ^= 0x40;
        assert!(matches!(
            Manifest::decode(&buf),
            Err(PersistError::CorruptManifest(_))
        ));
        assert!(Manifest::decode(&buf[..10]).is_err());
        assert!(Manifest::decode(b"").is_err());
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }
}
