//! `xpl-chunking` — fixed-size and content-defined chunking.
//!
//! The related work the paper positions against (Jin & Miller; Jayaram et
//! al.; Liquid; Crab) deduplicates VM images at *block* level, with either
//! fixed-size chunks or Rabin-fingerprint content-defined chunks (CDC).
//! This crate implements both so the block-level baselines and the
//! chunk-size ablation can be reproduced.
//!
//! * [`fixed::chunk_fixed`] — straight slicing at a block size.
//! * [`rabin`] — a rolling Rabin-style fingerprint and a CDC chunker with
//!   min/average/max bounds.
//! * [`ChunkIndex`] — a content-addressed chunk set measuring dedup.

pub mod fixed;
pub mod rabin;

use xpl_util::{Digest, FxHashMap, Sha256};

/// A chunk boundary description: offset and length within the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpan {
    pub offset: usize,
    pub len: usize,
}

/// Verify a chunking covers the input exactly (tests + debug assertions).
pub fn spans_cover(spans: &[ChunkSpan], total_len: usize) -> bool {
    let mut pos = 0;
    for s in spans {
        if s.offset != pos || s.len == 0 {
            return false;
        }
        pos += s.len;
    }
    pos == total_len || (total_len == 0 && spans.is_empty())
}

/// Content-addressed chunk store measuring deduplication.
#[derive(Default)]
pub struct ChunkIndex {
    chunks: FxHashMap<Digest, u64>,
    unique_bytes: u64,
    total_bytes: u64,
}

impl ChunkIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a chunk; returns `true` if it was new.
    pub fn insert(&mut self, data: &[u8]) -> bool {
        self.total_bytes += data.len() as u64;
        let d = Sha256::digest(data);
        match self.chunks.entry(d) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += 1;
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(1);
                self.unique_bytes += data.len() as u64;
                true
            }
        }
    }

    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    pub fn contains(&self, d: &Digest) -> bool {
        self.chunks.contains_key(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChunkIndex {
        /// Ingest a whole buffer with the given chunk spans.
        pub(crate) fn ingest(&mut self, data: &[u8], spans: &[ChunkSpan]) {
            debug_assert!(spans_cover(spans, data.len()));
            for s in spans {
                self.insert(&data[s.offset..s.offset + s.len]);
            }
        }

        fn unique_chunks(&self) -> usize {
            self.chunks.len()
        }
    }

    #[test]
    fn index_counts_unique_bytes() {
        let mut ix = ChunkIndex::new();
        assert!(ix.insert(b"aaaa"));
        assert!(!ix.insert(b"aaaa"));
        assert!(ix.insert(b"bbbb"));
        assert_eq!(ix.unique_chunks(), 2);
        assert_eq!(ix.unique_bytes(), 8);
        assert_eq!(ix.total_bytes(), 12);
    }

    #[test]
    fn spans_cover_checks() {
        let spans = [
            ChunkSpan { offset: 0, len: 4 },
            ChunkSpan { offset: 4, len: 2 },
        ];
        assert!(spans_cover(&spans, 6));
        assert!(!spans_cover(&spans, 7));
        assert!(!spans_cover(&spans[1..], 2));
        assert!(spans_cover(&[], 0));
    }

    #[test]
    fn duplicate_buffers_dedup_fully() {
        let data = vec![7u8; 4096];
        let spans = fixed::chunk_fixed(&data, 512);
        let mut ix = ChunkIndex::new();
        ix.ingest(&data, &spans);
        ix.ingest(&data, &spans);
        // All 512-byte chunks of constant data are identical → 1 unique.
        assert_eq!(ix.unique_chunks(), 1);
        assert_eq!(ix.total_bytes(), 8192);
        assert_eq!(ix.unique_bytes(), 512);
    }
}
