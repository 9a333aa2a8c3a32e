//! `xpl-compress` — DEFLATE (RFC 1951) and an LZ4-class codec from
//! scratch, inside one seekable blocked container.
//!
//! This crate provides the compression substrate for the paper's
//! "Qcow2 + Gzip" baseline: serialized images are compressed whole, so the
//! baseline captures intra-image redundancy but — unlike the deduplicating
//! systems — no cross-image redundancy, which is exactly the behaviour
//! Figure 3 contrasts.
//!
//! Public surface:
//! * [`deflate()`] / [`inflate`] — raw DEFLATE streams.
//! * [`blocked`] — the seekable blocked container every store writes:
//!   independently-encoded 64 KiB blocks, compressed and inflated in
//!   parallel, with CRC-checked byte-range reads. The [`InnerCodec`]
//!   (magic `XBC1` for DEFLATE, `XBL1` for LZ4) is the only per-container
//!   choice; the layout and every reader are shared.
//! * [`lz4`] — the LZ4-class fast codec: greedy hash-table matching, a
//!   literal-run/match token format, no entropy stage — the hot-tier
//!   inner codec, trading ratio for decode speed.

pub mod bitio;
pub mod blocked;
pub mod deflate;
pub mod huffman;
pub mod lz4;
pub mod lz77;

pub use blocked::{
    blocked_compress, blocked_compress_inner, blocked_compress_lz4, blocked_decompress,
    blocked_decompress_parallel, is_blocked, read_range, verify_blocks, BlockIndex, BlockedError,
    BlockedReader, CodecObs, InnerCodec, DEFAULT_BLOCK_SIZE,
};
pub use deflate::{deflate, inflate, InflateError};
pub use lz4::{lz4_compress, lz4_decompress, Lz4Error};

/// Compression ratio `compressed / original` (lower is better); 1.0 for
/// empty input.
pub fn ratio(original_len: usize, compressed_len: usize) -> f64 {
    if original_len == 0 {
        1.0
    } else {
        compressed_len as f64 / original_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_math() {
        assert_eq!(ratio(0, 10), 1.0);
        assert_eq!(ratio(100, 36), 0.36);
    }

    #[test]
    fn os_like_content_hits_paper_ratio_band() {
        // Figure 3's Gzip line implies ~0.35–0.45 compressed/original on
        // OS-image content. Mixed text + sparse binary stands in for that.
        let mut data = Vec::new();
        let mut rng = xpl_util::SplitMix64::new(5);
        let words = [
            "lib", "usr", "share", "config", "version", "depends", "package",
        ];
        for i in 0..20_000 {
            let w = words[(rng.next_u64() % words.len() as u64) as usize];
            data.extend_from_slice(w.as_bytes());
            data.push(b'/');
            if i % 8 == 0 {
                data.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            if i % 3 == 0 {
                data.extend_from_slice(&[0u8; 24]);
            }
        }
        let c = deflate(&data);
        assert_eq!(inflate(&c).unwrap(), data);
        let r = ratio(data.len(), c.len());
        assert!(r < 0.55, "ratio {r} too poor for OS-like content");
    }
}
