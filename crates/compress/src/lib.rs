//! `xpl-compress` — DEFLATE (RFC 1951) and gzip (RFC 1952) from scratch.
//!
//! This crate provides the compression substrate for the paper's
//! "Qcow2 + Gzip" baseline: serialized images are compressed whole, so the
//! baseline captures intra-image redundancy but — unlike the deduplicating
//! systems — no cross-image redundancy, which is exactly the behaviour
//! Figure 3 contrasts.
//!
//! Public surface:
//! * [`deflate`] / [`inflate`] — raw DEFLATE streams.
//! * [`gzip_compress`] / [`gzip_decompress`] — framed, CRC-checked.
//! * [`gzip_compress_parallel`] — rayon-parallel multi-member gzip
//!   (RFC 1952 concatenation semantics), used for large image payloads.
//! * [`blocked`] — the seekable blocked container: parallel inflate and
//!   byte-range reads over independently-encoded 64 KiB blocks, behind
//!   the [`BlockCodec`] trait (legacy gzip stays readable via
//!   [`decompress_auto`]).
//! * [`lz4`] — the LZ4-class fast codec: greedy hash-table matching, a
//!   literal-run/match token format, no entropy stage. Slots into the
//!   blocked container as the hot-tier inner codec ([`BlockedLz4`],
//!   magic `XBL1`) so range reads and parallel decode come for free.

pub mod bitio;
pub mod blocked;
pub mod deflate;
pub mod gzip;
pub mod huffman;
pub mod lz4;
pub mod lz77;

pub use blocked::{
    blocked_compress, blocked_compress_inner, blocked_compress_lz4, blocked_compress_with,
    blocked_decompress, blocked_decompress_parallel, codec_for, decompress_auto, is_blocked,
    read_range, verify_blocks, BlockCodec, BlockIndex, BlockedError, BlockedReader, CodecError,
    CodecObs, InnerCodec, DEFAULT_BLOCK_SIZE,
};
pub use deflate::{deflate, inflate, InflateError};
pub use gzip::{gzip_compress, gzip_decompress, GzipError};
pub use lz4::{lz4_compress, lz4_decompress, Lz4Error};

use rayon::prelude::*;

/// Segment size for parallel compression. Each segment becomes an
/// independent gzip member; smaller segments parallelize better but lose a
/// little ratio at the seams.
pub const PARALLEL_SEGMENT: usize = 128 * 1024;

/// Compress `data` as a multi-member gzip stream, one member per
/// [`PARALLEL_SEGMENT`]-sized segment, in parallel.
pub fn gzip_compress_parallel(data: &[u8]) -> Vec<u8> {
    if data.len() <= PARALLEL_SEGMENT {
        return gzip_compress(data);
    }
    let members: Vec<Vec<u8>> = data
        .par_chunks(PARALLEL_SEGMENT)
        .map(gzip_compress)
        .collect();
    let total = members.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for m in members {
        out.extend_from_slice(&m);
    }
    out
}

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
    fn parallel_roundtrip_matches_serial_payload() {
        let data: Vec<u8> = (0..400_000u32)
            .flat_map(|i| ((i / 64) as u16).to_le_bytes())
            .collect();
        let par = gzip_compress_parallel(&data);
        assert_eq!(gzip_decompress(&par).unwrap(), data);
        // Parallel output is multi-member; same payload, slightly larger.
        let ser = gzip_compress(&data);
        assert_eq!(gzip_decompress(&ser).unwrap(), data);
    }

    #[test]
    fn small_input_single_member() {
        let data = b"tiny";
        assert_eq!(gzip_compress_parallel(data), gzip_compress(data));
    }

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
        let c = gzip_compress(&data);
        let r = ratio(data.len(), c.len());
        assert!(r < 0.55, "ratio {r} too poor for OS-like content");
    }
}
