//! Property tests for the LZ4-class fast codec — raw block streams and
//! the blocked-LZ4 (`XBL1`) container.
//!
//! The shapes the satellite pins: empty, one byte, the container block
//! boundary ±1, incompressible junk, plus every-byte truncation and
//! corruption sweeps that must surface as typed errors, never panics.

use proptest::prelude::*;
use xpl_compress::{
    blocked_compress_lz4, blocked_decompress, blocked_decompress_parallel, is_blocked,
    lz4_compress, lz4_decompress, read_range, BlockIndex, BlockedError, InnerCodec,
    DEFAULT_BLOCK_SIZE,
};
use xpl_util::SplitMix64;

fn roundtrip(data: &[u8]) {
    let raw = lz4_compress(data);
    assert_eq!(
        lz4_decompress(&raw, data.len() as u64).expect("raw decode"),
        data,
        "raw lz4 roundtrip"
    );
    let container = blocked_compress_lz4(data);
    assert_eq!(
        blocked_decompress(&container).expect("container decode"),
        data,
        "container roundtrip"
    );
    assert_eq!(
        blocked_decompress_parallel(&container).expect("parallel decode"),
        data,
        "parallel container roundtrip"
    );
    assert_eq!(
        BlockIndex::parse(&container).expect("index").codec,
        InnerCodec::Lz4,
        "the index must read XBL1 as the LZ4 inner codec"
    );
}

// ------------------------------------------------------- random properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..24_000)) {
        roundtrip(&data);
    }

    #[test]
    fn structured_bytes_roundtrip(
        seed in any::<u64>(),
        len in 0usize..40_000,
        period in 1usize..500,
    ) {
        let mut rng = SplitMix64::new(seed);
        let pattern: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
        let data: Vec<u8> = (0..len).map(|i| pattern[i % period]).collect();
        roundtrip(&data);
    }

    #[test]
    fn range_reads_match_slices(
        seed in any::<u64>(),
        start in any::<u64>(),
        span in 0u64..50_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut data = vec![0u8; 150_000];
        rng.fill_bytes(&mut data);
        for chunk in data.chunks_mut(61) {
            chunk[0] = b'/'; // sprinkle matches so blocks compress
        }
        let c = blocked_compress_lz4(&data);
        let start = start % (data.len() as u64 * 2);
        let got = read_range(&c, start, span).expect("range");
        let end = (start + span).min(data.len() as u64) as usize;
        let expect: &[u8] = if start as usize >= data.len() {
            &[]
        } else {
            &data[start as usize..end]
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn container_truncation_is_typed(cut_seed in any::<u64>()) {
        let data: Vec<u8> = (0..20_000u32).flat_map(|i| (i / 16).to_le_bytes()).collect();
        let c = blocked_compress_lz4(&data);
        let cut = (cut_seed % c.len() as u64) as usize;
        let err = blocked_decompress(&c[..cut]).expect_err("prefix must fail");
        prop_assert!(matches!(
            err,
            BlockedError::Truncated { .. }
                | BlockedError::BadMagic
                | BlockedError::CorruptIndex(_)
        ), "cut={}: {:?}", cut, err);
    }
}

// --------------------------------------------------------- pinned shapes

#[test]
fn pinned_boundary_shapes_roundtrip() {
    let make = |n: usize| -> Vec<u8> {
        let mut rng = SplitMix64::new(n as u64 + 7);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            match rng.next_u64() % 3 {
                0 => data.extend_from_slice(b"/etc/alternatives/"),
                1 => data.extend_from_slice(&rng.next_u64().to_le_bytes()),
                _ => data.extend_from_slice(&[0u8; 11]),
            }
        }
        data.truncate(n);
        data
    };
    for n in [
        0,
        1,
        2,
        DEFAULT_BLOCK_SIZE - 1,
        DEFAULT_BLOCK_SIZE,
        DEFAULT_BLOCK_SIZE + 1,
        2 * DEFAULT_BLOCK_SIZE - 1,
        2 * DEFAULT_BLOCK_SIZE + 1,
    ] {
        roundtrip(&make(n));
    }
}

#[test]
fn incompressible_junk_roundtrips_with_bounded_expansion() {
    let mut rng = SplitMix64::new(0x7A4);
    let mut data = vec![0u8; 96 * 1024];
    rng.fill_bytes(&mut data);
    roundtrip(&data);
    let raw = lz4_compress(&data);
    // Pure literals: tiny token/extension overhead, never a blowup.
    assert!(
        raw.len() < data.len() + data.len() / 128 + 64,
        "{}",
        raw.len()
    );
}

#[test]
fn corruption_at_every_byte_is_typed_or_caught() {
    // Flip one bit at every byte of a small container: either a typed
    // error, or (for flips the per-block CRC proves harmless — there
    // are none, but the contract is the assert) the exact payload.
    let data: Vec<u8> = (0..3000u32).flat_map(|i| (i / 8).to_le_bytes()).collect();
    let c = blocked_compress_lz4(&data);
    for i in 0..c.len() {
        let mut bad = c.clone();
        bad[i] ^= 0x10;
        match blocked_decompress(&bad) {
            Ok(out) => assert_eq!(out, data, "flip at byte {i} silently changed the payload"),
            Err(
                BlockedError::BadMagic
                | BlockedError::Truncated { .. }
                | BlockedError::CorruptIndex(_)
                | BlockedError::BlockCrcMismatch { .. }
                | BlockedError::BlockLenMismatch { .. }
                | BlockedError::Inflate { .. }
                | BlockedError::Lz4 { .. },
            ) => {}
        }
    }
}

#[test]
fn raw_stream_truncation_at_every_byte_never_panics() {
    let data: Vec<u8> = (0..8_000u32).flat_map(|i| (i / 32).to_le_bytes()).collect();
    let raw = lz4_compress(&data);
    for cut in 0..raw.len() {
        // A raw stream has no trailer: a boundary cut may decode to a
        // correct prefix (the container's length+CRC checks reject
        // those); anything else must be a typed error.
        if let Ok(got) = lz4_decompress(&raw[..cut], data.len() as u64) {
            assert!(data.starts_with(&got), "cut={cut} produced a non-prefix");
        }
    }
}

#[test]
fn magic_prefixes_never_misdetect() {
    // "XBL1" truncated to every length is no container, through the
    // public readers.
    for take in 0..4 {
        let prefix = &b"XBL1"[..take];
        assert!(!is_blocked(prefix));
        assert!(matches!(
            blocked_decompress_parallel(prefix),
            Err(BlockedError::Truncated { .. })
        ));
    }
    assert!(is_blocked(b"XBL1"));
    let container = blocked_compress_lz4(b"some bytes");
    assert_eq!(
        BlockIndex::parse(&container).unwrap().codec,
        InnerCodec::Lz4
    );
}
