//! Hostile-input sweep over the qcow stream parsers: every truncation and
//! every single-bit flip of one small serialized image, fed to both
//! `QcowImage::deserialize` and `read_serialized_range`. Each call
//! must return a value or a typed error — never panic, never abort on an
//! allocation sized from a forged field. Where the full parse accepts a
//! stream, the range reader must agree with it byte for byte.

use expelliarmus::vdisk::{read_serialized_range, QcowError, QcowImage};

/// Three mapped clusters (one straddled by a write), unmapped gaps, and a
/// short last cluster.
fn small_stream() -> (QcowImage, Vec<u8>) {
    let mut img = QcowImage::create(3_000);
    let cs = img.cluster_size();
    img.write_at(5, b"superblock").unwrap();
    img.write_at(3 * cs - 4, b"straddles").unwrap();
    img.write_at(2_990, b"tail").unwrap();
    let stream = img.serialize();
    (img, stream)
}

/// Ranges over the head, a cluster edge, a gap, the tail and past it.
const WINDOWS: [(u64, u64); 5] = [(0, 64), (760, 40), (1_000, 300), (2_980, 100), (9_000, 8)];

/// Range-read `[start, +len)` out of `stream` through a clamping fetch,
/// as a reader over a short or damaged container would see it.
fn range(stream: &[u8], start: u64, len: u64) -> Result<Vec<u8>, QcowError> {
    let fetch = |off: u64, n: u64| {
        let end = off.saturating_add(n).min(stream.len() as u64);
        let off = off.min(end);
        Ok(stream[off as usize..end as usize].to_vec())
    };
    read_serialized_range(fetch, start, len)
}

/// Feed one candidate stream to both parsers.
fn probe(stream: &[u8]) {
    let parsed = QcowImage::deserialize(stream);
    for (start, len) in WINDOWS {
        let ranged = range(stream, start, len);
        if let Ok(img) = &parsed {
            let end = (start + len).min(img.virtual_size());
            let want = if start >= end {
                Vec::new()
            } else {
                img.read_at(start, (end - start) as usize).unwrap()
            };
            assert_eq!(ranged, Ok(want), "range [{start}, +{len}) vs full parse");
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let (img, stream) = small_stream();
    // The whole stream is the image, both ways; every prefix is not.
    assert!(QcowImage::deserialize(&stream).unwrap().serialize() == stream);
    for (start, len) in WINDOWS {
        let end = (start + len).min(img.virtual_size());
        let want = img.read_at(start.min(end), (end - start.min(end)) as usize);
        assert_eq!(range(&stream, start, len), want);
    }
    for cut in 0..stream.len() {
        let short = &stream[..cut];
        assert!(
            QcowImage::deserialize(short).is_err(),
            "truncated at {cut} still parsed"
        );
        probe(short);
    }
}

#[test]
fn every_bit_flip_returns_a_value_or_a_typed_error() {
    let (_, stream) = small_stream();
    let mut flipped = stream.clone();
    for at in 0..stream.len() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            probe(&flipped);
            flipped[at] ^= 1 << bit;
        }
    }
}
