//! DEFLATE and blocked-container round-trip property tests and the pinned regression
//! corpus (`tests/corpus/`).
//!
//! The corpus files are committed, not generated, so a compressor
//! change that breaks any historical shape (empty, all-zero, short
//! periods, incompressible noise, mixed runs, dpkg-style text) fails
//! here even if the random strategies happen to miss it.

use proptest::prelude::*;
use xpl_compress::{
    blocked_compress, blocked_compress_lz4, blocked_decompress_parallel, deflate, inflate, ratio,
};
use xpl_util::SplitMix64;

fn roundtrip(data: &[u8]) {
    let d = deflate(data);
    assert_eq!(inflate(&d).expect("inflate"), data, "deflate roundtrip");
}

// ------------------------------------------------------- random properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..24_000)) {
        roundtrip(&data);
    }

    #[test]
    fn periodic_data_roundtrips(
        seed in any::<u64>(),
        len in 0usize..24_000,
        period in 1usize..700,
    ) {
        let mut rng = SplitMix64::new(seed);
        let pattern: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
        let data: Vec<u8> = (0..len).map(|i| pattern[i % period]).collect();
        roundtrip(&data);
    }

    #[test]
    fn sparse_runs_roundtrip(
        runs in proptest::collection::vec((any::<u8>(), 1usize..2_000), 1..12),
    ) {
        // Run-length shapes: long same-byte stretches back to back.
        let mut data = Vec::new();
        for (byte, len) in runs {
            data.extend(std::iter::repeat_n(byte, len));
        }
        roundtrip(&data);
    }

    #[test]
    fn compression_never_lies_about_ratio(
        data in proptest::collection::vec(any::<u8>(), 1..8_000),
    ) {
        let c = deflate(&data);
        let r = ratio(data.len(), c.len());
        prop_assert!(r > 0.0, "ratio must be positive");
        // Decompressed length always matches the original exactly.
        prop_assert_eq!(inflate(&c).unwrap().len(), data.len());
    }
}

// --------------------------------------------------------- pathological

#[test]
fn empty_input_roundtrips() {
    roundtrip(&[]);
    assert_eq!(inflate(&deflate(&[])).unwrap(), Vec::<u8>::new());
}

#[test]
fn all_zero_block_compresses_massively() {
    let data = vec![0u8; 64 * 1024];
    roundtrip(&data);
    let c = deflate(&data);
    assert!(
        ratio(data.len(), c.len()) < 0.05,
        "zeros must compress > 20x, got {}",
        ratio(data.len(), c.len())
    );
}

#[test]
fn incompressible_noise_roundtrips_with_bounded_expansion() {
    let mut rng = SplitMix64::new(0x10C0);
    let mut data = vec![0u8; 48 * 1024];
    rng.fill_bytes(&mut data);
    roundtrip(&data);
    let c = deflate(&data);
    // Stored/expanded output is allowed, but only with small framing
    // overhead — never a blowup.
    assert!(c.len() < data.len() + data.len() / 8 + 64, "{}", c.len());
}

// ------------------------------------------------------ regression corpus

#[test]
fn regression_corpus_roundtrips() {
    let corpus: [(&str, &[u8]); 6] = [
        ("empty.bin", include_bytes!("corpus/empty.bin")),
        ("zeros-8k.bin", include_bytes!("corpus/zeros-8k.bin")),
        ("dpkg-text.bin", include_bytes!("corpus/dpkg-text.bin")),
        ("random-16k.bin", include_bytes!("corpus/random-16k.bin")),
        ("period7-12k.bin", include_bytes!("corpus/period7-12k.bin")),
        ("mixed.bin", include_bytes!("corpus/mixed.bin")),
    ];
    for (name, data) in corpus {
        let d = deflate(data);
        assert_eq!(inflate(&d).unwrap(), data, "{name}: deflate roundtrip");
        // The blocked container, both inner codecs, decoded on one
        // worker and on four.
        for (codec, blocked) in [
            ("deflate", blocked_compress(data)),
            ("lz4", blocked_compress_lz4(data)),
        ] {
            for threads in [1, 4] {
                let decoded =
                    rayon::with_num_threads(threads, || blocked_decompress_parallel(&blocked));
                assert_eq!(
                    decoded.unwrap(),
                    data,
                    "{name}: blocked {codec} roundtrip at {threads} threads"
                );
            }
        }
    }
    // Ratio floors for the compressible members (regression against a
    // quietly degrading matcher).
    let text: &[u8] = include_bytes!("corpus/dpkg-text.bin");
    assert!(ratio(text.len(), deflate(text).len()) < 0.10);
    let period: &[u8] = include_bytes!("corpus/period7-12k.bin");
    assert!(ratio(period.len(), deflate(period).len()) < 0.05);
}
