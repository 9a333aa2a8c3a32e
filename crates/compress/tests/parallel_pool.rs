//! Thread-pool determinism suite for the parallel encoder,
//! `blocked_compress_inner`.
//!
//! The rayon shim runs mapped stages on real worker threads; these tests
//! pin the contract that matters to every store: the container is
//! **byte-identical** on any pool size, for either inner codec, so a
//! content digest of a compressed image never depends on the host.

use xpl_compress::{blocked_compress_inner, blocked_decompress, InnerCodec, DEFAULT_BLOCK_SIZE};
use xpl_util::SplitMix64;

const CODECS: [InnerCodec; 2] = [InnerCodec::Deflate, InnerCodec::Lz4];

/// The committed regression corpus, repeated until it spans several
/// blocks.
fn corpus_payload() -> Vec<u8> {
    let parts: [&[u8]; 6] = [
        include_bytes!("corpus/empty.bin"),
        include_bytes!("corpus/zeros-8k.bin"),
        include_bytes!("corpus/dpkg-text.bin"),
        include_bytes!("corpus/random-16k.bin"),
        include_bytes!("corpus/period7-12k.bin"),
        include_bytes!("corpus/mixed.bin"),
    ];
    let one = parts.concat();
    let mut data = Vec::new();
    while data.len() < DEFAULT_BLOCK_SIZE * 6 + 4321 {
        data.extend_from_slice(&one);
    }
    data
}

/// Compress `data` at 1, 2 and 8 threads with each inner codec and
/// require every container to equal the single-threaded one.
fn assert_stable_across_pool_sizes(data: &[u8], block_size: usize) {
    for codec in CODECS {
        let reference =
            rayon::with_num_threads(1, || blocked_compress_inner(data, block_size, codec));
        for threads in [2usize, 8] {
            let got = rayon::with_num_threads(threads, || {
                blocked_compress_inner(data, block_size, codec)
            });
            assert_eq!(
                got, reference,
                "{codec:?} container diverged from the 1-thread one at {threads} threads"
            );
        }
        assert_eq!(blocked_decompress(&reference).unwrap(), data, "{codec:?}");
    }
}

#[test]
fn output_is_byte_identical_across_pool_sizes() {
    assert_stable_across_pool_sizes(&corpus_payload(), DEFAULT_BLOCK_SIZE);
}

#[test]
fn random_payload_stable_across_pool_sizes() {
    let mut rng = SplitMix64::new(0x900F);
    let mut data = vec![0u8; 4096 * 37 + 99];
    rng.fill_bytes(&mut data);
    for chunk in data.chunks_mut(211) {
        chunk[0] = 0x55; // sprinkle structure so blocks compress unevenly
    }
    assert_stable_across_pool_sizes(&data, 4096);
}

#[test]
fn panic_in_worker_propagates_through_parallel_map() {
    use rayon::prelude::*;
    let data = vec![1u32; 64];
    let result = std::panic::catch_unwind(|| {
        rayon::with_num_threads(4, || {
            let _: Vec<u32> = data
                .par_chunks(4)
                .map(|c| {
                    if c[0] == 1 {
                        panic!("segment worker failure");
                    }
                    c[0]
                })
                .collect();
        })
    });
    assert!(
        result.is_err(),
        "a worker panic must surface to the caller, not deadlock"
    );
}
