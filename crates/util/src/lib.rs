//! `xpl-util` — foundational utilities shared by every Expelliarmus crate.
//!
//! Contents:
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4) used
//!   for content addressing in the deduplicating stores.
//! * [`crc32`] — CRC-32 (IEEE, reflected) for the compressed-block,
//!   on-disk record and wire-frame checksums.
//! * [`fxhash`] — a Firefox/rustc-style multiplicative hasher for hot
//!   in-memory maps where HashDoS resistance is irrelevant.
//! * [`rng`] — SplitMix64, a tiny deterministic PRNG used to synthesize
//!   stable file content (stability across `rand` versions matters because
//!   content identity drives deduplication results).
//! * [`intern`] — a thread-safe string interner for file paths and package
//!   names (millions of path components are shared across images).
//! * [`bytesize`] — human-readable size formatting in both real and
//!   nominal (scale-model) units.

pub mod bytesize;
pub mod crc32;
pub mod fxhash;
pub mod hex;
pub mod intern;
pub mod rng;
pub mod sha256;

pub use bytesize::{format_bytes, format_nominal, SCALE_FACTOR};
pub use crc32::Crc32;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::IStr;
pub use rng::SplitMix64;
pub use sha256::{Digest, Sha256};
