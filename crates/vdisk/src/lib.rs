//! `xpl-vdisk` — a qcow2-style virtual disk format.
//!
//! The paper's images are qcow2 files; their *allocated* size (clusters
//! actually written) is what the Qcow2 baseline accumulates in Figure 3,
//! and their serialized byte stream is what the Gzip baseline compresses.
//! This crate reproduces the format's essential mechanics:
//!
//! * cluster-granular allocation with a two-level (L1 → L2) mapping table,
//! * deterministic serialization / deserialization of the whole image,
//! * byte-range reads straight from a serialized stream.
//!
//! Sizes are materialized bytes (×1024 = nominal). The default cluster is
//! 256 materialized bytes = 256 KiB nominal.

pub mod qcow;

pub use qcow::{read_serialized_range, QcowError, QcowImage};
