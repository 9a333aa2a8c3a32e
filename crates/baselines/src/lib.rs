//! `xpl-baselines` — the comparison systems from the paper's evaluation.
//!
//! * [`whole`] — **Qcow2** and **Qcow2 + Gzip**: one store of whole
//!   serialized qcow2 images, kept raw ([`QcowStore`]) or compressed with
//!   our DEFLATE ([`GzipStore`]); compression captures intra-image
//!   redundancy only.
//! * [`mirage`] — **Mirage (MIF)**: file-level dedup into a content-
//!   addressed store with a per-image manifest; pays per-file costs on
//!   publish and the small-file read penalty on retrieval.
//! * [`hemera`] — **Hemera**: hybrid — small files live in the metadata
//!   database (cheap row reads), large files in the file store; publishes
//!   like Mirage, retrieves much faster.
//! * [`blockdedup`] — fixed-size and Rabin-CDC block-level dedup, one
//!   store type (the related-work baselines of Jin et al., used by the
//!   ablations).
//!
//! Shared per-system cost constants live in [`costs`].

pub mod blockdedup;
pub mod costs;
pub mod hemera;
pub mod mirage;
mod refindex;
mod snapshot;
pub mod whole;

pub use blockdedup::{CdcDedupStore, FixedBlockDedupStore};
pub use hemera::HemeraStore;
pub use mirage::MirageStore;
pub use whole::{GzipStore, QcowStore};
