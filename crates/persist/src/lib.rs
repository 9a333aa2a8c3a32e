//! `xpl-persist` — the durable persistence subsystem: a log-structured,
//! content-addressed segment store with a write-ahead log and an
//! atomically swapped manifest.
//!
//! The paper's repository is an on-disk system (measured against a 1 TB
//! SSD); every store in this reproduction was purely in-memory until this
//! crate. `xpl-persist` supplies the missing layer:
//!
//! * [`vfs`] — the [`Vfs`] trait all I/O goes through, with two
//!   implementations: [`StdFs`] (real `std::fs` under a root directory)
//!   and [`MemFs`] (deterministic in-memory backend with fault
//!   injection: power cuts that drop unsynced bytes, torn appends,
//!   crash-at-op-N). Recovery is therefore testable byte-deterministically
//!   inside `cargo test`.
//! * [`wal`] — write-ahead log framing (`[len][crc32][payload]`) and a
//!   replay reader that stops *cleanly* at a torn tail: a record is
//!   either fully present (length + CRC check out) or dropped, never
//!   half-applied.
//! * [`segment`] — append-only blob segments. Every record embeds its
//!   digest and a CRC-32 of the payload (the slice-by-8 kernel from
//!   `xpl-util`); a corrupted record surfaces a typed
//!   [`PersistError::CorruptRecord`], never a panic.
//! * [`manifest`] — a checkpoint of the full index (digest → segment
//!   location + refcount) swapped atomically (`write tmp` → `rename`),
//!   so a crash during checkpoint keeps the old manifest.
//! * [`store`] — [`DurableContentStore`]: the durable twin of
//!   `xpl-store`'s sharded CAS. Reads fan out across 16 digest-addressed
//!   shards; mutations are *logged* under the log lock — payload
//!   appended to the active segment, WAL record queued, index updated —
//!   and a group `commit` makes everything logged durable at once.
//!
//! # Write path and fsync points
//!
//! ```text
//! log_put(new blob):   segment append (unsynced) ─► record queued ─► index insert
//! log_add_ref/release:                              record queued ─► index update
//! commit:     sync each dirty segment ──► WAL append (all queued records) ── sync
//! checkpoint: commit ──► manifest tmp ── sync ──► rename ── sync ──► WAL rotation
//! ```
//!
//! Segments are synced before the log is written, so no record on the
//! medium points at a payload that is not. `put` / `add_ref` /
//! `release` are the logged op followed by `commit` and durable on
//! return; a caller that batches logged ops (one repository publish)
//! pays one fsync per dirty segment and one for the log, whatever the
//! record count, and acknowledges nothing before `commit` returned
//! `Ok`. (On [`StdFs`], syncs also fsync the directory so freshly
//! created files survive power loss.) The WAL is generational: each checkpoint's manifest names
//! the log generation it covers (`prefix.wal-NNNNNN`) and rotates to
//! the next, so a crash between the manifest swap and the old log's
//! cleanup can never double-apply a stale WAL over a newer manifest.
//! Recovery loads the manifest (if any), replays exactly that
//! generation over it, drops (and physically truncates) a torn tail,
//! and resumes appending at the physical end of the newest segment —
//! bytes orphaned by a crash between segment append and WAL append are
//! dead weight for the compactor, never live state. A crash inside a
//! batch leaves a whole-record prefix of it, exactly what a crash
//! between two self-committing ops leaves.

pub mod error;
pub mod manifest;
pub mod segment;
pub mod store;
pub mod vfs;
pub mod wal;

pub use error::PersistError;
pub use store::{cas_state_fingerprint, DurableConfig, DurableContentStore, RecoveryReport};
pub use vfs::{MemFs, StdFs, Vfs};

/// Little-endian codec helpers shared by the WAL, segment and manifest
/// formats.
pub(crate) mod codec {
    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
        Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
    }

    pub(crate) fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
        Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
    }
}
