//! A counting, timing [`Vfs`] decorator: what the durable layer asks of
//! its medium, measured at the boundary — appends and their bytes, syncs
//! and the time they take, atomic swaps. Used by the traced durable run
//! and the persist probe; untraced runs talk to `StdFs` directly.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use xpl_persist::{PersistError, Vfs};

#[derive(Debug, Default)]
pub struct VfsCounts {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub atomic_writes: AtomicU64,
    pub atomic_write_bytes: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
}

impl VfsCounts {
    /// Bytes the layer handed to the medium (appends + atomic swaps).
    pub fn bytes_written(&self) -> u64 {
        self.append_bytes.load(Relaxed) + self.atomic_write_bytes.load(Relaxed)
    }

    /// Mean time of one `sync`, in µs (0 before the first).
    pub fn mean_sync_us(&self) -> f64 {
        match self.syncs.load(Relaxed) {
            0 => 0.0,
            n => self.sync_ns.load(Relaxed) as f64 / n as f64 / 1e3,
        }
    }
}

pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<VfsCounts>,
}

impl CountingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> (Arc<CountingVfs>, Arc<VfsCounts>) {
        let counts = Arc::new(VfsCounts::default());
        let vfs = Arc::new(CountingVfs {
            inner,
            counts: Arc::clone(&counts),
        });
        (vfs, counts)
    }
}

impl Vfs for CountingVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError> {
        let bytes = self.inner.read(name)?;
        self.counts.reads.fetch_add(1, Relaxed);
        self.counts
            .read_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError> {
        let bytes = self.inner.read_at(name, offset, len)?;
        self.counts.reads.fetch_add(1, Relaxed);
        self.counts
            .read_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.append(name, bytes)?;
        self.counts.appends.fetch_add(1, Relaxed);
        self.counts
            .append_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), PersistError> {
        let t = Instant::now();
        self.inner.sync(name)?;
        self.counts
            .sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.counts.syncs.fetch_add(1, Relaxed);
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.write_atomic(name, bytes)?;
        self.counts.atomic_writes.fetch_add(1, Relaxed);
        self.counts
            .atomic_write_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(())
    }

    fn truncate(&self, name: &str) -> Result<(), PersistError> {
        self.inner.truncate(name)
    }

    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError> {
        self.inner.truncate_to(name, len)
    }

    fn remove(&self, name: &str) -> Result<(), PersistError> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn file_len(&self, name: &str) -> Result<u64, PersistError> {
        self.inner.file_len(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// Total bytes of every file on the medium.
pub fn bytes_on_medium(vfs: &dyn Vfs) -> u64 {
    vfs.list()
        .iter()
        .map(|name| vfs.file_len(name).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_persist::MemFs;

    #[test]
    fn counts_what_passes_through_and_changes_nothing() {
        let (vfs, counts) = CountingVfs::new(Arc::new(MemFs::new()));
        vfs.append("a.wal", b"hello").unwrap();
        vfs.append("a.wal", b" world").unwrap();
        vfs.sync("a.wal").unwrap();
        vfs.write_atomic("a.manifest", b"1234").unwrap();
        assert_eq!(vfs.read("a.wal").unwrap(), b"hello world");
        assert_eq!(vfs.read_at("a.wal", 6, 5).unwrap(), b"world");
        assert_eq!(counts.appends.load(Relaxed), 2);
        assert_eq!(counts.append_bytes.load(Relaxed), 11);
        assert_eq!(counts.syncs.load(Relaxed), 1);
        assert_eq!(counts.bytes_written(), 15);
        assert_eq!(counts.reads.load(Relaxed), 2);
        assert_eq!(counts.read_bytes.load(Relaxed), 16);
        assert_eq!(bytes_on_medium(&*vfs), 15);
        assert!(vfs.exists("a.manifest"));
        vfs.remove("a.manifest").unwrap();
        assert_eq!(vfs.list(), vec!["a.wal".to_string()]);
    }
}
