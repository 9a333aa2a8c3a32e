//! Internal: images as lists of references into one content store, with
//! a nominal metadata charge per reference — the index Mirage (files)
//! and the block-dedup store (chunks) share.

use std::sync::RwLock;

use xpl_store::{ContentStore, PublishReport, StoreError};
use xpl_util::{Digest, FxHashMap};

/// An indexed image: the content-store references it holds, with
/// multiplicity, and their count.
pub(crate) trait Refs {
    fn ref_count(&self) -> usize;
    fn refs(&self) -> impl Iterator<Item = &Digest>;
}

/// Image index over a digest-sharded content store; the index is a
/// `RwLock` held only around map access.
pub(crate) struct RefIndex<E> {
    pub(crate) cas: ContentStore,
    pub(crate) images: RwLock<FxHashMap<String, E>>,
    /// Nominal metadata bytes per reference.
    ref_bytes: u64,
}

impl<E: Refs> RefIndex<E> {
    pub(crate) fn new(cas: ContentStore, ref_bytes: u64) -> Self {
        RefIndex {
            cas,
            images: RwLock::new(FxHashMap::default()),
            ref_bytes,
        }
    }

    /// Metadata overhead of every live reference, in materialized bytes.
    fn overhead(&self) -> u64 {
        let images = self.images.read().unwrap();
        let refs: u64 = images.values().map(|e| e.ref_count() as u64).sum();
        (refs * self.ref_bytes).div_ceil(xpl_util::SCALE_FACTOR)
    }

    /// Drop one image's references; returns (freed bytes, freed blobs).
    fn release(&self, entry: &E) -> Result<(u64, usize), StoreError> {
        entry.refs().try_fold((0, 0), |(freed, blobs), digest| {
            let f = self
                .cas
                .release(digest)
                .map_err(|_| StoreError::Corrupt(format!("release {digest}")))?;
            Ok((freed + f, blobs + usize::from(f > 0)))
        })
    }

    /// Index `entry` as `name`. A re-publish releases the replaced image
    /// only after the new one holds its references, so content shared
    /// across generations survives. The report gets the exact ledger:
    /// `repo_bytes` after = before + `bytes_added` − `bytes_freed`, where
    /// `added` is the content this publish stored.
    pub(crate) fn insert(
        &self,
        name: &str,
        entry: E,
        added: u64,
        report: &mut PublishReport,
    ) -> Result<(), StoreError> {
        let before = self.overhead();
        let old = self.images.write().unwrap().insert(name.to_string(), entry);
        let freed = match &old {
            Some(old) => self.release(old)?.0,
            None => 0,
        };
        let after = self.overhead();
        report.bytes_added = added + after.saturating_sub(before);
        report.bytes_freed = freed + before.saturating_sub(after);
        Ok(())
    }

    /// Unindex `name`; returns (bytes freed with the overhead, blobs).
    pub(crate) fn remove(&self, name: &str) -> Result<(u64, usize), StoreError> {
        let before = self.overhead();
        let removed = self.images.write().unwrap().remove(name);
        let entry = removed.ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let (freed, blobs) = self.release(&entry)?;
        Ok((freed + before.saturating_sub(self.overhead()), blobs))
    }

    /// Unique content plus the reference overhead.
    pub(crate) fn repo_bytes(&self) -> u64 {
        self.cas.unique_bytes() + self.overhead()
    }

    /// Every blob's refcount must equal the references live images hold
    /// (with multiplicity), with no orphans; `deep` also re-hashes every
    /// blob. Errors are prefixed with `what`.
    pub(crate) fn audit(&self, what: &str, deep: bool) -> Result<(), String> {
        let mut expected: FxHashMap<Digest, u32> = FxHashMap::default();
        for entry in self.images.read().unwrap().values() {
            for digest in entry.refs() {
                *expected.entry(*digest).or_insert(0) += 1;
            }
        }
        self.cas
            .audit_refs(&expected)
            .map_err(|e| format!("{what}: {e}"))?;
        if deep {
            self.cas
                .check_integrity(true)
                .map_err(|e| format!("{what} content: {e}"))?;
        }
        Ok(())
    }
}
