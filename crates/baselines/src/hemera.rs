//! The Hemera baseline: declarative, data-centric VMI management.
//!
//! Hemera stores the image as structured data like Mirage, but keeps
//! *small* files as database rows and only large files in the file store
//! ("stores large files in the repository and small sized files in the
//! database, which optimizes VMI retrieval as the database handles small
//! files much faster than the file system"). The database is one
//! refcounted table of small files, keyed by content digest; each row
//! costs a database row on the repository device.

use std::sync::RwLock;

use crate::costs;
use crate::snapshot::VmiSnapshot;
use xpl_guestfs::{FileRecord, Vmi};
use xpl_pkg::Catalog;
use xpl_simio::{SimDuration, SimEnv};
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, NameLocks, PublishReport, RetrieveReport,
    RetrieveRequest, StoreError,
};
use xpl_util::{Digest, FxHashMap};

/// Where one file's content lives.
enum Placement {
    /// Small file: the row of `SmallFiles` under this digest.
    Db(Digest),
    /// Large file: a blob in the content store.
    Fs(Digest),
}

struct Manifest {
    files: Vec<(FileRecord, Placement)>,
    snapshot: VmiSnapshot,
}

/// One deduplicated small-file row, refcounted like a CAS blob.
struct SmallRow {
    refs: u32,
    content: Vec<u8>,
}

impl SmallRow {
    /// Row payload: the digest key (an integer column) and the content.
    fn payload(&self) -> u64 {
        8 + self.content.len() as u64
    }
}

/// The small-file table.
#[derive(Default)]
struct SmallFiles {
    rows: FxHashMap<Digest, SmallRow>,
    /// Sum of the rows' content lengths. Row-key overhead is charged at
    /// nominal scale by `metadata_overhead` instead.
    content_bytes: u64,
}

/// Hybrid DB/file-store image repository.
///
/// Concurrency: large files go through the digest-sharded content store;
/// the small-file table and the manifest map are `RwLock`s, so retrieves
/// read rows side by side and only publishes and deletes write them.
/// Lock order: manifests → small; the per-image stripe is always
/// outermost.
pub struct HemeraStore {
    env: SimEnv,
    cas: ContentStore,
    small: RwLock<SmallFiles>,
    manifests: RwLock<FxHashMap<String, Manifest>>,
    names: NameLocks,
}

impl HemeraStore {
    pub fn new(env: SimEnv) -> Self {
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        HemeraStore {
            env,
            cas,
            small: RwLock::new(SmallFiles::default()),
            manifests: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
        }
    }

    /// Builder: select the codec tier of the large-file CAS (small
    /// files live as DB rows and are not tiered). `repo_bytes` stays
    /// logical and codec-invariant.
    pub fn with_tier(mut self, tier: xpl_store::TierPolicy) -> Self {
        self.cas = self.cas.with_tier(tier);
        self
    }

    /// Manifest + row-key metadata overhead.
    fn metadata_overhead(&self) -> u64 {
        let entries: u64 = self
            .manifests
            .read()
            .unwrap()
            .values()
            .map(|m| m.files.len() as u64)
            .sum();
        let rows = self.small.read().unwrap().rows.len() as u64;
        ((entries + rows) * 48).div_ceil(xpl_util::SCALE_FACTOR)
    }

    /// Drop one manifest's references (CAS blobs and DB rows); returns
    /// (freed content bytes, freed units).
    fn release_manifest(&self, manifest: &Manifest) -> Result<(u64, usize), StoreError> {
        let mut freed = 0u64;
        let mut units = 0usize;
        for (record, placement) in &manifest.files {
            match placement {
                Placement::Fs(digest) => {
                    let f = self
                        .cas
                        .release(digest)
                        .map_err(|_| StoreError::Corrupt(format!("release {}", record.path)))?;
                    if f > 0 {
                        freed += f;
                        units += 1;
                    }
                }
                Placement::Db(digest) => {
                    let mut small = self.small.write().unwrap();
                    let row = small.rows.get_mut(digest).ok_or_else(|| {
                        StoreError::Corrupt(format!("db row missing for {}", record.path))
                    })?;
                    row.refs -= 1;
                    if row.refs == 0 {
                        let len = row.content.len() as u64;
                        small.rows.remove(digest);
                        self.env.repo.charge_db_write(1);
                        small.content_bytes -= len;
                        freed += len;
                        units += 1;
                    }
                }
            }
        }
        Ok((freed, units))
    }
}

impl ImageStore for HemeraStore {
    fn name(&self) -> &'static str {
        "Hemera"
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
        self.cas.attach_obs(reg);
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        let t0 = self.env.clock.now();
        let overhead_before = self.metadata_overhead();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };

        let hashed = crate::mirage::scan_and_hash(&self.env, vmi, &mut report);

        let threshold = costs::HEMERA_DB_THRESHOLD_NOMINAL / xpl_util::SCALE_FACTOR;
        // Gross content added by this publish, tracked op-locally (this
        // publish's new blobs and rows) so the ledger check downstream is
        // independent of global counters.
        let mut added_content = 0u64;
        let mut new_units = 0usize;
        let mut files = Vec::with_capacity(hashed.len());
        report.breakdown.measure(
            &self.env.clock,
            "match+store",
            || -> Result<(), StoreError> {
                self.env
                    .local
                    .charge_fixed(SimDuration(costs::file_match().0 * hashed.len() as u64));
                for (record, digest, content) in hashed {
                    let placement = if (record.size as u64) <= threshold {
                        let mut small = self.small.write().unwrap();
                        match small.rows.get_mut(&digest) {
                            Some(row) => row.refs += 1,
                            None => {
                                let len = content.len() as u64;
                                let row = SmallRow { refs: 1, content };
                                self.env.repo.charge_row_write(row.payload());
                                small.rows.insert(digest, row);
                                small.content_bytes += len;
                                added_content += len;
                                new_units += 1;
                            }
                        }
                        Placement::Db(digest)
                    } else {
                        if self.cas.put_with_digest(digest, &content) {
                            added_content += content.len() as u64;
                            new_units += 1;
                        }
                        Placement::Fs(digest)
                    };
                    files.push((record, placement));
                }
                Ok(())
            },
        )?;

        report.units_stored = new_units;
        let old = self.manifests.write().unwrap().insert(
            vmi.name.clone(),
            Manifest {
                files,
                snapshot: VmiSnapshot::of(vmi),
            },
        );
        // Re-publish: release the replaced generation after the new one
        // holds its references, so shared content survives.
        let freed_content = match &old {
            Some(old) => self.release_manifest(old)?.0,
            None => 0,
        };
        let overhead_after = self.metadata_overhead();
        report.bytes_added = added_content + overhead_after.saturating_sub(overhead_before);
        report.bytes_freed = freed_content + overhead_before.saturating_sub(overhead_after);
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    fn retrieve(
        &self,
        _catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        let t0 = self.env.clock.now();
        let manifests = self.manifests.read().unwrap();
        let manifest = manifests
            .get(&request.name)
            .ok_or_else(|| StoreError::NotFound(request.name.clone()))?;
        let mut report = RetrieveReport {
            image: request.name.clone(),
            ..Default::default()
        };
        let reads_before = self.env.repo.stats().bytes_read;

        report.breakdown.measure(
            &self.env.clock,
            "read files",
            || -> Result<(), StoreError> {
                // The small-file table once per retrieve; concurrent
                // retrieves share it.
                let small = self.small.read().unwrap();
                for (record, placement) in &manifest.files {
                    match placement {
                        Placement::Db(digest) => {
                            // Row fetch: Hemera's page-walk surcharge, then
                            // the row itself.
                            self.env.repo.charge_fixed(costs::hemera_row_fetch_extra());
                            let row = small.rows.get(digest).ok_or_else(|| {
                                StoreError::Corrupt(format!("db row for {}", record.path))
                            })?;
                            self.env.repo.charge_row_read(row.payload());
                        }
                        Placement::Fs(digest) => {
                            self.cas.get(digest).map_err(|_| {
                                StoreError::Corrupt(format!("file {}", record.path))
                            })?;
                        }
                    }
                }
                Ok(())
            },
        )?;

        // Hemera keeps rows and files, not a disk.
        let vmi = manifest.snapshot.restore(&self.env, &mut report);
        report.bytes_read = self.env.repo.stats().bytes_read - reads_before;
        report.duration = self.env.clock.since(t0);
        Ok((vmi, report))
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _name_guard = self.names.lock(name);
        let t0 = self.env.clock.now();
        let before = self.repo_bytes();
        let manifest = self
            .manifests
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let (_, units) = self.release_manifest(&manifest)?;
        self.env.repo.charge_db_write(1);
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: before.saturating_sub(self.repo_bytes()),
            units_removed: units,
        })
    }

    fn repo_bytes(&self) -> u64 {
        // Manifest + row-key overhead: ≈48 nominal bytes per entry
        // (scaled); DB content counted at face value.
        let content = self.small.read().unwrap().content_bytes;
        self.cas.unique_bytes() + content + self.metadata_overhead()
    }

    fn check_integrity(&self) -> Result<(), String> {
        // Expected references per digest, split by placement.
        let mut fs_expected: FxHashMap<Digest, u32> = FxHashMap::default();
        let mut db_expected: FxHashMap<Digest, u32> = FxHashMap::default();
        for m in self.manifests.read().unwrap().values() {
            for (_, placement) in &m.files {
                match placement {
                    Placement::Fs(d) => *fs_expected.entry(*d).or_insert(0) += 1,
                    Placement::Db(d) => *db_expected.entry(*d).or_insert(0) += 1,
                }
            }
        }
        self.cas
            .audit_refs(&fs_expected)
            .map_err(|e| format!("Hemera CAS: {e}"))?;
        let small = self.small.read().unwrap();
        if small.rows.len() != db_expected.len() {
            return Err(format!(
                "Hemera DB: {} rows, {} referenced digests",
                small.rows.len(),
                db_expected.len()
            ));
        }
        let mut content = 0u64;
        for (digest, row) in &small.rows {
            let want = *db_expected
                .get(digest)
                .ok_or_else(|| format!("Hemera DB: orphan row for {digest}"))?;
            if row.refs != want {
                return Err(format!(
                    "Hemera DB row {digest}: {} refs, expected {want}",
                    row.refs
                ));
            }
            content += row.content.len() as u64;
        }
        if content != small.content_bytes {
            return Err(format!(
                "Hemera DB content: {content} summed vs {} accounted",
                small.content_bytes
            ));
        }
        Ok(())
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()?;
        for (digest, row) in &self.small.read().unwrap().rows {
            if xpl_util::Sha256::digest(&row.content) != *digest {
                return Err(format!(
                    "Hemera DB row {digest}: content does not hash to its key"
                ));
            }
        }
        self.cas
            .check_integrity(true)
            .map_err(|e| format!("Hemera CAS content: {e}"))
    }

    fn maintain(&self) -> xpl_store::MaintainReport {
        crate::mirage::maintain_cas(&self.env, &self.cas)
    }

    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        vec![("files".to_string(), self.cas.state_fingerprint())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    impl HemeraStore {
        fn db_file_count(&self) -> usize {
            self.small.read().unwrap().rows.len()
        }

        fn fs_file_count(&self) -> usize {
            self.cas.blob_count()
        }
    }

    #[test]
    fn splits_files_between_db_and_fs() {
        let w = World::small();
        let store = HemeraStore::new(w.env());
        store.publish(&w.catalog, &w.build_image("lamp")).unwrap();
        assert!(store.db_file_count() > 0, "small files in DB");
        assert!(store.fs_file_count() > 0, "large files in FS");
    }

    #[test]
    fn retrieval_faster_than_mirage() {
        let w = World::small();
        let hemera = HemeraStore::new(w.env());
        let mirage = crate::MirageStore::new(w.env());
        let redis = w.build_image("redis");
        hemera.publish(&w.catalog, &redis).unwrap();
        mirage.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (_, rh) = hemera.retrieve(&w.catalog, &req).unwrap();
        let (_, rm) = mirage.retrieve(&w.catalog, &req).unwrap();
        assert!(
            rh.duration < rm.duration,
            "Hemera {} should beat Mirage {}",
            rh.duration,
            rm.duration
        );
    }

    #[test]
    fn storage_equals_mirage_class() {
        // Paper: Mirage and Hemera repository sizes are nearly identical.
        let w = World::small();
        let hemera = HemeraStore::new(w.env());
        let mirage = crate::MirageStore::new(w.env());
        for name in ["mini", "redis", "lamp"] {
            let vmi = w.build_image(name);
            hemera.publish(&w.catalog, &vmi).unwrap();
            mirage.publish(&w.catalog, &vmi).unwrap();
        }
        let h = hemera.repo_bytes() as f64;
        let m = mirage.repo_bytes() as f64;
        assert!((h / m - 1.0).abs() < 0.15, "hemera {h} vs mirage {m}");
    }

    #[test]
    fn deep_audit_rehashes_small_rows() {
        let w = World::small();
        let store = HemeraStore::new(w.env());
        store.publish(&w.catalog, &w.build_image("redis")).unwrap();
        store.check_integrity_deep().unwrap();
        {
            let mut small = store.small.write().unwrap();
            let row = small
                .rows
                .values_mut()
                .find(|r| !r.content.is_empty())
                .unwrap();
            row.content[0] ^= 0xff;
        }
        // Refcounts and the content sum still hold; only the re-hash sees
        // the flipped byte.
        store.check_integrity().unwrap();
        let err = store.check_integrity_deep().unwrap_err();
        assert!(err.contains("does not hash"), "{err}");
    }

    #[test]
    fn roundtrip() {
        let w = World::small();
        let store = HemeraStore::new(w.env());
        let lamp = w.build_image("lamp");
        store.publish(&w.catalog, &lamp).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&lamp, &w.catalog);
        let (got, _) = store.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            lamp.installed_package_set(&w.catalog)
        );
    }
}
