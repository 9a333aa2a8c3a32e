//! The Mirage (MIF) baseline: VMI as structured data with file-level
//! deduplication.
//!
//! Publish: mount, hash every file (rayon-parallel), match against the
//! global index, store new content once, write a manifest. Retrieve: read
//! every manifest file back from the store — paying the per-file open +
//! small-file penalty the paper identifies ("it is inefficient in reading
//! small files (below 1MB) from file system-based repository").

use std::sync::RwLock;

use crate::costs;
use crate::snapshot::VmiSnapshot;
use rayon::prelude::*;
use xpl_guestfs::{FileRecord, Vmi};
use xpl_pkg::Catalog;
use xpl_simio::{SimDuration, SimEnv};
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, MaintainReport, NameLocks, PublishReport,
    RetrieveReport, RetrieveRequest, StoreError, TierPolicy,
};
use xpl_util::{Digest, FxHashMap};

struct Manifest {
    files: Vec<(FileRecord, Digest)>,
    snapshot: VmiSnapshot,
}

/// File-level deduplicating image repository.
///
/// Concurrency: the content store is digest-sharded (see
/// `xpl_store::cas`); the manifest index is a `RwLock` held only around
/// map access, and same-name operations serialize on a per-image stripe.
/// Scan+hash — the expensive publish leg — runs outside every lock.
pub struct MirageStore {
    env: SimEnv,
    cas: ContentStore,
    manifests: RwLock<FxHashMap<String, Manifest>>,
    names: NameLocks,
}

impl MirageStore {
    pub fn new(env: SimEnv) -> Self {
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        MirageStore {
            env,
            cas,
            manifests: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
        }
    }

    /// Durable variant: the file CAS writes through to an
    /// `xpl-persist` log-structured store, making Mirage the baseline
    /// that runs fully durable alongside Expelliarmus in the churn
    /// replay's `--durable` mode.
    pub fn new_durable(
        env: SimEnv,
        durable: std::sync::Arc<xpl_persist::DurableContentStore>,
    ) -> Self {
        let cas = ContentStore::new_durable(std::sync::Arc::clone(&env.repo), durable);
        MirageStore {
            env,
            cas,
            manifests: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
        }
    }

    /// Builder: select the file CAS codec tier. `repo_bytes` stays
    /// logical (codec-invariant); only the physical representation and
    /// real CPU change.
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        self.cas = self.cas.with_tier(tier);
        self
    }

    pub fn dedup_hits(&self) -> u64 {
        self.cas.dedup_hits()
    }

    /// Manifest metadata overhead for `entries` total manifest entries.
    fn manifest_overhead(entries: u64) -> u64 {
        (entries * 48).div_ceil(xpl_util::SCALE_FACTOR)
    }

    fn total_entries(&self) -> u64 {
        self.manifests
            .read()
            .unwrap()
            .values()
            .map(|m| m.files.len() as u64)
            .sum()
    }

    /// Drop one manifest's references; returns (freed bytes, freed blobs).
    fn release_manifest(&self, manifest: &Manifest) -> Result<(u64, usize), StoreError> {
        let mut freed = 0u64;
        let mut blobs = 0usize;
        for (record, digest) in &manifest.files {
            let f = self
                .cas
                .release(digest)
                .map_err(|_| StoreError::Corrupt(format!("release {}", record.path)))?;
            if f > 0 {
                freed += f;
                blobs += 1;
            }
        }
        Ok((freed, blobs))
    }

    /// The publish itself. Caller holds the image's name lock and
    /// commits on every outcome.
    fn publish_locked(&self, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };

        // Mount + full content scan (hashing every file through the
        // mounted guest filesystem).
        let hashed: Vec<(FileRecord, Digest, Vec<u8>)> =
            report.breakdown.measure(&self.env.clock, "scan+hash", || {
                self.env.local.charge_fixed(costs::mount_fixed());
                self.env
                    .local
                    .charge_fixed(costs::xfer(vmi.mounted_bytes(), costs::SCAN_BPS));
                let records: Vec<FileRecord> = vmi.fs.iter().collect();
                records
                    .into_par_iter()
                    .map(|r| {
                        let content = r.content();
                        let digest = xpl_util::Sha256::digest(&content);
                        (r, digest, content)
                    })
                    .collect()
            });

        // Index matching + storing new content. `bytes_added` is tracked
        // op-locally (this publish's new puts), so concurrent publishes
        // of distinct images each report their own contribution.
        let mut added_content = 0u64;
        let mut new_files = 0usize;
        let mut files = Vec::with_capacity(hashed.len());
        report
            .breakdown
            .measure(&self.env.clock, "match+store", || {
                self.env
                    .local
                    .charge_fixed(SimDuration(costs::file_match().0 * hashed.len() as u64));
                for (record, digest, content) in hashed {
                    if self.cas.put_with_digest(digest, &content) {
                        new_files += 1;
                        added_content += content.len() as u64;
                    }
                    files.push((record, digest));
                }
            });
        report.units_stored = new_files;
        let entries_before = self.total_entries();
        let old = self.manifests.write().unwrap().insert(
            vmi.name.clone(),
            Manifest {
                files,
                snapshot: VmiSnapshot::of(vmi),
            },
        );
        // Re-publish: the new manifest is referenced first, then the old
        // one is released, so content shared across generations survives.
        let freed_content = match &old {
            Some(old) => self.release_manifest(old)?.0,
            None => 0,
        };
        // Exact ledger: repo_bytes_after == before + bytes_added - bytes_freed,
        // including the manifest-overhead delta.
        let (oa, ob) = (
            Self::manifest_overhead(self.total_entries()),
            Self::manifest_overhead(entries_before),
        );
        report.bytes_added = added_content + oa.saturating_sub(ob);
        report.bytes_freed = freed_content + ob.saturating_sub(oa);
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    /// The delete itself; same contract as `publish_locked`.
    fn delete_locked(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let t0 = self.env.clock.now();
        let entries_before = self.total_entries();
        let manifest = self
            .manifests
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let (freed_content, blobs) = self.release_manifest(&manifest)?;
        self.env.repo.charge_db_write(1);
        let overhead_freed = Self::manifest_overhead(entries_before)
            .saturating_sub(Self::manifest_overhead(self.total_entries()));
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: freed_content + overhead_freed,
            units_removed: blobs,
        })
    }
}

impl ImageStore for MirageStore {
    fn name(&self) -> &'static str {
        "Mirage"
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
        self.cas.attach_obs(reg);
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        self.cas.committed(self.publish_locked(vmi))
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

        // Read every file from the store — the per-file penalty path.
        report.breakdown.measure(
            &self.env.clock,
            "read files",
            || -> Result<(), StoreError> {
                for (record, digest) in &manifest.files {
                    self.cas
                        .get(digest)
                        .map_err(|_| StoreError::Corrupt(format!("file {}", record.path)))?;
                }
                Ok(())
            },
        )?;

        // Reassemble the image locally.
        let vmi = report.breakdown.measure(&self.env.clock, "assemble", || {
            let vmi = manifest.snapshot.restore();
            self.env.local.charge_write(vmi.disk_bytes());
            vmi
        });

        report.bytes_read = self.env.repo.stats().bytes_read - reads_before;
        report.duration = self.env.clock.since(t0);
        Ok((vmi, report))
    }

    fn retrieve_range(
        &self,
        _catalog: &Catalog,
        request: &RetrieveRequest,
        start: u64,
        len: u64,
    ) -> Result<(Vec<u8>, RetrieveReport), StoreError> {
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
        // Semantics-aware range assembly: the manifest's tree metadata
        // maps the disk range to file extents, and only the overlapping
        // slice of each touched blob leaves the store (per-file open
        // cost stays — Mirage's small-file penalty applies to ranges
        // too, just over far fewer files).
        let by_path: FxHashMap<&str, Digest> = manifest
            .files
            .iter()
            .map(|(r, d)| (r.path.as_str(), *d))
            .collect();
        let bytes = report
            .breakdown
            .measure(&self.env.clock, "range assemble", || {
                xpl_guestfs::materialize_range(&manifest.snapshot.fs, start, len, |rec, off, l| {
                    let digest = by_path
                        .get(rec.path.as_str())
                        .ok_or_else(|| format!("no blob for {}", rec.path))?;
                    self.cas
                        .get_range(digest, off, l)
                        .map_err(|e| format!("blob {}: {e:?}", rec.path))
                })
            })
            .map_err(StoreError::Corrupt)?;
        self.env.local.charge_write(bytes.len() as u64);
        report.bytes_read = self.env.repo.stats().bytes_read - reads_before;
        report.duration = self.env.clock.since(t0);
        Ok((bytes, report))
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _name_guard = self.names.lock(name);
        self.cas.committed(self.delete_locked(name))
    }

    fn repo_bytes(&self) -> u64 {
        // Unique content + manifest overhead: ≈48 *nominal* bytes per
        // entry (digest + path ref), i.e. 48/1024 materialized bytes.
        self.cas.unique_bytes() + Self::manifest_overhead(self.total_entries())
    }

    fn check_integrity(&self) -> Result<(), String> {
        // Every blob's refcount must equal the number of manifest entries
        // referencing it (counting multiplicity), with no orphans.
        let mut expected: FxHashMap<Digest, u32> = FxHashMap::default();
        for m in self.manifests.read().unwrap().values() {
            for (_, digest) in &m.files {
                *expected.entry(*digest).or_insert(0) += 1;
            }
        }
        self.cas
            .audit_refs(&expected)
            .map_err(|e| format!("Mirage CAS: {e}"))
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()?;
        self.cas
            .check_integrity(true)
            .map_err(|e| format!("Mirage CAS content: {e}"))
    }

    fn maintain(&self) -> MaintainReport {
        let t0 = self.env.clock.now();
        let sweep = self.cas.maintain();
        MaintainReport {
            duration: self.env.clock.since(t0),
            scanned: sweep.scanned,
            promoted: sweep.promoted,
            demoted: sweep.demoted,
            // The CAS ledger is logical: repo_bytes never moves.
            bytes_delta: 0,
        }
    }

    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        vec![("files".to_string(), self.cas.state_fingerprint())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    #[test]
    fn cross_image_file_dedup() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        store.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let after_mini = store.repo_bytes();
        let redis = w.build_image("redis");
        let r = store.publish(&w.catalog, &redis).unwrap();
        // Redis shares the whole base: growth is bounded by redis-specific
        // content (its packages, user data, status file) plus manifest
        // overhead — far below re-storing the image.
        let growth = store.repo_bytes() - after_mini;
        assert!(
            growth < redis.mounted_bytes() / 2,
            "file dedup should absorb the shared base; grew {growth} of mounted {}",
            redis.mounted_bytes()
        );
        assert!(r.units_stored > 0, "redis's own files are new");
        assert!(store.dedup_hits() > 10);
    }

    #[test]
    fn publish_time_scales_with_files_not_dedup() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        let mini = w.build_image("mini");
        store.publish(&w.catalog, &mini).unwrap();
        // Publishing the identical image again still pays scan + match.
        let r2 = store.publish(&w.catalog, &mini).unwrap();
        assert_eq!(r2.units_stored, 0);
        assert!(r2.duration.as_secs_f64() > 1.0, "{}", r2.duration);
    }

    #[test]
    fn retrieve_roundtrip_and_penalty() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (got, report) = store.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            redis.installed_package_set(&w.catalog)
        );
        // Per-file costs dominate: reading N small files must cost more
        // than the raw bytes would at sequential speed.
        let seq = costs::xfer(report.bytes_read, 250 * 1024 * 1024);
        assert!(report.breakdown.get("read files") > seq);
    }

    #[test]
    fn range_read_matches_disk_and_touches_fewer_bytes() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (full, full_report) = store.retrieve(&w.catalog, &req).unwrap();
        let size = full.disk.virtual_size();
        for (start, len) in [(0u64, 700u64), (size / 3, 2048), (size - 50, 200), (0, 0)] {
            let (bytes, report) = store.retrieve_range(&w.catalog, &req, start, len).unwrap();
            let end = start.saturating_add(len).min(size);
            let expect = if start >= end {
                Vec::new()
            } else {
                full.disk.read_at(start, (end - start) as usize).unwrap()
            };
            assert_eq!(bytes, expect, "range [{start}, +{len})");
            assert!(
                report.bytes_read <= full_report.bytes_read,
                "range moved {} vs full {}",
                report.bytes_read,
                full_report.bytes_read
            );
            if len > 0 && len < size / 2 {
                assert!(report.bytes_read < full_report.bytes_read);
            }
        }
    }

    #[test]
    fn corrupted_blob_detected() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        // Corrupt one stored blob (truncation — what the hot-path length
        // check catches on read).
        let digest = store.manifests.read().unwrap()["redis"].files[0].1;
        assert!(store.cas.corrupt_for_test(&digest));
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        assert!(matches!(
            store.retrieve(&w.catalog, &req),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn bitflip_caught_by_deep_audit_only() {
        let w = World::small();
        let store = MirageStore::new(w.env());
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        let digest = store.manifests.read().unwrap()["redis"].files[0].1;
        assert!(store.cas.corrupt_bitflip_for_test(&digest));
        // Refcounts still coherent: the cheap audit passes…
        store.check_integrity().unwrap();
        // …the deep content audit does not.
        assert!(store.check_integrity_deep().is_err());
    }
}
