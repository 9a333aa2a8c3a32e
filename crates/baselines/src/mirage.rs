//! The Mirage (MIF) baseline: VMI as structured data with file-level
//! deduplication.
//!
//! Publish: mount, hash every file (rayon-parallel), match against the
//! global index, store new content once, write a manifest. Retrieve: read
//! every manifest file back from the store — paying the per-file open +
//! small-file penalty the paper identifies ("it is inefficient in reading
//! small files (below 1MB) from file system-based repository").

use crate::costs;
use crate::refindex::{RefIndex, Refs};
use crate::snapshot::VmiSnapshot;
use rayon::prelude::*;
use xpl_guestfs::{FileRecord, Vmi};
use xpl_pkg::Catalog;
use xpl_simio::{SimDuration, SimEnv};
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, MaintainReport, NameLocks, PublishReport,
    RetrieveReport, RetrieveRequest, StoreError, TierPolicy,
};
use xpl_util::Digest;

struct Manifest {
    /// In path order: the tree's iteration order at publish.
    files: Vec<(FileRecord, Digest)>,
    snapshot: VmiSnapshot,
}

impl Manifest {
    /// The blob holding `rec`'s content: a binary search of the
    /// path-sorted entries.
    fn blob_of(&self, rec: &FileRecord) -> Option<Digest> {
        let path = rec.path.as_str();
        self.files
            .binary_search_by(|(r, _)| r.path.as_str().cmp(path))
            .ok()
            .map(|i| self.files[i].1)
    }
}

impl Refs for Manifest {
    fn ref_count(&self) -> usize {
        self.files.len()
    }

    fn refs(&self) -> impl Iterator<Item = &Digest> {
        self.files.iter().map(|(_, digest)| digest)
    }
}

/// Mount the image and hash every file through the mounted guest
/// filesystem (rayon-parallel): the publish scan Mirage and Hemera share.
pub(crate) fn scan_and_hash(
    env: &SimEnv,
    vmi: &Vmi,
    report: &mut PublishReport,
) -> Vec<(FileRecord, Digest, Vec<u8>)> {
    report.breakdown.measure(&env.clock, "scan+hash", || {
        env.local.charge_fixed(costs::mount_fixed());
        env.local
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
    })
}

/// A file CAS's tier sweep as the store's maintenance report. The CAS
/// ledger is logical, so `repo_bytes` never moves.
pub(crate) fn maintain_cas(env: &SimEnv, cas: &ContentStore) -> MaintainReport {
    let t0 = env.clock.now();
    let sweep = cas.maintain();
    MaintainReport {
        duration: env.clock.since(t0),
        scanned: sweep.scanned,
        promoted: sweep.promoted,
        demoted: sweep.demoted,
        bytes_delta: 0,
    }
}

/// File-level deduplicating image repository.
///
/// Concurrency: the content store is digest-sharded (see
/// `xpl_store::cas`); the manifest index is a `RwLock` held only around
/// map access, and same-name operations serialize on a per-image stripe.
/// Scan+hash — the expensive publish leg — runs outside every lock.
pub struct MirageStore {
    env: SimEnv,
    /// Manifests over the file CAS: ≈48 *nominal* bytes per entry
    /// (digest + path ref).
    index: RefIndex<Manifest>,
    names: NameLocks,
}

impl MirageStore {
    pub fn new(env: SimEnv) -> Self {
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        MirageStore {
            env,
            index: RefIndex::new(cas, 48),
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
            index: RefIndex::new(cas, 48),
            names: NameLocks::new(),
        }
    }

    /// Builder: select the file CAS codec tier. `repo_bytes` stays
    /// logical (codec-invariant); only the physical representation and
    /// real CPU change.
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        self.index.cas = self.index.cas.with_tier(tier);
        self
    }

    /// The publish itself. Caller holds the image's name lock and
    /// commits on every outcome.
    fn publish_locked(&self, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };

        let hashed = scan_and_hash(&self.env, vmi, &mut report);

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
                    if self.index.cas.put_with_digest(digest, &content) {
                        new_files += 1;
                        added_content += content.len() as u64;
                    }
                    files.push((record, digest));
                }
            });
        report.units_stored = new_files;
        let manifest = Manifest {
            files,
            snapshot: VmiSnapshot::of(vmi),
        };
        self.index
            .insert(&vmi.name, manifest, added_content, &mut report)?;
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    /// The delete itself; same contract as `publish_locked`.
    fn delete_locked(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let t0 = self.env.clock.now();
        let (bytes_freed, blobs) = self.index.remove(name)?;
        self.env.repo.charge_db_write(1);
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed,
            units_removed: blobs,
        })
    }
}

impl ImageStore for MirageStore {
    fn name(&self) -> &'static str {
        "Mirage"
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
        self.index.cas.attach_obs(reg);
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        self.index.cas.committed(self.publish_locked(vmi))
    }

    fn retrieve(
        &self,
        _catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        let t0 = self.env.clock.now();
        let manifests = self.index.images.read().unwrap();
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
                    self.index
                        .cas
                        .get(digest)
                        .map_err(|_| StoreError::Corrupt(format!("file {}", record.path)))?;
                }
                Ok(())
            },
        )?;

        // Mirage keeps files, not a disk.
        let vmi = manifest.snapshot.restore(&self.env, &mut report);

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
        let manifests = self.index.images.read().unwrap();
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
        let bytes = report
            .breakdown
            .measure(&self.env.clock, "range assemble", || {
                xpl_guestfs::materialize_range(&manifest.snapshot.fs, start, len, |rec, off, l| {
                    let digest = manifest
                        .blob_of(rec)
                        .ok_or_else(|| format!("no blob for {}", rec.path))?;
                    self.index
                        .cas
                        .get_range(&digest, off, l)
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
        self.index.cas.committed(self.delete_locked(name))
    }

    fn repo_bytes(&self) -> u64 {
        self.index.repo_bytes()
    }

    fn check_integrity(&self) -> Result<(), String> {
        self.index.audit("Mirage CAS", false)
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.index.audit("Mirage CAS", true)
    }

    fn maintain(&self) -> MaintainReport {
        maintain_cas(&self.env, &self.index.cas)
    }

    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        vec![("files".to_string(), self.index.cas.state_fingerprint())]
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
        assert!(store.index.cas.dedup_hits() > 10);
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
        let digest = store.index.images.read().unwrap()["redis"].files[0].1;
        assert!(store.index.cas.corrupt_for_test(&digest));
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
        let digest = store.index.images.read().unwrap()["redis"].files[0].1;
        assert!(store.index.cas.corrupt_bitflip_for_test(&digest));
        // Refcounts still coherent: the cheap audit passes…
        store.check_integrity().unwrap();
        // …the deep content audit does not.
        assert!(store.check_integrity_deep().is_err());
    }
}
