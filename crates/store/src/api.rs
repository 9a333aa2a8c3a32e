//! The store interface all five evaluated systems implement, and the
//! report types the experiment harness consumes.

use xpl_guestfs::{FileRecord, Vmi};
use xpl_pkg::{BaseImageAttrs, Catalog, ResolveError};
use xpl_simio::{Breakdown, SimDuration};

/// What a user asks the repository for.
///
/// Monolithic stores (Qcow2, Gzip, Mirage, Hemera) retrieve by `name`;
/// Expelliarmus assembles from `base` + `primary` + `user_data` and also
/// serves requests whose exact image was never uploaded (functional
/// retrieval), which the monolithic stores cannot.
#[derive(Clone)]
pub struct RetrieveRequest {
    pub name: String,
    pub base: BaseImageAttrs,
    /// Primary package names.
    pub primary: Vec<String>,
    /// User data to import.
    pub user_data: Vec<FileRecord>,
}

impl RetrieveRequest {
    /// The request that reproduces a previously published image.
    pub fn for_image(vmi: &Vmi, catalog: &Catalog) -> RetrieveRequest {
        RetrieveRequest {
            name: vmi.name.clone(),
            base: vmi.base.clone(),
            primary: vmi
                .primary
                .iter()
                .map(|&id| catalog.get(id).name.as_str().to_string())
                .collect(),
            user_data: vmi.user_data_files(),
        }
    }
}

/// Outcome of a publish.
#[derive(Clone, Debug, Default)]
pub struct PublishReport {
    pub image: String,
    /// Simulated wall time (Figure 4 series; Table II publish column).
    pub duration: SimDuration,
    pub breakdown: Breakdown,
    /// Unique bytes this publish added to the repository (materialized).
    pub bytes_added: u64,
    /// Packages exported (Expelliarmus) or files newly stored (Mirage /
    /// Hemera) — "units of new content".
    pub units_stored: usize,
    /// Semantic similarity against the master graph at upload time
    /// (Table II's SimG column; 0 for non-semantic stores).
    pub similarity: f64,
    /// Bytes dropped by replacing a previously published image of the
    /// same name (re-publish / upgrade); 0 on first-time publishes.
    pub bytes_freed: u64,
}

/// Outcome of a delete.
#[derive(Clone, Debug, Default)]
pub struct DeleteReport {
    pub image: String,
    /// Simulated wall time of the unlink + release work.
    pub duration: SimDuration,
    /// Bytes the repository shrank by (content no other image holds).
    pub bytes_freed: u64,
    /// Blobs / rows / entries physically removed.
    pub units_removed: usize,
}

/// Outcome of a retrieval.
#[derive(Clone, Debug, Default)]
pub struct RetrieveReport {
    pub image: String,
    /// Simulated wall time (Figure 5 series; Table II retrieval column).
    pub duration: SimDuration,
    /// Figure 5a's four bands for Expelliarmus; analogous phases for the
    /// baselines.
    pub breakdown: Breakdown,
    /// Bytes read from the repository (materialized).
    pub bytes_read: u64,
}

/// Outcome of a temperature-driven maintenance pass (codec tiering).
#[derive(Clone, Debug, Default)]
pub struct MaintainReport {
    /// Simulated wall time of the sweep.
    pub duration: SimDuration,
    /// Entries examined.
    pub scanned: usize,
    /// Entries re-encoded onto the hot (fast) codec.
    pub promoted: usize,
    /// Entries re-encoded back to the dense base codec.
    pub demoted: usize,
    /// Net change of the store's *reported* `repo_bytes` — nonzero only
    /// for stores whose footprint is the physical compressed size
    /// (Gzip); zero for CAS stores, whose ledger is logical bytes and
    /// therefore codec-invariant. The churn oracle shifts its expected
    /// size by exactly this much.
    pub bytes_delta: i64,
}

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// No such image / content in the repository.
    NotFound(String),
    /// Package resolution failed during assembly.
    Resolve(ResolveError),
    /// Integrity or format corruption.
    Corrupt(String),
    /// The request cannot be served by this store (e.g. functional
    /// retrieval from a monolithic store).
    Unsupported(String),
    /// The durable medium failed (WAL append, fsync, checkpoint): the
    /// mutation is applied in memory but not acknowledged as durable.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(what) => write!(f, "not found: {what}"),
            StoreError::Resolve(e) => write!(f, "resolve error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt: {what}"),
            StoreError::Unsupported(what) => write!(f, "unsupported: {what}"),
            StoreError::Io(what) => write!(f, "durable medium: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ResolveError> for StoreError {
    fn from(e: ResolveError) -> Self {
        StoreError::Resolve(e)
    }
}

impl From<xpl_persist::PersistError> for StoreError {
    fn from(e: xpl_persist::PersistError) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// The interface of every evaluated VMI repository system.
///
/// All operations take `&self`: a store is a shared, internally
/// synchronized service, not an exclusively owned value. Same-name
/// operations serialize on a per-image stripe (see `xpl_store::stripe`);
/// operations on distinct images proceed in parallel. The `Send + Sync`
/// bound lets trait objects cross the worker pool.
pub trait ImageStore: Send + Sync {
    /// Display name ("Qcow2", "Mirage", "Expelliarmus", …).
    fn name(&self) -> &'static str;

    /// Publish an image into the repository.
    fn publish(&self, catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError>;

    /// Retrieve (reassemble) an image.
    fn retrieve(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError>;

    /// Retrieve only disk bytes `[start, start+len)` of an image —
    /// clamped to the virtual disk size like a slice. The report's
    /// `bytes_read` is what the repository actually moved to serve the
    /// range, which is the figure of merit: a range-aware store reads a
    /// handful of compressed blocks or blob slices, while this default
    /// reassembles the whole image and slices it (correct for every
    /// store, but paying full retrieval cost — the baseline the blocked
    /// codec beats).
    fn retrieve_range(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
        start: u64,
        len: u64,
    ) -> Result<(Vec<u8>, RetrieveReport), StoreError> {
        let (vmi, report) = self.retrieve(catalog, request)?;
        let size = vmi.disk.virtual_size();
        let end = start.saturating_add(len).min(size);
        let start = start.min(end);
        let bytes = vmi
            .disk
            .read_at(start, (end - start) as usize)
            .map_err(|e| StoreError::Corrupt(format!("range read: {e}")))?;
        Ok((bytes, report))
    }

    /// Delete a published image, releasing repository content no other
    /// live image references. Content shared with other images survives
    /// (refcounts guard it); monolithic stores simply unlink the entry.
    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError>;

    /// Current repository footprint in materialized bytes (×1024 =
    /// nominal; the Figure 3 y-axis).
    fn repo_bytes(&self) -> u64;

    /// Audit internal bookkeeping: blob refcounts vs live manifests,
    /// index/entry coherence, size accounting. Cheap enough for the
    /// churn oracle to call after every simulated operation.
    fn check_integrity(&self) -> Result<(), String> {
        Ok(())
    }

    /// Everything [`ImageStore::check_integrity`] audits plus full
    /// content verification (re-hash every stored blob). Too expensive
    /// for the per-operation oracle; run at quiesce points and at the
    /// end of a replay.
    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()
    }

    /// Temperature-driven maintenance: re-encode hot content onto the
    /// fast codec and demote cooled content to the dense one, per the
    /// store's tier policy. Logical content and digests are pinned —
    /// only the in-memory representation (and, for physically-sized
    /// stores, `repo_bytes` by the returned `bytes_delta`) may change.
    /// Stores without codec tiers return the default (all-zero) report.
    fn maintain(&self) -> MaintainReport {
        MaintainReport::default()
    }

    /// Canonical fingerprints of this store's content-addressed
    /// sections, as `(section, fingerprint)` pairs in a fixed order —
    /// e.g. `[("packages", …), ("data", …)]` for Expelliarmus,
    /// `[("files", …)]` for Mirage/Hemera. Snapshot stores with no CAS
    /// return an empty list. The crash-recovery oracle compares these
    /// against a recovered durable backend's fingerprints, and CI
    /// diffs them between the durable and in-memory churn replays.
    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Attach an observability registry to this store's hot paths. The
    /// default is a no-op (a store with no instrumented substrate has
    /// nothing to report); CAS-backed stores forward to their
    /// [`ContentStore::attach_obs`](crate::cas::ContentStore::attach_obs)
    /// sections. Attachment is idempotent — first registry wins — and
    /// must never change simulated behaviour: reports and fingerprints
    /// are byte-identical with or without a registry attached.
    fn attach_obs(&self, _reg: &std::sync::Arc<xpl_obs::Registry>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_guestfs::FsTree;
    use xpl_pkg::{Arch, DpkgDb};

    #[test]
    fn request_for_image_captures_spec() {
        let mut catalog = Catalog::new();
        let redis = catalog.add(xpl_pkg::catalog::PackageSpec {
            name: "redis".into(),
            version: xpl_pkg::Version::parse("6.0"),
            arch: Arch::Amd64,
            section: xpl_pkg::meta::Section::Databases,
            essential: false,
            deb_size: 10,
            installed_size: 30,
            depends: vec![],
            manifest: Default::default(),
        });
        let mut vmi = Vmi::assemble(
            "img",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            FsTree::new(),
            DpkgDb::new(),
            vec![redis],
        );
        vmi.fs.add_file(FileRecord {
            path: xpl_util::IStr::new("/home/u/d"),
            size: 5,
            seed: 1,
            owner: xpl_guestfs::FileOwner::UserData,
        });
        let req = RetrieveRequest::for_image(&vmi, &catalog);
        assert_eq!(req.name, "img");
        assert_eq!(req.primary, vec!["redis"]);
        assert_eq!(req.user_data.len(), 1);
        assert_eq!(req.base, vmi.base);
    }
}
