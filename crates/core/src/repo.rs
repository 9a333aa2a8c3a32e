//! The Expelliarmus repository.
//!
//! State layout mirrors Figure 2's "VMI database": a package store
//! (content-addressed `.deb` blobs + identity index), a user-data store,
//! the stored base images (one qcow2 per surviving base), the master
//! graphs, and a metadata database.
//!
//! # Concurrency model
//!
//! One lock: `RepoState::catalog`, an `RwLock` over `RepoCatalog`.
//! The catalog is everything the repository knows about its content —
//! stored bases and master graphs, the package identity index, one
//! `PublishedImage` entry per live image, and the metadata database.
//!
//! * Publish, delete and maintain take the write side once, for the
//!   whole operation. Algorithm 1 is order-sensitive (similarity scores,
//!   base selection and master consolidation all depend on what is
//!   already stored), so mutations serialize — which also keeps replayed
//!   traces deterministic.
//! * Retrieve, `retrieve_range` and every observer (`repo_bytes`,
//!   `check_integrity`, `check_invariants`, `masters`, the counts) take
//!   the read side once. Any number run concurrently; none can see a
//!   half-applied mutation, and a mutation can never free CAS blobs out
//!   from under an in-flight assembly.
//!
//! The guard's target travels down the call tree as `&RepoCatalog` /
//! `&mut RepoCatalog`; no function re-acquires the lock it was called
//! under. The two content stores (package and user-data CAS) sit outside
//! the lock: they are digest-sharded and internally synchronized
//! (`xpl_store::cas`), and every call that changes them is made by an
//! operation holding the catalog in write mode.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use xpl_guestfs::{FsTree, Vmi};
use xpl_metadb::{ColumnDef, Database, DbError, RowId, Schema, Value};
use xpl_pkg::{BaseImageAttrs, Catalog, DpkgDb, PackageId};
use xpl_semgraph::{MasterGraph, SemanticGraph};
use xpl_simio::SimEnv;
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, PublishReport, RetrieveReport, RetrieveRequest,
    StoreError,
};
use xpl_util::{Digest, FxHashMap};

use crate::publish::PublishMode;

/// A stored base image: the serialized qcow2 (accounted by size) plus the
/// semantic snapshot needed for reassembly.
pub struct StoredBase {
    pub id: String,
    pub attrs: BaseImageAttrs,
    /// Filesystem of the reset base image.
    pub fs: FsTree,
    /// Installed packages of the base.
    pub pkgdb: DpkgDb,
    /// Size of the stored qcow2, materialized bytes.
    pub qcow_bytes: u64,
    /// Base-image subgraph.
    pub base_graph: SemanticGraph,
}

/// An exported package in the index.
#[derive(Clone)]
pub struct IndexedPackage {
    pub digest: Digest,
    pub package: PackageId,
}

/// Stored user data of one image.
#[derive(Clone, Default)]
pub struct StoredData {
    pub files: Vec<xpl_guestfs::FileRecord>,
    pub digests: Vec<Digest>,
}

/// What the repository holds for one published image: one CAS reference
/// per entry of `packages` and of `data.digests`, taken by its latest
/// publish and released together when the image is deleted or replaced.
pub(crate) struct PublishedImage {
    /// Package blobs the image's primary subgraph touches.
    pub(crate) packages: Vec<Digest>,
    /// Its user-data manifest.
    pub(crate) data: StoredData,
}

/// The semantic section of the repository: stored bases and their master
/// graphs. Selection (Algorithm 2) and consolidation (Algorithm 1 lines
/// 22–28) read and write these together.
#[derive(Default)]
pub struct SemanticState {
    pub bases: Vec<StoredBase>,
    /// base id → master graph.
    pub masters: FxHashMap<String, MasterGraph>,
}

impl SemanticState {
    pub fn bases_with_attrs(&self, key: &str) -> Vec<&StoredBase> {
        self.bases.iter().filter(|b| b.attrs.key() == key).collect()
    }

    pub fn remove_base(&mut self, id: &str) -> Option<StoredBase> {
        let pos = self.bases.iter().position(|b| b.id == id)?;
        self.masters.remove(id);
        Some(self.bases.remove(pos))
    }

    pub fn qcow_bytes_total(&self) -> u64 {
        self.bases.iter().map(|b| b.qcow_bytes).sum()
    }

    /// See [`ExpelliarmusRepo::check_invariants`].
    fn check_invariants(&self) -> Result<(), String> {
        if self.masters.len() != self.bases.len() {
            return Err(format!(
                "{} masters vs {} bases",
                self.masters.len(),
                self.bases.len()
            ));
        }
        for base in &self.bases {
            let master = self
                .masters
                .get(&base.id)
                .ok_or_else(|| format!("base {} has no master", base.id))?;
            let mgraph = master.as_graph();
            let comp = xpl_semgraph::compatibility(&base.base_graph, &mgraph);
            if comp != 1.0 {
                return Err(format!(
                    "master of {} incompatible with its base: {comp}",
                    base.id
                ));
            }
        }
        Ok(())
    }
}

/// Everything the repository knows about its content; lives behind
/// `RepoState::catalog`.
pub(crate) struct RepoCatalog {
    /// Stored bases + master graphs.
    pub(crate) semantic: SemanticState,
    /// identity (`name=version/arch`) → blob + metadata.
    pub(crate) package_index: FxHashMap<String, IndexedPackage>,
    /// image name → what its latest publish stored. The integrity audit
    /// checks both CAS sections' refcounts against exactly this map.
    pub(crate) images: FxHashMap<String, PublishedImage>,
    /// Metadata DB (charged against the repository device).
    db: Database,
}

/// The metadb's schema is constant, so these never fire; they keep a
/// schema edit from silently shrinking `repo_bytes`.
fn metadb_error(e: DbError) -> StoreError {
    StoreError::Corrupt(format!("metadb: {e}"))
}

impl RepoCatalog {
    fn new(env: &SimEnv) -> Self {
        let mut db = Database::on_device(Arc::clone(&env.repo));
        for (table, key, columns) in [
            ("packages", "identity", ["digest", "deb_size"]),
            ("bases", "id", ["attrs", "qcow_bytes"]),
            ("images", "name", ["base_id", "similarity"]),
        ] {
            let mut defs = vec![ColumnDef::indexed(key)];
            defs.extend(columns.map(ColumnDef::plain));
            db.create_table(Schema::new(table, defs)).expect("fresh db");
        }
        RepoCatalog {
            semantic: SemanticState::default(),
            package_index: FxHashMap::default(),
            images: FxHashMap::default(),
            db,
        }
    }

    pub(crate) fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, StoreError> {
        self.db.insert(table, row).map_err(metadb_error)
    }

    /// Delete the rows of `table` whose `column` is `value`, except `keep`.
    pub(crate) fn delete_rows(
        &mut self,
        table: &str,
        column: &str,
        value: &str,
        keep: Option<RowId>,
    ) -> Result<(), StoreError> {
        let rows = self.db.find_by(table, column, &Value::from(value));
        for row in rows.map_err(metadb_error)? {
            if Some(row) != keep {
                self.db.delete(table, row).map_err(metadb_error)?;
            }
        }
        Ok(())
    }
}

/// Internal repository state shared by the algorithm modules.
pub struct RepoState {
    pub env: SimEnv,
    pub mode: PublishMode,
    /// `.deb` blobs (digest-sharded, internally synchronized).
    pub packages: ContentStore,
    /// User-data blobs.
    pub data_store: ContentStore,
    /// The one lock; see the module docs.
    catalog: RwLock<RepoCatalog>,
}

impl RepoState {
    /// Repository whose package and user-data CAS write through to
    /// durable log-structured backends (see `xpl_persist`) where given.
    fn new(
        env: SimEnv,
        mode: PublishMode,
        packages: Option<Arc<xpl_persist::DurableContentStore>>,
        data: Option<Arc<xpl_persist::DurableContentStore>>,
    ) -> Self {
        let attach = |durable: Option<Arc<xpl_persist::DurableContentStore>>| match durable {
            Some(d) => ContentStore::new_durable(Arc::clone(&env.repo), d),
            None => ContentStore::new(Arc::clone(&env.repo)),
        };
        RepoState {
            packages: attach(packages),
            data_store: attach(data),
            catalog: RwLock::new(RepoCatalog::new(&env)),
            env,
            mode,
        }
    }

    /// The catalog, shared. A poisoned lock means a mutation panicked
    /// half-way; nothing it left behind can be trusted.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, RepoCatalog> {
        self.catalog.read().expect("catalog lock poisoned")
    }

    /// The catalog, exclusive: the whole of one publish/delete/maintain.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, RepoCatalog> {
        self.catalog.write().expect("catalog lock poisoned")
    }

    /// Release one image reference to a package blob. When the last
    /// reference drops, the blob, its identity index entries and its
    /// metadata rows go with it. Returns freed bytes.
    fn release_package_ref(
        &self,
        cat: &mut RepoCatalog,
        digest: &Digest,
    ) -> Result<u64, StoreError> {
        let freed = self
            .packages
            .release(digest)
            .map_err(|_| StoreError::Corrupt(format!("package blob {digest}")))?;
        if freed > 0 {
            // Linear scan over the index, but only on last-ref frees — the
            // cold path of delete/upgrade, never publish or retrieve.
            let mut gone = Vec::new();
            cat.package_index.retain(|identity, p| {
                let keep = p.digest != *digest;
                if !keep {
                    gone.push(identity.clone());
                }
                keep
            });
            for identity in gone {
                cat.delete_rows("packages", "identity", &identity, None)?;
            }
        }
        Ok(freed)
    }

    /// Release every CAS reference `image` holds — a deleted image, or
    /// the generation a re-publish replaced. Returns how many blobs that
    /// freed.
    pub(crate) fn release_image(
        &self,
        cat: &mut RepoCatalog,
        image: PublishedImage,
    ) -> Result<usize, StoreError> {
        let mut units = 0usize;
        for digest in &image.packages {
            if self.release_package_ref(cat, digest)? > 0 {
                units += 1;
            }
        }
        for digest in &image.data.digests {
            let freed = self
                .data_store
                .release(digest)
                .map_err(|_| StoreError::Corrupt(format!("data blob {digest}")))?;
            if freed > 0 {
                units += 1;
            }
        }
        Ok(units)
    }

    /// Close a publish/delete: commit both CAS sections (see
    /// [`ContentStore::committed`]). Without durable backends this is
    /// free.
    pub fn committed<T>(&self, outcome: Result<T, StoreError>) -> Result<T, StoreError> {
        self.data_store.committed(self.packages.committed(outcome))
    }

    /// Repository footprint: package blobs + data blobs + base qcow2s +
    /// metadata payload.
    pub(crate) fn repo_bytes(&self, cat: &RepoCatalog) -> u64 {
        self.packages.unique_bytes()
            + self.data_store.unique_bytes()
            + cat.semantic.qcow_bytes_total()
            + cat.db.payload_bytes()
    }
}

/// The Expelliarmus repository (public API).
pub struct ExpelliarmusRepo {
    pub(crate) state: RepoState,
}

impl ExpelliarmusRepo {
    /// Standard (similarity-aware) repository.
    pub fn new(env: SimEnv) -> Self {
        Self::with_mode(env, PublishMode::Expelliarmus)
    }

    /// Variant used in Figure 4b's "Semantic" series: decomposes but
    /// exports every package regardless of repository contents.
    pub fn with_mode(env: SimEnv, mode: PublishMode) -> Self {
        ExpelliarmusRepo {
            state: RepoState::new(env, mode, None, None),
        }
    }

    /// Fully durable repository: the package and user-data CAS write
    /// through to `xpl-persist` log-structured stores, so a crash of
    /// the medium recovers (WAL replay over the manifest) to exactly
    /// the in-memory content state — checked op-for-op by the churn
    /// oracle's `Crash`/`Recover` handling.
    pub fn new_durable(
        env: SimEnv,
        packages: Arc<xpl_persist::DurableContentStore>,
        data: Arc<xpl_persist::DurableContentStore>,
    ) -> Self {
        ExpelliarmusRepo {
            state: RepoState::new(env, PublishMode::Expelliarmus, Some(packages), Some(data)),
        }
    }

    /// Builder: select the codec tier of both content-addressed
    /// sections (package blobs and user-data blobs). The repository's
    /// size ledger and fingerprints are logical, so they are
    /// codec-invariant; the tier changes only the in-memory
    /// representation and the real CPU of (de)compression.
    pub fn with_tier(mut self, tier: xpl_store::TierPolicy) -> Self {
        self.state.packages = self.state.packages.with_tier(tier);
        self.state.data_store = self.state.data_store.with_tier(tier);
        self
    }

    /// The delete itself. Caller holds the catalog in write mode and
    /// commits on every outcome.
    fn delete_image(&self, cat: &mut RepoCatalog, name: &str) -> Result<DeleteReport, StoreError> {
        let st = &self.state;
        let t0 = st.env.clock.now();
        let before = st.repo_bytes(cat);
        let image = cat
            .images
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let units = st.release_image(cat, image)?;
        cat.delete_rows("images", "name", name, None)?;
        // Stored bases and master graphs are shared substrate across all
        // published images; deletes keep them (Algorithm 1's consolidation
        // already bounds their number).
        Ok(DeleteReport {
            image: name.to_string(),
            duration: st.env.clock.since(t0),
            bytes_freed: before.saturating_sub(st.repo_bytes(cat)),
            units_removed: units,
        })
    }

    pub fn base_count(&self) -> usize {
        self.state.read().semantic.bases.len()
    }

    pub fn package_count(&self) -> usize {
        self.state.read().package_index.len()
    }

    /// Snapshot of the master graphs (cloned out of the catalog lock).
    pub fn masters(&self) -> Vec<MasterGraph> {
        self.state
            .read()
            .semantic
            .masters
            .values()
            .cloned()
            .collect()
    }

    pub fn env(&self) -> &SimEnv {
        &self.state.env
    }

    /// Repository invariants (exercised by integration tests):
    /// 1. exactly one master graph per stored base;
    /// 2. every master's members' packages are compatible with its base
    ///    (compatibility = 1 by §III-H);
    /// 3. no two stored bases share the same attribute quadruple *and*
    ///    mutually compatible masters (the selection algorithm must have
    ///    consolidated them).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.state.read().semantic.check_invariants()
    }
}

impl ImageStore for ExpelliarmusRepo {
    fn name(&self) -> &'static str {
        "Expelliarmus"
    }

    fn attach_obs(&self, reg: &Arc<xpl_obs::Registry>) {
        // Both shards share one registry: their `cas.*` counters resolve
        // to the same metric names, so the snapshot reports the
        // repository-wide aggregate (relaxed adds commute).
        self.state.packages.attach_obs(reg);
        self.state.data_store.attach_obs(reg);
    }

    fn publish(&self, catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        crate::publish::publish(&self.state, catalog, vmi)
    }

    fn retrieve(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        crate::retrieve::retrieve(&self.state, catalog, request)
    }

    fn retrieve_range(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
        start: u64,
        len: u64,
    ) -> Result<(Vec<u8>, RetrieveReport), StoreError> {
        crate::retrieve::retrieve_range(&self.state, catalog, request, start, len)
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let mut cat = self.state.write();
        self.state.committed(self.delete_image(&mut cat, name))
    }

    fn repo_bytes(&self) -> u64 {
        self.state.repo_bytes(&self.state.read())
    }

    fn check_integrity(&self) -> Result<(), String> {
        let st = &self.state;
        let cat = st.read();
        cat.semantic.check_invariants()?;
        // CAS refcounts == live image references, exactly, in both
        // sections.
        let mut expected: FxHashMap<Digest, u32> = FxHashMap::default();
        let mut expected_data: FxHashMap<Digest, u32> = FxHashMap::default();
        for image in cat.images.values() {
            for d in &image.packages {
                *expected.entry(*d).or_insert(0) += 1;
            }
            for d in &image.data.digests {
                *expected_data.entry(*d).or_insert(0) += 1;
            }
        }
        st.packages
            .audit_refs(&expected)
            .map_err(|e| format!("package CAS: {e}"))?;
        for (identity, p) in &cat.package_index {
            if !st.packages.contains(&p.digest) {
                return Err(format!("index entry {identity} points at a missing blob"));
            }
        }
        st.data_store
            .audit_refs(&expected_data)
            .map_err(|e| format!("data CAS: {e}"))
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()?;
        self.state
            .packages
            .check_integrity(true)
            .map_err(|e| format!("package CAS content: {e}"))?;
        self.state
            .data_store
            .check_integrity(true)
            .map_err(|e| format!("data CAS content: {e}"))
    }

    fn maintain(&self) -> xpl_store::MaintainReport {
        // Write mode: maintenance is a mutation of the representation and
        // must not race an in-flight retrieval.
        let _cat = self.state.write();
        let t0 = self.state.env.clock.now();
        let pkgs = self.state.packages.maintain();
        let data = self.state.data_store.maintain();
        xpl_store::MaintainReport {
            duration: self.state.env.clock.since(t0),
            scanned: pkgs.scanned + data.scanned,
            promoted: pkgs.promoted + data.promoted,
            demoted: pkgs.demoted + data.demoted,
            bytes_delta: 0,
        }
    }

    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        vec![
            (
                "packages".to_string(),
                self.state.packages.state_fingerprint(),
            ),
            (
                "data".to_string(),
                self.state.data_store.state_fingerprint(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    #[test]
    fn fresh_repo_is_empty() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        assert_eq!(repo.repo_bytes(), 0);
        assert_eq!(repo.base_count(), 0);
        assert_eq!(repo.package_count(), 0);
        repo.check_invariants().unwrap();
    }
}
