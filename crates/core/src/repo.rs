//! The Expelliarmus repository.
//!
//! State layout mirrors Figure 2's "VMI database": a package store
//! (content-addressed `.deb` blobs + identity index), a user-data store,
//! the stored base images (one qcow2 per surviving base), the master
//! graphs, and a metadata database.
//!
//! # Concurrency model
//!
//! [`RepoState`] is no longer one big `&mut` value: each section is
//! independently lockable so an operation holds only the shards it
//! touches —
//!
//! * the package and user-data CAS are digest-sharded and internally
//!   synchronized (`xpl_store::cas`);
//! * `package_index`, `data_index`, `published` and `image_packages` are
//!   `RwLock`s held for map access only;
//! * `semantic` (stored bases + master graphs) is one `RwLock`, because
//!   base selection and master consolidation read and write them as a
//!   unit;
//! * the metadata database is a `Mutex` (row operations are short).
//!
//! Retrievals take only read guards and run concurrently with each
//! other and hold the `op_gate` in read mode, so a same-name delete or
//! upgrade-publish can never free CAS blobs out from under an in-flight
//! assembly. Publishes and deletes hold `op_gate` in write mode:
//! Algorithm 1 is order-sensitive (similarity scores, base selection and
//! master consolidation all depend on what is already stored), so
//! repository mutations serialize — which also keeps replayed traces
//! deterministic. Lock order: `op_gate` → `semantic` →
//! `package_index` → `data_index` → `published` → `image_packages` →
//! `db`; guards of later locks are never held while acquiring earlier
//! ones.

use std::sync::{Mutex, RwLock};

use xpl_guestfs::{FsTree, Vmi};
use xpl_metadb::{ColumnDef, Database, Schema, Value};
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
    pub installed_size: u64,
}

/// Stored user data of one image.
#[derive(Clone, Default)]
pub struct StoredData {
    pub files: Vec<xpl_guestfs::FileRecord>,
    pub digests: Vec<Digest>,
}

/// The semantic section of the repository: stored bases and their master
/// graphs. Selection (Algorithm 2) and consolidation (Algorithm 1 lines
/// 22–28) read and write these together, so they share one lock.
#[derive(Default)]
pub struct SemanticState {
    pub bases: Vec<StoredBase>,
    /// base id → master graph.
    pub masters: FxHashMap<String, MasterGraph>,
}

impl SemanticState {
    pub fn base_by_id(&self, id: &str) -> Option<&StoredBase> {
        self.bases.iter().find(|b| b.id == id)
    }

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
}

/// Internal repository state shared by the algorithm modules.
pub struct RepoState {
    pub env: SimEnv,
    pub mode: PublishMode,
    /// `.deb` blobs (digest-sharded, internally synchronized).
    pub packages: ContentStore,
    /// identity (`name=version/arch`) → blob + metadata.
    pub package_index: RwLock<FxHashMap<String, IndexedPackage>>,
    /// User-data blobs.
    pub data_store: ContentStore,
    /// image name → its user-data manifest.
    pub data_index: RwLock<FxHashMap<String, StoredData>>,
    /// Stored bases + master graphs.
    pub semantic: RwLock<SemanticState>,
    /// Metadata DB (charged against the repository device).
    pub db: Mutex<Database>,
    /// Image names published (for duplicate detection / stats).
    pub published: RwLock<Vec<String>>,
    /// image name → package blob digests its latest publish references.
    /// The churn oracle checks CAS refcounts against this exact map.
    pub image_packages: RwLock<FxHashMap<String, Vec<Digest>>>,
    /// The operation gate: publish/delete hold it in write mode
    /// (Algorithm 1 is order-sensitive, so mutations serialize — and a
    /// mutation can release CAS blobs, which must never happen under an
    /// in-flight retrieval); retrievals hold it in read mode and run
    /// concurrently with each other.
    pub op_gate: RwLock<()>,
}

impl RepoState {
    pub fn new(env: SimEnv, mode: PublishMode) -> Self {
        Self::with_durable(env, mode, None, None)
    }

    /// Repository whose package and user-data CAS write through to
    /// durable log-structured backends (see `xpl_persist`).
    pub fn with_durable(
        env: SimEnv,
        mode: PublishMode,
        packages: Option<std::sync::Arc<xpl_persist::DurableContentStore>>,
        data: Option<std::sync::Arc<xpl_persist::DurableContentStore>>,
    ) -> Self {
        let mut db = Database::on_device(std::sync::Arc::clone(&env.repo));
        db.create_table(Schema::new(
            "packages",
            vec![
                ColumnDef::indexed("identity"),
                ColumnDef::plain("digest"),
                ColumnDef::plain("deb_size"),
            ],
        ))
        .expect("fresh db");
        db.create_table(Schema::new(
            "bases",
            vec![
                ColumnDef::indexed("id"),
                ColumnDef::plain("attrs"),
                ColumnDef::plain("qcow_bytes"),
            ],
        ))
        .expect("fresh db");
        db.create_table(Schema::new(
            "images",
            vec![
                ColumnDef::indexed("name"),
                ColumnDef::plain("base_id"),
                ColumnDef::plain("similarity"),
            ],
        ))
        .expect("fresh db");
        let attach =
            |durable: Option<std::sync::Arc<xpl_persist::DurableContentStore>>| match durable {
                Some(d) => ContentStore::new_durable(std::sync::Arc::clone(&env.repo), d),
                None => ContentStore::new(std::sync::Arc::clone(&env.repo)),
            };
        RepoState {
            packages: attach(packages),
            data_store: attach(data),
            package_index: RwLock::new(FxHashMap::default()),
            data_index: RwLock::new(FxHashMap::default()),
            semantic: RwLock::new(SemanticState::default()),
            db: Mutex::new(db),
            published: RwLock::new(Vec::new()),
            image_packages: RwLock::new(FxHashMap::default()),
            op_gate: RwLock::new(()),
            env,
            mode,
        }
    }

    /// Release one image reference to a package blob. When the last
    /// reference drops, the blob, its identity index entries and its
    /// metadata rows go with it. Returns freed bytes.
    pub fn release_package_ref(&self, digest: &Digest) -> Result<u64, StoreError> {
        let freed = self
            .packages
            .release(digest)
            .map_err(|_| StoreError::Corrupt(format!("package blob {digest}")))?;
        if freed > 0 {
            // Linear scan over the index, but only on last-ref frees — the
            // cold path of delete/upgrade, never publish or retrieve.
            let identities: Vec<String> = {
                let index = self.package_index.read().unwrap();
                index
                    .iter()
                    .filter(|(_, p)| p.digest == *digest)
                    .map(|(identity, _)| identity.clone())
                    .collect()
            };
            for identity in identities {
                self.package_index.write().unwrap().remove(&identity);
                let mut db = self.db.lock().unwrap();
                if let Ok(rows) = db.find_by("packages", "identity", &Value::from(identity)) {
                    for row in rows {
                        let _ = db.delete("packages", row);
                    }
                }
            }
        }
        Ok(freed)
    }

    /// Close a publish/delete: commit both CAS sections (see
    /// [`ContentStore::committed`]). Without durable backends this is
    /// free.
    pub fn committed<T>(&self, outcome: Result<T, StoreError>) -> Result<T, StoreError> {
        self.data_store.committed(self.packages.committed(outcome))
    }

    /// Repository footprint: package blobs + data blobs + base qcow2s +
    /// metadata payload.
    pub fn repo_bytes(&self) -> u64 {
        self.packages.unique_bytes()
            + self.data_store.unique_bytes()
            + self.semantic.read().unwrap().qcow_bytes_total()
            + self.db.lock().unwrap().payload_bytes()
    }
}

/// The Expelliarmus repository (public API).
pub struct ExpelliarmusRepo {
    pub(crate) state: RepoState,
}

impl ExpelliarmusRepo {
    /// Standard (similarity-aware) repository.
    pub fn new(env: SimEnv) -> Self {
        ExpelliarmusRepo {
            state: RepoState::new(env, PublishMode::Expelliarmus),
        }
    }

    /// Variant used in Figure 4b's "Semantic" series: decomposes but
    /// exports every package regardless of repository contents.
    pub fn with_mode(env: SimEnv, mode: PublishMode) -> Self {
        ExpelliarmusRepo {
            state: RepoState::new(env, mode),
        }
    }

    /// Fully durable repository: the package and user-data CAS write
    /// through to `xpl-persist` log-structured stores, so a crash of
    /// the medium recovers (WAL replay over the manifest) to exactly
    /// the in-memory content state — checked op-for-op by the churn
    /// oracle's `Crash`/`Recover` handling.
    pub fn new_durable(
        env: SimEnv,
        packages: std::sync::Arc<xpl_persist::DurableContentStore>,
        data: std::sync::Arc<xpl_persist::DurableContentStore>,
    ) -> Self {
        ExpelliarmusRepo {
            state: RepoState::with_durable(
                env,
                PublishMode::Expelliarmus,
                Some(packages),
                Some(data),
            ),
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

    /// The delete itself. Caller holds the operation gate in write mode
    /// and commits on every outcome.
    fn delete_gated(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let env = self.state.env.clone();
        let t0 = env.clock.now();
        let before = self.state.repo_bytes();
        // One guard per probe (guards of `||` operands live to the end of
        // the statement — keep them from overlapping out of lock order).
        let in_packages = { self.state.image_packages.read().unwrap().contains_key(name) };
        let in_data = { self.state.data_index.read().unwrap().contains_key(name) };
        let in_published = {
            self.state
                .published
                .read()
                .unwrap()
                .iter()
                .any(|n| n == name)
        };
        let known = in_packages || in_data || in_published;
        if !known {
            return Err(StoreError::NotFound(name.to_string()));
        }
        let mut units = 0usize;
        let refs = self.state.image_packages.write().unwrap().remove(name);
        if let Some(refs) = refs {
            for digest in refs {
                if self.state.release_package_ref(&digest)? > 0 {
                    units += 1;
                }
            }
        }
        let data = self.state.data_index.write().unwrap().remove(name);
        if let Some(data) = data {
            for digest in &data.digests {
                let freed = self
                    .state
                    .data_store
                    .release(digest)
                    .map_err(|_| StoreError::Corrupt(format!("data blob {digest}")))?;
                if freed > 0 {
                    units += 1;
                }
            }
        }
        self.state.published.write().unwrap().retain(|n| n != name);
        {
            let mut db = self.state.db.lock().unwrap();
            if let Ok(rows) = db.find_by("images", "name", &Value::from(name)) {
                for row in rows {
                    let _ = db.delete("images", row);
                }
            }
        }
        // Stored bases and master graphs are shared substrate across all
        // published images; deletes keep them (Algorithm 1's consolidation
        // already bounds their number).
        Ok(DeleteReport {
            image: name.to_string(),
            duration: env.clock.since(t0),
            bytes_freed: before.saturating_sub(self.state.repo_bytes()),
            units_removed: units,
        })
    }

    pub fn base_count(&self) -> usize {
        self.state.semantic.read().unwrap().bases.len()
    }

    pub fn package_count(&self) -> usize {
        self.state.package_index.read().unwrap().len()
    }

    /// Snapshot of the master graphs (cloned out of the semantic lock).
    pub fn masters(&self) -> Vec<MasterGraph> {
        self.state
            .semantic
            .read()
            .unwrap()
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
        let sem = self.state.semantic.read().unwrap();
        if sem.masters.len() != sem.bases.len() {
            return Err(format!(
                "{} masters vs {} bases",
                sem.masters.len(),
                sem.bases.len()
            ));
        }
        for base in &sem.bases {
            let master = sem
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

impl ImageStore for ExpelliarmusRepo {
    fn name(&self) -> &'static str {
        "Expelliarmus"
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
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
        let _gate = self.state.op_gate.write().unwrap();
        self.state.committed(self.delete_gated(name))
    }

    fn repo_bytes(&self) -> u64 {
        self.state.repo_bytes()
    }

    fn check_integrity(&self) -> Result<(), String> {
        self.check_invariants()?;
        let st = &self.state;
        // Package CAS refcounts == live image references, exactly.
        let mut expected: FxHashMap<Digest, u32> = FxHashMap::default();
        for refs in st.image_packages.read().unwrap().values() {
            for d in refs {
                *expected.entry(*d).or_insert(0) += 1;
            }
        }
        st.packages
            .audit_refs(&expected)
            .map_err(|e| format!("package CAS: {e}"))?;
        for (identity, p) in st.package_index.read().unwrap().iter() {
            if !st.packages.contains(&p.digest) {
                return Err(format!("index entry {identity} points at a missing blob"));
            }
        }
        // Data CAS refcounts == live data manifests.
        let mut expected_data: FxHashMap<Digest, u32> = FxHashMap::default();
        for data in st.data_index.read().unwrap().values() {
            for d in &data.digests {
                *expected_data.entry(*d).or_insert(0) += 1;
            }
        }
        st.data_store
            .audit_refs(&expected_data)
            .map_err(|e| format!("data CAS: {e}"))?;
        {
            let data_index = st.data_index.read().unwrap();
            let published = st.published.read().unwrap();
            for name in data_index.keys() {
                if !published.iter().any(|n| n == name) {
                    return Err(format!("data manifest for unpublished image {name}"));
                }
            }
        }
        Ok(())
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
        // Take the gate in write mode: maintenance is a mutation of the
        // representation and must not race an in-flight retrieval.
        let _gate = self.state.op_gate.write().unwrap();
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
