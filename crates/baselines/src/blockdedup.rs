//! Block-level deduplication stores (related-work baselines).
//!
//! Jin & Miller (SYSTOR '09) showed fixed-size block dedup detects up to
//! 70 % identical content between VM images; Liquid and Crab build systems
//! on the same principle. These stores chunk the *serialized image stream*
//! (fixed-size or Rabin CDC) and dedup chunks globally — the ablation
//! benches compare them against file- and semantic-level management.

use std::sync::RwLock;

use crate::snapshot::VmiSnapshot;
use xpl_chunking::{fixed::chunk_fixed, rabin, ChunkSpan};
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_simio::SimEnv;
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, NameLocks, PublishReport, RetrieveReport,
    RetrieveRequest, StoreError,
};
use xpl_util::{Digest, FxHashMap};

enum Chunker {
    Fixed { block: usize },
    Cdc { params: rabin::CdcParams },
}

impl Chunker {
    fn spans(&self, data: &[u8]) -> Vec<ChunkSpan> {
        match self {
            Chunker::Fixed { block } => chunk_fixed(data, *block),
            Chunker::Cdc { params } => rabin::chunk_cdc(data, *params),
        }
    }
}

struct Recipe {
    chunks: Vec<Digest>,
    total_len: u64,
    snapshot: VmiSnapshot,
}

/// Generic chunk-dedup store.
///
/// Concurrency: chunks live in the digest-sharded content store; the
/// recipe index is a `RwLock` and same-name operations serialize on a
/// per-image stripe, so distinct images chunk and publish in parallel.
pub(crate) struct BlockDedupStore {
    env: SimEnv,
    label: &'static str,
    chunker: Chunker,
    cas: ContentStore,
    recipes: RwLock<FxHashMap<String, Recipe>>,
    names: NameLocks,
}

/// Fixed-size block dedup (Jin & Miller's preferred configuration).
pub struct FixedBlockDedupStore(BlockDedupStore);
/// Content-defined (Rabin) chunk dedup.
pub struct CdcDedupStore(BlockDedupStore);

impl FixedBlockDedupStore {
    /// `block_real` is the materialized block size (e.g. 4096 = 4 MB
    /// nominal).
    pub fn new(env: SimEnv, block_real: usize) -> Self {
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        FixedBlockDedupStore(BlockDedupStore {
            env,
            label: "BlockDedup(fixed)",
            chunker: Chunker::Fixed { block: block_real },
            cas,
            recipes: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
        })
    }

    pub fn dedup_factor(&self) -> f64 {
        self.0.dedup_factor()
    }
}

impl CdcDedupStore {
    pub fn new(env: SimEnv, avg_real: usize) -> Self {
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        CdcDedupStore(BlockDedupStore {
            env,
            label: "BlockDedup(cdc)",
            chunker: Chunker::Cdc {
                params: rabin::CdcParams::with_avg(avg_real),
            },
            cas,
            recipes: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
        })
    }

    pub fn dedup_factor(&self) -> f64 {
        self.0.dedup_factor()
    }
}

impl BlockDedupStore {
    fn recipe_overhead(entries: u64) -> u64 {
        (entries * 40).div_ceil(xpl_util::SCALE_FACTOR)
    }

    fn total_entries(&self) -> u64 {
        self.recipes
            .read()
            .unwrap()
            .values()
            .map(|r| r.chunks.len() as u64)
            .sum()
    }

    /// Drop one recipe's chunk references; returns (freed bytes, blobs).
    fn release_recipe(&self, recipe: &Recipe) -> Result<(u64, usize), StoreError> {
        let mut freed = 0u64;
        let mut blobs = 0usize;
        for digest in &recipe.chunks {
            let f = self
                .cas
                .release(digest)
                .map_err(|_| StoreError::Corrupt(format!("release chunk {digest}")))?;
            if f > 0 {
                freed += f;
                blobs += 1;
            }
        }
        Ok((freed, blobs))
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _name_guard = self.names.lock(name);
        let t0 = self.env.clock.now();
        let entries_before = self.total_entries();
        let recipe = self
            .recipes
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let (freed_content, blobs) = self.release_recipe(&recipe)?;
        self.env.repo.charge_db_write(1);
        let overhead_freed = Self::recipe_overhead(entries_before)
            .saturating_sub(Self::recipe_overhead(self.total_entries()));
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: freed_content + overhead_freed,
            units_removed: blobs,
        })
    }

    fn check_integrity(&self) -> Result<(), String> {
        let mut expected: FxHashMap<Digest, u32> = FxHashMap::default();
        for r in self.recipes.read().unwrap().values() {
            for digest in &r.chunks {
                *expected.entry(*digest).or_insert(0) += 1;
            }
        }
        self.cas
            .audit_refs(&expected)
            .map_err(|e| format!("{}: {e}", self.label))
    }

    fn dedup_factor(&self) -> f64 {
        let logical: u64 = self
            .recipes
            .read()
            .unwrap()
            .values()
            .map(|r| r.total_len)
            .sum();
        if self.cas.unique_bytes() == 0 {
            1.0
        } else {
            logical as f64 / self.cas.unique_bytes() as f64
        }
    }

    fn publish(&self, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };
        // Block dedup reads the *device address space* (unallocated ranges
        // read as zeros and dedup to a single zero block), not a
        // serialized file format — allocation-stable offsets are what make
        // fixed-size chunking effective on VM images.
        let data = &vmi
            .disk
            .read_at(0, vmi.disk.virtual_size() as usize)
            .map_err(|e| StoreError::Corrupt(format!("raw read: {e}")))?;
        self.env.local.charge_read(data.len() as u64);
        let spans = self.chunker.spans(data);
        let mut chunks = Vec::with_capacity(spans.len());
        let mut new_chunks = 0usize;
        let mut added_content = 0u64;
        for s in &spans {
            let chunk = &data[s.offset..s.offset + s.len];
            let (digest, new) = self.cas.put(chunk);
            if new {
                new_chunks += 1;
                added_content += chunk.len() as u64;
            }
            chunks.push(digest);
        }
        report.units_stored = new_chunks;
        let entries_before = self.total_entries();
        let old = self.recipes.write().unwrap().insert(
            vmi.name.clone(),
            Recipe {
                chunks,
                total_len: data.len() as u64,
                snapshot: VmiSnapshot::of(vmi),
            },
        );
        // Re-publish: release the replaced recipe after the new one holds
        // its chunk references.
        let freed_content = match &old {
            Some(old) => self.release_recipe(old)?.0,
            None => 0,
        };
        let (oa, ob) = (
            Self::recipe_overhead(self.total_entries()),
            Self::recipe_overhead(entries_before),
        );
        report.bytes_added = added_content + oa.saturating_sub(ob);
        report.bytes_freed = freed_content + ob.saturating_sub(oa);
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    fn retrieve(&self, request: &RetrieveRequest) -> Result<(Vmi, RetrieveReport), StoreError> {
        let t0 = self.env.clock.now();
        let recipes = self.recipes.read().unwrap();
        let recipe = recipes
            .get(&request.name)
            .ok_or_else(|| StoreError::NotFound(request.name.clone()))?;
        let mut report = RetrieveReport {
            image: request.name.clone(),
            ..Default::default()
        };
        let reads_before = self.env.repo.stats().bytes_read;
        let mut reassembled = Vec::with_capacity(recipe.total_len as usize);
        for digest in &recipe.chunks {
            let chunk = self
                .cas
                .get(digest)
                .map_err(|_| StoreError::Corrupt(format!("chunk {digest}")))?;
            reassembled.extend_from_slice(&chunk);
        }
        if reassembled.len() as u64 != recipe.total_len {
            return Err(StoreError::Corrupt("reassembled length mismatch".into()));
        }
        self.env.local.charge_write(reassembled.len() as u64);
        // The returned disk is the reassembled device, kept sparse. No
        // allocation map was stored, so an all-zero cluster the published
        // disk had allocated comes back unmapped: reads are identical,
        // `serialize()` and `disk_bytes()` may be smaller.
        let disk = xpl_vdisk::QcowImage::from_raw(&reassembled);
        let vmi = recipe.snapshot.restore_with(disk);
        report.bytes_read = self.env.repo.stats().bytes_read - reads_before;
        report.duration = self.env.clock.since(t0);
        Ok((vmi, report))
    }

    fn repo_bytes(&self) -> u64 {
        // Recipe overhead: ≈40 nominal bytes per chunk reference.
        self.cas.unique_bytes() + Self::recipe_overhead(self.total_entries())
    }
}

macro_rules! delegate_store {
    ($ty:ty) => {
        impl ImageStore for $ty {
            fn name(&self) -> &'static str {
                self.0.label
            }
            fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
                self.0.cas.attach_obs(reg);
            }
            fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
                self.0.publish(vmi)
            }
            fn retrieve(
                &self,
                _catalog: &Catalog,
                request: &RetrieveRequest,
            ) -> Result<(Vmi, RetrieveReport), StoreError> {
                self.0.retrieve(request)
            }
            fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
                self.0.delete(name)
            }
            fn repo_bytes(&self) -> u64 {
                self.0.repo_bytes()
            }
            fn check_integrity(&self) -> Result<(), String> {
                self.0.check_integrity()
            }
            fn check_integrity_deep(&self) -> Result<(), String> {
                self.0.check_integrity()?;
                self.0
                    .cas
                    .check_integrity(true)
                    .map_err(|e| format!("{} content: {e}", self.0.label))
            }
        }
    };
}

delegate_store!(FixedBlockDedupStore);
delegate_store!(CdcDedupStore);

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    #[test]
    fn identical_images_dedup_nearly_fully() {
        let w = World::small();
        let store = FixedBlockDedupStore::new(w.env(), 256);
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        let after_one = store.repo_bytes();
        // Same content under a different name.
        let mut again = redis.clone();
        again.name = "redis-copy".into();
        again.rebuild_disk();
        store.publish(&w.catalog, &again).unwrap();
        let growth = store.repo_bytes() - after_one;
        assert!(growth < after_one / 5, "grew {growth} of {after_one}");
        assert!(store.dedup_factor() > 1.5);
    }

    #[test]
    fn similar_images_share_blocks() {
        let w = World::small();
        let store = FixedBlockDedupStore::new(w.env(), 256);
        store.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let after_mini = store.repo_bytes();
        store.publish(&w.catalog, &w.build_image("redis")).unwrap();
        let growth = store.repo_bytes() - after_mini;
        assert!(
            growth < after_mini,
            "shared base should dedup at block level: grew {growth} of {after_mini}"
        );
    }

    #[test]
    fn cdc_roundtrip() {
        let w = World::small();
        let store = CdcDedupStore::new(w.env(), 512);
        let lamp = w.build_image("lamp");
        store.publish(&w.catalog, &lamp).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&lamp, &w.catalog);
        let (got, _) = store.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            lamp.installed_package_set(&w.catalog)
        );
    }

    #[test]
    fn fixed_roundtrip() {
        let w = World::small();
        let store = FixedBlockDedupStore::new(w.env(), 128);
        let nginx = w.build_image("nginx");
        store.publish(&w.catalog, &nginx).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&nginx, &w.catalog);
        let (got, report) = store.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(got.mounted_bytes(), nginx.mounted_bytes());
        assert!(report.bytes_read > 0);
    }
}
