//! Block-level deduplication stores (related-work baselines).
//!
//! Jin & Miller (SYSTOR '09) showed fixed-size block dedup detects up to
//! 70 % identical content between VM images; Liquid and Crab build systems
//! on the same principle. One store type chunks the image's *device
//! address space* (fixed-size or Rabin CDC, picked by its const
//! parameter) and dedups chunks globally — the ablation benches compare
//! it against file- and semantic-level management.

use crate::refindex::{RefIndex, Refs};
use crate::snapshot::VmiSnapshot;
use xpl_chunking::{fixed::chunk_fixed, rabin, ChunkSpan};
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_simio::SimEnv;
use xpl_store::{
    ContentStore, DeleteReport, ImageStore, NameLocks, PublishReport, RetrieveReport,
    RetrieveRequest, StoreError,
};
use xpl_util::Digest;

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

impl Refs for Recipe {
    fn ref_count(&self) -> usize {
        self.chunks.len()
    }

    fn refs(&self) -> impl Iterator<Item = &Digest> {
        self.chunks.iter()
    }
}

/// Chunk-dedup store over the image's device address space: fixed-size
/// blocks (`CDC = false`, [`FixedBlockDedupStore`]) or Rabin
/// content-defined chunks ([`CdcDedupStore`]).
///
/// Concurrency: chunks live in the digest-sharded content store; the
/// recipe index is a `RwLock` and same-name operations serialize on a
/// per-image stripe, so distinct images chunk and publish in parallel.
pub struct BlockDedupStore<const CDC: bool> {
    env: SimEnv,
    chunker: Chunker,
    /// Recipes over the chunk CAS: ≈40 nominal bytes per chunk reference.
    index: RefIndex<Recipe>,
    names: NameLocks,
}

/// Fixed-size block dedup (Jin & Miller's preferred configuration).
pub type FixedBlockDedupStore = BlockDedupStore<false>;
/// Content-defined (Rabin) chunk dedup.
pub type CdcDedupStore = BlockDedupStore<true>;

impl<const CDC: bool> BlockDedupStore<CDC> {
    const LABEL: &'static str = if CDC {
        "BlockDedup(cdc)"
    } else {
        "BlockDedup(fixed)"
    };

    /// `chunk_real` is the materialized block size (e.g. 4096 = 4 MB
    /// nominal), or for CDC the average chunk size, a power of two.
    pub fn new(env: SimEnv, chunk_real: usize) -> Self {
        let chunker = if CDC {
            Chunker::Cdc {
                params: rabin::CdcParams::with_avg(chunk_real),
            }
        } else {
            Chunker::Fixed { block: chunk_real }
        };
        let cas = ContentStore::new(std::sync::Arc::clone(&env.repo));
        BlockDedupStore {
            env,
            chunker,
            index: RefIndex::new(cas, 40),
            names: NameLocks::new(),
        }
    }

    /// Logical image bytes per unique stored chunk byte.
    pub fn dedup_factor(&self) -> f64 {
        let logical: u64 = self
            .index
            .images
            .read()
            .unwrap()
            .values()
            .map(|r| r.total_len)
            .sum();
        let unique = self.index.cas.unique_bytes();
        if unique == 0 {
            1.0
        } else {
            logical as f64 / unique as f64
        }
    }
}

impl<const CDC: bool> ImageStore for BlockDedupStore<CDC> {
    fn name(&self) -> &'static str {
        Self::LABEL
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
        self.index.cas.attach_obs(reg);
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
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
            let (digest, new) = self.index.cas.put(chunk);
            if new {
                new_chunks += 1;
                added_content += chunk.len() as u64;
            }
            chunks.push(digest);
        }
        report.units_stored = new_chunks;
        let recipe = Recipe {
            chunks,
            total_len: data.len() as u64,
            snapshot: VmiSnapshot::of(vmi),
        };
        self.index
            .insert(&vmi.name, recipe, added_content, &mut report)?;
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    fn retrieve(
        &self,
        _catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        let t0 = self.env.clock.now();
        let recipes = self.index.images.read().unwrap();
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
                .index
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

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _name_guard = self.names.lock(name);
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

    fn repo_bytes(&self) -> u64 {
        self.index.repo_bytes()
    }

    fn check_integrity(&self) -> Result<(), String> {
        self.index.audit(Self::LABEL, false)
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.index.audit(Self::LABEL, true)
    }
}

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
