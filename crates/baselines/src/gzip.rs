//! The Qcow2 + Gzip baseline: each serialized image compressed whole.
//!
//! Compression is *real* (our DEFLATE over the actual image stream), so
//! Figure 3's Gzip ratios come out of the compressor, not a constant.
//!
//! Each member is a *blocked* container (`xpl_compress::blocked`):
//! independently-compressed 64 KiB blocks plus a CRC-checked index, which
//! makes decompression parallel and lets [`ImageStore::retrieve_range`]
//! serve a disk byte range by inflating only the blocks the range's
//! clusters live in. The name keeps the paper's "Qcow2 + Gzip" label;
//! the blocks are raw DEFLATE (or LZ4 on the hot tier), not gzip framing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::costs;
use crate::snapshot::VmiSnapshot;
use xpl_compress::InnerCodec;
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_simio::SimEnv;
use xpl_store::{
    BlobCodec, DeleteReport, ImageStore, MaintainReport, NameLocks, PublishReport, RetrieveReport,
    RetrieveRequest, StoreError, TierPolicy,
};
use xpl_util::FxHashMap;

struct Entry {
    compressed: Vec<u8>,
    raw_len: u64,
    /// Inner codec of the blocked member; maintenance re-encodes it
    /// when the entry's tier changes.
    codec: InnerCodec,
    /// Retrievals since the last maintenance sweep.
    reads: AtomicU64,
    snapshot: VmiSnapshot,
}

/// Map a store-level tier codec onto the container's inner codec; the
/// Gzip baseline always compresses, so `Raw` means the dense default.
fn inner_of(codec: BlobCodec) -> InnerCodec {
    match codec {
        BlobCodec::Lz4 => InnerCodec::Lz4,
        BlobCodec::Raw | BlobCodec::Deflate => InnerCodec::Deflate,
    }
}

/// Gzip-compressed image repository.
///
/// Concurrency: compression (the expensive leg) runs outside any lock;
/// the member index is guarded by a `RwLock` and same-name operations
/// serialize on a per-image stripe.
pub struct GzipStore {
    env: SimEnv,
    images: RwLock<FxHashMap<String, Entry>>,
    names: NameLocks,
    tier: TierPolicy,
    codec_obs: xpl_obs::ObsSlot<xpl_compress::CodecObs>,
}

impl GzipStore {
    pub fn new(env: SimEnv) -> Self {
        GzipStore {
            env,
            images: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
            tier: TierPolicy::mixed(),
            codec_obs: xpl_obs::ObsSlot::new(),
        }
    }

    /// Builder: select the codec tier for new members and maintenance.
    /// Unlike the CAS stores this repository's `repo_bytes` is the
    /// *physical* compressed footprint, so [`ImageStore::maintain`]
    /// reports the size shift via `bytes_delta`.
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        self.tier = tier;
        self
    }
}

impl ImageStore for GzipStore {
    fn name(&self) -> &'static str {
        "Qcow2+Gzip"
    }

    fn attach_obs(&self, reg: &std::sync::Arc<xpl_obs::Registry>) {
        let _ = self
            .codec_obs
            .set(std::sync::Arc::new(xpl_compress::CodecObs::new(reg)));
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };
        let raw = vmi.disk.serialize();
        let codec = inner_of(self.tier.base);
        let compressed = report.breakdown.measure(&self.env.clock, "compress", || {
            self.env.local.charge_read(raw.len() as u64);
            self.env
                .local
                .charge_fixed(costs::scaled(costs::deflate_per_byte(), raw.len() as u64));
            xpl_compress::blocked_compress_inner(&raw, xpl_compress::DEFAULT_BLOCK_SIZE, codec)
        });
        report.breakdown.measure(&self.env.clock, "upload", || {
            self.env
                .local
                .charge_copy_to(&self.env.repo, compressed.len() as u64);
        });
        report.bytes_added = compressed.len() as u64;
        report.units_stored = 1;
        if let Some(old) = self.images.write().unwrap().insert(
            vmi.name.clone(),
            Entry {
                compressed,
                raw_len: raw.len() as u64,
                codec,
                reads: AtomicU64::new(0),
                snapshot: VmiSnapshot::of(vmi),
            },
        ) {
            // Re-publish replaces the previous member of the same name.
            report.bytes_freed = old.compressed.len() as u64;
        }
        report.duration = self.env.clock.since(t0);
        Ok(report)
    }

    fn retrieve(
        &self,
        _catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        let t0 = self.env.clock.now();
        let images = self.images.read().unwrap();
        let entry = images
            .get(&request.name)
            .ok_or_else(|| StoreError::NotFound(request.name.clone()))?;
        entry.reads.fetch_add(1, Ordering::Relaxed);
        let mut report = RetrieveReport {
            image: request.name.clone(),
            ..Default::default()
        };
        let raw = report
            .breakdown
            .measure(&self.env.clock, "download+gunzip", || {
                self.env.repo.charge_open(entry.compressed.len() as u64);
                self.env
                    .repo
                    .charge_copy_to(&self.env.local, entry.compressed.len() as u64);
                self.env
                    .local
                    .charge_fixed(costs::scaled(costs::inflate_per_byte(), entry.raw_len));
                xpl_compress::blocked_decompress_parallel(&entry.compressed)
                    .map_err(|e| StoreError::Corrupt(format!("blocked: {e}")))
            })?;
        // Verify the decompressed stream is the image we stored; the
        // returned disk is that stream, parsed.
        if raw.len() as u64 != entry.raw_len {
            return Err(StoreError::Corrupt("length mismatch after gunzip".into()));
        }
        let disk = xpl_vdisk::QcowImage::deserialize(&raw)
            .map_err(|e| StoreError::Corrupt(format!("qcow2 stream: {e}")))?;
        report.bytes_read = entry.compressed.len() as u64;
        let vmi = entry.snapshot.restore_with(disk);
        self.env.local.charge_write(raw.len() as u64);
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
        let images = self.images.read().unwrap();
        let entry = images
            .get(&request.name)
            .ok_or_else(|| StoreError::NotFound(request.name.clone()))?;
        entry.reads.fetch_add(1, Ordering::Relaxed);
        let mut report = RetrieveReport {
            image: request.name.clone(),
            ..Default::default()
        };
        // The seekable path: walk the serialized qcow stream's cluster
        // mapping through a caching blocked reader, so only the
        // compressed blocks the range's clusters live in are inflated.
        let mut reader = xpl_compress::BlockedReader::new(&entry.compressed)
            .map_err(|e| StoreError::Corrupt(format!("blocked: {e}")))?;
        if let Some(o) = self.codec_obs.get() {
            reader.attach_obs(std::sync::Arc::clone(o));
        }
        let bytes = report
            .breakdown
            .measure(&self.env.clock, "range inflate", || {
                xpl_vdisk::read_serialized_range(
                    |off, l| {
                        reader
                            .read_at(off, l)
                            .map_err(|_| xpl_vdisk::QcowError::Corrupt("blocked block unreadable"))
                    },
                    start,
                    len,
                )
                .map_err(|e| StoreError::Corrupt(format!("range: {e}")))
            })?;
        // Charge only what moved: the touched blocks' compressed bytes
        // (plus the index) off the repo, decompress time for the bytes
        // those blocks inflated to.
        let touched = reader.compressed_bytes_touched();
        self.env.repo.charge_open(touched);
        self.env.repo.charge_copy_to(&self.env.local, touched);
        self.env.local.charge_fixed(costs::scaled(
            costs::inflate_per_byte(),
            reader.uncompressed_bytes_inflated(),
        ));
        report.bytes_read = touched;
        report.duration = self.env.clock.since(t0);
        Ok((bytes, report))
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _name_guard = self.names.lock(name);
        let t0 = self.env.clock.now();
        let entry = self
            .images
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        self.env.repo.charge_db_write(1);
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: entry.compressed.len() as u64,
            units_removed: 1,
        })
    }

    fn repo_bytes(&self) -> u64 {
        self.images
            .read()
            .unwrap()
            .values()
            .map(|e| e.compressed.len() as u64)
            .sum()
    }

    fn maintain(&self) -> MaintainReport {
        let t0 = self.env.clock.now();
        let mut report = MaintainReport::default();
        let mut images = self.images.write().unwrap();
        for entry in images.values_mut() {
            report.scanned += 1;
            let reads = entry.reads.load(Ordering::Relaxed);
            let target = match self.tier.hot {
                Some(hot) if reads >= self.tier.hot_reads => inner_of(hot),
                _ => inner_of(self.tier.base),
            };
            if target != entry.codec {
                // Re-encode the member; the uncompressed stream is pinned
                // byte-identical (length-checked here, content via the
                // deep audit's inflate sweep).
                if let Ok(raw) = xpl_compress::blocked_decompress_parallel(&entry.compressed) {
                    if raw.len() as u64 == entry.raw_len {
                        self.env
                            .local
                            .charge_fixed(costs::scaled(costs::inflate_per_byte(), entry.raw_len));
                        self.env
                            .local
                            .charge_fixed(costs::scaled(costs::deflate_per_byte(), entry.raw_len));
                        self.env.repo.charge_db_write(1);
                        let recoded = xpl_compress::blocked_compress_inner(
                            &raw,
                            xpl_compress::DEFAULT_BLOCK_SIZE,
                            target,
                        );
                        report.bytes_delta += recoded.len() as i64 - entry.compressed.len() as i64;
                        if target == inner_of(self.tier.base) {
                            report.demoted += 1;
                        } else {
                            report.promoted += 1;
                        }
                        entry.compressed = recoded;
                        entry.codec = target;
                    }
                }
            }
            entry.reads.store(reads / 2, Ordering::Relaxed);
        }
        report.duration = self.env.clock.since(t0);
        report
    }

    fn check_integrity(&self) -> Result<(), String> {
        for (name, e) in self.images.read().unwrap().iter() {
            if e.raw_len > 0 && e.compressed.is_empty() {
                return Err(format!("{name}: empty member for {} raw bytes", e.raw_len));
            }
        }
        Ok(())
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()?;
        // Full sweep: every member must inflate (per-block CRCs) to
        // exactly the byte count recorded at publish time.
        for (name, e) in self.images.read().unwrap().iter() {
            let raw = xpl_compress::blocked_decompress_parallel(&e.compressed)
                .map_err(|err| format!("{name}: {err}"))?;
            if raw.len() as u64 != e.raw_len {
                return Err(format!(
                    "{name}: inflated to {} bytes, recorded {}",
                    raw.len(),
                    e.raw_len
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    impl GzipStore {
        fn corrupt_for_test(&self, name: &str) {
            let mut images = self.images.write().unwrap();
            let entry = images.get_mut(name).unwrap();
            let mid = entry.compressed.len() / 2;
            entry.compressed[mid] ^= 0x40;
        }

        /// Mean compression ratio across stored images (compressed/original).
        fn mean_ratio(&self) -> f64 {
            let images = self.images.read().unwrap();
            let (c, r) = images.values().fold((0u64, 0u64), |(c, r), e| {
                (c + e.compressed.len() as u64, r + e.raw_len)
            });
            c as f64 / r as f64
        }
    }

    #[test]
    fn compression_shrinks_repo_vs_qcow() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        let qc = crate::QcowStore::new(w.env());
        for name in ["mini", "redis", "lamp"] {
            let vmi = w.build_image(name);
            gz.publish(&w.catalog, &vmi).unwrap();
            qc.publish(&w.catalog, &vmi).unwrap();
        }
        assert!(gz.repo_bytes() < qc.repo_bytes(), "gzip must beat raw");
        let ratio = gz.mean_ratio();
        assert!((0.1..0.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn roundtrip_verifies_payload() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        let redis = w.build_image("redis");
        gz.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (got, _) = gz.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            redis.installed_package_set(&w.catalog)
        );
    }

    #[test]
    fn range_read_matches_full_disk_slice_and_reads_less() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        // Grow the image well past one 64 KiB compression block so a
        // range can genuinely touch a subset of blocks.
        let mut redis = w.build_image("redis");
        for i in 0..200u64 {
            redis.fs.add_file(xpl_guestfs::FileRecord {
                path: xpl_util::IStr::new(&format!("/home/u/blob-{i:03}")),
                size: 3000,
                seed: 0xD00D + i,
                owner: xpl_guestfs::FileOwner::UserData,
            });
        }
        redis.rebuild_disk();
        gz.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (full, full_report) = gz.retrieve(&w.catalog, &req).unwrap();
        let size = full.disk.virtual_size();
        for (start, len) in [
            (0u64, 600u64),
            (size / 2, 4096),
            (size - 100, 500), // clamps
            (size + 5, 10),    // past the end
        ] {
            let (bytes, report) = gz.retrieve_range(&w.catalog, &req, start, len).unwrap();
            let end = start.saturating_add(len).min(size);
            let expect = if start >= end {
                Vec::new()
            } else {
                full.disk
                    .read_at(start.min(end), (end - start.min(end)) as usize)
                    .unwrap()
            };
            assert_eq!(bytes, expect, "range [{start}, +{len})");
            if !bytes.is_empty() {
                assert!(
                    report.bytes_read < full_report.bytes_read,
                    "range read {} vs full {}",
                    report.bytes_read,
                    full_report.bytes_read
                );
            }
        }
    }

    #[test]
    fn maintain_promotes_hot_members_and_reports_the_size_shift() {
        let w = World::small();
        let gz = GzipStore::new(w.env()); // default mixed tier
        let hot = w.build_image("redis");
        let cold = w.build_image("mini");
        gz.publish(&w.catalog, &hot).unwrap();
        gz.publish(&w.catalog, &cold).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&hot, &w.catalog);
        gz.retrieve(&w.catalog, &req).unwrap();
        gz.retrieve(&w.catalog, &req).unwrap();

        let before = gz.repo_bytes();
        let report = gz.maintain();
        assert_eq!((report.scanned, report.promoted, report.demoted), (2, 1, 0));
        assert_eq!(
            gz.repo_bytes() as i128,
            before as i128 + report.bytes_delta as i128,
            "repo_bytes must shift by exactly bytes_delta"
        );
        // The hot member is now on the fast codec; content is pinned.
        gz.check_integrity_deep().unwrap();
        let (got, _) = gz.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            hot.installed_package_set(&w.catalog)
        );
        let (bytes, _) = gz.retrieve_range(&w.catalog, &req, 100, 600).unwrap();
        assert_eq!(bytes, got.disk.read_at(100, 600).unwrap());
        // A quiet interval demotes it back (2 reads decayed to 1, then
        // the post-sweep read above brings it to 2 again… so drain it).
        gz.maintain();
        let sweep = gz.maintain();
        assert_eq!(sweep.promoted, 0);
        assert_eq!(sweep.demoted, 1);
        // Deterministic re-encode: back to the exact dense footprint.
        assert_eq!(gz.repo_bytes(), before);
    }

    #[test]
    fn deep_check_flags_corrupt_member() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        gz.publish(&w.catalog, &w.build_image("mini")).unwrap();
        gz.check_integrity_deep().unwrap();
        gz.corrupt_for_test("mini");
        assert!(gz.check_integrity_deep().is_err());
    }

    #[test]
    fn corruption_detected() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        let redis = w.build_image("redis");
        gz.publish(&w.catalog, &redis).unwrap();
        // Corrupt the stored member.
        gz.corrupt_for_test("redis");
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        assert!(matches!(
            gz.retrieve(&w.catalog, &req),
            Err(StoreError::Corrupt(_))
        ));
    }
}
