//! The whole-image baselines: **Qcow2** keeps each image as its
//! serialized qcow2 stream, **Qcow2 + Gzip** keeps the same stream
//! compressed. One store type serves both; its const parameter is the
//! only difference, the codec.
//!
//! Compression is *real* (our DEFLATE over the actual image stream), so
//! Figure 3's Gzip ratios come out of the compressor, not a constant.
//! A compressed entry is a *blocked* container (`xpl_compress::blocked`):
//! independently-compressed 64 KiB blocks plus a CRC-checked index, which
//! makes decompression parallel and lets [`ImageStore::retrieve_range`]
//! serve a disk byte range by inflating only the blocks the range's
//! clusters live in. The name keeps the paper's "Qcow2 + Gzip" label;
//! the blocks are raw DEFLATE (or LZ4 on the hot tier), not gzip framing.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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
use xpl_vdisk::QcowError;

struct Entry {
    /// The serialized qcow2 stream, raw or as a blocked container.
    stored: Vec<u8>,
    /// Length of the serialized stream.
    raw_len: u64,
    /// Inner codec of a compressed entry; maintenance re-encodes it
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

/// `len` bytes of a raw stream at `off`, or `Corrupt("truncated")`.
fn fetch_raw(stream: &[u8], off: u64, len: u64) -> Result<Vec<u8>, QcowError> {
    let end = off.saturating_add(len);
    let bytes = stream.get(off as usize..end as usize);
    bytes
        .map(<[u8]>::to_vec)
        .ok_or(QcowError::Corrupt("truncated"))
}

/// `raw` as a blocked container of `codec` blocks.
fn encode(raw: &[u8], codec: InnerCodec) -> Vec<u8> {
    xpl_compress::blocked_compress_inner(raw, xpl_compress::DEFAULT_BLOCK_SIZE, codec)
}

/// Repository of whole serialized images, kept raw (`COMPRESSED =
/// false`, [`QcowStore`]) or compressed ([`GzipStore`]).
///
/// Concurrency: serialization and compression (the expensive legs) run
/// outside any lock; the image index is a short-critical-section
/// `RwLock` and same-name operations serialize on a per-image stripe, so
/// distinct images publish, retrieve and delete in parallel.
pub struct WholeImageStore<const COMPRESSED: bool> {
    env: SimEnv,
    images: RwLock<FxHashMap<String, Entry>>,
    names: NameLocks,
    tier: TierPolicy,
    codec_obs: xpl_obs::ObsSlot<xpl_compress::CodecObs>,
}

/// Plain qcow2 image repository: no dedup, no compression.
pub type QcowStore = WholeImageStore<false>;
/// Compressed qcow2 image repository.
pub type GzipStore = WholeImageStore<true>;

impl<const COMPRESSED: bool> WholeImageStore<COMPRESSED> {
    pub fn new(env: SimEnv) -> Self {
        WholeImageStore {
            env,
            images: RwLock::new(FxHashMap::default()),
            names: NameLocks::new(),
            tier: TierPolicy::mixed(),
            codec_obs: xpl_obs::ObsSlot::new(),
        }
    }

    /// Charge moving the whole stored stream off the repository.
    fn charge_download(&self, entry: &Entry) {
        let n = entry.stored.len() as u64;
        self.env.repo.charge_open(n);
        self.env.repo.charge_copy_to(&self.env.local, n);
    }

    /// Charge codec compute for `bytes` serialized bytes on the local host.
    fn charge_cpu(&self, per_byte: xpl_simio::SimDuration, bytes: u64) {
        self.env.local.charge_fixed(costs::scaled(per_byte, bytes));
    }

    /// The serialized stream an entry holds, checked against the length
    /// recorded at publish time.
    fn decode(entry: &Entry) -> Result<Cow<'_, [u8]>, StoreError> {
        let raw = if COMPRESSED {
            Cow::Owned(
                xpl_compress::blocked_decompress_parallel(&entry.stored)
                    .map_err(|e| StoreError::Corrupt(format!("blocked: {e}")))?,
            )
        } else {
            Cow::Borrowed(entry.stored.as_slice())
        };
        if raw.len() as u64 != entry.raw_len {
            return Err(StoreError::Corrupt(format!(
                "stream of {} bytes, recorded {}",
                raw.len(),
                entry.raw_len
            )));
        }
        Ok(raw)
    }
}

impl GzipStore {
    /// Builder: select the codec tier for new members and maintenance.
    /// Unlike the CAS stores this repository's `repo_bytes` is the
    /// *physical* compressed footprint, so [`ImageStore::maintain`]
    /// reports the size shift via `bytes_delta`.
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        self.tier = tier;
        self
    }
}

impl<const COMPRESSED: bool> ImageStore for WholeImageStore<COMPRESSED> {
    fn name(&self) -> &'static str {
        if COMPRESSED {
            "Qcow2+Gzip"
        } else {
            "Qcow2"
        }
    }

    fn attach_obs(&self, reg: &Arc<xpl_obs::Registry>) {
        if COMPRESSED {
            let _ = self
                .codec_obs
                .set(Arc::new(xpl_compress::CodecObs::new(reg)));
        }
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };
        let raw = vmi.disk.serialize();
        let raw_len = raw.len() as u64;
        let codec = inner_of(self.tier.base);
        let label = if COMPRESSED { "compress" } else { "serialize" };
        let stored = report.breakdown.measure(&self.env.clock, label, || {
            self.env.local.charge_read(raw_len);
            if COMPRESSED {
                self.charge_cpu(costs::deflate_per_byte(), raw_len);
                encode(&raw, codec)
            } else {
                raw
            }
        });
        report.breakdown.measure(&self.env.clock, "upload", || {
            self.env
                .local
                .charge_copy_to(&self.env.repo, stored.len() as u64);
        });
        report.bytes_added = stored.len() as u64;
        report.units_stored = 1;
        if let Some(old) = self.images.write().unwrap().insert(
            vmi.name.clone(),
            Entry {
                stored,
                raw_len,
                codec,
                reads: AtomicU64::new(0),
                snapshot: VmiSnapshot::of(vmi),
            },
        ) {
            // Re-publish replaces the previous image of the same name.
            report.bytes_freed = old.stored.len() as u64;
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
        let label = if COMPRESSED {
            "download+gunzip"
        } else {
            "download"
        };
        let raw = report.breakdown.measure(&self.env.clock, label, || {
            self.charge_download(entry);
            if COMPRESSED {
                self.charge_cpu(costs::inflate_per_byte(), entry.raw_len);
            }
            Self::decode(entry)
        })?;
        // The returned disk is the stored stream, parsed.
        let disk = xpl_vdisk::QcowImage::deserialize(&raw)
            .map_err(|e| StoreError::Corrupt(format!("qcow2 stream: {e}")))?;
        report.bytes_read = entry.stored.len() as u64;
        let vmi = entry.snapshot.restore_with(disk);
        if COMPRESSED {
            self.env.local.charge_write(raw.len() as u64);
        }
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
        // Both formats walk the serialized stream's cluster mapping; a
        // compressed one through a caching blocked reader, so only the
        // blocks the range's clusters live in are inflated.
        let mut reader = COMPRESSED
            .then(|| xpl_compress::BlockedReader::new(&entry.stored))
            .transpose()
            .map_err(|e| StoreError::Corrupt(format!("blocked: {e}")))?;
        if let (Some(r), Some(o)) = (&mut reader, self.codec_obs.get()) {
            r.attach_obs(Arc::clone(o));
        }
        let label = if COMPRESSED {
            "range inflate"
        } else {
            "download"
        };
        let bytes = report.breakdown.measure(&self.env.clock, label, || {
            if !COMPRESSED {
                // Charged as a full retrieve's download: the whole stream
                // moves off the repository, though only the range is parsed.
                self.charge_download(entry);
            }
            let fetch = |off, l| match &mut reader {
                Some(r) => r
                    .read_at(off, l)
                    .map_err(|_| QcowError::Corrupt("blocked block unreadable")),
                None => fetch_raw(&entry.stored, off, l),
            };
            xpl_vdisk::read_serialized_range(fetch, start, len)
                .map_err(|e| StoreError::Corrupt(format!("range: {e}")))
        })?;
        report.bytes_read = match reader {
            // Charge only what moved: the touched blocks' compressed bytes
            // (plus the index) off the repo, decompress time for the bytes
            // those blocks inflated to.
            Some(r) => {
                let touched = r.compressed_bytes_touched();
                self.env.repo.charge_open(touched);
                self.env.repo.charge_copy_to(&self.env.local, touched);
                self.charge_cpu(costs::inflate_per_byte(), r.uncompressed_bytes_inflated());
                touched
            }
            None => entry.stored.len() as u64,
        };
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
        self.env.repo.charge_db_write(1); // unlink is metadata work
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: entry.stored.len() as u64,
            units_removed: 1,
        })
    }

    fn repo_bytes(&self) -> u64 {
        self.images
            .read()
            .unwrap()
            .values()
            .map(|e| e.stored.len() as u64)
            .sum()
    }

    fn maintain(&self) -> MaintainReport {
        if !COMPRESSED {
            return MaintainReport::default();
        }
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
                if let Ok(raw) = Self::decode(entry) {
                    self.charge_cpu(costs::inflate_per_byte(), entry.raw_len);
                    self.charge_cpu(costs::deflate_per_byte(), entry.raw_len);
                    self.env.repo.charge_db_write(1);
                    let recoded = encode(&raw, target);
                    report.bytes_delta += recoded.len() as i64 - entry.stored.len() as i64;
                    if target == inner_of(self.tier.base) {
                        report.demoted += 1;
                    } else {
                        report.promoted += 1;
                    }
                    entry.stored = recoded;
                    entry.codec = target;
                }
            }
            entry.reads.store(reads / 2, Ordering::Relaxed);
        }
        report.duration = self.env.clock.since(t0);
        report
    }

    fn check_integrity(&self) -> Result<(), String> {
        for (name, e) in self.images.read().unwrap().iter() {
            // A raw stream is its recorded length; a compressed one is
            // non-empty whenever the stream is.
            let stored = e.stored.len() as u64;
            if (!COMPRESSED && stored != e.raw_len) || (stored == 0 && e.raw_len > 0) {
                return Err(format!("{name}: {stored} bytes stored for {}", e.raw_len));
            }
        }
        Ok(())
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.check_integrity()?;
        // Full sweep: every member must decode (per-block CRCs when
        // compressed) to exactly the byte count recorded at publish time.
        for (name, e) in self.images.read().unwrap().iter() {
            Self::decode(e).map_err(|err| format!("{name}: {err}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    impl<const COMPRESSED: bool> WholeImageStore<COMPRESSED> {
        fn image_count(&self) -> usize {
            self.images.read().unwrap().len()
        }

        fn damage_for_test(&self, name: &str, f: impl FnOnce(&mut Vec<u8>)) {
            f(&mut self.images.write().unwrap().get_mut(name).unwrap().stored);
        }

        fn corrupt_for_test(&self, name: &str) {
            self.damage_for_test(name, |s| {
                let mid = s.len() / 2;
                s[mid] ^= 0x40;
            });
        }

        /// Mean compression ratio across stored images (compressed/original).
        fn mean_ratio(&self) -> f64 {
            let images = self.images.read().unwrap();
            let (c, r) = images.values().fold((0u64, 0u64), |(c, r), e| {
                (c + e.stored.len() as u64, r + e.raw_len)
            });
            c as f64 / r as f64
        }
    }

    #[test]
    fn publish_accumulates_full_size() {
        let w = World::small();
        let store = QcowStore::new(w.env());
        let mini = w.build_image("mini");
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &mini).unwrap();
        let after_one = store.repo_bytes();
        store.publish(&w.catalog, &redis).unwrap();
        // No dedup: second image adds its full serialized size.
        assert!(store.repo_bytes() > after_one + after_one / 2);
        assert_eq!(store.image_count(), 2);
    }

    #[test]
    fn retrieve_roundtrip() {
        let w = World::small();
        let store = QcowStore::new(w.env());
        let redis = w.build_image("redis");
        store.publish(&w.catalog, &redis).unwrap();
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let (got, report) = store.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            redis.installed_package_set(&w.catalog)
        );
        assert_eq!(got.mounted_bytes(), redis.mounted_bytes());
        assert!(report.duration.as_nanos() > 0);
    }

    #[test]
    fn missing_image_not_found() {
        let w = World::small();
        let store = QcowStore::new(w.env());
        let req = xpl_store::RetrieveRequest {
            name: "ghost".into(),
            base: w.template.attrs.clone(),
            primary: vec![],
            user_data: vec![],
        };
        assert!(matches!(
            store.retrieve(&w.catalog, &req),
            Err(StoreError::NotFound(_))
        ));
    }

    fn publish_from_threads<const COMPRESSED: bool>(w: &World) {
        let store = WholeImageStore::<COMPRESSED>::new(w.env());
        let images: Vec<Vmi> = ["mini", "redis", "nginx", "lamp"]
            .iter()
            .map(|n| w.build_image(n))
            .collect();
        let (store_ref, catalog) = (&store, &w.catalog);
        std::thread::scope(|s| {
            for vmi in &images {
                s.spawn(move || store_ref.publish(catalog, vmi).unwrap());
            }
        });
        assert_eq!(store.image_count(), 4);
        store.check_integrity().unwrap();
    }

    #[test]
    fn distinct_images_publish_from_threads() {
        let w = World::small();
        publish_from_threads::<false>(&w);
        publish_from_threads::<true>(&w);
    }

    #[test]
    fn qcow_range_is_charged_as_a_full_retrieve() {
        let w = World::small();
        let redis = w.build_image("redis");
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let full = QcowStore::new(w.env());
        full.publish(&w.catalog, &redis).unwrap();
        let (vmi, full_report) = full.retrieve(&w.catalog, &req).unwrap();
        let ranged = QcowStore::new(w.env());
        ranged.publish(&w.catalog, &redis).unwrap();
        let (bytes, report) = ranged.retrieve_range(&w.catalog, &req, 100, 600).unwrap();
        assert_eq!(bytes, vmi.disk.read_at(100, 600).unwrap());
        assert_eq!(report.bytes_read, full_report.bytes_read);
        assert_eq!(report.duration, full_report.duration);
        assert_eq!(report.breakdown.get("download"), full_report.duration);
    }

    #[test]
    fn damaged_raw_stream_gives_typed_errors() {
        let w = World::small();
        let redis = w.build_image("redis");
        let req = xpl_store::RetrieveRequest::for_image(&redis, &w.catalog);
        let size = redis.disk.virtual_size();
        let len = redis.disk.serialize().len();
        // (truncate to, flip a bit at): each case does one of the two.
        let damages = [
            (len / 2, None),
            (len - 1, None),
            (len, Some(0)),  // magic
            (len, Some(23)), // top byte of the mapped count
            (len, Some(31)), // top byte of the first cluster key
            (len, Some(32)), // first payload byte: still parses
        ];
        for (i, (cut, flip)) in damages.into_iter().enumerate() {
            let store = QcowStore::new(w.env());
            store.publish(&w.catalog, &redis).unwrap();
            let mut stream = redis.disk.serialize();
            stream.truncate(cut);
            if let Some(at) = flip {
                stream[at] ^= 0x80;
            }
            store.damage_for_test(&redis.name, |s| *s = stream.clone());
            // What the damaged stream says, if it still parses; the
            // original disk otherwise (a range may still be served from
            // the undamaged part).
            let truth = xpl_vdisk::QcowImage::deserialize(&stream).ok();
            match store.retrieve(&w.catalog, &req) {
                Ok((vmi, _)) => assert!(truth.is_some() && vmi.disk.serialize() == stream),
                Err(e) => assert!(truth.is_none() && matches!(e, StoreError::Corrupt(_))),
            }
            let disk = truth.as_ref().unwrap_or(&redis.disk);
            for (start, n) in [
                (0u64, 600u64),
                (size / 2, 4096),
                (size - 1, 1),
                (size + 5, 10),
            ] {
                match store.retrieve_range(&w.catalog, &req, start, n) {
                    Ok((bytes, _)) => {
                        let end = start.saturating_add(n).min(size);
                        let expect = match start < end {
                            true => disk.read_at(start, (end - start) as usize).unwrap(),
                            false => Vec::new(),
                        };
                        assert_eq!(bytes, expect, "damage {i}, range [{start}, +{n})");
                    }
                    Err(e) => assert!(matches!(e, StoreError::Corrupt(_)), "damage {i}: {e}"),
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_repo_vs_qcow() {
        let w = World::small();
        let gz = GzipStore::new(w.env());
        let qc = QcowStore::new(w.env());
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
