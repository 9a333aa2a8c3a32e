//! The Qcow2 baseline: one qcow2 file per image, no dedup, no compression.

use std::sync::{Mutex, RwLock};

use crate::snapshot::VmiSnapshot;
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_simio::SimEnv;
use xpl_store::{
    DeleteReport, ImageStore, NameLocks, PublishReport, RetrieveReport, RetrieveRequest, StoreError,
};
use xpl_util::FxHashMap;

struct Entry {
    bytes: Vec<u8>,
    snapshot: VmiSnapshot,
}

/// Plain qcow2 image repository.
///
/// Concurrency: per-image stripes serialize same-name operations; the
/// image index is a short-critical-section `RwLock` (serialization and
/// charging happen outside it), so distinct images publish, retrieve and
/// delete in parallel.
pub struct QcowStore {
    env: SimEnv,
    images: RwLock<FxHashMap<String, Entry>>,
    order: Mutex<Vec<String>>,
    names: NameLocks,
}

impl QcowStore {
    pub fn new(env: SimEnv) -> Self {
        QcowStore {
            env,
            images: RwLock::new(FxHashMap::default()),
            order: Mutex::new(Vec::new()),
            names: NameLocks::new(),
        }
    }
}

impl ImageStore for QcowStore {
    fn name(&self) -> &'static str {
        "Qcow2"
    }

    fn publish(&self, _catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _name_guard = self.names.lock(&vmi.name);
        let t0 = self.env.clock.now();
        let mut report = PublishReport {
            image: vmi.name.clone(),
            ..Default::default()
        };
        let bytes = report.breakdown.measure(&self.env.clock, "serialize", || {
            let b = vmi.disk.serialize();
            self.env.local.charge_read(b.len() as u64);
            b
        });
        report.breakdown.measure(&self.env.clock, "upload", || {
            self.env
                .local
                .charge_copy_to(&self.env.repo, bytes.len() as u64);
        });
        report.bytes_added = bytes.len() as u64;
        report.units_stored = 1;
        match self.images.write().unwrap().insert(
            vmi.name.clone(),
            Entry {
                bytes,
                snapshot: VmiSnapshot::of(vmi),
            },
        ) {
            // Re-publish replaces the previous file of the same name.
            Some(old) => report.bytes_freed = old.bytes.len() as u64,
            None => self.order.lock().unwrap().push(vmi.name.clone()),
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
        let mut report = RetrieveReport {
            image: request.name.clone(),
            ..Default::default()
        };
        let disk = report.breakdown.measure(&self.env.clock, "download", || {
            self.env.repo.charge_open(entry.bytes.len() as u64);
            self.env
                .repo
                .charge_copy_to(&self.env.local, entry.bytes.len() as u64);
            // The returned disk is the stored stream, parsed.
            xpl_vdisk::QcowImage::deserialize(&entry.bytes)
                .map_err(|e| StoreError::Corrupt(format!("qcow2 stream: {e}")))
        })?;
        let vmi = entry.snapshot.restore_with(disk);
        report.bytes_read = entry.bytes.len() as u64;
        report.duration = self.env.clock.since(t0);
        Ok((vmi, report))
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
        self.order.lock().unwrap().retain(|n| n != name);
        self.env.repo.charge_db_write(1); // unlink is metadata work
        Ok(DeleteReport {
            image: name.to_string(),
            duration: self.env.clock.since(t0),
            bytes_freed: entry.bytes.len() as u64,
            units_removed: 1,
        })
    }

    fn repo_bytes(&self) -> u64 {
        self.images
            .read()
            .unwrap()
            .values()
            .map(|e| e.bytes.len() as u64)
            .sum()
    }

    fn check_integrity(&self) -> Result<(), String> {
        let images = self.images.read().unwrap();
        let order = self.order.lock().unwrap();
        if order.len() != images.len() {
            return Err(format!(
                "order list has {} names but {} images stored",
                order.len(),
                images.len()
            ));
        }
        for name in order.iter() {
            if !images.contains_key(name) {
                return Err(format!("ordered name {name} has no stored image"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_workloads::World;

    impl QcowStore {
        fn image_count(&self) -> usize {
            self.images.read().unwrap().len()
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

    #[test]
    fn distinct_images_publish_from_threads() {
        let w = World::small();
        let store = QcowStore::new(w.env());
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
}
