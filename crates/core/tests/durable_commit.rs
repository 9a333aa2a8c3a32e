//! Group commit at the repository-operation boundary, pinned by count:
//! what a durable publish/delete asks of the medium, and what happens
//! when the medium dies inside the commit.

use std::sync::{Arc, Mutex};

use xpl_core::ExpelliarmusRepo;
use xpl_persist::{DurableConfig, DurableContentStore, MemFs, PersistError, Vfs};
use xpl_store::{ImageStore, RetrieveRequest, StoreError};
use xpl_workloads::World;

const SECTIONS: [&str; 2] = ["packages", "data"];

/// `MemFs` behind a recorder of every sync and append, by file name.
struct CountingVfs {
    inner: Arc<MemFs>,
    syncs: Mutex<Vec<String>>,
    appends: Mutex<Vec<String>>,
}

impl CountingVfs {
    fn reset(&self) {
        self.syncs.lock().unwrap().clear();
        self.appends.lock().unwrap().clear();
    }

    fn syncs_of(&self, section: &str) -> usize {
        let syncs = self.syncs.lock().unwrap();
        syncs.iter().filter(|f| f.starts_with(section)).count()
    }

    fn wal_appends_of(&self, section: &str) -> usize {
        let wal = format!("{section}.wal-");
        let appends = self.appends.lock().unwrap();
        appends.iter().filter(|f| f.starts_with(&wal)).count()
    }
}

impl Vfs for CountingVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError> {
        self.inner.read(name)
    }
    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError> {
        self.inner.read_at(name, offset, len)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.appends.lock().unwrap().push(name.to_string());
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), PersistError> {
        self.syncs.lock().unwrap().push(name.to_string());
        self.inner.sync(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.write_atomic(name, bytes)
    }
    fn truncate(&self, name: &str) -> Result<(), PersistError> {
        self.inner.truncate(name)
    }
    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError> {
        self.inner.truncate_to(name, len)
    }
    fn remove(&self, name: &str) -> Result<(), PersistError> {
        self.inner.remove(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn file_len(&self, name: &str) -> Result<u64, PersistError> {
        self.inner.file_len(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

struct Durable {
    medium: Arc<MemFs>,
    vfs: Arc<CountingVfs>,
    sections: Vec<Arc<DurableContentStore>>,
    repo: ExpelliarmusRepo,
}

fn durable_repo(w: &World) -> Durable {
    let medium = Arc::new(MemFs::new());
    let vfs = Arc::new(CountingVfs {
        inner: Arc::clone(&medium),
        syncs: Mutex::default(),
        appends: Mutex::default(),
    });
    let sections: Vec<_> = SECTIONS
        .iter()
        .map(|name| {
            let (store, _) =
                DurableContentStore::open(Arc::clone(&vfs) as _, DurableConfig::named(name))
                    .unwrap();
            Arc::new(store)
        })
        .collect();
    let repo =
        ExpelliarmusRepo::new_durable(w.env(), Arc::clone(&sections[0]), Arc::clone(&sections[1]));
    Durable {
        medium,
        vfs,
        sections,
        repo,
    }
}

#[test]
fn a_durable_mutation_syncs_once_per_section_not_once_per_record() {
    let w = World::small();
    let d = durable_repo(&w);
    let lamp = w.build_image("lamp");

    d.repo.publish(&w.catalog, &lamp).unwrap();
    let records: u64 = d.sections.iter().map(|s| s.wal_appends()).sum();
    assert!(records > 4, "lamp logs several records");
    for section in SECTIONS {
        // The active segment, then the log.
        assert!(d.vfs.syncs_of(section) <= 2, "publish, {section}");
        assert_eq!(d.vfs.wal_appends_of(section), 1, "publish, {section}");
    }

    d.vfs.reset();
    let request = RetrieveRequest::for_image(&lamp, &w.catalog);
    d.repo.retrieve(&w.catalog, &request).unwrap();
    d.repo
        .retrieve_range(&w.catalog, &request, 4096, 512)
        .unwrap();
    d.repo.check_integrity_deep().unwrap();
    for section in SECTIONS {
        assert_eq!(d.vfs.syncs_of(section), 0, "reads, {section}");
        assert_eq!(d.vfs.wal_appends_of(section), 0, "reads, {section}");
    }

    d.repo.delete("lamp").unwrap();
    for section in SECTIONS {
        // Releases append no payload: only the log is dirty.
        assert_eq!(d.vfs.syncs_of(section), 1, "delete, {section}");
        assert_eq!(d.vfs.wal_appends_of(section), 1, "delete, {section}");
    }

    // What the ops acknowledged is what a power cut leaves.
    d.medium.power_cut();
    for (section, live) in d.sections.iter().zip(d.repo.cas_fingerprints()) {
        section.reopen_in_place().unwrap();
        assert_eq!(section.state_fingerprint(), live.1, "{}", live.0);
    }
}

#[test]
fn a_medium_that_dies_inside_the_commit_is_an_io_error_not_a_panic() {
    let w = World::small();
    let redis = w.build_image("redis");

    // Reference publish: how many mutations it makes, and how many of
    // them are the commit's (the segment appends all come first).
    let reference = durable_repo(&w);
    reference.repo.publish(&w.catalog, &redis).unwrap();
    let total = reference.medium.mutations();
    let in_commit: u64 = SECTIONS
        .iter()
        .map(|s| (reference.vfs.syncs_of(s) + reference.vfs.wal_appends_of(s)) as u64)
        .sum();
    assert!(in_commit >= 4, "both sections commit");

    for nth in total - in_commit + 1..=total {
        let d = durable_repo(&w);
        d.medium.set_crash_at(nth);
        match d.repo.publish(&w.catalog, &redis) {
            Err(StoreError::Io(_)) => {}
            other => panic!("crash at mutation {nth}: {:?}", other.map(|_| ())),
        }
        // Power cut and recovery: some record prefix of the publish,
        // every surviving blob intact, and the sections take writes
        // again.
        d.medium.power_cut();
        for section in &d.sections {
            section.reopen_in_place().unwrap();
            let live = section.snapshot_refs().len();
            assert_eq!(section.deep_verify().unwrap(), live, "crash at {nth}");
            section.put(b"after recovery").unwrap();
        }
    }
}
