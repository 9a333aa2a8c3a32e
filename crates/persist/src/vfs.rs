//! The virtual filesystem all durable I/O goes through.
//!
//! Two implementations:
//!
//! * [`StdFs`] — real `std::fs` under a root directory, for actually
//!   durable repositories (`fsync` maps to `File::sync_all`, atomic
//!   swap maps to `rename(2)`).
//! * [`MemFs`] — a deterministic in-memory medium with fault injection.
//!   Every file tracks how many of its bytes have been synced; a
//!   [`MemFs::power_cut`] drops everything after the last sync, and
//!   [`MemFs::set_crash_at`] arms a crash at the N-th mutating
//!   operation, which applies a *torn* append (only a prefix of the
//!   payload reaches the platter) and then fails every operation until
//!   the power cut "reboots" the medium. This is what makes
//!   crash-recovery testable byte-deterministically in `cargo test`.
//!
//! File names are flat (no separators); the durable store namespaces its
//! files with a `prefix.` convention (`pkg.wal`, `pkg.seg-000001`, …).

use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::PersistError;

/// Abstract durable medium. All operations are `&self`; implementations
/// are internally synchronized.
pub trait Vfs: Send + Sync {
    /// Read a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError>;

    /// Read `len` bytes at `offset`; short reads are errors.
    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError>;

    /// Append bytes, creating the file if missing. Appended bytes are
    /// *not* durable until [`Vfs::sync`].
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError>;

    /// Make all previously appended bytes of `name` durable.
    fn sync(&self, name: &str) -> Result<(), PersistError>;

    /// Replace the file's content atomically (write-temp + rename): a
    /// crash leaves either the old content or the new, never a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError>;

    /// Truncate the file to zero length (durable immediately).
    fn truncate(&self, name: &str) -> Result<(), PersistError>;

    /// Truncate the file to `len` bytes (durable immediately). Recovery
    /// uses this to cut a torn tail off the WAL so later appends extend
    /// a clean log.
    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError>;

    /// Delete the file (durable immediately; missing files are fine).
    /// Checkpoints use this to retire stale WAL generations.
    fn remove(&self, name: &str) -> Result<(), PersistError>;

    fn exists(&self, name: &str) -> bool;

    /// Current length in bytes (0 for missing files).
    fn file_len(&self, name: &str) -> Result<u64, PersistError>;

    /// All file names, sorted.
    fn list(&self) -> Vec<String>;
}

// ------------------------------------------------------------------ MemFs

struct MemFile {
    bytes: Vec<u8>,
    /// Bytes `[0, synced)` survive a power cut.
    synced: usize,
}

struct MemState {
    files: BTreeMap<String, MemFile>,
    /// Mutating operations performed (append / sync / write_atomic /
    /// truncate).
    mutations: u64,
    /// Crash when `mutations` reaches this value.
    crash_at: Option<u64>,
    crashed: bool,
}

/// Deterministic in-memory medium with fault injection.
pub struct MemFs {
    state: Mutex<MemState>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    pub fn new() -> MemFs {
        MemFs {
            state: Mutex::new(MemState {
                files: BTreeMap::new(),
                mutations: 0,
                crash_at: None,
                crashed: false,
            }),
        }
    }

    /// Arm a crash at the `nth` mutating operation from now (1 = the
    /// very next one). The crashing operation applies *partially*: an
    /// append tears (half its payload reaches the platter, durably — a
    /// torn sector write), every other mutation is simply lost. All
    /// subsequent operations fail with [`PersistError::Crashed`] until
    /// [`MemFs::power_cut`] reboots the medium.
    pub fn set_crash_at(&self, nth: u64) {
        let mut st = self.state.lock().unwrap();
        st.crash_at = Some(st.mutations + nth);
    }

    /// Power loss + reboot: every file loses its unsynced tail, the
    /// crashed flag clears, and any armed crash is disarmed. The medium
    /// is readable again; the caller re-runs recovery.
    pub fn power_cut(&self) {
        let mut st = self.state.lock().unwrap();
        for f in st.files.values_mut() {
            let keep = f.synced;
            f.bytes.truncate(keep);
        }
        st.crashed = false;
        st.crash_at = None;
    }

    /// Test/harness hook: append raw garbage that *is* on the platter
    /// (a torn sector at the tail of `name`), bypassing crash
    /// accounting. Recovery must drop it cleanly.
    pub fn inject_torn_tail(&self, name: &str, garbage: &[u8]) {
        let mut st = self.state.lock().unwrap();
        let f = st.files.entry(name.to_string()).or_insert(MemFile {
            bytes: Vec::new(),
            synced: 0,
        });
        f.bytes.extend_from_slice(garbage);
        f.synced = f.bytes.len();
    }

    /// Test hook: replace a file's content wholesale (durably).
    pub fn set_file(&self, name: &str, bytes: &[u8]) {
        let mut st = self.state.lock().unwrap();
        st.files.insert(
            name.to_string(),
            MemFile {
                bytes: bytes.to_vec(),
                synced: bytes.len(),
            },
        );
    }

    /// Deep copy of the current medium (files + synced marks), with no
    /// armed crash. Used by tests sweeping many what-if recoveries off
    /// one recorded run.
    pub fn fork(&self) -> MemFs {
        let st = self.state.lock().unwrap();
        MemFs {
            state: Mutex::new(MemState {
                files: st
                    .files
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            MemFile {
                                bytes: v.bytes.clone(),
                                synced: v.synced,
                            },
                        )
                    })
                    .collect(),
                mutations: st.mutations,
                crash_at: None,
                crashed: false,
            }),
        }
    }

    /// Mutating operations performed so far (for aiming `set_crash_at`).
    pub fn mutations(&self) -> u64 {
        self.state.lock().unwrap().mutations
    }

    /// Bump the mutation counter; returns true if this operation is the
    /// crashing one (caller applies its partial effect, then fails).
    fn account_mutation(st: &mut MemState) -> Result<bool, PersistError> {
        if st.crashed {
            return Err(PersistError::Crashed);
        }
        st.mutations += 1;
        if st.crash_at == Some(st.mutations) {
            st.crashed = true;
            return Ok(true);
        }
        Ok(false)
    }
}

impl Vfs for MemFs {
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(PersistError::Crashed);
        }
        st.files
            .get(name)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| PersistError::Missing(name.to_string()))
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(PersistError::Crashed);
        }
        let f = st
            .files
            .get(name)
            .ok_or_else(|| PersistError::Missing(name.to_string()))?;
        let (start, end) = (offset as usize, (offset + len) as usize);
        f.bytes.get(start..end).map(|s| s.to_vec()).ok_or_else(|| {
            PersistError::Io(format!(
                "short read of {name}: want [{start}, {end}), have {}",
                f.bytes.len()
            ))
        })
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        let crashing = Self::account_mutation(&mut st)?;
        let f = st.files.entry(name.to_string()).or_insert(MemFile {
            bytes: Vec::new(),
            synced: 0,
        });
        if crashing {
            // Torn write: half the payload reaches the platter, durably.
            let torn = &bytes[..bytes.len() / 2];
            f.bytes.extend_from_slice(torn);
            f.synced = f.bytes.len();
            return Err(PersistError::Crashed);
        }
        f.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        if Self::account_mutation(&mut st)? {
            return Err(PersistError::Crashed); // crash mid-fsync: nothing promoted
        }
        if let Some(f) = st.files.get_mut(name) {
            f.synced = f.bytes.len();
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        if Self::account_mutation(&mut st)? {
            return Err(PersistError::Crashed); // rename never happened: old file stays
        }
        st.files.insert(
            name.to_string(),
            MemFile {
                bytes: bytes.to_vec(),
                synced: bytes.len(),
            },
        );
        Ok(())
    }

    fn truncate(&self, name: &str) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        if Self::account_mutation(&mut st)? {
            return Err(PersistError::Crashed);
        }
        if let Some(f) = st.files.get_mut(name) {
            f.bytes.clear();
            f.synced = 0;
        }
        Ok(())
    }

    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        if Self::account_mutation(&mut st)? {
            return Err(PersistError::Crashed);
        }
        if let Some(f) = st.files.get_mut(name) {
            f.bytes.truncate(len as usize);
            f.synced = f.bytes.len();
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), PersistError> {
        let mut st = self.state.lock().unwrap();
        if Self::account_mutation(&mut st)? {
            return Err(PersistError::Crashed);
        }
        st.files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.state.lock().unwrap().files.contains_key(name)
    }

    fn file_len(&self, name: &str) -> Result<u64, PersistError> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(PersistError::Crashed);
        }
        Ok(st
            .files
            .get(name)
            .map(|f| f.bytes.len() as u64)
            .unwrap_or(0))
    }

    fn list(&self) -> Vec<String> {
        self.state.lock().unwrap().files.keys().cloned().collect()
    }
}

// ------------------------------------------------------------------ StdFs

/// Real-filesystem backend rooted at a directory.
pub struct StdFs {
    root: PathBuf,
    /// File names whose directory entry is already fsynced — a file's
    /// entry only changes on creation (or rename/removal, which do
    /// their own directory sync), so `sync` pays the directory fsync
    /// once per file instead of on every data fsync.
    dir_synced: Mutex<std::collections::BTreeSet<String>>,
}

impl StdFs {
    /// Open (creating if needed) a durable root directory.
    pub fn new(root: impl Into<PathBuf>) -> Result<StdFs, PersistError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| PersistError::Io(e.to_string()))?;
        Ok(StdFs {
            root,
            dir_synced: Mutex::new(std::collections::BTreeSet::new()),
        })
    }

    fn path(&self, name: &str) -> Result<PathBuf, PersistError> {
        if name.contains('/') || name.contains('\\') || name == "." || name == ".." {
            return Err(PersistError::Io(format!("invalid flat file name {name:?}")));
        }
        Ok(self.root.join(name))
    }

    fn io<T>(r: std::io::Result<T>) -> Result<T, PersistError> {
        r.map_err(|e| PersistError::Io(e.to_string()))
    }

    /// Fsync the root directory so freshly created files (and renames)
    /// survive power loss — data fsync alone does not persist the
    /// directory entry on ext4/xfs.
    fn sync_dir(&self) -> Result<(), PersistError> {
        let dir = Self::io(std::fs::File::open(&self.root))?;
        Self::io(dir.sync_all())
    }
}

impl Vfs for StdFs {
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError> {
        let path = self.path(name)?;
        if !path.exists() {
            return Err(PersistError::Missing(name.to_string()));
        }
        Self::io(std::fs::read(path))
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError> {
        let mut f = Self::io(std::fs::File::open(self.path(name)?))?;
        Self::io(f.seek(std::io::SeekFrom::Start(offset)))?;
        let mut buf = vec![0u8; len as usize];
        Self::io(f.read_exact(&mut buf))?;
        Ok(buf)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut f = Self::io(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name)?),
        )?;
        Self::io(f.write_all(bytes))
    }

    fn sync(&self, name: &str) -> Result<(), PersistError> {
        let f = Self::io(std::fs::File::open(self.path(name)?))?;
        Self::io(f.sync_all())?;
        // The file may have been created by the preceding append; its
        // directory entry must be durable too — but only once per file,
        // not on every data fsync.
        if !self.dir_synced.lock().unwrap().contains(name) {
            self.sync_dir()?;
            self.dir_synced.lock().unwrap().insert(name.to_string());
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let tmp = self.path(&format!("{name}.tmp~"))?;
        let dst = self.path(name)?;
        {
            let mut f = Self::io(std::fs::File::create(&tmp))?;
            Self::io(f.write_all(bytes))?;
            Self::io(f.sync_all())?;
        }
        Self::io(std::fs::rename(&tmp, &dst))?;
        // Make the rename itself durable (directory metadata); the
        // destination's entry is now covered.
        self.sync_dir()?;
        self.dir_synced.lock().unwrap().insert(name.to_string());
        Ok(())
    }

    fn truncate(&self, name: &str) -> Result<(), PersistError> {
        let f = Self::io(
            std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.path(name)?),
        )?;
        Self::io(f.sync_all())
    }

    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError> {
        let f = Self::io(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(false) // set_len below does the (partial) truncation
                .write(true)
                .open(self.path(name)?),
        )?;
        Self::io(f.set_len(len))?;
        Self::io(f.sync_all())
    }

    fn remove(&self, name: &str) -> Result<(), PersistError> {
        match std::fs::remove_file(self.path(name)?) {
            Ok(()) => {
                self.dir_synced.lock().unwrap().remove(name);
                self.sync_dir()
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(PersistError::Io(e.to_string())),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).map(|p| p.exists()).unwrap_or(false)
    }

    fn file_len(&self, name: &str) -> Result<u64, PersistError> {
        let path = self.path(name)?;
        match std::fs::metadata(path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(PersistError::Io(e.to_string())),
        }
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_append_read_roundtrip() {
        let fs = MemFs::new();
        fs.append("a", b"hello ").unwrap();
        fs.append("a", b"world").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"hello world");
        assert_eq!(fs.read_at("a", 6, 5).unwrap(), b"world");
        assert_eq!(fs.file_len("a").unwrap(), 11);
        assert!(matches!(fs.read("b"), Err(PersistError::Missing(_))));
    }

    #[test]
    fn power_cut_drops_unsynced_tail() {
        let fs = MemFs::new();
        fs.append("wal", b"durable").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b"-volatile").unwrap();
        fs.power_cut();
        assert_eq!(fs.read("wal").unwrap(), b"durable");
    }

    #[test]
    fn crash_at_tears_the_append_then_poisons() {
        let fs = MemFs::new();
        fs.append("wal", b"ok").unwrap();
        fs.sync("wal").unwrap();
        fs.set_crash_at(1);
        assert_eq!(fs.append("wal", b"ABCDEFGH"), Err(PersistError::Crashed));
        // Poisoned until reboot.
        assert_eq!(fs.read("wal"), Err(PersistError::Crashed));
        assert_eq!(fs.append("wal", b"more"), Err(PersistError::Crashed));
        fs.power_cut();
        // Half of the torn append ("ABCD") reached the platter.
        assert_eq!(fs.read("wal").unwrap(), b"okABCD");
    }

    #[test]
    fn write_atomic_is_all_or_nothing_under_crash() {
        let fs = MemFs::new();
        fs.write_atomic("manifest", b"v1").unwrap();
        fs.set_crash_at(1);
        assert_eq!(
            fs.write_atomic("manifest", b"v2"),
            Err(PersistError::Crashed)
        );
        fs.power_cut();
        assert_eq!(fs.read("manifest").unwrap(), b"v1");
    }

    #[test]
    fn fork_is_independent() {
        let fs = MemFs::new();
        fs.append("f", b"base").unwrap();
        fs.sync("f").unwrap();
        let fork = fs.fork();
        fs.append("f", b"+more").unwrap();
        assert_eq!(fork.read("f").unwrap(), b"base");
        assert_eq!(fs.read("f").unwrap(), b"base+more");
    }

    #[test]
    fn stdfs_roundtrip_under_target_tmp() {
        // Keep test artifacts inside the workspace target dir.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/persist-test")
            .join(format!("vfs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fs = StdFs::new(&dir).unwrap();
        fs.append("seg", b"abc").unwrap();
        fs.append("seg", b"def").unwrap();
        fs.sync("seg").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"abcdef");
        assert_eq!(fs.read_at("seg", 2, 3).unwrap(), b"cde");
        fs.write_atomic("manifest", b"m1").unwrap();
        assert_eq!(fs.read("manifest").unwrap(), b"m1");
        assert_eq!(fs.list(), vec!["manifest".to_string(), "seg".to_string()]);
        fs.truncate("seg").unwrap();
        assert_eq!(fs.file_len("seg").unwrap(), 0);
        assert!(matches!(fs.read("nope"), Err(PersistError::Missing(_))));
        assert!(fs.path("../escape").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
