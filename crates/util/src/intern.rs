//! Thread-safe string interner.
//!
//! File paths and package names repeat massively across images (the base OS
//! contributes ~70 k identical paths to every image); interning turns them
//! into 4-byte ids with O(1) equality and hashing.
//!
//! A global interner instance is provided because path identity must be
//! shared across crates; per-test isolation is unnecessary since interning
//! is append-only and content-addressed.

use std::hash::Hasher as _;
use std::sync::{Mutex, OnceLock, RwLock};

use crate::fxhash::FxHasher;

/// An interned string: a dense index into the global interner.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IStr(pub u32);

impl IStr {
    /// Intern a string in the global interner.
    pub fn new(s: &str) -> IStr {
        global().intern(s)
    }

    /// Resolve to the underlying string (leaked storage, `'static`).
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }
}

impl std::fmt::Debug for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{:?}", self.as_str())
    }
}

impl std::fmt::Display for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr::new(s)
    }
}

/// The interner itself. Strings are leaked into `'static` storage — the
/// set of distinct paths/names in any run is bounded (a few hundred
/// thousand) and the process is short-lived, so this is the standard,
/// lock-cheap design.
///
/// It is also the one structure that only ever grows, so a long run's
/// peak RSS follows its footprint: strings are carved back to back off
/// leaked chunks (a heap block's header and rounding is another third
/// of a 40-byte path), and the string → id map is sixteen small
/// open-addressed tables of 8-byte slots instead of one
/// `HashMap<&'static str, u32>` at 25 bytes a bucket, which at 57 k
/// strings doubled from 1.6 to 3.3 MiB while still holding the old
/// table.
pub struct Interner {
    /// String → id, sharded by the top bits of the string's hash.
    /// RwLock: reads (lookups of already-interned strings) vastly
    /// dominate. Lock order: shard → `rev` (read); the insert path
    /// never holds both.
    map: [RwLock<Shard>; MAP_SHARDS],
    /// Reverse table. Guarded separately so `resolve` never contends with
    /// `intern`'s map write lock.
    rev: RwLock<Vec<&'static str>>,
    /// Serializes the insert slow path so two racing interns of the same
    /// new string cannot both allocate an id. Holds the free tail of the
    /// current leaked chunk.
    insert: Mutex<&'static mut [u8]>,
}

const MAP_SHARDS: usize = 16;
const CHUNK_BYTES: usize = 64 * 1024;

/// One shard of the map: linear probing over `hash32 << 32 | id + 1`
/// slots (0 = empty), at most three quarters full. The 32 hash bits
/// place the slot and filter candidates; the string itself is compared
/// through `rev`.
#[derive(Default)]
struct Shard {
    slots: Vec<u64>,
    len: usize,
}

impl Shard {
    fn find(&self, hash: u64, s: &str, rev: &[&'static str]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = (hash >> 32) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            let id = slot as u32 - 1;
            if slot >> 32 == hash >> 32 && rev[id as usize] == s {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Insert a string known to be absent.
    fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![0; (self.slots.len() * 2).max(16)];
            for slot in std::mem::replace(&mut self.slots, doubled) {
                if slot != 0 {
                    self.place(slot);
                }
            }
        }
        self.place(hash >> 32 << 32 | u64::from(id + 1));
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut at = (slot >> 32) as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    pub fn new() -> Self {
        Interner {
            map: std::array::from_fn(|_| RwLock::default()),
            rev: RwLock::new(Vec::new()),
            insert: Mutex::new(&mut []),
        }
    }

    pub fn intern(&self, s: &str) -> IStr {
        let mut hasher = FxHasher::default();
        hasher.write(s.as_bytes());
        let hash = hasher.finish();
        let shard = &self.map[(hash >> 60) as usize % MAP_SHARDS];
        let find = || {
            shard
                .read()
                .unwrap()
                .find(hash, s, &self.rev.read().unwrap())
        };
        if let Some(id) = find() {
            return IStr(id);
        }
        let mut free = self.insert.lock().unwrap();
        // Re-check under the insert lock.
        if let Some(id) = find() {
            return IStr(id);
        }
        if free.len() < s.len() {
            *free = Box::leak(vec![0; CHUNK_BYTES.max(s.len())].into_boxed_slice());
        }
        let (bytes, rest) = std::mem::take(&mut *free).split_at_mut(s.len());
        *free = rest;
        bytes.copy_from_slice(s.as_bytes());
        let leaked: &'static str = std::str::from_utf8(bytes).expect("copied from a str");
        let mut rev = self.rev.write().unwrap();
        let id = rev.len() as u32;
        rev.push(leaked);
        drop(rev);
        shard.write().unwrap().insert(hash, id);
        IStr(id)
    }

    pub fn resolve(&self, i: IStr) -> &'static str {
        self.rev.read().unwrap()[i.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.rev.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_id() {
        let a = IStr::new("hello/world");
        let b = IStr::new("hello/world");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello/world");
    }

    #[test]
    fn different_strings_different_ids() {
        assert_ne!(IStr::new("intern-a"), IStr::new("intern-b"));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        use std::thread;
        let names: Vec<String> = (0..64).map(|i| format!("conc-{}", i % 8)).collect();
        let mut handles = vec![];
        for chunk in names.chunks(8) {
            let chunk = chunk.to_vec();
            handles.push(thread::spawn(move || {
                chunk.iter().map(|s| IStr::new(s)).collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<IStr>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread interned the same 8 distinct strings; ids must agree.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn many_strings_survive_growth_and_collisions() {
        // Enough strings that every shard doubles several times, short
        // and near-identical so 32-bit tags and probe runs get exercised.
        let local = Interner::new();
        let names: Vec<String> = (0..20_000).map(|i| format!("/p/{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(local.intern(name), IStr(i as u32));
        }
        assert_eq!(local.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(local.intern(name), IStr(i as u32), "{name}");
            assert_eq!(local.resolve(IStr(i as u32)), name);
        }
        // A string larger than a chunk gets a chunk of its own.
        let big = "x".repeat(CHUNK_BYTES + 1);
        let id = local.intern(&big);
        assert_eq!(local.resolve(id), big);
        assert_eq!(local.intern("/p/0"), IStr(0));
    }

    #[test]
    fn local_interner_independent() {
        let local = Interner::new();
        let a = local.intern("x");
        let b = local.intern("y");
        assert_eq!(a, IStr(0));
        assert_eq!(b, IStr(1));
        assert_eq!(local.resolve(a), "x");
        assert_eq!(local.len(), 2);
    }
}
