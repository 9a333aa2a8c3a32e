//! Layered guest file tree.
//!
//! An image's file population = shared base layers (Arc'd, typically the
//! distribution's ~tens-of-thousands of OS files) + a per-image overlay +
//! tombstones for deletions. File *content* is not stored here — every
//! record carries a `(seed, size)` pair from which
//! [`xpl_pkg::content::generate`] reproduces the bytes deterministically.
//!
//! **One walk per operation.** The effective view — overlay over newest
//! layer over older layers, minus tombstones — is never built. The
//! layers and the overlay are each path-sorted already, so
//! [`FsTree::iter`] merges them as it goes: O(n), borrowing, and the only
//! thing it allocates is one cursor per layer. `file_count`,
//! `total_bytes` and every removal stream over that merge. The rule for
//! callers is the same: no operation walks the tree more than once per
//! phase, and nothing is collected that can be streamed.

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::sync::Arc;

use xpl_pkg::PackageId;
use xpl_util::{FxHashSet, IStr};

/// Who put a file into the image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileOwner {
    /// Installed by a package.
    Package(PackageId),
    /// User data (`Data` in the paper's model) — not known to dpkg.
    UserData,
    /// Base system plumbing not attributed to any package (boot files,
    /// generated caches).
    System,
}

/// One file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRecord {
    pub path: IStr,
    /// Materialized size in bytes.
    pub size: u32,
    /// Content seed (identical (seed, size) ⇒ identical bytes).
    pub seed: u64,
    pub owner: FileOwner,
}

impl FileRecord {
    /// The file's content bytes (generated on demand).
    pub fn content(&self) -> Vec<u8> {
        xpl_pkg::content::generate(self.seed, self.size as usize)
    }

    /// Content digest without materializing.
    pub fn content_digest(&self) -> xpl_util::Digest {
        xpl_pkg::content::content_digest(self.seed, self.size as usize)
    }
}

/// A base layer: path-sorted, immutable, shared between images.
pub type FsLayer = Arc<Vec<FileRecord>>;

/// Build a layer from records (sorts by path string; panics on duplicate
/// paths — base layers are authored, not accumulated).
pub fn layer_from(mut records: Vec<FileRecord>) -> FsLayer {
    records.sort_by_key(|r| r.path.as_str());
    for w in records.windows(2) {
        assert_ne!(
            w[0].path, w[1].path,
            "duplicate path in layer: {}",
            w[0].path
        );
    }
    Arc::new(records)
}

/// The layered tree.
#[derive(Clone, Default)]
pub struct FsTree {
    layers: Vec<FsLayer>,
    overlay: BTreeMap<&'static str, FileRecord>,
    tombstones: FxHashSet<IStr>,
}

impl FsTree {
    pub fn new() -> Self {
        FsTree::default()
    }

    pub fn with_base(layer: FsLayer) -> Self {
        FsTree {
            layers: vec![layer],
            overlay: BTreeMap::new(),
            tombstones: FxHashSet::default(),
        }
    }

    pub fn push_layer(&mut self, layer: FsLayer) {
        self.layers.push(layer);
    }

    /// Add (or replace) a file.
    pub fn add_file(&mut self, rec: FileRecord) {
        self.tombstones.remove(&rec.path);
        self.overlay.insert(rec.path.as_str(), rec);
    }

    /// Remove a path (tombstoning base-layer files).
    pub fn remove_path(&mut self, path: IStr) -> bool {
        let existed = self.get(path).is_some();
        self.overlay.remove(path.as_str());
        if self.layers.iter().any(|l| layer_contains(l, path)) {
            self.tombstones.insert(path);
        }
        existed
    }

    /// Remove every effective file `doomed` accepts, in one walk; returns
    /// the bytes removed. `doomed` sees each effective record exactly
    /// once, in path order, so a caller can keep its own tally per match.
    pub fn remove_where(&mut self, mut doomed: impl FnMut(&FileRecord) -> bool) -> u64 {
        let hits: Vec<Merged> = self.merge().filter(|m| doomed(&m.rec)).collect();
        let mut removed = 0u64;
        for hit in hits {
            removed += hit.rec.size as u64;
            if hit.from_overlay {
                self.overlay.remove(hit.rec.path.as_str());
            }
            if hit.in_layer {
                self.tombstones.insert(hit.rec.path);
            }
        }
        removed
    }

    /// Path prefixes counted as junk (caches, logs, tmp) — content that
    /// semantic publishing cleans up ("cleaning up the cached repository
    /// files", §V-3) but that file-level stores faithfully keep.
    pub const JUNK_PREFIXES: [&'static str; 3] = ["/var/cache/", "/var/log/", "/tmp/"];

    /// Is this path junk?
    pub fn is_junk_path(path: IStr) -> bool {
        let s = path.as_str();
        Self::JUNK_PREFIXES.iter().any(|p| s.starts_with(p))
    }

    /// Remove all junk files; returns bytes removed.
    pub fn remove_junk(&mut self) -> u64 {
        self.remove_where(|r| Self::is_junk_path(r.path))
    }

    /// Remove all user-data files; returns bytes removed.
    pub fn remove_user_data(&mut self) -> u64 {
        self.remove_where(|r| r.owner == FileOwner::UserData)
    }

    /// Remove user data and junk together (what a `virt-sysprep` reset
    /// and a publish's strip both drop); returns bytes removed.
    pub fn remove_user_data_and_junk(&mut self) -> u64 {
        self.remove_where(|r| r.owner == FileOwner::UserData || Self::is_junk_path(r.path))
    }

    /// Effective lookup: overlay wins, then newest layer, unless
    /// tombstoned.
    pub fn get(&self, path: IStr) -> Option<FileRecord> {
        if self.tombstones.contains(&path) {
            return self.overlay.get(path.as_str()).copied();
        }
        if let Some(r) = self.overlay.get(path.as_str()) {
            return Some(*r);
        }
        for layer in self.layers.iter().rev() {
            if let Some(r) = layer_get(layer, path) {
                return Some(*r);
            }
        }
        None
    }

    /// Iterate effective files in deterministic (path) order.
    pub fn iter(&self) -> impl Iterator<Item = FileRecord> + '_ {
        self.merge().map(|m| m.rec)
    }

    fn merge(&self) -> Merge<'_> {
        Merge {
            heads: self.layers.iter().map(|l| l.as_slice()).collect(),
            overlay: self.overlay.iter().peekable(),
            tombstones: &self.tombstones,
        }
    }

    pub fn file_count(&self) -> usize {
        self.merge().count()
    }

    pub fn total_bytes(&self) -> u64 {
        self.merge().map(|m| m.rec.size as u64).sum()
    }

    /// Files owned by a specific package.
    pub fn files_of(&self, pkg: PackageId) -> Vec<FileRecord> {
        self.iter()
            .filter(|r| r.owner == FileOwner::Package(pkg))
            .collect()
    }
}

/// One effective record and where the tree holds its path — what a
/// removal needs to hide it without looking it up again.
struct Merged {
    rec: FileRecord,
    /// The record is the overlay's.
    from_overlay: bool,
    /// Some layer holds the path (the record itself, or one it shadows).
    in_layer: bool,
}

/// The k-way merge behind every walk: each layer and the overlay are
/// path-sorted, so the effective view is their merge with the overlay
/// winning a tie, then the newest layer, and tombstoned layer paths
/// skipped. Each step looks only at the heads.
struct Merge<'a> {
    /// What is left of each layer, oldest first.
    heads: Vec<&'a [FileRecord]>,
    overlay: Peekable<btree_map::Iter<'a, &'static str, FileRecord>>,
    tombstones: &'a FxHashSet<IStr>,
}

impl Iterator for Merge<'_> {
    type Item = Merged;

    fn next(&mut self) -> Option<Merged> {
        loop {
            // Smallest path at any layer's head; `<=` over oldest-first
            // heads lets the newest layer win a tie.
            let mut low: Option<(&'static str, FileRecord)> = None;
            for head in &self.heads {
                if let Some(r) = head.first() {
                    let path = r.path.as_str();
                    if low.is_none_or(|(low_path, _)| path <= low_path) {
                        low = Some((path, *r));
                    }
                }
            }
            let from_overlay = match (self.overlay.peek(), low) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((&overlay_path, _)), Some((low_path, _))) => overlay_path <= low_path,
            };
            let rec = if from_overlay {
                *self.overlay.next()?.1
            } else {
                low?.1
            };
            // Every layer's copy of this path is now either emitted or
            // shadowed; interned paths compare by id.
            let mut in_layer = false;
            for head in &mut self.heads {
                if head.first().is_some_and(|r| r.path == rec.path) {
                    *head = &head[1..];
                    in_layer = true;
                }
            }
            if from_overlay || !self.tombstones.contains(&rec.path) {
                return Some(Merged {
                    rec,
                    from_overlay,
                    in_layer,
                });
            }
        }
    }
}

fn layer_get(layer: &FsLayer, path: IStr) -> Option<&FileRecord> {
    layer
        .binary_search_by_key(&path.as_str(), |r| r.path.as_str())
        .ok()
        .map(|i| &layer[i])
}

fn layer_contains(layer: &FsLayer, path: IStr) -> bool {
    layer_get(layer, path).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, size: u32, owner: FileOwner) -> FileRecord {
        FileRecord {
            path: IStr::new(path),
            size,
            seed: size as u64 * 7 + 1,
            owner,
        }
    }

    fn base_layer() -> FsLayer {
        layer_from(vec![
            rec("/bin/bash", 1000, FileOwner::Package(PackageId(0))),
            rec("/etc/hostname", 10, FileOwner::System),
            rec("/usr/lib/libc.so", 2000, FileOwner::Package(PackageId(1))),
        ])
    }

    #[test]
    fn base_files_visible() {
        let fs = FsTree::with_base(base_layer());
        assert_eq!(fs.file_count(), 3);
        assert_eq!(fs.total_bytes(), 3010);
        assert_eq!(fs.get(IStr::new("/bin/bash")).unwrap().size, 1000);
    }

    #[test]
    fn overlay_shadows_base() {
        let mut fs = FsTree::with_base(base_layer());
        fs.add_file(rec("/etc/hostname", 25, FileOwner::UserData));
        assert_eq!(fs.get(IStr::new("/etc/hostname")).unwrap().size, 25);
        assert_eq!(fs.file_count(), 3, "replacement, not addition");
    }

    #[test]
    fn tombstone_hides_base_file() {
        let mut fs = FsTree::with_base(base_layer());
        assert!(fs.remove_path(IStr::new("/bin/bash")));
        assert!(fs.get(IStr::new("/bin/bash")).is_none());
        assert_eq!(fs.file_count(), 2);
        // Re-adding resurrects.
        fs.add_file(rec("/bin/bash", 999, FileOwner::System));
        assert_eq!(fs.get(IStr::new("/bin/bash")).unwrap().size, 999);
    }

    #[test]
    fn remove_owned_by_package() {
        let mut fs = FsTree::with_base(base_layer());
        fs.add_file(rec("/opt/tool/bin", 500, FileOwner::Package(PackageId(9))));
        fs.add_file(rec("/opt/tool/conf", 50, FileOwner::Package(PackageId(9))));
        let removed = fs.remove_where(|r| r.owner == FileOwner::Package(PackageId(9)));
        assert_eq!(removed, 550);
        assert_eq!(fs.file_count(), 3);
        // Base-layer files of another package untouched.
        assert!(fs.get(IStr::new("/usr/lib/libc.so")).is_some());
    }

    #[test]
    fn remove_user_data() {
        let mut fs = FsTree::with_base(base_layer());
        fs.add_file(rec("/home/user/a.dat", 300, FileOwner::UserData));
        fs.add_file(rec("/home/user/b.dat", 200, FileOwner::UserData));
        assert_eq!(fs.remove_user_data(), 500);
        assert_eq!(fs.file_count(), 3);
    }

    #[test]
    fn shared_base_is_cheap() {
        let base = base_layer();
        let a = FsTree::with_base(Arc::clone(&base));
        let b = FsTree::with_base(Arc::clone(&base));
        assert_eq!(a.file_count(), b.file_count());
        assert_eq!(Arc::strong_count(&base), 3);
    }

    #[test]
    fn iteration_is_path_sorted() {
        let mut fs = FsTree::with_base(base_layer());
        fs.add_file(rec("/aaa", 1, FileOwner::System));
        let paths: Vec<&str> = fs.iter().map(|r| r.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert_eq!(paths[0], "/aaa");
    }

    #[test]
    fn content_is_deterministic_per_record() {
        let r = rec("/bin/bash", 100, FileOwner::System);
        assert_eq!(r.content(), r.content());
        assert_eq!(r.content().len(), 100);
    }

    #[test]
    #[should_panic(expected = "duplicate path")]
    fn layer_rejects_duplicates() {
        layer_from(vec![
            rec("/x", 1, FileOwner::System),
            rec("/x", 2, FileOwner::System),
        ]);
    }

    /// The reference model: the `BTreeMap`-rebuilding merge the streaming
    /// view replaced, with lookups read off that map and removals done
    /// the way they were (collect doomed paths, then look up and remove
    /// each).
    #[derive(Default)]
    struct Model {
        layers: Vec<FsLayer>,
        overlay: BTreeMap<&'static str, FileRecord>,
        tombstones: FxHashSet<IStr>,
    }

    impl Model {
        fn effective(&self) -> Vec<FileRecord> {
            let mut out: BTreeMap<&'static str, FileRecord> = BTreeMap::new();
            for layer in &self.layers {
                for r in layer.iter() {
                    out.insert(r.path.as_str(), *r);
                }
            }
            for path in &self.tombstones {
                out.remove(path.as_str());
            }
            for (k, r) in &self.overlay {
                out.insert(k, *r);
            }
            out.into_values().collect()
        }

        fn get(&self, path: IStr) -> Option<FileRecord> {
            self.effective().into_iter().find(|r| r.path == path)
        }

        fn add_file(&mut self, rec: FileRecord) {
            self.tombstones.remove(&rec.path);
            self.overlay.insert(rec.path.as_str(), rec);
        }

        fn remove_path(&mut self, path: IStr) -> bool {
            let existed = self.get(path).is_some();
            self.overlay.remove(path.as_str());
            if self.layers.iter().any(|l| l.iter().any(|r| r.path == path)) {
                self.tombstones.insert(path);
            }
            existed
        }

        fn remove_where(&mut self, doomed: impl Fn(&FileRecord) -> bool) -> u64 {
            let mut removed = 0u64;
            let paths: Vec<IStr> = self
                .effective()
                .iter()
                .filter(|r| doomed(r))
                .map(|r| r.path)
                .collect();
            for path in paths {
                if let Some(r) = self.get(path) {
                    removed += r.size as u64;
                }
                self.remove_path(path);
            }
            removed
        }
    }

    /// A small path universe (two of them junk) so that layers, overlay
    /// and tombstones collide constantly.
    fn universe() -> Vec<IStr> {
        [
            "/bin/a",
            "/bin/b",
            "/etc/c",
            "/home/u/d",
            "/home/u/e",
            "/opt/f",
            "/tmp/g",
            "/usr/lib/h",
            "/usr/lib/i",
            "/var/log/j",
        ]
        .iter()
        .map(|p| IStr::new(p))
        .collect()
    }

    fn owner_of(k: u8) -> FileOwner {
        match k % 4 {
            0 => FileOwner::UserData,
            1 => FileOwner::System,
            k => FileOwner::Package(PackageId(k as u32)),
        }
    }

    proptest::proptest! {
        #[test]
        fn streaming_view_equals_the_map_model(
            ops in proptest::collection::vec(
                (0u8..10, 0usize..10, 1u32..5000, proptest::any::<u8>()),
                1..60,
            ),
        ) {
            let paths = universe();
            let mut fs = FsTree::new();
            let mut model = Model::default();
            for (kind, at, size, k) in ops {
                let path = paths[at];
                match kind {
                    // A layer holding the paths whose bit is set in
                    // `size` (none: an empty layer); three layers at most.
                    0 | 1 if model.layers.len() < 3 => {
                        let layer = layer_from(
                            paths
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| size >> i & 1 == 1)
                                .map(|(i, &p)| FileRecord {
                                    path: p,
                                    size: size + i as u32,
                                    seed: k as u64,
                                    owner: owner_of(k.wrapping_add(i as u8)),
                                })
                                .collect(),
                        );
                        fs.push_layer(Arc::clone(&layer));
                        model.layers.push(layer);
                    }
                    0..=4 => {
                        let rec = FileRecord { path, size, seed: k as u64, owner: owner_of(k) };
                        fs.add_file(rec);
                        model.add_file(rec);
                    }
                    5 | 6 => {
                        proptest::prop_assert_eq!(fs.remove_path(path), model.remove_path(path));
                    }
                    7 => {
                        let owner = owner_of(k);
                        proptest::prop_assert_eq!(
                            fs.remove_where(|r| r.owner == owner),
                            model.remove_where(|r| r.owner == owner)
                        );
                    }
                    8 => {
                        proptest::prop_assert_eq!(
                            fs.remove_user_data_and_junk(),
                            model.remove_where(|r| {
                                r.owner == FileOwner::UserData || FsTree::is_junk_path(r.path)
                            })
                        );
                    }
                    _ => {
                        proptest::prop_assert_eq!(
                            fs.remove_where(|r| r.size % 2 == 0),
                            model.remove_where(|r| r.size % 2 == 0)
                        );
                    }
                }
                let want = model.effective();
                proptest::prop_assert_eq!(fs.iter().collect::<Vec<_>>(), want.clone());
                proptest::prop_assert_eq!(fs.file_count(), want.len());
                proptest::prop_assert_eq!(
                    fs.total_bytes(),
                    want.iter().map(|r| r.size as u64).sum::<u64>()
                );
                for &p in &paths {
                    proptest::prop_assert_eq!(fs.get(p), model.get(p));
                }
            }
        }
    }

    #[test]
    fn files_of_package() {
        let fs = FsTree::with_base(base_layer());
        let files = fs.files_of(PackageId(1));
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].path.as_str(), "/usr/lib/libc.so");
    }
}
