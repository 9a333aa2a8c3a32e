//! Layered guest file tree.
//!
//! An image's file population = a shared base layer (Arc'd, typically the
//! distribution's ~tens-of-thousands of OS files) + a per-image overlay +
//! tombstones for deletions. File *content* is not stored here — every
//! record carries a `(seed, size)` pair from which
//! [`xpl_pkg::content::generate`] reproduces the bytes deterministically.
//!
//! **The shared layer is indexed once.** A [`Layer`] never changes after
//! [`layer_from`] built it, so everything an operation could want to know
//! about it — where a path sits, which records a package or the user
//! owns, which are junk, which block group each falls into and what the
//! groups add up to — is computed there, once per world, and shared by
//! every image, clone and retrieve. There is nothing to invalidate. An
//! operation on an [`FsTree`] then costs the overlay, the tombstones and
//! the records it actually touches, not a walk of the layer: counts and
//! byte totals are the layer's sums corrected by the positions the
//! overlay and the tombstones hide; the removals by package, user data
//! and junk prefix visit only the layer positions the index names. The
//! effective view itself — overlay over layer, minus tombstones — is
//! still never built: [`FsTree::iter`] merges the two path-sorted sides
//! as it goes, for callers that want every record ([`FsTree::remove_where`]
//! with an arbitrary predicate is one).

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::mkfs::{file_span, group_of, NGROUPS};
use xpl_pkg::PackageId;
use xpl_util::{FxHashMap, FxHashSet, IStr};

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

/// What a set of records adds up to: how many, their content bytes, and
/// the disk span [`crate::mkfs`] gives them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Sums {
    pub files: u64,
    pub bytes: u64,
    pub span: u64,
}

impl Sums {
    pub fn add(&mut self, rec: &FileRecord) {
        self.files += 1;
        self.bytes += rec.size as u64;
        self.span += file_span(rec);
    }

    pub fn sub(&mut self, rec: &FileRecord) {
        self.files -= 1;
        self.bytes -= rec.size as u64;
        self.span -= file_span(rec);
    }
}

/// A base layer's records, path-sorted, with everything about them that
/// an operation would otherwise walk them for. Immutable once built;
/// derefs to the records.
pub struct Layer {
    records: Vec<FileRecord>,
    /// `records[i].path` resolved, so that comparing paths takes no
    /// interner lock.
    paths: Vec<&'static str>,
    position: FxHashMap<IStr, u32>,
    /// Positions bucketed by block group, in path order inside a bucket:
    /// group `g` is `grouped[group_starts[g]..group_starts[g + 1]]`.
    grouped: Vec<u32>,
    group_starts: Vec<u32>,
    /// Disk span of each group's records.
    group_span: Vec<u64>,
    sums: Sums,
    /// Positions by owner, ascending.
    packages: FxHashMap<PackageId, Vec<u32>>,
    user_data: Vec<u32>,
    /// The positions under each of [`FsTree::JUNK_PREFIXES`].
    junk: [Range<u32>; 3],
}

impl Deref for Layer {
    type Target = [FileRecord];

    fn deref(&self) -> &[FileRecord] {
        &self.records
    }
}

impl Layer {
    /// Where `path` sits in the layer.
    pub(crate) fn position(&self, path: IStr) -> Option<u32> {
        self.position.get(&path).copied()
    }

    /// The path string of the record at `pos`.
    pub(crate) fn path_at(&self, pos: u32) -> &'static str {
        self.paths[pos as usize]
    }

    /// Positions of block group `group`, in path order.
    pub(crate) fn bucket(&self, group: usize) -> &[u32] {
        &self.grouped[self.group_starts[group] as usize..self.group_starts[group + 1] as usize]
    }

    /// Disk span of each block group's records.
    pub(crate) fn group_span(&self) -> &[u64] {
        &self.group_span
    }

    pub(crate) fn sums(&self) -> Sums {
        self.sums
    }

    fn owned_by(&self, pkg: PackageId) -> &[u32] {
        self.packages.get(&pkg).map_or(&[], Vec::as_slice)
    }

    fn junk(&self) -> impl Iterator<Item = u32> + '_ {
        self.junk.iter().cloned().flatten()
    }
}

/// A base layer: immutable, indexed, shared between images.
pub type FsLayer = Arc<Layer>;

/// Build a layer from records and index it (sorts by path string; panics
/// on duplicate paths — base layers are authored, not accumulated).
pub fn layer_from(records: Vec<FileRecord>) -> FsLayer {
    let mut keyed: Vec<(&'static str, FileRecord)> =
        records.into_iter().map(|r| (r.path.as_str(), r)).collect();
    keyed.sort_unstable_by_key(|&(path, _)| path);
    for w in keyed.windows(2) {
        assert_ne!(w[0].0, w[1].0, "duplicate path in layer: {}", w[0].0);
    }
    let (paths, records): (Vec<&'static str>, Vec<FileRecord>) = keyed.into_iter().unzip();

    let mut position = FxHashMap::with_capacity_and_hasher(records.len(), Default::default());
    let mut packages: FxHashMap<PackageId, Vec<u32>> = FxHashMap::default();
    let mut user_data = Vec::new();
    let mut sums = Sums::default();
    let mut group_span = vec![0u64; NGROUPS];
    let groups: Vec<usize> = paths.iter().map(|path| group_of(path)).collect();
    for (pos, (rec, &group)) in records.iter().zip(&groups).enumerate() {
        let pos = pos as u32;
        position.insert(rec.path, pos);
        match rec.owner {
            FileOwner::Package(pkg) => packages.entry(pkg).or_default().push(pos),
            FileOwner::UserData => user_data.push(pos),
            FileOwner::System => {}
        }
        sums.add(rec);
        group_span[group] += file_span(rec);
    }
    // Stable: path order survives inside a group.
    let mut grouped: Vec<u32> = (0..records.len() as u32).collect();
    grouped.sort_by_key(|&pos| groups[pos as usize]);
    let group_starts = (0..=NGROUPS)
        .map(|g| grouped.partition_point(|&pos| groups[pos as usize] < g) as u32)
        .collect();
    // Paths under one prefix are contiguous in sorted order, starting at
    // the first path not below the prefix itself.
    let junk = FsTree::JUNK_PREFIXES.map(|prefix| {
        let lo = paths.partition_point(|path| *path < prefix);
        let hi = lo + paths[lo..].partition_point(|path| path.starts_with(prefix));
        lo as u32..hi as u32
    });
    Arc::new(Layer {
        records,
        paths,
        position,
        grouped,
        group_starts,
        group_span,
        sums,
        packages,
        user_data,
        junk,
    })
}

fn empty_layer() -> FsLayer {
    static EMPTY: OnceLock<FsLayer> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| layer_from(Vec::new())))
}

/// The layered tree: overlay over layer, minus tombstones.
///
/// Two conditions hold between the fields and every method keeps them: a
/// path is never both in the overlay and tombstoned, and every tombstone
/// names a path of the layer. So a layer record is effective exactly when
/// its path is in neither.
#[derive(Clone)]
pub struct FsTree {
    layer: FsLayer,
    overlay: BTreeMap<&'static str, FileRecord>,
    tombstones: FxHashSet<IStr>,
}

impl Default for FsTree {
    fn default() -> Self {
        FsTree::with_base(empty_layer())
    }
}

impl FsTree {
    pub fn new() -> Self {
        FsTree::default()
    }

    pub fn with_base(layer: FsLayer) -> Self {
        FsTree {
            layer,
            overlay: BTreeMap::new(),
            tombstones: FxHashSet::default(),
        }
    }

    /// Stack `layer` over the tree's layer, its records winning. A tree
    /// keeps one indexed layer, so stacking onto a non-empty one builds
    /// and indexes their union; images share a base through
    /// [`FsTree::with_base`], not through this.
    pub fn push_layer(&mut self, layer: FsLayer) {
        if self.layer.is_empty() {
            self.layer = layer;
            return;
        }
        let older = (self.layer.iter()).filter(|r| layer.position(r.path).is_none());
        self.layer = layer_from(older.chain(layer.iter()).copied().collect());
    }

    pub(crate) fn layer(&self) -> &Layer {
        &self.layer
    }

    /// The overlay's records in path order, each with its path string.
    pub(crate) fn overlay(&self) -> impl Iterator<Item = (&'static str, &FileRecord)> {
        self.overlay.iter().map(|(&path, rec)| (path, rec))
    }

    /// Does a tombstone or an overlay record hide the layer's `pos`?
    fn hides(&self, pos: u32) -> bool {
        self.tombstones.contains(&self.layer[pos as usize].path)
            || self.overlay.contains_key(self.layer.path_at(pos))
    }

    /// The layer positions a tombstone or an overlay record hides, each
    /// once, in no particular order.
    pub(crate) fn hidden_positions(&self) -> impl Iterator<Item = u32> + '_ {
        let shadowed = self.overlay.values().map(|rec| rec.path);
        (self.tombstones.iter().copied().chain(shadowed))
            .filter_map(|path| self.layer.position(path))
    }

    /// Add (or replace) a file.
    pub fn add_file(&mut self, rec: FileRecord) {
        self.tombstones.remove(&rec.path);
        self.overlay.insert(rec.path.as_str(), rec);
    }

    /// Remove a path (tombstoning base-layer files).
    pub fn remove_path(&mut self, path: IStr) -> bool {
        let from_overlay = self.overlay.remove(path.as_str()).is_some();
        let from_layer = self.layer.position(path).is_some() && self.tombstones.insert(path);
        from_overlay || from_layer
    }

    /// Remove every effective file `doomed` accepts, in one walk of the
    /// whole tree; returns the bytes removed. `doomed` sees each
    /// effective record exactly once, in path order, so a caller can keep
    /// its own tally per match. The removals the layer is indexed for
    /// (package, user data, junk) do not come through here.
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

    /// [`FsTree::remove_where`] for a predicate the layer is indexed
    /// for: `positions` are the layer positions of every record `doomed`
    /// could accept, so only they and the overlay are looked at. `doomed`
    /// sees each effective record among them exactly once.
    fn remove_indexed(
        &mut self,
        positions: impl IntoIterator<Item = u32>,
        mut doomed: impl FnMut(&FileRecord) -> bool,
    ) -> u64 {
        let mut removed = 0u64;
        for pos in positions {
            let rec = self.layer[pos as usize];
            // A shadowed position is the overlay record's to decide, below.
            if !self.hides(pos) && doomed(&rec) {
                self.tombstones.insert(rec.path);
                removed += rec.size as u64;
            }
        }
        let hits: Vec<&'static str> = (self.overlay.iter())
            .filter(|(_, rec)| doomed(rec))
            .map(|(&path, _)| path)
            .collect();
        for path in hits {
            if let Some(rec) = self.overlay.remove(path) {
                removed += rec.size as u64;
                if self.layer.position(rec.path).is_some() {
                    self.tombstones.insert(rec.path);
                }
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
        let layer = Arc::clone(&self.layer);
        self.remove_indexed(layer.junk(), |r| Self::is_junk_path(r.path))
    }

    /// Remove all user-data files; returns bytes removed.
    pub fn remove_user_data(&mut self) -> u64 {
        let layer = Arc::clone(&self.layer);
        self.remove_indexed(layer.user_data.iter().copied(), |r| {
            r.owner == FileOwner::UserData
        })
    }

    /// Remove user data and junk together (what a `virt-sysprep` reset
    /// and a publish's strip both drop); returns bytes removed.
    pub fn remove_user_data_and_junk(&mut self) -> u64 {
        let layer = Arc::clone(&self.layer);
        // A record that is both comes up twice and is gone the second time.
        let positions = layer.junk().chain(layer.user_data.iter().copied());
        self.remove_indexed(positions, |r| {
            r.owner == FileOwner::UserData || Self::is_junk_path(r.path)
        })
    }

    /// Remove every file the given (distinct) packages own; returns each
    /// package's removed bytes, in `packages` order.
    pub fn remove_packages(&mut self, packages: &[PackageId]) -> Vec<u64> {
        let slot_of: FxHashMap<PackageId, usize> = packages
            .iter()
            .enumerate()
            .map(|(slot, &pkg)| (pkg, slot))
            .collect();
        let mut removed = vec![0u64; packages.len()];
        let layer = Arc::clone(&self.layer);
        let positions = packages
            .iter()
            .flat_map(|&pkg| layer.owned_by(pkg).iter().copied());
        self.remove_indexed(positions, |r| {
            let FileOwner::Package(pkg) = r.owner else {
                return false;
            };
            let Some(&slot) = slot_of.get(&pkg) else {
                return false;
            };
            removed[slot] += r.size as u64;
            true
        });
        removed
    }

    /// The effective user-data records, in path order.
    pub fn user_data(&self) -> Vec<FileRecord> {
        let from_layer = (self.layer.user_data.iter())
            .filter(|&&pos| !self.hides(pos))
            .map(|&pos| (self.layer.path_at(pos), self.layer[pos as usize]));
        let from_overlay = (self.overlay())
            .filter(|(_, rec)| rec.owner == FileOwner::UserData)
            .map(|(path, rec)| (path, *rec));
        let mut found: Vec<(&'static str, FileRecord)> = from_layer.chain(from_overlay).collect();
        found.sort_unstable_by_key(|&(path, _)| path);
        found.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Effective lookup: overlay wins, then the layer unless tombstoned.
    pub fn get(&self, path: IStr) -> Option<FileRecord> {
        if let Some(r) = self.overlay.get(path.as_str()) {
            return Some(*r);
        }
        if self.tombstones.contains(&path) {
            return None;
        }
        self.layer
            .position(path)
            .map(|pos| self.layer[pos as usize])
    }

    /// Iterate effective files in deterministic (path) order.
    pub fn iter(&self) -> impl Iterator<Item = FileRecord> + '_ {
        self.merge().map(|m| m.rec)
    }

    fn merge(&self) -> Merge<'_> {
        Merge {
            layer: &self.layer,
            at: 0,
            overlay: self.overlay.iter().peekable(),
            tombstones: &self.tombstones,
        }
    }

    /// The effective records' sums: the layer's, less what is hidden,
    /// plus the overlay's.
    pub(crate) fn sums(&self) -> Sums {
        let mut sums = self.layer.sums();
        for pos in self.hidden_positions() {
            sums.sub(&self.layer[pos as usize]);
        }
        for rec in self.overlay.values() {
            sums.add(rec);
        }
        sums
    }

    pub fn file_count(&self) -> usize {
        self.sums().files as usize
    }

    pub fn total_bytes(&self) -> u64 {
        self.sums().bytes
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
    /// The layer holds the path (the record itself, or one it shadows).
    in_layer: bool,
}

/// The merge behind every whole-tree walk: the layer and the overlay are
/// path-sorted, so the effective view is their merge with the overlay
/// winning a tie and tombstoned layer paths skipped. Each step looks
/// only at the two heads.
struct Merge<'a> {
    layer: &'a Layer,
    /// The layer's next position.
    at: usize,
    overlay: Peekable<btree_map::Iter<'a, &'static str, FileRecord>>,
    tombstones: &'a FxHashSet<IStr>,
}

impl Iterator for Merge<'_> {
    type Item = Merged;

    fn next(&mut self) -> Option<Merged> {
        loop {
            let low = self.layer.paths.get(self.at).copied();
            let from_overlay = match (self.overlay.peek(), low) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((&overlay_path, _)), Some(low_path)) => overlay_path <= low_path,
            };
            if from_overlay {
                let (&path, &rec) = self.overlay.next()?;
                let in_layer = low == Some(path);
                self.at += in_layer as usize;
                return Some(Merged {
                    rec,
                    from_overlay,
                    in_layer,
                });
            }
            let rec = self.layer[self.at];
            self.at += 1;
            if !self.tombstones.contains(&rec.path) {
                return Some(Merged {
                    rec,
                    from_overlay,
                    in_layer: true,
                });
            }
        }
    }
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

    /// A small path universe so that layers, overlay and tombstones
    /// collide constantly. Three paths are junk, one under each prefix,
    /// and two sort right against a junk prefix's range without being in it.
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
            "/var/cache.d",
            "/var/cache/k",
            "/var/log/j",
            "/var/log0",
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
                (0u8..14, 0usize..13, 1u32..8192, proptest::any::<u8>()),
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
                    // `size`; three layers at most.
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
                    9 => {
                        proptest::prop_assert_eq!(
                            fs.remove_user_data(),
                            model.remove_where(|r| r.owner == FileOwner::UserData)
                        );
                    }
                    10 => {
                        proptest::prop_assert_eq!(
                            fs.remove_junk(),
                            model.remove_where(|r| FsTree::is_junk_path(r.path))
                        );
                    }
                    11 | 12 => {
                        // `owner_of` hands out packages 2 and 3; 7 owns nothing.
                        let packages: Vec<PackageId> = [[2, 7], [3, 2], [7, 3], [2, 3]]
                            [k as usize % 4][..1 + at % 2]
                            .iter()
                            .map(|&id| PackageId(id))
                            .collect();
                        let want: Vec<u64> = packages
                            .iter()
                            .map(|&pkg| model.remove_where(|r| r.owner == FileOwner::Package(pkg)))
                            .collect();
                        proptest::prop_assert_eq!(fs.remove_packages(&packages), want);
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
                let user_data: Vec<FileRecord> = want
                    .iter()
                    .filter(|r| r.owner == FileOwner::UserData)
                    .copied()
                    .collect();
                proptest::prop_assert_eq!(fs.user_data(), user_data);
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
