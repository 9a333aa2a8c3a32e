//! Deterministic filesystem layout onto a qcow image.
//!
//! Layout follows ext4's *block group* idea: the address space is divided
//! into fixed-capacity groups; each file is assigned to a group by a hash
//! of its path and packed there in path order. Group start addresses are
//! fixed, so adding a file to one image disturbs only that file's group —
//! images sharing a file population lay it out at identical offsets. That
//! allocation stability is what makes block-level deduplication effective
//! on VM images (Jin & Miller), and the Gzip/block-dedup baselines depend
//! on it behaving realistically.
//!
//! Files larger than a group's capacity (and group overflow) go to a
//! spill region after the groups, packed in path order.
//!
//! **The shared layer is indexed once.** The layer already knows which
//! group each of its records falls into and what each group adds up to
//! (see [`crate::fstree`]), so a `Layout` costs the overlay and the
//! tombstones: it corrects the layer's sums by the positions they hide,
//! buckets the overlay's records, and from that has the group capacity
//! and the superblock counts. Groups are placed on demand, each the
//! merge of the layer's bucket with the overlay records hashing to it —
//! [`materialize_range`] places only the groups its byte range overlaps,
//! [`mkfs`] and [`extents`] run the same code over all of them — and only
//! a group whose span exceeds the capacity is walked to find what spills.
//! Nothing is collected that can be streamed: extents leave the layout
//! in offset order (no sort), and `mkfs` generates content straight into
//! one buffer per block group, written with one `write_at`.

use crate::fstree::{FileRecord, FsTree, Sums};
use xpl_util::FxHasher;
use xpl_vdisk::QcowImage;

/// Per-file metadata overhead written ahead of content. Real inodes are
/// ~256 bytes; under the 1024× scale model that is a fraction of a byte,
/// so a 2-byte boundary marker is already generous.
const INODE_BYTES: u64 = 2;
/// Superblock + allocator bitmaps stand-in at the front of the disk.
const SUPERBLOCK_BYTES: u64 = 512;
/// Content alignment inside a group (1 = tight packing; real block
/// alignment is sub-byte at scale).
const ALIGN: u64 = 1;
/// Number of block groups.
pub(crate) const NGROUPS: usize = 512;
/// Capacity headroom: groups are sized for ~1.6× their expected load so
/// image-to-image additions rarely spill.
const HEADROOM_NUM: u64 = 8;
const HEADROOM_DEN: u64 = 5;

/// The block group a path's file belongs to.
pub(crate) fn group_of(path: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    path.hash(&mut h);
    (h.finish() % NGROUPS as u64) as usize
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

/// Disk bytes a file takes: marker, content, alignment.
pub(crate) fn file_span(rec: &FileRecord) -> u64 {
    align_up(INODE_BYTES + rec.size as u64, ALIGN)
}

/// One file's placement on disk: the `INODE_BYTES` boundary marker
/// sits at `offset`, content immediately after.
#[derive(Clone, Debug)]
pub struct Extent {
    pub rec: FileRecord,
    /// Disk offset of the marker.
    pub offset: u64,
}

impl Extent {
    /// Disk offset of the file's first content byte.
    pub(crate) fn content_offset(&self) -> u64 {
        self.offset + INODE_BYTES
    }

    /// Disk offset one past the file's last content byte.
    pub(crate) fn end(&self) -> u64 {
        self.offset + INODE_BYTES + self.rec.size as u64
    }

    /// Boundary marker derived from the content seed (stable across
    /// runs, unlike interner ids).
    fn marker(&self) -> [u8; INODE_BYTES as usize] {
        (self.rec.seed as u16).to_le_bytes()
    }
}

/// Where every file of a tree goes, and the numbers the superblock
/// carries. [`mkfs`], [`extents`] and [`materialize_range`] all read
/// this, so the extent map and the materialized disk can never drift
/// apart.
struct Layout<'a> {
    fs: &'a FsTree,
    /// One bit per layer position: a tombstone or an overlay record hides
    /// it.
    hidden: Vec<u64>,
    /// The overlay's records with their group and path string, sorted by
    /// group and in path order inside one.
    overlay: Vec<(usize, &'static str, FileRecord)>,
    /// Disk span of each group's effective records.
    group_span: Vec<u64>,
    group_capacity: u64,
    sums: Sums,
}

impl<'a> Layout<'a> {
    fn of(fs: &'a FsTree) -> Layout<'a> {
        let layer = fs.layer();
        let mut sums = layer.sums();
        let mut group_span = layer.group_span().to_vec();
        let mut hidden = vec![0u64; layer.len().div_ceil(64)];
        for pos in fs.hidden_positions() {
            let rec = &layer[pos as usize];
            hidden[pos as usize / 64] |= 1 << (pos % 64);
            sums.sub(rec);
            group_span[group_of(layer.path_at(pos))] -= file_span(rec);
        }
        let mut overlay: Vec<(usize, &'static str, FileRecord)> = fs
            .overlay()
            .map(|(path, rec)| (group_of(path), path, *rec))
            .collect();
        for (group, _, rec) in &overlay {
            sums.add(rec);
            group_span[*group] += file_span(rec);
        }
        // Stable: the overlay's path order survives inside a group.
        overlay.sort_by_key(|&(group, ..)| group);

        // Fixed capacity for every group. Rounding the raw capacity up to a
        // power of two makes the geometry *coarse*: images whose populations
        // differ by less than the headroom share identical group addresses,
        // which preserves cross-image allocation stability (and hence block
        // dedup) within an image family.
        let raw_cap = (sums.span * HEADROOM_NUM / HEADROOM_DEN).div_ceil(NGROUPS as u64);
        Layout {
            fs,
            hidden,
            overlay,
            group_span,
            group_capacity: raw_cap.max(256).next_power_of_two(),
            sums,
        }
    }

    /// Group `group`'s effective records in path order: the layer's
    /// bucket less what is hidden, merged with the overlay's.
    fn for_each_in_group(&self, group: usize, mut f: impl FnMut(&FileRecord)) {
        let layer = self.fs.layer();
        let lo = self.overlay.partition_point(|&(g, ..)| g < group);
        let hi = lo + self.overlay[lo..].partition_point(|&(g, ..)| g == group);
        let mut overlay = self.overlay[lo..hi].iter().peekable();
        for &pos in layer.bucket(group) {
            if self.hidden[pos as usize / 64] >> (pos % 64) & 1 == 1 {
                continue;
            }
            let path = layer.path_at(pos);
            while let Some((_, _, rec)) =
                overlay.next_if(|&&(_, overlay_path, _)| overlay_path < path)
            {
                f(rec);
            }
            f(&layer[pos as usize]);
        }
        for (_, _, rec) in overlay {
            f(rec);
        }
    }

    /// Pack group `group` first-fit in path order: `placed` gets each
    /// file that fits with its offset, `spilled` each that does not.
    fn pack_group(
        &self,
        group: usize,
        mut placed: impl FnMut(Extent),
        mut spilled: impl FnMut(&FileRecord),
    ) {
        let start = self.group_start(group);
        let mut used = 0u64;
        self.for_each_in_group(group, |rec| {
            let span = file_span(rec);
            if used + span <= self.group_capacity {
                placed(Extent {
                    rec: *rec,
                    offset: start + used,
                });
                used += span;
            } else {
                spilled(rec);
            }
        });
    }

    fn group_start(&self, group: usize) -> u64 {
        SUPERBLOCK_BYTES + group as u64 * self.group_capacity
    }

    /// The files that do not fit their group, in path order — the order
    /// the spill region packs them in. Only a group whose span exceeds
    /// the capacity can have any.
    fn spill(&self) -> Vec<FileRecord> {
        let mut spill: Vec<FileRecord> = Vec::new();
        for group in 0..NGROUPS {
            if self.group_span[group] > self.group_capacity {
                self.pack_group(group, |_| {}, |rec| spill.push(*rec));
            }
        }
        spill.sort_by_key(|r| r.path.as_str());
        spill
    }

    fn disk_size(&self, spill: &[FileRecord]) -> u64 {
        let spilled: u64 = spill.iter().map(file_span).sum();
        align_up(self.group_start(NGROUPS) + spilled + 4096, 4096)
    }

    /// Every extent overlapping disk bytes `[start, end)`, in offset
    /// order: the groups the range overlaps in index order, each packed
    /// in path order, then the spill region. `spill` is
    /// [`Layout::spill`]'s; a range that ends before the spill region may
    /// pass none.
    fn for_each_extent_in(
        &self,
        spill: &[FileRecord],
        start: u64,
        end: u64,
        mut f: impl FnMut(Extent),
    ) {
        let mut overlapping = |e: Extent| {
            if e.end() > start && e.offset < end {
                f(e);
            }
        };
        let cap = self.group_capacity;
        let first = (start.saturating_sub(SUPERBLOCK_BYTES) / cap).min(NGROUPS as u64);
        let last = (end.saturating_sub(SUPERBLOCK_BYTES).div_ceil(cap)).min(NGROUPS as u64);
        for group in first as usize..last as usize {
            self.pack_group(group, &mut overlapping, |_| {});
        }
        let mut offset = self.group_start(NGROUPS);
        for rec in spill {
            if offset >= end {
                break;
            }
            overlapping(Extent { rec: *rec, offset });
            offset += file_span(rec);
        }
    }

    /// Superblock: magic + counts (deterministic, participates in content).
    fn superblock(&self) -> Vec<u8> {
        let mut sb = Vec::with_capacity(SUPERBLOCK_BYTES as usize);
        sb.extend_from_slice(b"XFS2");
        sb.extend_from_slice(&self.sums.files.to_le_bytes());
        sb.extend_from_slice(&self.sums.bytes.to_le_bytes());
        sb.extend_from_slice(&self.group_capacity.to_le_bytes());
        sb.resize(SUPERBLOCK_BYTES as usize, 0);
        sb
    }
}

/// Every file's disk placement, sorted by offset. Computable from tree
/// *metadata* alone (path, size, seed — never content): this is the
/// semantics-aware map from disk byte ranges to owning files that range
/// retrieval walks to decide which blobs to fetch.
pub fn extents(fs: &FsTree) -> Vec<Extent> {
    let layout = Layout::of(fs);
    let mut extents = Vec::with_capacity(layout.sums.files as usize);
    layout.for_each_extent_in(&layout.spill(), 0, u64::MAX, |e| extents.push(e));
    extents
}

/// Write the tree into a fresh qcow image.
///
/// Files packed back to back (a block group, the spill region) are
/// generated into one buffer and written with one `write_at`.
pub fn mkfs(fs: &FsTree) -> QcowImage {
    let layout = Layout::of(fs);
    let spill = layout.spill();
    let mut img = QcowImage::create(layout.disk_size(&spill));
    img.write_at(0, &layout.superblock())
        .expect("superblock fits");
    // The run being generated, the offset it starts at, and its flush.
    let mut run: Vec<u8> = Vec::new();
    let mut run_at = 0u64;
    let mut flush = |at: u64, run: &mut Vec<u8>| {
        if !run.is_empty() {
            img.write_at(at, run).expect("run fits");
            run.clear();
        }
    };
    layout.for_each_extent_in(&spill, 0, u64::MAX, |e| {
        if run_at + run.len() as u64 != e.offset {
            flush(run_at, &mut run);
            run_at = e.offset;
        }
        run.extend_from_slice(&e.marker());
        xpl_pkg::content::generate_into(e.rec.seed, e.rec.size as usize, &mut run);
    });
    flush(run_at, &mut run);
    img
}

/// Materialize disk bytes `[start, start+len)` from metadata plus
/// per-file content fetched on demand — without building the whole
/// image, and without placing more of it than the groups the range
/// overlaps. `fetch(rec, off, len)` must return exactly bytes
/// `[off, off+len)` of `rec`'s content; a semantics-aware store backs it
/// with a CAS range read so only the overlapping slice of each touched
/// file moves. The result is byte-identical to
/// `mkfs(fs).read_at(start, ..)` (zeros where nothing is placed,
/// superblock and inode markers overlaid); the range clamps to the disk
/// size like a slice.
pub fn materialize_range<F>(
    fs: &FsTree,
    start: u64,
    len: u64,
    mut fetch: F,
) -> Result<Vec<u8>, String>
where
    F: FnMut(&FileRecord, u64, u64) -> Result<Vec<u8>, String>,
{
    let layout = Layout::of(fs);
    // What spills, and with it the disk size, only matters to a range
    // that reaches the spill region.
    let mut end = start.saturating_add(len);
    let mut spill = Vec::new();
    if end > layout.group_start(NGROUPS) {
        spill = layout.spill();
        end = end.min(layout.disk_size(&spill));
    }
    if start >= end {
        return Ok(Vec::new());
    }
    let mut out = vec![0u8; (end - start) as usize];
    if start < SUPERBLOCK_BYTES {
        let sb = layout.superblock();
        let to = end.min(SUPERBLOCK_BYTES);
        out[..(to - start) as usize].copy_from_slice(&sb[start as usize..to as usize]);
    }
    let mut result = Ok(());
    layout.for_each_extent_in(&spill, start, end, |e| {
        if result.is_err() {
            return;
        }
        for (k, &b) in e.marker().iter().enumerate() {
            let pos = e.offset + k as u64;
            if (start..end).contains(&pos) {
                out[(pos - start) as usize] = b;
            }
        }
        let c0 = e.content_offset();
        let lo = c0.max(start);
        let hi = e.end().min(end);
        if lo < hi {
            result = fetch(&e.rec, lo - c0, hi - lo).and_then(|chunk| {
                if chunk.len() as u64 != hi - lo {
                    return Err(format!(
                        "fetch for {} returned {} bytes, wanted {}",
                        e.rec.path.as_str(),
                        chunk.len(),
                        hi - lo
                    ));
                }
                out[(lo - start) as usize..(hi - start) as usize].copy_from_slice(&chunk);
                Ok(())
            });
        }
    });
    result.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fstree::{layer_from, FileOwner, FileRecord, FsTree};
    use xpl_util::IStr;

    fn tree() -> FsTree {
        FsTree::with_base(layer_from(vec![
            FileRecord {
                path: IStr::new("/bin/a"),
                size: 500,
                seed: 1,
                owner: FileOwner::System,
            },
            FileRecord {
                path: IStr::new("/bin/b"),
                size: 300,
                seed: 2,
                owner: FileOwner::System,
            },
        ]))
    }

    fn big_tree(n: u32) -> FsTree {
        let mut fs = FsTree::new();
        let mut rng = xpl_util::SplitMix64::new(9);
        for i in 0..n {
            fs.add_file(FileRecord {
                path: IStr::new(&format!("/usr/lib/pkg{}/f{i}", i % 50)),
                size: rng.next_range(20, 2000) as u32,
                seed: i as u64,
                owner: FileOwner::System,
            });
        }
        fs
    }

    #[test]
    fn deterministic_layout() {
        let fs = tree();
        let a = mkfs(&fs).serialize();
        let b = mkfs(&fs).serialize();
        assert_eq!(a, b, "same content, same bytes");
    }

    #[test]
    fn different_content_different_disk() {
        let fs1 = tree();
        let mut fs2 = tree();
        fs2.add_file(FileRecord {
            path: IStr::new("/bin/c"),
            size: 100,
            seed: 3,
            owner: FileOwner::System,
        });
        assert_ne!(mkfs(&fs1).serialize(), mkfs(&fs2).serialize());
    }

    #[test]
    fn adding_a_file_disturbs_little() {
        // The block-group property: one extra file must leave almost all
        // clusters identical (allocation stability).
        let base = big_tree(2000);
        let mut extended = base.clone();
        extended.add_file(FileRecord {
            path: IStr::new("/opt/newpkg/binary"),
            size: 700,
            seed: 99,
            owner: FileOwner::System,
        });
        let a = mkfs(&base);
        let b = mkfs(&extended);
        // Compare cluster-by-cluster over the common span.
        let cs = a.cluster_size();
        let clusters = a.virtual_size().min(b.virtual_size()) / cs;
        let mut differing = 0u64;
        for i in 0..clusters {
            let ca = a.read_at(i * cs, cs as usize).unwrap();
            let cb = b.read_at(i * cs, cs as usize).unwrap();
            if ca != cb {
                differing += 1;
            }
        }
        let frac = differing as f64 / clusters as f64;
        assert!(
            frac < 0.05,
            "{differing}/{clusters} clusters differ ({frac:.3})"
        );
    }

    #[test]
    fn allocated_bytes_track_content() {
        let fs = big_tree(500);
        let img = mkfs(&fs);
        let alloc = img.allocated_bytes();
        let content = fs.total_bytes();
        assert!(alloc >= content, "alloc {alloc} < content {content}");
        assert!(
            alloc < content * 2 + 300_000,
            "alloc {alloc} too sparse for content {content}"
        );
    }

    #[test]
    fn disk_size_grows_with_tree() {
        let small = tree();
        let mut big = tree();
        for i in 0..100 {
            big.add_file(FileRecord {
                path: IStr::new(&format!("/data/f{i}")),
                size: 1000,
                seed: i,
                owner: FileOwner::UserData,
            });
        }
        let size = |fs: &FsTree| mkfs(fs).virtual_size();
        assert!(size(&big) > size(&small) + 90_000);
    }

    #[test]
    fn empty_tree_still_valid() {
        let fs = FsTree::new();
        let img = mkfs(&fs);
        assert!(img.allocated_bytes() > 0, "superblock allocated");
    }

    #[test]
    fn extents_describe_the_materialized_disk() {
        let fs = big_tree(400);
        let img = mkfs(&fs);
        let ex = extents(&fs);
        assert_eq!(ex.len(), fs.file_count());
        let mut prev_end = 0u64;
        for e in &ex {
            assert!(e.offset >= prev_end, "extents overlap at {}", e.offset);
            prev_end = e.end();
            // Marker + content at the recorded offsets.
            let marker = img.read_at(e.offset, 2).unwrap();
            assert_eq!(marker, (e.rec.seed as u16).to_le_bytes());
            let content = img
                .read_at(e.content_offset(), e.rec.size as usize)
                .unwrap();
            assert_eq!(content, e.rec.content(), "{}", e.rec.path.as_str());
        }
    }

    #[test]
    fn materialize_range_matches_mkfs_disk() {
        let fs = big_tree(600);
        let img = mkfs(&fs);
        let size = img.virtual_size();
        let fetch = |rec: &FileRecord, off: u64, len: u64| {
            let c = rec.content();
            Ok(c[off as usize..(off + len) as usize].to_vec())
        };
        let mut rng = xpl_util::SplitMix64::new(31);
        let mut spans: Vec<(u64, u64)> = (0..40)
            .map(|_| (rng.next_below(size), rng.next_below(8192) + 1))
            .collect();
        spans.extend([
            (0, 700),                  // superblock + first group
            (size - 100, 500),         // clamp at the end
            (size + 10, 10),           // fully past the end
            (0, 0),                    // empty
            (SUPERBLOCK_BYTES - 1, 3), // superblock boundary
        ]);
        for (start, len) in spans {
            let got = materialize_range(&fs, start, len, fetch).unwrap();
            let end = start.saturating_add(len).min(size);
            let expect = if start >= end {
                Vec::new()
            } else {
                img.read_at(start, (end - start) as usize).unwrap()
            };
            assert_eq!(got, expect, "range [{start}, +{len})");
        }
    }

    /// The layout as one walk of the whole tree computes it: bucket every
    /// effective record by group, pack first-fit, spill in path order.
    fn walked_extents(fs: &FsTree) -> (Vec<(FileRecord, u64)>, u64) {
        let mut groups: Vec<Vec<FileRecord>> = vec![Vec::new(); NGROUPS];
        let mut total_span = 0u64;
        for rec in fs.iter() {
            total_span += file_span(&rec);
            groups[group_of(rec.path.as_str())].push(rec);
        }
        let raw_cap = (total_span * HEADROOM_NUM / HEADROOM_DEN).div_ceil(NGROUPS as u64);
        let cap = raw_cap.max(256).next_power_of_two();
        let mut placed = Vec::new();
        let mut spill = Vec::new();
        for (gi, group) in groups.into_iter().enumerate() {
            let start = SUPERBLOCK_BYTES + gi as u64 * cap;
            let mut used = 0u64;
            for rec in group {
                if used + file_span(&rec) <= cap {
                    placed.push((rec, start + used));
                    used += file_span(&rec);
                } else {
                    spill.push(rec);
                }
            }
        }
        spill.sort_by_key(|r| r.path.as_str());
        let mut cursor = SUPERBLOCK_BYTES + NGROUPS as u64 * cap;
        for rec in spill {
            placed.push((rec, cursor));
            cursor += file_span(&rec);
        }
        (placed, cap)
    }

    /// A tree of `n` ~200-byte files — enough for a few dozen groups to
    /// overflow — split between a layer and the overlay, with some layer
    /// paths shadowed by overlay records, some tombstoned, and optionally
    /// one file larger than any group.
    fn mixed_tree(n: u32, seed: u64, oversized: bool) -> FsTree {
        let mut rng = xpl_util::SplitMix64::new(seed);
        let mut rec = |i: u32| FileRecord {
            path: IStr::new(&format!("/srv/mix/d{}/f{i}", i % 37)),
            size: rng.next_range(100, 300) as u32,
            seed: rng.next_u64(),
            owner: FileOwner::System,
        };
        let in_layer = n * 2 / 3;
        let mut fs = FsTree::with_base(layer_from((0..in_layer).map(&mut rec).collect()));
        for i in in_layer..n {
            fs.add_file(rec(i));
        }
        for i in (0..in_layer).step_by(7) {
            fs.add_file(rec(i));
        }
        for i in (3..in_layer).step_by(5) {
            fs.remove_path(IStr::new(&format!("/srv/mix/d{}/f{i}", i % 37)));
        }
        if oversized {
            fs.add_file(FileRecord {
                path: IStr::new("/srv/mix/oversized.bin"),
                size: 5000,
                seed,
                owner: FileOwner::UserData,
            });
        }
        fs
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        // A range read visits exactly the extents of the whole-tree
        // walk that overlap it.
        #[test]
        fn a_range_visits_exactly_the_overlapping_extents(
            n in 300u32..1500,
            seed in proptest::any::<u64>(),
            oversized in proptest::any::<bool>(),
            random in proptest::collection::vec((proptest::any::<u64>(), 1u64..5000), 8),
        ) {
            let fs = mixed_tree(n, seed, oversized);
            let (walked, cap) = walked_extents(&fs);
            let all = extents(&fs);
            proptest::prop_assert_eq!(
                all.iter().map(|e| (e.rec, e.offset)).collect::<Vec<_>>(),
                walked
            );
            let disk = mkfs(&fs);
            let size = disk.virtual_size();
            let spill_start = SUPERBLOCK_BYTES + NGROUPS as u64 * cap;
            if oversized || n > 1000 {
                proptest::prop_assert!(all.iter().any(|e| e.offset >= spill_start));
            }

            let mut spans: Vec<(u64, u64)> = vec![
                (0, 0),
                (3, 40),                       // inside the superblock
                (SUPERBLOCK_BYTES - 1, 3),
                (spill_start - 10, 300),       // out of the last group, into the spill
                (spill_start, 6000),
                (spill_start + 150, 1),
                (size - 100, 500),             // clamps at the end
                (size, 1),
                (size + 10, 10),               // past the end
                (0, u64::MAX),
            ];
            for g in [1u64, 2, 255, 511] {
                let edge = SUPERBLOCK_BYTES + g * cap;
                spans.extend([(edge - 1, 2), (edge, 1), (edge - cap, cap), (edge - 70, 3 * cap)]);
            }
            spans.extend(random.iter().map(|&(at, len)| (at % (size + 50), len)));

            for (start, len) in spans {
                let end = start.saturating_add(len).min(size);
                let mut visited = Vec::new();
                let got = materialize_range(&fs, start, len, |rec, off, l| {
                    visited.push((*rec, off, l));
                    Ok(rec.content()[off as usize..(off + l) as usize].to_vec())
                })
                .unwrap();
                let want: Vec<(FileRecord, u64, u64)> = all
                    .iter()
                    .filter_map(|e| {
                        let (lo, hi) = (e.content_offset().max(start), e.end().min(end));
                        (lo < hi).then(|| (e.rec, lo - e.content_offset(), hi - lo))
                    })
                    .collect();
                proptest::prop_assert_eq!(visited, want, "range [{}, +{})", start, len);
                let from = start.min(end);
                let bytes = disk.read_at(from, (end - from) as usize).unwrap();
                proptest::prop_assert_eq!(got, bytes, "range [{}, +{})", start, len);
            }
        }
    }

    #[test]
    fn materialize_range_surfaces_short_fetch() {
        let fs = big_tree(50);
        let e = &extents(&fs)[0];
        let err = materialize_range(&fs, e.offset, 64, |_r, _o, _l| Ok(vec![0u8; 1])).unwrap_err();
        assert!(err.contains("wanted"), "{err}");
    }

    #[test]
    fn oversized_file_goes_to_spill() {
        let mut fs = big_tree(100);
        fs.add_file(FileRecord {
            path: IStr::new("/huge/blob"),
            size: 3_000_000, // bigger than any group
            seed: 1,
            owner: FileOwner::System,
        });
        let img = mkfs(&fs);
        // Must still hold all content.
        assert!(img.allocated_bytes() >= fs.total_bytes());
    }
}
