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
//! **One walk per operation.** Everything a caller can ask of a tree's
//! placement — disk size, superblock counts, every extent — comes from
//! one [`Layout`], and a `Layout` costs one walk of the tree. No
//! operation walks the tree more than once per phase; nothing is
//! collected that can be streamed: extents leave the layout in offset
//! order (no sort), and `mkfs` generates content straight into one
//! buffer per block group, written with one `write_at`.

use crate::fstree::{FileRecord, FsTree};
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
const NGROUPS: u64 = 512;
/// Capacity headroom: groups are sized for ~1.6× their expected load so
/// image-to-image additions rarely spill.
const HEADROOM_NUM: u64 = 8;
const HEADROOM_DEN: u64 = 5;

fn group_of(rec: &FileRecord) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    rec.path.as_str().hash(&mut h);
    h.finish() % NGROUPS
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

fn file_span(rec: &FileRecord) -> u64 {
    align_up(INODE_BYTES + rec.size as u64, ALIGN)
}

/// One file's placement on disk: the [`INODE_BYTES`] boundary marker
/// sits at `offset`, content immediately after.
#[derive(Clone, Debug)]
pub struct Extent {
    pub rec: FileRecord,
    /// Disk offset of the marker.
    pub offset: u64,
}

impl Extent {
    /// Disk offset of the file's first content byte.
    pub fn content_offset(&self) -> u64 {
        self.offset + INODE_BYTES
    }

    /// Disk offset one past the file's last content byte.
    pub fn end(&self) -> u64 {
        self.offset + INODE_BYTES + self.rec.size as u64
    }

    /// Boundary marker derived from the content seed (stable across
    /// runs, unlike interner ids).
    fn marker(&self) -> [u8; INODE_BYTES as usize] {
        (self.rec.seed as u16).to_le_bytes()
    }
}

/// Where every file of a tree goes, and the numbers the superblock
/// carries, from one walk of the tree. [`mkfs`], [`extents`] and
/// [`materialize_range`] all read this, so the extent map and the
/// materialized disk can never drift apart.
struct Layout {
    group_capacity: u64,
    disk_size: u64,
    files: u64,
    bytes: u64,
    /// In offset order by construction: groups in index order, each
    /// packed in path order, then the spill region in path order.
    extents: Vec<Extent>,
}

impl Layout {
    fn of(fs: &FsTree) -> Layout {
        // The one walk: bucket by group (path order survives inside a
        // bucket) and count files, bytes and span on the way.
        let mut groups: Vec<Vec<FileRecord>> = vec![Vec::new(); NGROUPS as usize];
        let (mut files, mut bytes, mut total_span) = (0u64, 0u64, 0u64);
        for rec in fs.iter() {
            files += 1;
            bytes += rec.size as u64;
            total_span += file_span(&rec);
            groups[group_of(&rec) as usize].push(rec);
        }
        // Fixed capacity for every group. Rounding the raw capacity up to a
        // power of two makes the geometry *coarse*: images whose populations
        // differ by less than the headroom share identical group addresses,
        // which preserves cross-image allocation stability (and hence block
        // dedup) within an image family.
        let raw_cap = (total_span * HEADROOM_NUM / HEADROOM_DEN).div_ceil(NGROUPS);
        let group_capacity = raw_cap.max(256).next_power_of_two();

        let mut extents = Vec::with_capacity(files as usize);
        let mut spill: Vec<FileRecord> = Vec::new();
        for (gi, group) in groups.into_iter().enumerate() {
            let start = SUPERBLOCK_BYTES + gi as u64 * group_capacity;
            let mut used = 0u64;
            for rec in group {
                let span = file_span(&rec);
                if used + span <= group_capacity {
                    extents.push(Extent {
                        rec,
                        offset: start + used,
                    });
                    used += span;
                } else {
                    // Files that don't fit their group spill.
                    spill.push(rec);
                }
            }
        }
        spill.sort_by_key(|r| r.path.as_str());
        let mut cursor = SUPERBLOCK_BYTES + NGROUPS * group_capacity;
        for rec in spill {
            let span = file_span(&rec);
            extents.push(Extent {
                rec,
                offset: cursor,
            });
            cursor += span;
        }
        Layout {
            group_capacity,
            disk_size: align_up(cursor + 4096, 4096),
            files,
            bytes,
            extents,
        }
    }

    /// Superblock: magic + counts (deterministic, participates in content).
    fn superblock(&self) -> Vec<u8> {
        let mut sb = Vec::with_capacity(SUPERBLOCK_BYTES as usize);
        sb.extend_from_slice(b"XFS2");
        sb.extend_from_slice(&self.files.to_le_bytes());
        sb.extend_from_slice(&self.bytes.to_le_bytes());
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
    Layout::of(fs).extents
}

/// Write the tree into a fresh qcow image named `name`.
///
/// Files packed back to back (a block group, the spill region) are
/// generated into one buffer and written with one `write_at`.
pub fn mkfs(name: &str, fs: &FsTree) -> QcowImage {
    let layout = Layout::of(fs);
    let mut img = QcowImage::create(name, layout.disk_size);
    img.write_at(0, &layout.superblock())
        .expect("superblock fits");
    let mut run: Vec<u8> = Vec::new();
    for packed in layout.extents.chunk_by(|a, b| a.end() == b.offset) {
        run.clear();
        for e in packed {
            run.extend_from_slice(&e.marker());
            xpl_pkg::content::generate_into(e.rec.seed, e.rec.size as usize, &mut run);
        }
        img.write_at(packed[0].offset, &run).expect("run fits");
    }
    img
}

/// Materialize disk bytes `[start, start+len)` from metadata plus
/// per-file content fetched on demand — without building the whole
/// image. `fetch(rec, off, len)` must return exactly bytes
/// `[off, off+len)` of `rec`'s content; a semantics-aware store backs it
/// with a CAS range read so only the overlapping slice of each touched
/// file moves. The result is byte-identical to
/// `mkfs(_, fs).read_at(start, ..)` (zeros where nothing is placed,
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
    let end = start.saturating_add(len).min(layout.disk_size);
    if start >= end {
        return Ok(Vec::new());
    }
    let mut out = vec![0u8; (end - start) as usize];
    if start < SUPERBLOCK_BYTES {
        let sb = layout.superblock();
        let to = end.min(SUPERBLOCK_BYTES);
        out[..(to - start) as usize].copy_from_slice(&sb[start as usize..to as usize]);
    }
    let first = layout.extents.partition_point(|e| e.end() <= start);
    for e in &layout.extents[first..] {
        if e.offset >= end {
            break;
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
            let chunk = fetch(&e.rec, lo - c0, hi - lo)?;
            if chunk.len() as u64 != hi - lo {
                return Err(format!(
                    "fetch for {} returned {} bytes, wanted {}",
                    e.rec.path.as_str(),
                    chunk.len(),
                    hi - lo
                ));
            }
            out[(lo - start) as usize..(hi - start) as usize].copy_from_slice(&chunk);
        }
    }
    Ok(out)
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
        let a = mkfs("img", &fs).serialize();
        let b = mkfs("other-name", &fs).serialize();
        assert_eq!(a, b, "same content, name-independent");
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
        assert_ne!(mkfs("img", &fs1).serialize(), mkfs("img", &fs2).serialize());
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
        let a = mkfs("a", &base);
        let b = mkfs("b", &extended);
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
        let img = mkfs("img", &fs);
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
        let size = |fs: &FsTree| mkfs("img", fs).virtual_size();
        assert!(size(&big) > size(&small) + 90_000);
    }

    #[test]
    fn empty_tree_still_valid() {
        let fs = FsTree::new();
        let img = mkfs("empty", &fs);
        assert!(img.allocated_bytes() > 0, "superblock allocated");
    }

    #[test]
    fn extents_describe_the_materialized_disk() {
        let fs = big_tree(400);
        let img = mkfs("img", &fs);
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
        let img = mkfs("img", &fs);
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
        let img = mkfs("img", &fs);
        // Must still hold all content.
        assert!(img.allocated_bytes() >= fs.total_bytes());
    }
}
