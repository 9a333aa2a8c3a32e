//! Layout pins: the bytes `mkfs` writes and the extent table it follows
//! are part of every store's ground truth (block dedup, range retrieval
//! and the semantic fingerprints all read them), so their SHA-256 is
//! committed here. The digests were recorded from the three-walk
//! `geometry`/`placements`/`superblock` implementation before it was
//! folded into the single-walk `Layout`; any drift in placement,
//! superblock fields or content generation fails this file.

use expelliarmus::guestfs::mkfs::mkfs;
use expelliarmus::guestfs::{extents, materialize_range, FileOwner, FileRecord, FsTree};
use expelliarmus::prelude::*;
use expelliarmus::util::{IStr, Sha256, SplitMix64};

/// `(image, sha256 of mkfs(..).serialize(), sha256 of the extent table)`.
const PINS: [(&str, &str, &str); 7] = [
    (
        "small/mini",
        "37e6e27a00f9c1c4fe3e22824704f659c782518dce11ad0e47b2c3bc0d3967bc",
        "5d96995ffa78827b7da66e71d62ed8ed7a46151befc9758445f01bcd974b444d",
    ),
    (
        "small/redis",
        "56881010bd68335fe6cf533e7fb16fdc1f6fd6d5b265940e412e9512588a1e8c",
        "9e3998181aa81cbc899c795c3d190c24b19fc69918da88947a76d85f7531b7c9",
    ),
    (
        "small/nginx",
        "bfd50003d1637d02e9a5ca87aaa4ec1da7723c01e612b7916bbc258db39fa39d",
        "db623bc1dace896ffb96db64ae7161a5ffaa33f88e9d9ad995b908b340639368",
    ),
    (
        "small/lamp",
        "f1b62c2039f5223b5f2448a7d26018610be69c0ad2e6d9be75dba96116a0309e",
        "ef45e0fc5d84648ad792e867d8a558eae9c4f7fe2fd352d0e5405023544de03d",
    ),
    (
        "standard/Mini",
        "af0a0284479230f263965c04bd0d803a30a279eb2c1f94584cf80536aa17fd00",
        "4bf79dd0bf96cc0f4d1654985f095a73379cc7b2d9abc213564810c046a3ab85",
    ),
    (
        "standard/Desktop",
        "7a7442169a2dfae0fde80e4098b582c7143c5abc4e49922142d9af3cdb16c472",
        "0419cbceb4a34c6675f4fbff3aa4d044f4c1a76ef8b96e088e2309011481f745",
    ),
    (
        "synthetic/overflow+spill",
        "3d3c8f55c71ebe960bc79f57692c6edb10b6a76d8c9abd4db4592fc247f806a9",
        "ac6951af3b519662ac41b56f72d8c339f98d3e385738799e8a059507876628aa",
    ),
];

const SUPERBLOCK_BYTES: u64 = 512;
const NGROUPS: u64 = 512;

/// Group capacity as the superblock records it (bytes 20..28).
fn group_capacity(fs: &FsTree) -> u64 {
    let sb = mkfs("sb", fs)
        .read_at(0, SUPERBLOCK_BYTES as usize)
        .unwrap();
    u64::from_le_bytes(sb[20..28].try_into().unwrap())
}

fn groups_end(fs: &FsTree) -> u64 {
    SUPERBLOCK_BYTES + NGROUPS * group_capacity(fs)
}

/// 1 500 files of 200 bytes overflow ~40 of the 512 groups (capacity
/// 1 024 holds five), and one file is larger than any group.
fn synthetic_tree() -> FsTree {
    let mut fs = FsTree::new();
    for i in 0..1500u32 {
        fs.add_file(FileRecord {
            path: IStr::new(&format!("/srv/pin/d{}/f{i}", i % 37)),
            size: 200,
            seed: 0x51_0000 + i as u64,
            owner: FileOwner::System,
        });
    }
    fs.add_file(FileRecord {
        path: IStr::new("/srv/pin/oversized.bin"),
        size: 5000,
        seed: 0x51_FFFF,
        owner: FileOwner::UserData,
    });
    fs
}

fn digests(fs: &FsTree) -> (String, String) {
    let disk = Sha256::digest(&mkfs("pin", fs).serialize()).to_hex();
    let mut table = Sha256::new();
    for e in extents(fs) {
        table.update(&e.offset.to_le_bytes());
        table.update(e.rec.path.as_str().as_bytes());
        table.update(&[0]);
        table.update(&e.rec.size.to_le_bytes());
    }
    (disk, table.finalize().to_hex())
}

#[test]
fn mkfs_bytes_and_extent_tables_are_pinned() {
    let small = World::small();
    let standard = World::standard();
    let synthetic = synthetic_tree();

    // The synthetic tree must actually exercise both spill causes.
    let cap = group_capacity(&synthetic);
    let spill_start = groups_end(&synthetic);
    let spilled: Vec<_> = extents(&synthetic)
        .into_iter()
        .filter(|e| e.offset >= spill_start)
        .collect();
    assert!(spilled.iter().any(|e| e.rec.size as u64 + 2 > cap));
    assert!(
        spilled
            .iter()
            .filter(|e| e.rec.size as u64 + 2 <= cap)
            .count()
            >= 10
    );

    let mut got = Vec::new();
    for name in small.image_names() {
        got.push((
            format!("small/{name}"),
            digests(&small.build_image(name).fs),
        ));
    }
    for name in ["Mini", "Desktop"] {
        let vmi = standard.build_image(name);
        assert!(vmi.file_count() > 70_000, "{name} is paper scale");
        // The disk a build carries is the one mkfs lays out.
        assert_eq!(vmi.disk.serialize(), mkfs("other", &vmi.fs).serialize());
        got.push((format!("standard/{name}"), digests(&vmi.fs)));
    }
    got.push(("synthetic/overflow+spill".to_string(), digests(&synthetic)));

    let rendered: Vec<String> = got
        .iter()
        .map(|(n, (d, t))| format!("    (\"{n}\", \"{d}\", \"{t}\"),"))
        .collect();
    assert_eq!(got.len(), PINS.len());
    for ((name, (disk, table)), (pin_name, pin_disk, pin_table)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert!(
            disk == pin_disk && table == pin_table,
            "layout of {name} drifted; current digests:\n{}",
            rendered.join("\n")
        );
    }
}

/// `materialize_range` against `disk.read_at` on an 80 k-record tree
/// (layer + overlay + tombstones) that also carries a spill region.
#[test]
fn materialize_range_equals_disk_reads_at_paper_scale() {
    let world = World::standard();
    let mut fs = world.build_image("Cassandra").fs;
    fs.add_file(FileRecord {
        path: IStr::new("/srv/pin/oversized.bin"),
        size: 3_000_000,
        seed: 0x51_FFFF,
        owner: FileOwner::UserData,
    });
    assert!(fs.file_count() > 80_000, "{} records", fs.file_count());
    let disk = mkfs("sweep", &fs);
    let size = disk.virtual_size();
    let cap = group_capacity(&fs);
    let spill_start = groups_end(&fs);
    assert!(size > spill_start + 3_000_000, "spill region present");

    let mut spans: Vec<(u64, u64)> = vec![
        (0, 0),
        (0, 700),
        (SUPERBLOCK_BYTES - 1, 3),
        (SUPERBLOCK_BYTES, 1),
        (spill_start - 100, 4096),
        (spill_start, 65536),
        (spill_start + 2_999_000, 8192),
        (size - 100, 500),
        (size - 1, 1),
        (size, 1),
        (size + 10, 10),
        (size - 5, u64::MAX),
    ];
    // Every kind of group-boundary crossing: into, out of, and across.
    for g in [1u64, 2, 17, 255, 256, 510, 511, 512] {
        let edge = SUPERBLOCK_BYTES + g * cap;
        spans.extend([
            (edge - 300, 600),
            (edge, 64),
            (edge - 1, 2),
            (edge - cap, cap),
        ]);
    }
    let mut rng = SplitMix64::new(0x1A70);
    spans.extend((0..60).map(|_| (rng.next_below(size), rng.next_below(70_000) + 1)));

    for (start, len) in spans {
        let got = materialize_range(&fs, start, len, |rec, off, l| {
            Ok(rec.content()[off as usize..(off + l) as usize].to_vec())
        })
        .unwrap();
        let end = start.saturating_add(len).min(size);
        let s = start.min(end);
        let want = disk.read_at(s, (end - s) as usize).unwrap();
        assert_eq!(got, want, "range [{start}, +{len})");
    }
}
