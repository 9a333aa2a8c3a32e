//! Cross-store integration tests: every store must round-trip images with
//! functional equality, and the storage hierarchy of Figure 3 must hold.

use expelliarmus::prelude::*;
use expelliarmus::store::{full_fingerprint, semantic_fingerprint, StoreError};

fn all_stores(world: &World) -> Vec<Box<dyn ImageStore>> {
    vec![
        Box::new(QcowStore::new(world.env())),
        Box::new(GzipStore::new(world.env())),
        Box::new(MirageStore::new(world.env())),
        Box::new(HemeraStore::new(world.env())),
        Box::new(ExpelliarmusRepo::new(world.env())),
        Box::new(FixedBlockDedupStore::new(world.env(), 256)),
        Box::new(CdcDedupStore::new(world.env(), 512)),
    ]
}

#[test]
fn every_store_roundtrips_every_image() {
    let world = World::small();
    for store in all_stores(&world) {
        for name in world.image_names() {
            let vmi = world.build_image(name);
            store
                .publish(&world.catalog, &vmi)
                .unwrap_or_else(|e| panic!("{}: publish {name}: {e}", store.name()));
            let req = RetrieveRequest::for_image(&vmi, &world.catalog);
            let (got, report) = store
                .retrieve(&world.catalog, &req)
                .unwrap_or_else(|e| panic!("{}: retrieve {name}: {e}", store.name()));
            assert_eq!(
                got.installed_package_set(&world.catalog),
                vmi.installed_package_set(&world.catalog),
                "{}: package set mismatch for {name}",
                store.name()
            );
            assert_eq!(
                got.user_data_bytes(),
                vmi.user_data_bytes(),
                "{}: user data mismatch for {name}",
                store.name()
            );
            assert!(
                report.duration.as_nanos() > 0,
                "{}: zero-cost retrieve",
                store.name()
            );
        }
    }
}

#[test]
fn storage_hierarchy_matches_figure3() {
    let world = World::small();
    let qcow = QcowStore::new(world.env());
    let gzip = GzipStore::new(world.env());
    let mirage = MirageStore::new(world.env());
    let hemera = HemeraStore::new(world.env());
    let xpl = ExpelliarmusRepo::new(world.env());
    for name in world.image_names() {
        let vmi = world.build_image(name);
        qcow.publish(&world.catalog, &vmi).unwrap();
        gzip.publish(&world.catalog, &vmi).unwrap();
        mirage.publish(&world.catalog, &vmi).unwrap();
        hemera.publish(&world.catalog, &vmi).unwrap();
        xpl.publish(&world.catalog, &vmi).unwrap();
    }
    let (q, g, m, h, x) = (
        qcow.repo_bytes(),
        gzip.repo_bytes(),
        mirage.repo_bytes(),
        hemera.repo_bytes(),
        xpl.repo_bytes(),
    );
    // Figure 3's ordering at scale: Expelliarmus < Mirage ≈ Hemera < Qcow2,
    // gzip between dedup stores and raw.
    assert!(x < m, "Expelliarmus {x} must beat Mirage {m}");
    assert!(m < q && h < q && g < q, "every scheme beats raw qcow2");
    let ratio = (h as f64) / (m as f64);
    assert!(
        (0.7..1.4).contains(&ratio),
        "Mirage {m} vs Hemera {h} should be close"
    );
}

#[test]
fn monolithic_stores_cannot_serve_unknown_images() {
    let world = World::small();
    let vmi = world.build_image("redis");
    for store in all_stores(&world) {
        store.publish(&world.catalog, &vmi).unwrap();
        let req = RetrieveRequest {
            name: "never-published".into(),
            base: vmi.base.clone(),
            primary: vec!["redis-server".into()],
            user_data: vec![],
        };
        let result = store.retrieve(&world.catalog, &req);
        if store.name() == "Expelliarmus" {
            // The semantic store assembles it from parts.
            assert!(result.is_ok(), "Expelliarmus should assemble from parts");
        } else {
            assert!(
                matches!(result, Err(StoreError::NotFound(_))),
                "{} should not find an unpublished image",
                store.name()
            );
        }
    }
}

#[test]
fn repeated_publish_is_idempotent_for_dedup_stores() {
    let world = World::small();
    let vmi = world.build_image("lamp");
    for store in all_stores(&world) {
        store.publish(&world.catalog, &vmi).unwrap();
        let size1 = store.repo_bytes();
        store.publish(&world.catalog, &vmi).unwrap();
        let size2 = store.repo_bytes();
        let grew = size2.saturating_sub(size1);
        match store.name() {
            // Monolithic stores replace the entry by name: no growth.
            "Qcow2" | "Qcow2+Gzip" => assert!(grew <= size1 / 100, "{}: grew {grew}", store.name()),
            // Dedup stores add at most metadata.
            _ => assert!(
                grew < size1 / 20,
                "{}: republish grew {grew} of {size1}",
                store.name()
            ),
        }
    }
}

#[test]
fn every_store_agrees_differentially_on_every_image() {
    // The churn oracle's core equality, applied exhaustively to the small
    // world across ALL stores (the five evaluated systems plus both
    // block-dedup baselines): every retrieval of the same image must have
    // the same semantic fingerprint, and snapshot stores must reproduce
    // the exact full fingerprint of what was published.
    let world = World::small();
    let stores = all_stores(&world);
    for name in world.image_names() {
        let vmi = world.build_image(name);
        let want_semantic = semantic_fingerprint(&world.catalog, &vmi);
        let want_full = full_fingerprint(&world.catalog, &vmi);
        let req = RetrieveRequest::for_image(&vmi, &world.catalog);
        for store in stores.iter() {
            store.publish(&world.catalog, &vmi).unwrap();
            let (got, _) = store.retrieve(&world.catalog, &req).unwrap();
            assert_eq!(
                semantic_fingerprint(&world.catalog, &got),
                want_semantic,
                "{}: semantic fingerprint diverged for {name}",
                store.name()
            );
            if store.name() != "Expelliarmus" {
                assert_eq!(
                    full_fingerprint(&world.catalog, &got),
                    want_full,
                    "{}: full fingerprint diverged for {name}",
                    store.name()
                );
            }
            store
                .check_integrity()
                .unwrap_or_else(|e| panic!("{} integrity: {e}", store.name()));
        }
    }
}

/// Offsets of the block-group edges of a disk `mkfs` laid out: the
/// superblock's end, then one group capacity (superblock bytes 20..28)
/// apart, 512 groups in all.
fn group_edges(disk: &expelliarmus::vdisk::QcowImage) -> Vec<u64> {
    const SUPERBLOCK_BYTES: u64 = 512;
    let sb = disk.read_at(20, 8).unwrap();
    let cap = u64::from_le_bytes(sb.try_into().unwrap());
    (0..=512).map(|g| SUPERBLOCK_BYTES + g * cap).collect()
}

#[test]
fn every_baseline_returns_the_disk_it_published() {
    // What each baseline returns is read back from what it stored —
    // Qcow2's stream, Gzip's inflated stream, the block-dedup stores'
    // reassembled device — or, for the file stores, rebuilt by mkfs. It
    // must read like the published disk over the whole virtual size; the
    // stream stores return the very stream; and a range straddling each
    // block-group edge is the slice of the full retrieve.
    let world = World::small();
    let stores: Vec<(Box<dyn ImageStore>, bool)> = vec![
        (Box::new(QcowStore::new(world.env())), true),
        (Box::new(GzipStore::new(world.env())), true),
        (Box::new(MirageStore::new(world.env())), false),
        (Box::new(HemeraStore::new(world.env())), false),
        (Box::new(FixedBlockDedupStore::new(world.env(), 256)), false),
        (Box::new(CdcDedupStore::new(world.env(), 512)), false),
    ];
    for name in world.image_names() {
        let vmi = world.build_image(name);
        let size = vmi.disk.virtual_size();
        let published = vmi.disk.read_at(0, size as usize).unwrap();
        let req = RetrieveRequest::for_image(&vmi, &world.catalog);
        for (store, same_stream) in &stores {
            let label = format!("{} {name}", store.name());
            store.publish(&world.catalog, &vmi).unwrap();
            let (got, _) = store.retrieve(&world.catalog, &req).unwrap();
            assert_eq!(got.disk.virtual_size(), size, "{label}: virtual size");
            let full = got.disk.read_at(0, size as usize).unwrap();
            assert!(
                full == published,
                "{label}: retrieved disk reads differently"
            );
            if *same_stream {
                assert!(
                    got.disk.serialize() == vmi.disk.serialize(),
                    "{label}: serialized stream differs"
                );
            }
            for edge in group_edges(&vmi.disk) {
                let start = edge.saturating_sub(24);
                let (bytes, _) = store
                    .retrieve_range(&world.catalog, &req, start, 48)
                    .unwrap();
                let end = (start + 48).min(size);
                assert!(
                    bytes[..] == full[start as usize..end as usize],
                    "{label}: range at group edge {edge}"
                );
            }
        }
    }
}

#[test]
fn delete_frees_only_the_deleted_image() {
    // Publish three images everywhere, delete the middle one: the other
    // two must stay retrievable and every refcount audit must stay clean.
    let world = World::small();
    for store in all_stores(&world) {
        for name in ["mini", "redis", "lamp"] {
            store
                .publish(&world.catalog, &world.build_image(name))
                .unwrap();
        }
        let before = store.repo_bytes();
        let report = store.delete("redis").unwrap();
        assert_eq!(report.image, "redis");
        assert_eq!(
            store.repo_bytes(),
            before - report.bytes_freed,
            "{}: delete accounting",
            store.name()
        );
        store
            .check_integrity()
            .unwrap_or_else(|e| panic!("{} integrity after delete: {e}", store.name()));
        // Survivors still round-trip.
        for name in ["mini", "lamp"] {
            let vmi = world.build_image(name);
            let req = RetrieveRequest::for_image(&vmi, &world.catalog);
            let (got, _) = store
                .retrieve(&world.catalog, &req)
                .unwrap_or_else(|e| panic!("{}: {name} after delete: {e}", store.name()));
            assert_eq!(
                semantic_fingerprint(&world.catalog, &got),
                semantic_fingerprint(&world.catalog, &vmi),
                "{}: {name} corrupted by deleting redis",
                store.name()
            );
        }
        // The deleted name is gone from monolithic stores; deleting it
        // again is an error everywhere.
        assert!(matches!(
            store.delete("redis"),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            store.delete("never-there"),
            Err(StoreError::NotFound(_))
        ));
    }
}

#[test]
fn publish_reports_are_consistent() {
    let world = World::small();
    for store in all_stores(&world) {
        let vmi = world.build_image("nginx");
        let report = store.publish(&world.catalog, &vmi).unwrap();
        assert_eq!(report.image, "nginx");
        assert!(report.duration.as_nanos() > 0);
        assert!(
            report.breakdown.total() <= report.duration,
            "{}: breakdown {} exceeds duration {}",
            store.name(),
            report.breakdown.total(),
            report.duration
        );
    }
}
