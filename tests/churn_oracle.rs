//! The standing churn acceptance suite: a ≥500-op lifecycle trace
//! (publishes, retrieval bursts, upgrade-republishes, deletes) replayed
//! against all five stores in lockstep must pass the differential
//! oracle, and the whole pipeline must be bit-reproducible from its
//! seed.

use expelliarmus::bench::churn::{churn_trace, run_churn, ChurnConfig};
use expelliarmus::prelude::*;
use expelliarmus::util::Sha256;
use expelliarmus::workloads::TraceOp;

const SEED: u64 = 0xC0FFEE;

/// SHA-256 of the report JSON (`oracle_checks` zeroed) that the former
/// sequential per-op driver produced for `ChurnConfig::small(SEED,
/// 520)`, recorded at the commit before that driver was deleted.
const SEQUENTIAL_REPORT_SHA256: &str =
    "a00b2c6d0d22c5a38c504fee8dd2433888d6bf86fe8d49a41bb187c1fe8b8195";

#[test]
fn five_hundred_op_trace_passes_the_oracle_on_all_five_stores() {
    let report = run_churn(&ChurnConfig::small(SEED, 520));
    assert!(
        report.violations.is_empty(),
        "oracle violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.ops, 520);
    // The trace must actually exercise every lifecycle path.
    assert!(report.publishes > 0, "no publishes");
    assert!(report.retrieves > 0, "no retrieves");
    assert!(report.range_retrieves > 0, "no range retrievals");
    assert!(report.upgrades > 0, "no upgrade-republishes");
    assert!(report.deletes > 0, "no deletes");
    assert!(report.bursts > 0 && report.burst_retrieves > report.bursts);
    assert_eq!(report.stores.len(), 5, "all five stores replayed");
    // Dedup hierarchy survives churn: the semantic store stays smallest,
    // raw qcow2 largest (Figure 3's ordering, now under a live workload).
    let bytes = |name: &str| {
        report
            .stores
            .iter()
            .find(|s| s.store == name)
            .unwrap_or_else(|| panic!("missing store {name}"))
            .final_repo_bytes
    };
    assert!(bytes("Expelliarmus") < bytes("Mirage"));
    assert!(bytes("Mirage") < bytes("Qcow2"));
    assert!(bytes("Hemera") < bytes("Qcow2"));
}

#[test]
fn same_seed_reproduces_trace_and_report_byte_identically() {
    let cfg = ChurnConfig::small(SEED, 250);
    let (_, t1) = churn_trace(&cfg);
    let (_, t2) = churn_trace(&cfg);
    assert_eq!(t1.render(), t2.render(), "trace must be byte-identical");

    let a = run_churn(&cfg);
    let b = run_churn(&cfg);
    let ja = serde_json::to_string_pretty(&a).unwrap();
    let jb = serde_json::to_string_pretty(&b).unwrap();
    assert_eq!(ja, jb, "replay reports must be byte-identical");
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

#[test]
fn replay_reproduces_the_recorded_sequential_report_at_1_2_8_threads() {
    // Stores, ledgers, simulated seconds, CAS fingerprints, the trace
    // digest and the violation list of the run-partitioned replay are
    // those of a strictly sequential per-op replay; only the number of
    // integrity audits (`oracle_checks`) ever differed between the two.
    for threads in [1, 2, 8] {
        let mut report = run_churn(&ChurnConfig::small(SEED, 520).with_threads(threads));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.oracle_checks, 5395);
        report.oracle_checks = 0;
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(
            Sha256::digest(json.as_bytes()).to_hex(),
            SEQUENTIAL_REPORT_SHA256,
            "{threads} threads"
        );
    }
}

#[test]
fn concurrent_replay_is_byte_identical_across_thread_counts() {
    // The acceptance pin for the shared-access refactor: the replay's
    // oracle report — ledgers, totals, simulated seconds, violation
    // list, check counts — must not depend on the worker-pool size.
    // 1 thread is the degenerate sequential schedule; 2 and 8
    // exercise real interleavings of the per-image retrieval groups and
    // the five store replicas. The replay runs under the default mixed
    // codec tier, so the pin also covers mid-trace recompression sweeps
    // over mixed-codec CAS states.
    let cfg = ChurnConfig::small(SEED, 200);
    let at = |threads: usize| run_churn(&cfg.clone().with_threads(threads));
    let one = serde_json::to_string_pretty(&at(1)).unwrap();
    let two = serde_json::to_string_pretty(&at(2)).unwrap();
    let eight = serde_json::to_string_pretty(&at(8)).unwrap();
    assert_eq!(one, two, "2-thread replay diverged from 1-thread");
    assert_eq!(one, eight, "8-thread replay diverged from 1-thread");
    let report = at(8);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.retrieves > 0 && report.publishes > 0 && report.deletes > 0);
    assert_eq!(report.tier, "mixed");
    assert!(report.maintains > 0, "no recompression sweeps in the trace");
}

#[test]
fn deleting_everything_returns_dedup_stores_to_metadata_only() {
    // Drain scenario: publish a handful of images into every store, then
    // delete them all. Content-addressed stores must free all payload
    // bytes (Expelliarmus keeps only its stored base + metadata).
    let world = World::small();
    let stores: Vec<Box<dyn ImageStore>> = vec![
        Box::new(QcowStore::new(world.env())),
        Box::new(GzipStore::new(world.env())),
        Box::new(MirageStore::new(world.env())),
        Box::new(HemeraStore::new(world.env())),
        Box::new(FixedBlockDedupStore::new(world.env(), 256)),
        Box::new(CdcDedupStore::new(world.env(), 512)),
    ];
    for store in stores.iter() {
        for name in world.image_names() {
            let vmi = world.build_image(name);
            store.publish(&world.catalog, &vmi).unwrap();
        }
        for name in world.image_names() {
            store.delete(name).unwrap();
            store
                .check_integrity()
                .unwrap_or_else(|e| panic!("{} after delete {name}: {e}", store.name()));
        }
        assert_eq!(
            store.repo_bytes(),
            0,
            "{} must be empty after deleting everything",
            store.name()
        );
    }

    // Expelliarmus: payload stores drain; the consolidated base remains.
    let repo = ExpelliarmusRepo::new(world.env());
    for name in world.image_names() {
        repo.publish(&world.catalog, &world.build_image(name))
            .unwrap();
    }
    let with_images = repo.repo_bytes();
    for name in world.image_names() {
        repo.delete(name).unwrap();
        repo.check_integrity()
            .unwrap_or_else(|e| panic!("Expelliarmus after delete {name}: {e}"));
    }
    assert_eq!(repo.package_count(), 0, "all package blobs released");
    assert_eq!(repo.base_count(), 1, "the shared base survives deletes");
    assert!(repo.repo_bytes() < with_images, "payload was freed");
    // Deleted names are gone even for the semantic store when their
    // packages had no other referents.
    let lamp = world.build_image("lamp");
    let req = RetrieveRequest::for_image(&lamp, &world.catalog);
    assert!(matches!(
        repo.retrieve(&world.catalog, &req),
        Err(expelliarmus::store::StoreError::NotFound(_))
    ));
}

#[test]
fn pinned_seed_trace_exercises_every_lifecycle_path() {
    // Guards the generator against drift that would quietly stop
    // covering a path: the CI replay uses a seed of this same generator,
    // so its coverage properties are part of the contract.
    let cfg = ChurnConfig::small(SEED, 520);
    let (world, trace) = churn_trace(&cfg);
    let (p, r, u, d, b) = trace.mix();
    assert_eq!(p + r + u + d + b + trace.maintains(), 520);
    assert!(
        p > 20 && r > 100 && u > 20 && d > 10 && b > 10,
        "{:?}",
        (p, r, u, d, b)
    );
    assert!(trace.maintains() > 5, "tier sweeps must recur in the trace");
    // Re-publish after delete (generation > 0 publishes) must occur.
    assert!(
        trace
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::Publish { generation, .. } if *generation > 0)),
        "trace never resurrects a deleted image"
    );
    // The world is genuinely beyond the paper's scale.
    assert!(world.image_names().len() > 19);
    assert_ne!(
        trace.digest_hex(),
        churn_trace(&ChurnConfig::small(SEED + 1, 520))
            .1
            .digest_hex(),
        "different seeds must not collide"
    );
}
