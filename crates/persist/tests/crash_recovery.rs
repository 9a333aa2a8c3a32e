//! Crash-recovery acceptance suite for the durable CAS.
//!
//! The centerpiece truncates a recorded run's WAL at **every byte
//! boundary** and asserts the all-or-nothing recovery invariant: the
//! recovered state always equals the state after some whole prefix of
//! the logged operations — an op is replayed fully or dropped cleanly,
//! never half-applied. The op sequences come from the proptest
//! harness, so the sweep covers many shapes of put/add_ref/release
//! interleavings (including dedup hits and death-and-rebirth of the
//! same digest). A second sweep arms a crash at every medium mutation
//! of a group-committed batch — the cut now lands between the segment
//! syncs and the WAL write as well as inside them — and asserts the
//! same prefix invariant.

use std::sync::Arc;

use proptest::prelude::*;
use xpl_persist::{
    cas_state_fingerprint, DurableConfig, DurableContentStore, MemFs, PersistError, Vfs,
};
use xpl_util::Sha256;

/// A config that never checkpoints, so the whole history stays in the
/// WAL for the truncation sweep.
fn wal_only(prefix: &str) -> DurableConfig {
    let mut cfg = DurableConfig::named(prefix);
    cfg.checkpoint_every_ops = 0;
    cfg
}

/// One scripted CAS mutation.
#[derive(Clone, Debug)]
enum Op {
    /// Put payload #n (repeats dedup into add_refs).
    Put(u8),
    /// Release payload #n if it is currently live.
    Release(u8),
}

fn payload(n: u8) -> Vec<u8> {
    // Distinct, small, deterministic payloads.
    let mut p = vec![n; 9 + (n as usize % 7)];
    p[0] = n.wrapping_add(1);
    p
}

/// Drive `ops` against a fresh WAL-only store, recording the state
/// fingerprint after every *logged* operation (skips that log nothing
/// don't advance the history). Returns the medium and the fingerprint
/// trajectory, index 0 being the empty store.
fn record_run(ops: &[Op]) -> (Arc<MemFs>, Vec<String>) {
    let vfs = Arc::new(MemFs::new());
    let (store, _) = DurableContentStore::open(Arc::clone(&vfs) as _, wal_only("t")).unwrap();
    let mut fps = vec![cas_state_fingerprint(Vec::new(), 0)];
    for op in ops {
        let logged = match op {
            Op::Put(n) => {
                store.put(&payload(*n)).unwrap();
                true
            }
            Op::Release(n) => {
                let digest = Sha256::digest(&payload(*n));
                if store.refs_of(&digest).is_some() {
                    store.release(&digest).unwrap();
                    true
                } else {
                    false
                }
            }
        };
        if logged {
            fps.push(store.state_fingerprint());
        }
    }
    (vfs, fps)
}

/// The invariant itself: for every byte-length prefix of the WAL,
/// recovery lands exactly on `fps[records_replayed]`.
fn assert_all_or_nothing(vfs: &MemFs, fps: &[String]) {
    // A script of skipped ops logs nothing and never creates the WAL.
    let wal = vfs.read("t.wal-000000").unwrap_or_default();
    for cut in 0..=wal.len() {
        let fork = vfs.fork();
        fork.set_file("t.wal-000000", &wal[..cut]);
        let (recovered, report) = DurableContentStore::open(Arc::new(fork) as _, wal_only("t"))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let idx = report.wal_records_replayed as usize;
        assert!(
            idx < fps.len(),
            "cut {cut}: replayed {idx} records, history has {}",
            fps.len() - 1
        );
        assert_eq!(
            recovered.state_fingerprint(),
            fps[idx],
            "cut {cut}: recovered state is not the state after op {idx} — half-applied op?"
        );
        // The torn-tail flag must agree with the valid-byte count: a
        // cut on a record boundary recovers silently, anything else is
        // reported (and physically truncated) as a torn tail.
        assert_eq!(report.torn_wal_tail, report.wal_bytes_valid != cut as u64);
        // Whatever was recovered must also pass the content sweep.
        recovered
            .deep_verify()
            .unwrap_or_else(|e| panic!("cut {cut}: recovered blobs fail verification: {e}"));
    }
}

#[test]
fn wal_truncated_at_every_byte_boundary_recovers_a_whole_prefix() {
    // A fixed dense script: puts, dedup hits, releases, death and
    // rebirth of one digest.
    let ops = [
        Op::Put(1),
        Op::Put(2),
        Op::Put(1), // dedup → AddRef
        Op::Put(3),
        Op::Release(2), // dies
        Op::Release(1), // refs 2 → 1
        Op::Put(2),     // rebirth of a dead digest
        Op::Release(1), // dies
        Op::Put(4),
    ];
    let (vfs, fps) = record_run(&ops);
    assert_eq!(fps.len(), 10, "all 9 ops log");
    assert_all_or_nothing(&vfs, &fps);
}

// The same sweep over generated op scripts.
proptest! {
    #[test]
    fn truncation_sweep_over_generated_histories(
        ops in proptest::collection::vec(
            (0u8..2, 0u8..6).prop_map(|(kind, n)| match kind {
                0 => Op::Put(n),
                _ => Op::Release(n),
            }),
            1..40,
        )
    ) {
        let (vfs, fps) = record_run(&ops);
        assert_all_or_nothing(&vfs, &fps);
    }
}

#[test]
fn recovery_is_byte_deterministic() {
    let ops = [Op::Put(7), Op::Put(8), Op::Release(7), Op::Put(9)];
    let (vfs, _) = record_run(&ops);
    let open_fp = || {
        let (store, _) =
            DurableContentStore::open(Arc::new(vfs.fork()) as _, wal_only("t")).unwrap();
        store.state_fingerprint()
    };
    assert_eq!(open_fp(), open_fp());
}

#[test]
fn stdfs_backed_store_survives_a_real_reopen() {
    use xpl_persist::StdFs;
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-test")
        .join(format!("stdfs-reopen-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = DurableConfig::named("disk");
    let fp = {
        let vfs = Arc::new(StdFs::new(&dir).unwrap());
        let (store, _) = DurableContentStore::open(vfs, cfg.clone()).unwrap();
        store.put(b"really on disk").unwrap();
        store.put(b"also on disk").unwrap();
        let d = store.put(b"short-lived").unwrap().0;
        store.release(&d).unwrap();
        store.checkpoint().unwrap();
        store.put(b"after the checkpoint").unwrap();
        store.state_fingerprint()
    };
    let vfs = Arc::new(StdFs::new(&dir).unwrap());
    let (reopened, report) = DurableContentStore::open(vfs, cfg).unwrap();
    assert_eq!(report.manifest_entries, 2);
    assert_eq!(report.wal_records_replayed, 1);
    assert_eq!(reopened.state_fingerprint(), fp);
    assert_eq!(reopened.deep_verify().unwrap(), 3);
    assert_eq!(
        reopened.get(&Sha256::digest(b"really on disk")).unwrap(),
        b"really on disk"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifest_is_rejected_not_panicked() {
    let vfs = Arc::new(MemFs::new());
    let (store, _) =
        DurableContentStore::open(Arc::clone(&vfs) as _, DurableConfig::named("m")).unwrap();
    store.put(b"content").unwrap();
    store.checkpoint().unwrap();
    let mut manifest = vfs.read("m.manifest").unwrap();
    let mid = manifest.len() / 2;
    manifest[mid] ^= 0x08;
    vfs.set_file("m.manifest", &manifest);
    match DurableContentStore::open(Arc::clone(&vfs) as _, DurableConfig::named("m")) {
        Err(PersistError::CorruptManifest(_)) => {}
        other => panic!("expected CorruptManifest, got {:?}", other.map(|_| ())),
    }
}

/// One step of the scripted batch of
/// [`crash_at_every_mutation_of_a_batch_recovers_a_record_prefix`].
type BatchStep = Box<dyn Fn(&DurableContentStore) -> Result<(), PersistError>>;

/// The batch: new puts across a segment roll, a dedup put, an
/// `add_ref`, a release to zero — each logs exactly one record — and
/// the commit that makes them durable. `base` is committed beforehand.
fn batch_script(base: &'static [u8]) -> Vec<BatchStep> {
    let (b, c): (&[u8], &[u8]) = (&[0xB0; 40], &[0xC0; 24]);
    vec![
        Box::new(move |s| s.log_put(Sha256::digest(b), b).map(drop)), // fills segment 1
        Box::new(move |s| s.log_put(Sha256::digest(c), c).map(drop)), // rolls to segment 2
        Box::new(move |s| s.log_put(Sha256::digest(base), base).map(drop)), // dedup
        Box::new(move |s| s.log_add_ref(Sha256::digest(b))),
        Box::new(move |s| s.log_release(&Sha256::digest(c)).map(drop)), // dies
        Box::new(|s| s.commit()),
    ]
}

#[test]
fn crash_at_every_mutation_of_a_batch_recovers_a_record_prefix() {
    const BASE: &[u8] = b"committed before the batch";
    let mut cfg = wal_only("t");
    cfg.segment_target_bytes = 64;
    let fresh = || {
        let vfs = Arc::new(MemFs::new());
        let (store, _) = DurableContentStore::open(Arc::clone(&vfs) as _, cfg.clone()).unwrap();
        store.put(BASE).unwrap();
        (vfs, store)
    };

    // Reference run, no crash: the state after every logged record, and
    // how many medium mutations the batch makes.
    let (vfs, store) = fresh();
    let before = vfs.mutations();
    let mut prefixes = vec![store.state_fingerprint()];
    for step in batch_script(BASE) {
        step(&store).unwrap();
        prefixes.push(store.state_fingerprint());
    }
    prefixes.pop(); // the commit logs nothing
    let full = prefixes.last().unwrap().clone();
    let mutations = vfs.mutations() - before;
    // 2 segment appends; then 2 segment syncs, 1 WAL append, 1 WAL sync.
    assert_eq!(mutations, 6, "the batch must span a segment roll");
    assert!(vfs.exists("t.seg-000002"));

    let mut proper_prefix_seen = false;
    for n in 1..=mutations + 1 {
        let (vfs, store) = fresh();
        vfs.set_crash_at(n);
        let committed = batch_script(BASE).iter().try_for_each(|step| step(&store));
        assert_eq!(committed.is_ok(), n > mutations, "crash at mutation {n}");
        vfs.power_cut();
        let (recovered, _) = DurableContentStore::open(Arc::clone(&vfs) as _, cfg.clone())
            .unwrap_or_else(|e| panic!("crash at mutation {n}: recovery failed: {e}"));
        let fp = recovered.state_fingerprint();
        let records = prefixes
            .iter()
            .position(|p| *p == fp)
            .unwrap_or_else(|| panic!("crash at mutation {n}: recovered state is no prefix"));
        proper_prefix_seen |= 0 < records && records < prefixes.len() - 1;
        if committed.is_ok() {
            assert_eq!(fp, full, "a commit that returned Ok lost records");
        }
        // No live entry points at a payload the crash took.
        let live = recovered.snapshot_refs();
        assert_eq!(recovered.deep_verify().unwrap(), live.len(), "crash at {n}");
        for (digest, _, len) in live {
            assert_eq!(recovered.get(&digest).unwrap().len() as u64, len);
        }
        // The in-place recovery of the crashed handle agrees.
        store.reopen_in_place().unwrap();
        assert_eq!(store.state_fingerprint(), fp, "crash at mutation {n}");
        store.put(b"writable again").unwrap();
    }
    // The torn WAL append leaves whole records of the batch behind.
    assert!(
        proper_prefix_seen,
        "no cut point recovered part of the batch"
    );
}
