//! Durable churn acceptance suite: the crash-recovery replay must be
//! thread-count invariant and converge to the in-memory oracle.
//!
//! A lifecycle trace with 3 injected crash-recovery pairs is replayed
//! with Expelliarmus and Mirage running over `xpl-persist` durable
//! backends. The pinned properties:
//!
//! 1. the oracle reports **zero violations** — every recovery (WAL
//!    replay over the manifest, torn tails dropped) converged to the
//!    uncrashed in-memory state, with all recovered content
//!    re-validated;
//! 2. the serialized report is **byte-identical at 1, 2 and 8
//!    threads** (all durable work rides the replica-serial mutation
//!    stream);
//! 3. the end-of-replay CAS fingerprints equal the purely in-memory
//!    replay's — durability changes nothing about the logical state;
//! 4. group commit holds: the replay syncs the medium at most 0.6 times
//!    per WAL record (one commit per repository op, not one per record).

use expelliarmus::bench::churn::{run_churn, ChurnConfig, DurableCfg};
use expelliarmus::util::Sha256;

const SEED: u64 = 0xD17A;
const OPS: usize = 300;

/// SHA-256 of the report JSON (`oracle_checks` zeroed) that the former
/// sequential per-op driver produced for [`durable_cfg`], recorded at
/// the commit before that driver was deleted.
const SEQUENTIAL_REPORT_SHA256: &str =
    "d4c4ebcbda484b80140f6a9717c4a826254190d5be3bbf555128fe014f011c19";

fn durable_cfg() -> ChurnConfig {
    ChurnConfig::small(SEED, OPS).with_durable(DurableCfg {
        crashes: 3,
        crash_seed: 42,
    })
}

#[test]
fn three_crash_trace_is_byte_identical_at_1_2_8_threads() {
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let mut report = run_churn(&durable_cfg().with_threads(threads));
            assert!(
                report.violations.is_empty(),
                "violations at {threads} threads:\n{}",
                report.violations.join("\n")
            );
            assert_eq!(report.crashes, 3);
            let json = serde_json::to_string_pretty(&report).expect("serialize");
            // Everything but the audit count is what a strictly
            // sequential per-op replay of the trace reports.
            report.oracle_checks = 0;
            let zeroed = serde_json::to_string_pretty(&report).expect("serialize");
            assert_eq!(
                Sha256::digest(zeroed.as_bytes()).to_hex(),
                SEQUENTIAL_REPORT_SHA256,
                "{threads} threads"
            );
            json
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads diverged");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads diverged");
}

#[test]
fn durable_replay_converges_to_the_in_memory_oracle() {
    let durable = run_churn(&durable_cfg());
    assert!(
        durable.violations.is_empty(),
        "violations:\n{}",
        durable.violations.join("\n")
    );
    let mem = run_churn(&ChurnConfig::small(SEED, OPS));
    assert!(mem.violations.is_empty());

    // Same logical end state: store summaries and CAS fingerprints.
    assert_eq!(durable.stores.len(), mem.stores.len());
    for (a, b) in durable.stores.iter().zip(&mem.stores) {
        assert_eq!(a.store, b.store);
        assert_eq!(a.final_repo_bytes, b.final_repo_bytes, "{}", a.store);
        assert_eq!(a.bytes_added_total, b.bytes_added_total, "{}", a.store);
        assert_eq!(a.bytes_freed_total, b.bytes_freed_total, "{}", a.store);
    }
    assert!(!durable.cas_fingerprints.is_empty());
    assert_eq!(durable.cas_fingerprints.len(), mem.cas_fingerprints.len());
    for (a, b) in durable.cas_fingerprints.iter().zip(&mem.cas_fingerprints) {
        assert_eq!(
            (&a.store, &a.section, &a.fingerprint),
            (&b.store, &b.section, &b.fingerprint),
        );
    }

    // The durable run actually did durable work: 3 injected recoveries
    // plus the closing one, torn tails dropped at each, and a WAL
    // record for every write-through mutation.
    let summaries = durable.durable.expect("durable summaries present");
    assert_eq!(summaries.len(), 2, "Mirage + Expelliarmus ran durable");
    for s in &summaries {
        assert_eq!(s.recoveries, 4, "{}: 3 injected + 1 final", s.store);
        assert!(
            s.torn_tails >= s.recoveries * s.sections as u64,
            "{}: every recovery dropped its torn WAL tails",
            s.store
        );
        assert!(s.wal_appends > 0, "{}", s.store);
        assert!(s.wal_records_replayed > 0, "{}", s.store);
    }
    assert!(
        mem.durable.is_none(),
        "in-memory replay reports no durable leg"
    );
}

#[test]
fn durable_replay_syncs_at_most_six_times_per_ten_wal_records() {
    let registry = xpl_obs::Registry::new();
    let mut cfg = durable_cfg();
    cfg.registry = Some(std::sync::Arc::clone(&registry));
    let report = run_churn(&cfg);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        let (_, _, n) = snapshot.counters.iter().find(|c| c.0 == name).unwrap();
        *n
    };
    let (syncs, records) = (counter("persist.fsyncs"), counter("persist.wal.appends"));
    let summaries = report.durable.expect("durable summaries present");
    assert_eq!(
        records,
        summaries.iter().map(|s| s.wal_appends).sum::<u64>()
    );
    assert!(syncs > 0, "a durable replay syncs");
    assert!(
        syncs * 10 <= records * 6,
        "{syncs} syncs for {records} WAL records"
    );
}
