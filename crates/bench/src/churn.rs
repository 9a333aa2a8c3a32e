//! Trace-driven churn replay with a differential oracle.
//!
//! [`run_churn`] generates a deterministic lifecycle trace over a
//! [`ScaledWorld`] and replays it against all five evaluated stores
//! (Qcow2, Qcow2+Gzip, Mirage, Hemera, Expelliarmus) in lockstep. The
//! oracle checks:
//!
//! 1. **Differential retrieval** — the semantic fingerprint (files sans
//!    junk/status + installed package set) of every retrieved image is
//!    identical across all stores *and* to the image as published;
//!    snapshot stores additionally reproduce the full fingerprint
//!    byte-for-byte, and repeated retrievals (bursts) are stable.
//! 2. **Refcount integrity** — each store's `check_integrity` audit:
//!    CAS/DB refcounts equal the live references its manifests imply
//!    (no leaks from the delete / upgrade-republish paths, no orphans).
//! 3. **Size ledger** — `repo_bytes` evolves exactly as the report
//!    stream claims (`after == before + bytes_added - bytes_freed` on
//!    publish, `after == before - bytes_freed` on delete, unchanged by
//!    retrieval, shifted by exactly `bytes_delta` on a maintenance
//!    sweep), and deleted images are `NotFound` on monolithic
//!    stores. Qcow2/Gzip/Mirage/Hemera derive their report numbers from
//!    gross content movements, so the check is independent of
//!    `repo_bytes`; Expelliarmus reports net deltas (its DB payload
//!    moves both ways within one publish), where the refcount audit is
//!    the independent witness.
//!
//! Violations are collected, not panicked, so a single run reports every
//! divergence; callers (the `repro churn` subcommand, CI, the
//! integration suite) assert the list is empty.
//!
//! # Run-partitioned replay
//!
//! The replay runs on a pool of [`ChurnConfig::threads`] workers
//! (`--threads`, default 1). The trace is split into maximal runs of
//! *mutations* (publish/upgrade/delete/maintain) and *retrievals*
//! (retrieve/burst):
//!
//! * mutation runs execute in trace order **per store**, with the five
//!   store replicas advancing in parallel — each replica owns its
//!   simulated environment, so its per-op reports and ledger checks do
//!   not depend on the pool;
//! * retrieval runs are partitioned by image-name **conflict group**:
//!   each (replica × image) group replays its retrievals in trace order
//!   on the pool, while distinct images — now genuinely concurrent
//!   through the stores' shared-access (`&self`) interfaces — proceed in
//!   parallel. Retrievals are read-only, so the differential
//!   fingerprints are exact and thread-count independent.
//!
//! The run boundaries are the oracle's **quiesce points**: refcount
//! audits run after every mutation (still serial per store) and once per
//! store at the end of each retrieval run; a full deep audit (every CAS
//! blob re-hashed) closes the replay. The resulting [`ChurnReport`] is
//! **byte-identical for any thread count** — pinned by a test at 1, 2
//! and 8 threads. One check depends on what the pool can guarantee: a
//! ranged read may not move more repository bytes than the full
//! retrieval, which is only measurable while a store's reads are
//! serialized, so it is enforced whenever the pool has one worker.
//!
//! # Durable replay with crash-recovery churn
//!
//! With [`ChurnConfig::with_durable`], Expelliarmus and Mirage run over
//! `xpl-persist` write-through backends on fault-injecting in-memory
//! media, and the trace gains seeded `Crash`/`Recover` pairs. A `Crash`
//! power-cuts the replica's medium and tears each WAL tail with
//! garbage; `Recover` reopens every durable section (manifest load +
//! WAL replay, torn tail dropped), re-validates every recovered blob
//! (magic, digest, CRC-32), and requires the recovered state to
//! **converge** to the uncrashed in-memory CAS — fingerprint equality
//! over blobs, refcounts and the size ledger. A final power-cut +
//! recovery closes every durable replay. All durable work happens in
//! the replica-serial mutation stream, so reports stay byte-identical
//! at any thread count, and the end-of-replay
//! [`ChurnReport::cas_fingerprints`] are identical between durable and
//! purely in-memory replays of the same trace (what CI diffs).
//!
//! # Codec tiers
//!
//! Every tiered store replica runs under [`ChurnConfig::tier`]
//! (default: the mixed hot/cold policy). The trace's `Maintain` ops
//! trigger temperature-driven recompression mid-replay, so the oracle
//! continuously audits mixed-codec states. Because CAS ledgers and
//! fingerprints are *logical* bytes, the end-of-replay
//! [`ChurnReport::cas_fingerprints`] must be identical across every
//! tier policy of the same trace — the repository-level proof that
//! `recompress` pins uncompressed digests (what the CI codec-ablation
//! smoke diffs against the all-DEFLATE replay).

use std::sync::Arc;

use rayon::prelude::*;
use serde::Serialize;
use xpl_baselines::{GzipStore, HemeraStore, MirageStore, QcowStore};
use xpl_core::ExpelliarmusRepo;
use xpl_persist::{DurableConfig, DurableContentStore, MemFs};
use xpl_simio::SimEnv;
use xpl_store::{oracle, ImageStore, RetrieveRequest, StoreError, TierPolicy};
use xpl_util::{Digest, FxHashMap};
use xpl_workloads::{ScaleConfig, ScaledWorld, Trace, TraceConfig, TraceOp};

/// Durable-replay parameters: how many crash-recovery pairs to inject
/// and the seed that places them.
#[derive(Clone, Copy, Debug)]
pub struct DurableCfg {
    pub crashes: usize,
    pub crash_seed: u64,
}

impl Default for DurableCfg {
    fn default() -> Self {
        DurableCfg {
            crashes: 3,
            crash_seed: 42,
        }
    }
}

/// Replay parameters.
#[derive(Clone)]
pub struct ChurnConfig {
    pub seed: u64,
    /// Trace length (a burst is one entry; injected crash-recovery
    /// pairs come on top).
    pub ops: usize,
    pub scale: ScaleConfig,
    /// `Some` runs Expelliarmus and Mirage over durable write-through
    /// backends and injects crash-recovery churn.
    pub durable: Option<DurableCfg>,
    /// Codec tier policy applied to every tiered store replica (Gzip,
    /// Mirage, Hemera, Expelliarmus; Qcow2 has no representation to
    /// tier). CAS ledgers and fingerprints are logical bytes, so every
    /// policy must replay to identical fingerprints — the oracle's
    /// proof that recompression pins digests.
    pub tier: TierPolicy,
    /// Worker-pool size of the replay. The report is byte-identical for
    /// every value; one worker (the default) additionally serializes
    /// reads, which arms the ranged-read byte bound.
    pub threads: usize,
    /// Metrics registry attached to every replica before the replay.
    /// Attachment never changes the report, and the snapshot's `det`
    /// section is derived purely from the executed op multiset, so it
    /// is byte-identical at any thread count (CI pins both).
    pub registry: Option<Arc<xpl_obs::Registry>>,
}

impl ChurnConfig {
    /// Test-friendly scale (debug builds replay ~500 ops in seconds).
    pub fn small(seed: u64, ops: usize) -> ChurnConfig {
        ChurnConfig {
            seed,
            ops,
            scale: ScaleConfig::small(seed),
            durable: None,
            tier: TierPolicy::mixed(),
            threads: 1,
            registry: None,
        }
    }

    /// Release-mode stress scale.
    pub fn standard(seed: u64, ops: usize) -> ChurnConfig {
        ChurnConfig {
            scale: ScaleConfig::standard(seed),
            ..ChurnConfig::small(seed, ops)
        }
    }

    /// Same replay, on durable backends with injected crashes.
    pub fn with_durable(mut self, durable: DurableCfg) -> ChurnConfig {
        self.durable = Some(durable);
        self
    }

    /// Same replay, with every tiered store on `tier`.
    pub fn with_tier(mut self, tier: TierPolicy) -> ChurnConfig {
        self.tier = tier;
        self
    }

    /// Same replay, on a pool of `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> ChurnConfig {
        self.threads = threads;
        self
    }
}

/// Per-store outcome summary.
#[derive(Clone, Debug, Serialize)]
pub struct StoreSummary {
    pub store: String,
    pub final_repo_bytes: u64,
    pub final_images: usize,
    pub bytes_added_total: u64,
    pub bytes_freed_total: u64,
    pub sim_seconds: f64,
}

/// Canonical fingerprint of one CAS section of one store at the end of
/// the replay. Identical between the in-memory and durable replays of
/// the same trace — the field CI diffs across the two modes.
#[derive(Clone, Debug, Serialize)]
pub struct CasFingerprint {
    pub store: String,
    pub section: String,
    pub fingerprint: String,
}

/// Per-store durable-replay summary (deterministic: identical for any
/// thread count).
#[derive(Clone, Debug, Serialize)]
pub struct DurableStoreSummary {
    pub store: String,
    pub sections: usize,
    /// Crash-recovery cycles (injected + the closing reopen).
    pub recoveries: u64,
    pub wal_records_replayed: u64,
    /// Torn WAL tails dropped cleanly during recovery.
    pub torn_tails: u64,
    /// Blobs alive across all recoveries (summed per recovery).
    pub recovered_blobs: u64,
    /// Total WAL records logged by write-through over the whole replay.
    pub wal_appends: u64,
    pub checkpoints: u64,
}

/// The JSON-serialized replay outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ChurnReport {
    pub seed: u64,
    pub ops: usize,
    pub publishes: usize,
    pub retrieves: usize,
    pub range_retrieves: usize,
    pub upgrades: usize,
    pub deletes: usize,
    pub bursts: usize,
    pub burst_retrieves: usize,
    pub maintains: usize,
    pub crashes: usize,
    pub oracle_checks: u64,
    /// Canonical name of the tier policy every tiered replica ran under.
    pub tier: String,
    pub trace_sha256: String,
    pub stores: Vec<StoreSummary>,
    pub cas_fingerprints: Vec<CasFingerprint>,
    pub durable: Option<Vec<DurableStoreSummary>>,
    pub violations: Vec<String>,
}

/// What the oracle remembers about a live image.
struct LiveImage {
    request: RetrieveRequest,
    semantic_fp: Digest,
    full_fp: Digest,
}

/// The durable media and backends of one replica, plus deterministic
/// recovery accounting.
struct DurableAttachment {
    vfs: Arc<MemFs>,
    /// `(section, handle)` in the same order as the store's
    /// `cas_fingerprints()`.
    sections: Vec<(String, Arc<DurableContentStore>)>,
    recoveries: u64,
    wal_records_replayed: u64,
    torn_tails: u64,
    recovered_blobs: u64,
}

struct Replica {
    store: Box<dyn ImageStore>,
    expected_bytes: u64,
    added_total: u64,
    freed_total: u64,
    sim_seconds: f64,
    durable: Option<DurableAttachment>,
}

/// Durable backend geometry for the churn replay: small segments and a
/// sub-trace checkpoint cadence so a standard run exercises segment
/// rolling, manifest swaps *and* WAL replay.
fn churn_durable_config(section: &str) -> DurableConfig {
    DurableConfig {
        prefix: section.to_string(),
        segment_target_bytes: 1024 * 1024,
        checkpoint_every_ops: 512,
    }
}

fn durable_section(vfs: &Arc<MemFs>, section: &str) -> (String, Arc<DurableContentStore>) {
    let (store, report) = DurableContentStore::open(
        Arc::clone(vfs) as Arc<dyn xpl_persist::Vfs>,
        churn_durable_config(section),
    )
    .expect("fresh durable store");
    assert_eq!(report.blobs, 0, "fresh medium must be empty");
    (section.to_string(), Arc::new(store))
}

/// The five evaluated stores over fresh simulated environments (the
/// one construction point shared by the churn replay and `repro
/// audit`), each on its default tier.
pub fn five_stores(env: impl Fn() -> SimEnv) -> Vec<Box<dyn ImageStore>> {
    vec![
        Box::new(QcowStore::new(env())),
        Box::new(GzipStore::new(env())),
        Box::new(MirageStore::new(env())),
        Box::new(HemeraStore::new(env())),
        Box::new(ExpelliarmusRepo::new(env())),
    ]
}

/// The five stores with every tiered one (all but raw Qcow2) on `tier`.
pub(crate) fn five_stores_tiered(
    env: impl Fn() -> SimEnv,
    tier: TierPolicy,
) -> Vec<Box<dyn ImageStore>> {
    vec![
        Box::new(QcowStore::new(env())),
        Box::new(GzipStore::new(env()).with_tier(tier)),
        Box::new(MirageStore::new(env()).with_tier(tier)),
        Box::new(HemeraStore::new(env()).with_tier(tier)),
        Box::new(ExpelliarmusRepo::new(env()).with_tier(tier)),
    ]
}

fn replica(store: Box<dyn ImageStore>, durable: Option<DurableAttachment>) -> Replica {
    Replica {
        store,
        expected_bytes: 0,
        added_total: 0,
        freed_total: 0,
        sim_seconds: 0.0,
        durable,
    }
}

/// The five replicas; with `durable`, Mirage and Expelliarmus write
/// through to log-structured backends over fault-injecting in-memory
/// media (each replica owns its medium).
fn fresh_replicas(durable: bool, tier: TierPolicy) -> Vec<Replica> {
    if !durable {
        return five_stores_tiered(SimEnv::testbed, tier)
            .into_iter()
            .map(|store| replica(store, None))
            .collect();
    }
    let mirage_vfs = Arc::new(MemFs::new());
    let mirage_files = durable_section(&mirage_vfs, "files");
    let mirage = replica(
        Box::new(
            MirageStore::new_durable(SimEnv::testbed(), Arc::clone(&mirage_files.1))
                .with_tier(tier),
        ),
        Some(DurableAttachment {
            vfs: mirage_vfs,
            sections: vec![mirage_files],
            recoveries: 0,
            wal_records_replayed: 0,
            torn_tails: 0,
            recovered_blobs: 0,
        }),
    );
    let xpl_vfs = Arc::new(MemFs::new());
    let packages = durable_section(&xpl_vfs, "packages");
    let data = durable_section(&xpl_vfs, "data");
    let expelliarmus = replica(
        Box::new(
            ExpelliarmusRepo::new_durable(
                SimEnv::testbed(),
                Arc::clone(&packages.1),
                Arc::clone(&data.1),
            )
            .with_tier(tier),
        ),
        Some(DurableAttachment {
            vfs: xpl_vfs,
            sections: vec![packages, data],
            recoveries: 0,
            wal_records_replayed: 0,
            torn_tails: 0,
            recovered_blobs: 0,
        }),
    );
    vec![
        replica(Box::new(QcowStore::new(SimEnv::testbed())), None),
        replica(
            Box::new(GzipStore::new(SimEnv::testbed()).with_tier(tier)),
            None,
        ),
        mirage,
        replica(
            Box::new(HemeraStore::new(SimEnv::testbed()).with_tier(tier)),
            None,
        ),
        expelliarmus,
    ]
}

/// Generate the trace for a config (exposed so tests can assert
/// reproducibility without replaying). Durable configs additionally
/// inject crash-recovery pairs at seeded positions.
pub fn churn_trace(cfg: &ChurnConfig) -> (ScaledWorld, Trace) {
    let world = ScaledWorld::generate(&cfg.scale);
    let mut trace = Trace::generate(
        &world.image_names(),
        &TraceConfig {
            seed: cfg.seed,
            ops: cfg.ops,
        },
    );
    if let Some(durable) = &cfg.durable {
        trace.inject_crashes(durable.crash_seed, durable.crashes);
    }
    (world, trace)
}

/// Deterministic garbage appended to each WAL at a crash: a torn
/// sector that recovery must drop cleanly.
const TORN_TAIL_GARBAGE: [u8; 13] = [0xA5; 13];

/// Power-cut one replica's durable medium and tear its WAL tails. A
/// no-op for replicas without an attachment.
fn apply_crash(r: &mut Replica) {
    if let Some(att) = &mut r.durable {
        att.vfs.power_cut();
        for (_, handle) in &att.sections {
            att.vfs
                .inject_torn_tail(&handle.wal_file(), &TORN_TAIL_GARBAGE);
        }
    }
}

/// Reopen one replica's durable sections from the medium and check the
/// recovered state converges to the live in-memory CAS: same blobs,
/// refcounts and size ledger (fingerprint equality), with every
/// recovered blob's content re-validated (magic, digest, CRC-32).
fn apply_recover(r: &mut Replica, ctx: &str, violations: &mut Vec<String>, checks: &mut u64) {
    let Replica { store, durable, .. } = r;
    let Some(att) = durable else { return };
    let live = store.cas_fingerprints();
    for (i, (section, handle)) in att.sections.iter().enumerate() {
        match handle.reopen_in_place() {
            Ok(rep) => {
                *checks += 1;
                att.wal_records_replayed += rep.wal_records_replayed;
                att.torn_tails += rep.torn_wal_tail as u64;
                att.recovered_blobs += rep.blobs as u64;
                if let Err(e) = handle.deep_verify() {
                    violations.push(format!(
                        "{ctx} {}: {section} recovery content sweep: {e}",
                        store.name()
                    ));
                }
                match live.get(i) {
                    Some((live_section, live_fp)) if live_section == section => {
                        if handle.state_fingerprint() != *live_fp {
                            violations.push(format!(
                                "{ctx} {}: recovered {section} diverged from \
                                 the in-memory state",
                                store.name()
                            ));
                        }
                    }
                    _ => violations.push(format!(
                        "{ctx} {}: no live fingerprint for section {section}",
                        store.name()
                    )),
                }
            }
            Err(e) => violations.push(format!(
                "{ctx} {}: recovery of {section} failed: {e}",
                store.name()
            )),
        }
    }
    att.recoveries += 1;
}

/// The closing durability check of a replay: power-cut every durable
/// replica one last time (torn tails included) and require recovery to
/// converge to the final in-memory state.
fn final_recover_all(replicas: &mut [Replica], violations: &mut Vec<String>, checks: &mut u64) {
    for r in replicas.iter_mut() {
        apply_crash(r);
        apply_recover(r, "final", violations, checks);
    }
}

/// End-of-replay fingerprints of every store's CAS sections.
fn collect_fingerprints(replicas: &[Replica]) -> Vec<CasFingerprint> {
    let mut out = Vec::new();
    for r in replicas {
        for (section, fingerprint) in r.store.cas_fingerprints() {
            out.push(CasFingerprint {
                store: r.store.name().to_string(),
                section,
                fingerprint,
            });
        }
    }
    out
}

/// Durable summaries (None when the replay ran purely in memory).
fn collect_durable_summaries(replicas: &[Replica]) -> Option<Vec<DurableStoreSummary>> {
    let summaries: Vec<DurableStoreSummary> = replicas
        .iter()
        .filter_map(|r| {
            r.durable.as_ref().map(|att| DurableStoreSummary {
                store: r.store.name().to_string(),
                sections: att.sections.len(),
                recoveries: att.recoveries,
                wal_records_replayed: att.wal_records_replayed,
                torn_tails: att.torn_tails,
                recovered_blobs: att.recovered_blobs,
                wal_appends: att.sections.iter().map(|(_, h)| h.wal_appends()).sum(),
                checkpoints: att.sections.iter().map(|(_, h)| h.checkpoints()).sum(),
            })
        })
        .collect();
    if summaries.is_empty() {
        None
    } else {
        Some(summaries)
    }
}

/// Apply one publish/upgrade to one replica with the full per-op oracle
/// (cost, ledger).
fn apply_publish(
    r: &mut Replica,
    world: &ScaledWorld,
    vmi: &xpl_guestfs::Vmi,
    image: &str,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    match r.store.publish(&world.catalog, vmi) {
        Ok(report) => {
            *checks += 1;
            if report.duration.as_nanos() == 0 {
                violations.push(format!(
                    "step {step} {}: publish {image} cost nothing",
                    r.store.name()
                ));
            }
            r.added_total += report.bytes_added;
            r.freed_total += report.bytes_freed;
            r.sim_seconds += report.duration.as_secs_f64();
            let want =
                r.expected_bytes as i128 + report.bytes_added as i128 - report.bytes_freed as i128;
            let actual = r.store.repo_bytes();
            if want != actual as i128 {
                violations.push(format!(
                    "step {step} {}: publish {image} ledger: want {want}, \
                     have {actual} (added {}, freed {})",
                    r.store.name(),
                    report.bytes_added,
                    report.bytes_freed
                ));
            }
            r.expected_bytes = actual;
        }
        Err(e) => violations.push(format!(
            "step {step} {}: publish {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Apply one delete to one replica with the full per-op oracle (ledger,
/// deleted-name probe on monolithic stores).
fn apply_delete(
    r: &mut Replica,
    world: &ScaledWorld,
    image: &str,
    probe: &RetrieveRequest,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    match r.store.delete(image) {
        Ok(report) => {
            *checks += 1;
            r.freed_total += report.bytes_freed;
            r.sim_seconds += report.duration.as_secs_f64();
            let after = r.store.repo_bytes();
            if before.saturating_sub(report.bytes_freed) != after {
                violations.push(format!(
                    "step {step} {}: delete {image} freed {} but {before} -> {after}",
                    r.store.name(),
                    report.bytes_freed
                ));
            }
            r.expected_bytes = after;
            // Deleted names must be unretrievable from monolithic stores
            // (Expelliarmus may still assemble functionally — the paper's
            // point).
            if r.store.name() != "Expelliarmus" {
                match r.store.retrieve(&world.catalog, probe) {
                    Err(StoreError::NotFound(_)) => {}
                    Ok(_) => violations.push(format!(
                        "step {step} {}: retrieved deleted {image}",
                        r.store.name()
                    )),
                    Err(e) => violations.push(format!(
                        "step {step} {}: deleted {image} gave {e}, want NotFound",
                        r.store.name()
                    )),
                }
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: delete {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Apply one maintenance sweep to one replica with its ledger oracle:
/// the store re-encodes blobs per its tier policy, content stays pinned
/// (the deep audit and every later retrieval witness that), and
/// `repo_bytes` must move by *exactly* the reported `bytes_delta` —
/// nonzero only for physically-sized stores (Gzip), zero for the CAS
/// stores whose ledger is logical and therefore codec-invariant.
fn apply_maintain(r: &mut Replica, step: usize, violations: &mut Vec<String>, checks: &mut u64) {
    let before = r.store.repo_bytes();
    let report = r.store.maintain();
    *checks += 1;
    let after = r.store.repo_bytes();
    if after as i128 != before as i128 + i128::from(report.bytes_delta) {
        violations.push(format!(
            "step {step} {}: maintain reported delta {} but moved repo \
             {before} -> {after}",
            r.store.name(),
            report.bytes_delta
        ));
    }
    if report.promoted + report.demoted > report.scanned {
        violations.push(format!(
            "step {step} {}: maintain re-encoded more entries than it scanned",
            r.store.name()
        ));
    }
    r.expected_bytes = after;
    r.sim_seconds += report.duration.as_secs_f64();
}

/// Retrieve one image from one replica and run the differential checks.
fn check_retrieve(
    r: &Replica,
    world: &ScaledWorld,
    expect: &LiveImage,
    image: &str,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    match r.store.retrieve(&world.catalog, &expect.request) {
        Ok((vmi, report)) => {
            *checks += 1;
            let semantic = oracle::semantic_fingerprint(&world.catalog, &vmi);
            if semantic != expect.semantic_fp {
                violations.push(format!(
                    "step {step} {}: {image} semantic fingerprint diverged",
                    r.store.name()
                ));
            }
            if r.store.name() != "Expelliarmus" {
                let full = oracle::full_fingerprint(&world.catalog, &vmi);
                if full != expect.full_fp {
                    violations.push(format!(
                        "step {step} {}: {image} full fingerprint diverged",
                        r.store.name()
                    ));
                }
            }
            if report.bytes_read == 0 || report.duration.as_nanos() == 0 {
                violations.push(format!(
                    "step {step} {}: free retrieval of {image}",
                    r.store.name()
                ));
            }
            if r.store.repo_bytes() != before {
                violations.push(format!(
                    "step {step} {}: retrieval of {image} changed repo size",
                    r.store.name()
                ));
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: retrieve {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Retrieve a byte range from one replica and run the differential
/// oracle: the ranged bytes must equal the same store's full-retrieval
/// disk slice, and — with `strict_bytes` — the repository must not move
/// more bytes for the range than it would for the whole image. The
/// byte-accounting comparison is only valid when this store's
/// retrievals are serialized (per-op reports read shared device
/// counters; beside a concurrent neighbour, its charges leak into the
/// delta).
#[allow(clippy::too_many_arguments)]
fn check_retrieve_range(
    r: &Replica,
    world: &ScaledWorld,
    expect: &LiveImage,
    image: &str,
    start_frac: u32,
    len: u32,
    step: usize,
    strict_bytes: bool,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    let (vmi, full) = match r.store.retrieve(&world.catalog, &expect.request) {
        Ok(x) => x,
        Err(e) => {
            violations.push(format!(
                "step {step} {}: range oracle retrieve {image} failed: {e}",
                r.store.name()
            ));
            return;
        }
    };
    let size = vmi.disk.virtual_size();
    let start = size * u64::from(start_frac) / 256;
    let end = start.saturating_add(u64::from(len)).min(size);
    let want = match vmi.disk.read_at(start, (end - start) as usize) {
        Ok(b) => b,
        Err(e) => {
            violations.push(format!(
                "step {step} {}: range oracle slice of {image} failed: {e}",
                r.store.name()
            ));
            return;
        }
    };
    match r
        .store
        .retrieve_range(&world.catalog, &expect.request, start, u64::from(len))
    {
        Ok((bytes, report)) => {
            *checks += 1;
            if bytes != want {
                violations.push(format!(
                    "step {step} {}: range ({start}, {len}) of {image} diverges from \
                     the full-retrieval slice",
                    r.store.name()
                ));
            }
            if strict_bytes && report.bytes_read > full.bytes_read {
                violations.push(format!(
                    "step {step} {}: range ({start}, {len}) of {image} read {} repo \
                     bytes, more than the full retrieval's {}",
                    r.store.name(),
                    report.bytes_read,
                    full.bytes_read
                ));
            }
            if r.store.repo_bytes() != before {
                violations.push(format!(
                    "step {step} {}: range retrieval of {image} changed repo size",
                    r.store.name()
                ));
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: range ({start}, {len}) of {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// One precomputed mutation of a mutation run. `published` indexes the
/// replay's list of built images and their oracle expectations.
enum WriteStep {
    Publish {
        step: usize,
        image: String,
        published: usize,
    },
    Delete {
        step: usize,
        image: String,
        /// The image's last publish: its request probes the deleted name.
        published: usize,
    },
    Maintain {
        step: usize,
    },
    Crash,
    Recover {
        step: usize,
    },
}

/// One retrieval of a retrieval run (bursts are expanded). `published`
/// is the publish the trace expects to read back (`None`: the trace
/// retrieved a dead image); a `Some` range means a ranged retrieval
/// with its differential oracle.
struct ReadStep {
    step: usize,
    image: String,
    published: Option<usize>,
    range: Option<(u32, u32)>,
}

enum Run {
    Writes(Vec<WriteStep>),
    Reads(Vec<ReadStep>),
}

fn is_write(op: &TraceOp) -> bool {
    matches!(
        op,
        TraceOp::Publish { .. }
            | TraceOp::Upgrade { .. }
            | TraceOp::Delete { .. }
            | TraceOp::Maintain
            | TraceOp::Crash
            | TraceOp::Recover
    )
}

/// The ranged-read byte bound compares per-op reports that read shared
/// device counters, so it is only valid when a store's retrievals are
/// serialized — which is what a one-worker pool guarantees.
fn reads_are_serialized() -> bool {
    rayon::current_num_threads() == 1
}

/// Replay `cfg` on a pool of `cfg.threads` workers and return the
/// oracle's report: store replicas advance in parallel, and within
/// retrieval runs, per-image conflict groups fan out across the pool.
/// The report is byte-identical for every `threads` value (see the
/// module docs for why).
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    rayon::with_num_threads(cfg.threads.max(1), || {
        let (world, trace) = churn_trace(cfg);
        let mut replicas = fresh_replicas(cfg.durable.is_some(), cfg.tier);
        if let Some(reg) = &cfg.registry {
            for r in &replicas {
                r.store.attach_obs(reg);
            }
        }
        let strict_bytes = reads_are_serialized();
        // Every image the trace builds, with what the oracle expects to
        // read back; `live` maps a name to its latest publish.
        let mut published: Vec<(xpl_guestfs::Vmi, LiveImage)> = Vec::new();
        let mut live: FxHashMap<&str, usize> = FxHashMap::default();
        let mut violations: Vec<String> = Vec::new();
        let mut checks = 0u64;
        let (mut publishes, mut retrieves, mut upgrades, mut deletes, mut bursts) = (0, 0, 0, 0, 0);
        let mut burst_retrieves = 0usize;
        let mut range_retrieves = 0usize;
        let mut maintains = 0usize;

        // ---- Partition the trace into write/read runs, precomputing
        // the deterministic payloads (built images, live-image
        // fingerprints, what each read expects) in trace order on the
        // coordinator. ------------------------------------------------
        let mut runs: Vec<Run> = Vec::new();
        for (step, op) in trace.ops.iter().enumerate() {
            let want_write = is_write(op);
            let start_new = match runs.last() {
                Some(Run::Writes(_)) => !want_write,
                Some(Run::Reads(_)) => want_write,
                None => true,
            };
            if start_new {
                runs.push(if want_write {
                    Run::Writes(Vec::new())
                } else {
                    Run::Reads(Vec::new())
                });
            }
            match (runs.last_mut().unwrap(), op) {
                (Run::Writes(steps), TraceOp::Publish { image, generation })
                | (Run::Writes(steps), TraceOp::Upgrade { image, generation }) => {
                    if matches!(op, TraceOp::Publish { .. }) {
                        publishes += 1;
                    } else {
                        upgrades += 1;
                    }
                    let vmi = world.build(image, *generation);
                    let expect = LiveImage {
                        request: RetrieveRequest::for_image(&vmi, &world.catalog),
                        semantic_fp: oracle::semantic_fingerprint(&world.catalog, &vmi),
                        full_fp: oracle::full_fingerprint(&world.catalog, &vmi),
                    };
                    live.insert(image, published.len());
                    steps.push(WriteStep::Publish {
                        step,
                        image: image.clone(),
                        published: published.len(),
                    });
                    published.push((vmi, expect));
                }
                (Run::Writes(steps), TraceOp::Delete { image }) => {
                    deletes += 1;
                    steps.push(WriteStep::Delete {
                        step,
                        image: image.clone(),
                        published: live
                            .remove(image.as_str())
                            .expect("trace only deletes live"),
                    });
                }
                (Run::Reads(steps), TraceOp::Retrieve { image }) => {
                    retrieves += 1;
                    steps.push(ReadStep {
                        step,
                        image: image.clone(),
                        published: live.get(image.as_str()).copied(),
                        range: None,
                    });
                }
                (
                    Run::Reads(steps),
                    TraceOp::RetrieveRange {
                        image,
                        start_frac,
                        len,
                    },
                ) => {
                    range_retrieves += 1;
                    steps.push(ReadStep {
                        step,
                        image: image.clone(),
                        published: live.get(image.as_str()).copied(),
                        range: Some((*start_frac, *len)),
                    });
                }
                (Run::Reads(steps), TraceOp::Burst { image, count }) => {
                    bursts += 1;
                    for _ in 0..*count {
                        burst_retrieves += 1;
                        steps.push(ReadStep {
                            step,
                            image: image.clone(),
                            published: live.get(image.as_str()).copied(),
                            range: None,
                        });
                    }
                }
                (Run::Writes(steps), TraceOp::Maintain) => {
                    maintains += 1;
                    steps.push(WriteStep::Maintain { step });
                }
                (Run::Writes(steps), TraceOp::Crash) => steps.push(WriteStep::Crash),
                (Run::Writes(steps), TraceOp::Recover) => steps.push(WriteStep::Recover { step }),
                _ => unreachable!("run kind matches op kind by construction"),
            }
        }

        for run in &runs {
            match run {
                Run::Writes(steps) => {
                    // Each replica applies the whole run in trace order;
                    // the five replicas advance in parallel. Every
                    // mutation is followed by a refcount / bookkeeping
                    // audit of the store it touched.
                    let results: Vec<(Vec<String>, u64)> = replicas
                        .iter_mut()
                        .collect::<Vec<&mut Replica>>()
                        .into_par_iter()
                        .map(|r| {
                            let mut v = Vec::new();
                            let mut c = 0u64;
                            for ws in steps {
                                match ws {
                                    WriteStep::Publish {
                                        step,
                                        image,
                                        published: idx,
                                    } => {
                                        apply_publish(
                                            r,
                                            &world,
                                            &published[*idx].0,
                                            image,
                                            *step,
                                            &mut v,
                                            &mut c,
                                        );
                                    }
                                    WriteStep::Delete {
                                        step,
                                        image,
                                        published: idx,
                                    } => {
                                        let probe = &published[*idx].1.request;
                                        apply_delete(
                                            r, &world, image, probe, *step, &mut v, &mut c,
                                        );
                                    }
                                    WriteStep::Maintain { step } => {
                                        apply_maintain(r, *step, &mut v, &mut c);
                                    }
                                    WriteStep::Crash => apply_crash(r),
                                    WriteStep::Recover { step } => {
                                        apply_recover(r, &format!("step {step}"), &mut v, &mut c);
                                    }
                                }
                                c += 1;
                                if let Err(e) = r.store.check_integrity() {
                                    v.push(format!(
                                        "{}: integrity after mutation: {e}",
                                        r.store.name()
                                    ));
                                }
                            }
                            (v, c)
                        })
                        .collect();
                    for (v, c) in results {
                        violations.extend(v);
                        checks += c;
                    }
                }
                Run::Reads(steps) => {
                    // Conflict groups: one per image name, retrievals in
                    // trace order within a group, groups × replicas on
                    // the pool.
                    let mut group_order: Vec<&str> = Vec::new();
                    let mut groups: FxHashMap<&str, Vec<&ReadStep>> = FxHashMap::default();
                    for rs in steps {
                        groups
                            .entry(rs.image.as_str())
                            .or_insert_with(|| {
                                group_order.push(rs.image.as_str());
                                Vec::new()
                            })
                            .push(rs);
                    }
                    let mut tasks: Vec<(&Replica, &[&ReadStep])> = Vec::new();
                    for r in replicas.iter() {
                        for image in &group_order {
                            tasks.push((r, &groups[image]));
                        }
                    }
                    let results: Vec<(Vec<String>, u64)> = tasks
                        .into_par_iter()
                        .map(|(r, group)| {
                            let mut v = Vec::new();
                            let mut c = 0u64;
                            for rs in group {
                                let expect = rs.published.map(|idx| &published[idx].1);
                                match (expect, rs.range) {
                                    (Some(expect), None) => {
                                        check_retrieve(
                                            r, &world, expect, &rs.image, rs.step, &mut v, &mut c,
                                        );
                                    }
                                    (Some(expect), Some((start_frac, len))) => {
                                        check_retrieve_range(
                                            r,
                                            &world,
                                            expect,
                                            &rs.image,
                                            start_frac,
                                            len,
                                            rs.step,
                                            strict_bytes,
                                            &mut v,
                                            &mut c,
                                        );
                                    }
                                    (None, _) => v.push(format!(
                                        "step {}: trace retrieved dead image {}",
                                        rs.step, rs.image
                                    )),
                                }
                            }
                            (v, c)
                        })
                        .collect();
                    for (v, c) in results {
                        violations.extend(v);
                        checks += c;
                    }
                    // Quiesce audit: one integrity check per store.
                    for r in &replicas {
                        checks += 1;
                        if let Err(v) = r.store.check_integrity() {
                            violations.push(format!(
                                "{}: integrity at retrieval-run quiesce: {v}",
                                r.store.name()
                            ));
                        }
                    }
                }
            }
        }

        // Closing durability check: one last power-cut + recovery must
        // converge to the final in-memory state.
        final_recover_all(&mut replicas, &mut violations, &mut checks);

        // Closing deep audit: every CAS blob re-hashed, once per store.
        for r in &replicas {
            checks += 1;
            if let Err(v) = r.store.check_integrity_deep() {
                violations.push(format!("final {}: deep integrity: {v}", r.store.name()));
            }
        }

        ChurnReport {
            seed: cfg.seed,
            ops: trace.ops.len(),
            publishes,
            retrieves,
            range_retrieves,
            upgrades,
            deletes,
            bursts,
            burst_retrieves,
            maintains,
            crashes: trace.crashes(),
            oracle_checks: checks,
            tier: cfg.tier.describe().to_string(),
            trace_sha256: trace.digest_hex(),
            stores: replicas
                .iter()
                .map(|r| StoreSummary {
                    store: r.store.name().to_string(),
                    final_repo_bytes: r.store.repo_bytes(),
                    final_images: live.len(),
                    bytes_added_total: r.added_total,
                    bytes_freed_total: r.freed_total,
                    sim_seconds: r.sim_seconds,
                })
                .collect(),
            cas_fingerprints: collect_fingerprints(&replicas),
            durable: collect_durable_summaries(&replicas),
            violations,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Short smoke at unit level; the ≥500-op acceptance run lives in the
    // facade's integration suite (tests/churn_oracle.rs).
    #[test]
    fn short_churn_is_clean() {
        let report = run_churn(&ChurnConfig::small(0xBEEF, 60));
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.ops, 60);
        assert!(report.publishes > 0 && report.retrieves > 0);
        assert_eq!(report.stores.len(), 5);
    }

    #[test]
    fn tier_policies_replay_to_identical_cas_fingerprints() {
        // The repository-level digest-preservation proof: a mixed-tier
        // replay (DEFLATE base, LZ4 promotions, live recompression at
        // every Maintain op) must end on exactly the CAS fingerprints
        // of the all-DEFLATE and all-LZ4 replays of the same trace.
        let base = ChurnConfig::small(0xC0DEC, 80);
        let mixed = run_churn(&base);
        assert_eq!(mixed.tier, "mixed");
        assert!(mixed.maintains > 0, "trace never swept the tiers");
        assert!(mixed.violations.is_empty(), "{:#?}", mixed.violations);
        for tier in [TierPolicy::dense(), TierPolicy::fast(), TierPolicy::raw()] {
            let other = run_churn(&base.clone().with_tier(tier));
            assert!(other.violations.is_empty(), "{:#?}", other.violations);
            assert_eq!(mixed.cas_fingerprints.len(), other.cas_fingerprints.len());
            for (a, b) in mixed.cas_fingerprints.iter().zip(&other.cas_fingerprints) {
                assert_eq!(a.store, b.store);
                assert_eq!(a.section, b.section);
                assert_eq!(
                    a.fingerprint,
                    b.fingerprint,
                    "{}/{} diverged between mixed and {}",
                    a.store,
                    a.section,
                    tier.describe()
                );
            }
        }
    }

    #[test]
    fn trace_generation_is_reproducible() {
        let cfg = ChurnConfig::small(42, 120);
        let (_, a) = churn_trace(&cfg);
        let (_, b) = churn_trace(&cfg);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn concurrent_short_churn_is_clean() {
        let report = run_churn(&ChurnConfig::small(0xBEEF, 60).with_threads(4));
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.ops, 60);
        assert_eq!(report.stores.len(), 5);
    }

    #[test]
    fn durable_short_churn_recovers_cleanly() {
        let cfg = ChurnConfig::small(0xBEEF, 60).with_durable(DurableCfg {
            crashes: 2,
            crash_seed: 7,
        });
        let report = run_churn(&cfg);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.crashes, 2);
        let durable = report.durable.as_ref().expect("durable summaries");
        assert_eq!(durable.len(), 2, "Mirage + Expelliarmus");
        for d in durable {
            assert_eq!(d.recoveries, 3, "{}: 2 injected + 1 final", d.store);
            assert!(d.torn_tails >= 3, "{}: every crash tears WALs", d.store);
            assert!(d.wal_appends > 0, "{}: write-through logged ops", d.store);
        }
        // Durable replay converges to the same end-state fingerprints
        // as the purely in-memory replay of the same base trace.
        let mem = run_churn(&ChurnConfig::small(0xBEEF, 60));
        assert!(mem.durable.is_none());
        assert_eq!(mem.cas_fingerprints.len(), report.cas_fingerprints.len());
        for (a, b) in mem.cas_fingerprints.iter().zip(&report.cas_fingerprints) {
            assert_eq!(a.store, b.store);
            assert_eq!(a.section, b.section);
            assert_eq!(a.fingerprint, b.fingerprint, "{}/{}", a.store, a.section);
        }
    }

    #[test]
    fn det_metrics_are_thread_count_invariant() {
        // The tentpole pin: the registry's deterministic section is a
        // pure function of the executed op multiset, so its fingerprint
        // must be byte-identical at 1, 2, and 8 pool threads.
        let cfg = ChurnConfig::small(0x0B5EED, 60);
        let fp_at = |threads: usize| {
            let registry = xpl_obs::Registry::new();
            let mut cfg = cfg.clone().with_threads(threads);
            cfg.registry = Some(Arc::clone(&registry));
            let r = run_churn(&cfg);
            assert!(r.violations.is_empty(), "{:#?}", r.violations);
            let snap = registry.snapshot();
            (
                snap.det_fingerprint(),
                snap.render_section_json(xpl_obs::Section::Det),
            )
        };
        let (fp1, det1) = fp_at(1);
        let (fp2, det2) = fp_at(2);
        let (fp8, det8) = fp_at(8);
        assert_eq!(det1, det2, "det section diverged between 1 and 2 threads");
        assert_eq!(det1, det8, "det section diverged between 1 and 8 threads");
        assert_eq!(fp1, fp2);
        assert_eq!(fp1, fp8);
    }

    #[test]
    fn attaching_metrics_never_changes_the_report() {
        // The zero-interference pin: the churn report (fingerprints,
        // ledgers, violations — everything) is byte-identical whether
        // or not a registry was attached, on one worker and on four.
        let render = |r: &ChurnReport| serde_json::to_string_pretty(r).unwrap();
        for threads in [1, 4] {
            let mut cfg = ChurnConfig::small(0xFACADE, 60).with_threads(threads);
            let plain = run_churn(&cfg);
            let registry = xpl_obs::Registry::new();
            cfg.registry = Some(Arc::clone(&registry));
            let with = run_churn(&cfg);
            assert_eq!(render(&plain), render(&with), "{threads} threads");
            assert!(
                registry.snapshot().det_fingerprint()
                    != xpl_obs::Registry::new().snapshot().det_fingerprint(),
                "the attached registry must actually have counted something"
            );
        }
    }

    #[test]
    fn ranged_read_byte_bound_is_armed_exactly_when_reads_are_serialized() {
        assert!(rayon::with_num_threads(1, reads_are_serialized));
        assert!(!rayon::with_num_threads(2, reads_are_serialized));
        assert!(!rayon::with_num_threads(8, reads_are_serialized));
    }
}
