//! The registry serving benchmark — `repro serve`.
//!
//! Drives a real store through the `xpl-registry` front end under a
//! deterministic multi-tenant load ([`xpl_workloads::ServeSchedule`]):
//! Zipf-skewed retrieve-heavy traffic from thousands of simulated
//! clients, with admission control, coalescing, and deficit-round-robin
//! fairness. Three phases, chosen so every latency number is exact and
//! reproducible while throughput is still measured against the real
//! store:
//!
//! 1. **Cost memoization (sequential).** Publish the scaled world into
//!    the chosen store, then execute each *distinct* request key once,
//!    in first-appearance order, recording its simulated service time
//!    (the cost-ledger duration is exact only when retrievals are
//!    serialized — see `xpl-core`'s retrieve notes) and a payload
//!    digest (the differential oracle's fingerprint).
//! 2. **Virtual-time simulation.** Feed the schedule and the memoized
//!    costs to [`xpl_registry::run_registry`]. Arrival gaps are scaled
//!    to ~4/3 of the servers' aggregate service rate, so the registry
//!    runs saturated: queues form, coalescing triggers, fairness and
//!    admission control actually matter. p50/p99, the coalescing rate,
//!    fairness, and the request-log fingerprint all come from this
//!    phase — byte-identical at any thread count.
//! 3. **Wall-clock replay (parallel).** Execute the engine's store-hit
//!    schedule against the store on the worker pool, diffing every
//!    payload digest against phase 1 (any divergence is a violation).
//!    This yields the honest sustained-ops/s figure — and proves the
//!    coalesced schedule serves byte-identical payloads.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xpl_baselines::{GzipStore, HemeraStore, MirageStore, QcowStore};
use xpl_core::ExpelliarmusRepo;
use xpl_registry::{
    run_registry_obs, RegObs, RegistryConfig, RegistryOutcome, RequestKey, ServeRequest,
    ServiceModel,
};
use xpl_simio::SimEnv;
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest, StoreError, TierPolicy};
use xpl_util::Sha256;
use xpl_workloads::{ScaleConfig, ScaledWorld, ServeConfig, ServeSchedule};

/// Which of the five stores sits behind the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    Qcow2,
    Gzip,
    Mirage,
    Hemera,
    Expelliarmus,
}

impl StoreKind {
    /// Parse a CLI name. Accepts the churn-report display names too.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s.to_ascii_lowercase().as_str() {
            "qcow2" => Some(StoreKind::Qcow2),
            "gzip" | "qcow2+gzip" => Some(StoreKind::Gzip),
            "mirage" => Some(StoreKind::Mirage),
            "hemera" => Some(StoreKind::Hemera),
            "expelliarmus" => Some(StoreKind::Expelliarmus),
            _ => None,
        }
    }

    /// The store over a fresh testbed, with the codec tier policy
    /// applied to every store that keeps compressed payloads (raw qcow2
    /// has nothing to recompress).
    pub fn make_tiered(self, tier: TierPolicy) -> Box<dyn ImageStore> {
        match self {
            StoreKind::Qcow2 => Box::new(QcowStore::new(SimEnv::testbed())),
            StoreKind::Gzip => Box::new(GzipStore::new(SimEnv::testbed()).with_tier(tier)),
            StoreKind::Mirage => Box::new(MirageStore::new(SimEnv::testbed()).with_tier(tier)),
            StoreKind::Hemera => Box::new(HemeraStore::new(SimEnv::testbed()).with_tier(tier)),
            StoreKind::Expelliarmus => {
                Box::new(ExpelliarmusRepo::new(SimEnv::testbed()).with_tier(tier))
            }
        }
    }
}

/// One `repro serve` run's parameters.
#[derive(Clone)]
pub struct ServeRunConfig {
    pub seed: u64,
    pub scale: ScaleConfig,
    pub scale_name: String,
    pub tenants: u32,
    pub requests: usize,
    pub servers: usize,
    pub queue_depth: usize,
    pub coalesce: bool,
    pub store: StoreKind,
    /// Codec tier policy the backing store runs under (`--codec`).
    pub tier: TierPolicy,
    /// Metrics registry (`--metrics`): the store mirrors its CAS
    /// accounting into `cas.*`, the registry simulation folds its
    /// outcome into `registry.*`, and the wire server mirrors its
    /// connection accounting into `net.*`. Reports are byte-identical
    /// with or without it.
    pub registry: Option<Arc<xpl_obs::Registry>>,
}

impl ServeRunConfig {
    /// Small scale (32 images): the smoke/test shape.
    pub fn small(seed: u64) -> ServeRunConfig {
        ServeRunConfig {
            seed,
            scale: ScaleConfig::small(seed),
            scale_name: "small".into(),
            tenants: 4,
            requests: 400,
            servers: 4,
            queue_depth: 64,
            coalesce: true,
            store: StoreKind::Expelliarmus,
            tier: TierPolicy::mixed(),
            registry: None,
        }
    }

    /// Standard scale (120 images): the CI/benchmark shape.
    pub fn standard(seed: u64) -> ServeRunConfig {
        ServeRunConfig {
            seed,
            scale: ScaleConfig::standard(seed),
            scale_name: "standard".into(),
            tenants: 8,
            requests: 2000,
            servers: 8,
            queue_depth: 128,
            coalesce: true,
            store: StoreKind::Expelliarmus,
            tier: TierPolicy::mixed(),
            registry: None,
        }
    }
}

/// Per-tenant row of the serve report.
#[derive(Clone, Debug, Serialize)]
pub struct TenantRow {
    pub tenant: u32,
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub served: u64,
    pub coalesced: u64,
    pub mean_sojourn_ms: f64,
}

/// The machine-readable `repro serve` report (BENCH schema v5's
/// serving metrics plus the determinism fingerprints).
///
/// Every field except `replay_wall_s` / `sustained_ops_per_s` (real
/// wall clock) is byte-identical across runs and thread counts.
#[derive(Clone, Debug, Serialize)]
pub struct ServeReport {
    pub schema_version: u32,
    pub seed: u64,
    pub scale: String,
    pub store: String,
    /// Codec tier policy the store ran under (`TierPolicy::describe`).
    pub tier: String,
    /// Blobs the post-memoization maintenance sweep re-encoded onto the
    /// hot codec (zero for raw stores or an all-cold policy).
    pub maintain_promoted: usize,
    pub tenants: u32,
    pub requests: usize,
    pub servers: usize,
    pub queue_depth: usize,
    pub coalesce: bool,
    pub threads: usize,
    pub images_published: usize,
    /// Fingerprint of the generated schedule (arrivals + keys).
    pub schedule_sha256: String,
    /// Fingerprint of the registry's request log (the determinism
    /// witness CI diffs across thread counts).
    pub request_log_sha256: String,
    /// Fingerprint over the sorted `key -> payload digest` table — the
    /// differential oracle's identity; equal between coalesced and
    /// uncoalesced runs, or coalescing changed payload bytes.
    pub key_digests_sha256: String,
    pub distinct_keys: usize,
    pub range_requests: usize,
    pub mean_service_ns: u64,
    pub mean_interarrival_ns: u64,
    pub served: u64,
    pub rejected: u64,
    pub store_hits: u64,
    pub coalesced_hits: u64,
    pub coalescing_hit_rate: f64,
    pub fairness_max_min_served: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub makespan_virtual_s: f64,
    /// Served requests per *virtual* second (deterministic).
    pub served_ops_per_virtual_s: f64,
    /// Wall seconds the parallel store-hit replay took (this host).
    pub replay_wall_s: f64,
    /// Store hits per *wall* second through the worker pool (this
    /// host) — the honest backend throughput figure.
    pub sustained_ops_per_s: f64,
    pub per_tenant: Vec<TenantRow>,
    /// Differential-oracle violations from the replay (must be empty).
    pub violations: Vec<String>,
}

/// Memoized cost + identity of one distinct request key.
struct KeyCost {
    service_ns: u64,
    bytes: u64,
    digest: String,
}

struct MeasuredModel<'a> {
    costs: &'a HashMap<RequestKey, KeyCost>,
}

impl ServiceModel for MeasuredModel<'_> {
    fn service_ns(&self, key: &RequestKey) -> u64 {
        self.costs[key].service_ns
    }
    /// Fanning a ready payload out to a coalesced waiter is a memory
    /// copy: model ~4 GiB/s plus a fixed 100 µs handoff.
    fn fanout_ns(&self, key: &RequestKey) -> u64 {
        100_000 + self.costs[key].bytes / 4
    }
}

pub(crate) fn spec_key(spec: &xpl_workloads::ServeRequestSpec) -> RequestKey {
    match spec.range {
        None => RequestKey::Image {
            image: spec.image.clone(),
        },
        Some((frac, len)) => RequestKey::Range {
            image: spec.image.clone(),
            start_frac: frac,
            len_bytes: len,
        },
    }
}

/// Execute one key against the store, returning (simulated ns, bytes
/// moved, payload digest). Full retrievals fingerprint the effective
/// guest state (the churn oracle's identity — Expelliarmus reproduces
/// semantics, not snapshot bytes); range reads fingerprint the exact
/// bytes.
pub(crate) fn execute_key(
    store: &dyn ImageStore,
    world: &ScaledWorld,
    requests: &HashMap<String, (RetrieveRequest, u64)>,
    key: &RequestKey,
) -> Result<(u64, u64, String), StoreError> {
    match key {
        RequestKey::Image { image } => {
            let (req, _) = &requests[image];
            let (vmi, report) = store.retrieve(&world.catalog, req)?;
            Ok((
                report.duration.as_nanos(),
                report.bytes_read,
                semantic_fingerprint(&world.catalog, &vmi).to_hex(),
            ))
        }
        RequestKey::Range {
            image,
            start_frac,
            len_bytes,
        } => {
            let (req, disk_size) = &requests[image];
            let start = disk_size * (*start_frac as u64) / 256;
            let (bytes, report) =
                store.retrieve_range(&world.catalog, req, start, *len_bytes as u64)?;
            Ok((
                report.duration.as_nanos(),
                report.bytes_read,
                Sha256::digest(&bytes).to_hex(),
            ))
        }
    }
}

/// The shared phase-0 setup: scaled world, published store, and the
/// per-image retrieve requests. Both the in-process pipeline
/// ([`run_serve`]) and the wire pipeline (`run_serve_net`) start here,
/// so their differential oracles execute against identical state.
pub(crate) struct PreparedServe {
    pub(crate) world: ScaledWorld,
    pub(crate) names: Vec<String>,
    pub(crate) store: Arc<dyn ImageStore>,
    pub(crate) requests: HashMap<String, (RetrieveRequest, u64)>,
}

/// Generate the scaled world, publish generation 0 of the whole
/// catalog into the chosen store, then attach the run's registry (so
/// the snapshot counts the served load, not the setup).
pub(crate) fn prepare(cfg: &ServeRunConfig) -> PreparedServe {
    let world = ScaledWorld::generate(&cfg.scale);
    let names = world.image_names();
    let store: Arc<dyn ImageStore> = Arc::from(cfg.store.make_tiered(cfg.tier));
    let mut requests: HashMap<String, (RetrieveRequest, u64)> = HashMap::new();
    for name in &names {
        let vmi = world.build(name, 0);
        store
            .publish(&world.catalog, &vmi)
            .unwrap_or_else(|e| panic!("serve setup: publish {name}: {e}"));
        let size = vmi.disk.virtual_size();
        requests.insert(
            name.clone(),
            (RetrieveRequest::for_image(&vmi, &world.catalog), size),
        );
    }
    if let Some(reg) = &cfg.registry {
        store.attach_obs(reg);
    }
    PreparedServe {
        world,
        names,
        store,
        requests,
    }
}

/// Run the full serve pipeline. See the module docs for the phases.
pub fn run_serve(cfg: &ServeRunConfig) -> ServeReport {
    let PreparedServe {
        world,
        names,
        store,
        requests,
    } = prepare(cfg);

    // Phase 1 — generate the key stream and memoize costs. The
    // placeholder-gap schedule draws the same RNG stream as the final
    // one (each request consumes a fixed number of draws), so the keys
    // are identical; only arrival values change on regeneration.
    let mut serve_cfg = ServeConfig::new(cfg.seed);
    serve_cfg.tenants = cfg.tenants;
    serve_cfg.requests = cfg.requests;
    let schedule = ServeSchedule::generate(&names, &serve_cfg);
    let mut costs: HashMap<RequestKey, KeyCost> = HashMap::new();
    let mut key_order: Vec<RequestKey> = Vec::new();
    let mut total_service: u128 = 0;
    for spec in &schedule.requests {
        let key = spec_key(spec);
        if !costs.contains_key(&key) {
            let (service_ns, bytes, digest) = execute_key(&*store, &world, &requests, &key)
                .unwrap_or_else(|e| panic!("serve memo: {}: {e}", key.render()));
            key_order.push(key.clone());
            costs.insert(
                key.clone(),
                KeyCost {
                    service_ns,
                    bytes,
                    digest,
                },
            );
        }
        total_service += costs[&key].service_ns as u128;
    }
    // The memoization pass warmed the temperature counters (every
    // distinct key was read at least once, Zipf-popular images many
    // times). One maintenance sweep re-encodes the hot set onto the
    // fast codec, so phases 2–3 run against the mixed-codec state the
    // policy would converge to in production; phase 3's digest diff
    // then doubles as the digest-preservation proof on the serving
    // path. Simulated time only — memoized costs stay valid.
    let maintain = store.maintain();
    let mean_service_ns = (total_service / cfg.requests.max(1) as u128) as u64;
    // Saturating arrivals: offered load ≈ 4/3 of service capacity.
    let mean_interarrival_ns = (mean_service_ns * 3 / (cfg.servers as u64 * 4)).max(1);
    serve_cfg.mean_interarrival_ns = mean_interarrival_ns;
    let schedule = ServeSchedule::generate(&names, &serve_cfg);

    // Phase 2 — the virtual-time registry simulation.
    let reg_requests: Vec<ServeRequest> = schedule
        .requests
        .iter()
        .map(|spec| ServeRequest {
            tenant: spec.tenant,
            arrival_ns: spec.arrival_ns,
            key: spec_key(spec),
        })
        .collect();
    let reg_cfg = RegistryConfig {
        servers: cfg.servers,
        queue_depth: cfg.queue_depth,
        quantum_ns: mean_service_ns.max(1),
        coalesce: cfg.coalesce,
    };
    let model = MeasuredModel { costs: &costs };
    let reg_obs = cfg.registry.as_deref().map(RegObs::new);
    let outcome: RegistryOutcome =
        run_registry_obs(&reg_requests, &model, &reg_cfg, reg_obs.as_ref());

    // Phase 3 — wall-clock replay of the store-hit schedule on the
    // worker pool, with the differential digest check.
    use rayon::prelude::*;
    let hit_keys: Vec<RequestKey> = outcome
        .store_hit_indices
        .iter()
        .map(|&i| reg_requests[i].key.clone())
        .collect();
    let t0 = Instant::now();
    let replay: Vec<Option<String>> = hit_keys
        .into_par_iter()
        .map(|key| match execute_key(&*store, &world, &requests, &key) {
            Ok((_, _, digest)) => {
                if digest == costs[&key].digest {
                    None
                } else {
                    Some(format!(
                        "{}: replay payload digest {} != memoized {}",
                        key.render(),
                        digest,
                        costs[&key].digest
                    ))
                }
            }
            Err(e) => Some(format!("{}: replay failed: {e}", key.render())),
        })
        .collect();
    let replay_wall_s = t0.elapsed().as_secs_f64();
    let violations: Vec<String> = replay.into_iter().flatten().collect();

    // Fingerprint of the key -> payload-digest table (sorted).
    let mut digest_lines: Vec<String> = costs
        .iter()
        .map(|(k, c)| format!("{} {}", k.render(), c.digest))
        .collect();
    digest_lines.sort_unstable();
    let key_digests_sha256 = Sha256::digest(digest_lines.join("\n").as_bytes()).to_hex();

    let per_tenant: Vec<TenantRow> = outcome
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantRow {
            tenant: i as u32,
            submitted: t.submitted,
            admitted: t.admitted,
            rejected: t.rejected,
            served: t.served,
            coalesced: t.coalesced,
            mean_sojourn_ms: if t.served == 0 {
                0.0
            } else {
                t.sojourn_ns as f64 / t.served as f64 / 1e6
            },
        })
        .collect();
    let makespan_virtual_s = outcome.makespan_ns as f64 / 1e9;
    ServeReport {
        schema_version: 5,
        seed: cfg.seed,
        scale: cfg.scale_name.clone(),
        store: store.name().to_string(),
        tier: cfg.tier.describe().to_string(),
        maintain_promoted: maintain.promoted,
        tenants: cfg.tenants,
        requests: cfg.requests,
        servers: cfg.servers,
        queue_depth: cfg.queue_depth,
        coalesce: cfg.coalesce,
        threads: rayon::current_num_threads(),
        images_published: names.len(),
        schedule_sha256: schedule.digest_hex(),
        request_log_sha256: outcome.log_digest_hex(),
        key_digests_sha256,
        distinct_keys: key_order.len(),
        range_requests: schedule.range_reads(),
        mean_service_ns,
        mean_interarrival_ns,
        served: outcome.served,
        rejected: outcome.rejected,
        store_hits: outcome.store_hits,
        coalesced_hits: outcome.coalesced_hits,
        coalescing_hit_rate: outcome.coalescing_hit_rate(),
        fairness_max_min_served: outcome.fairness_max_min_served(),
        p50_latency_ms: outcome.latency_percentile_ns(50) as f64 / 1e6,
        p99_latency_ms: outcome.latency_percentile_ns(99) as f64 / 1e6,
        makespan_virtual_s,
        served_ops_per_virtual_s: if makespan_virtual_s > 0.0 {
            outcome.served as f64 / makespan_virtual_s
        } else {
            0.0
        },
        replay_wall_s,
        sustained_ops_per_s: if replay_wall_s > 0.0 {
            outcome.store_hits as f64 / replay_wall_s
        } else {
            0.0
        },
        per_tenant,
        violations,
    }
}

/// Console rendering of a serve report.
pub fn render(r: &ServeReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "SERVE: {} requests from {} tenants against {} ({} scale, seed {:#x})",
        r.requests, r.tenants, r.store, r.scale, r.seed
    );
    let _ = writeln!(
        s,
        "  registry: {} servers, queue depth {}, coalescing {}, codec tier {} \
         ({} blobs promoted)",
        r.servers,
        r.queue_depth,
        if r.coalesce { "on" } else { "off" },
        r.tier,
        r.maintain_promoted
    );
    let _ = writeln!(
        s,
        "  served {} / rejected {} ({} store hits, {} coalesced, hit-rate {:.3})",
        r.served, r.rejected, r.store_hits, r.coalesced_hits, r.coalescing_hit_rate
    );
    let _ = writeln!(
        s,
        "  latency p50 {:.3} ms, p99 {:.3} ms (virtual); fairness max/min {:.2}",
        r.p50_latency_ms, r.p99_latency_ms, r.fairness_max_min_served
    );
    let _ = writeln!(
        s,
        "  throughput: {:.0} ops/virtual-s; replay {:.0} store-hits/s wall \
         ({} threads, {:.3}s)",
        r.served_ops_per_virtual_s, r.sustained_ops_per_s, r.threads, r.replay_wall_s
    );
    let _ = writeln!(s, "  schedule sha256:    {}", r.schedule_sha256);
    let _ = writeln!(s, "  request-log sha256: {}", r.request_log_sha256);
    let _ = writeln!(s, "  key-digests sha256: {}", r.key_digests_sha256);
    let _ = writeln!(
        s,
        "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "tenant", "submitted", "admitted", "rejected", "served", "coalesced", "mean-sojourn"
    );
    for t in &r.per_tenant {
        let _ = writeln!(
            s,
            "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12.3}ms",
            t.tenant, t.submitted, t.admitted, t.rejected, t.served, t.coalesced, t.mean_sojourn_ms
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_serve_is_deterministic_and_oracle_clean() {
        let mut cfg = ServeRunConfig::small(0x5E21);
        cfg.requests = 120;
        cfg.tenants = 3;
        let a = run_serve(&cfg);
        let b = run_serve(&cfg);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.request_log_sha256, b.request_log_sha256);
        assert_eq!(a.schedule_sha256, b.schedule_sha256);
        assert_eq!(a.key_digests_sha256, b.key_digests_sha256);
        assert_eq!(a.served + a.rejected, 120);
        assert!(a.p99_latency_ms >= a.p50_latency_ms);
        assert!(a.p50_latency_ms > 0.0);
        assert!(a.coalesced_hits + a.store_hits == a.served);
        assert!(a.fairness_max_min_served >= 1.0);
        assert!(a.sustained_ops_per_s > 0.0);
        assert!(a.range_requests > 0, "schedule must exercise range reads");
        let text = render(&a);
        assert!(text.contains("request-log sha256"));
    }

    #[test]
    fn coalescing_reduces_store_hits_but_not_payloads() {
        let mut cfg = ServeRunConfig::small(0xC0A1);
        cfg.requests = 150;
        cfg.tenants = 3;
        let on = run_serve(&cfg);
        cfg.coalesce = false;
        let off = run_serve(&cfg);
        assert!(on.coalesced_hits > 0, "saturated Zipf load must coalesce");
        assert!(on.store_hits < off.store_hits);
        assert_eq!(off.coalesced_hits, 0);
        // The differential oracle: both replays byte-clean, and the
        // payload identity table is identical — coalescing changed who
        // pays for a hit, never what bytes a tenant received.
        assert!(on.violations.is_empty(), "{:?}", on.violations);
        assert!(off.violations.is_empty(), "{:?}", off.violations);
        assert_eq!(on.key_digests_sha256, off.key_digests_sha256);
    }

    #[test]
    fn codec_tiers_serve_identical_payloads() {
        // The serving-path digest-preservation pin: one schedule, one
        // seed, two tier policies. The raw store never recompresses;
        // the mixed store promotes its Zipf-hot blobs onto LZ4 after
        // memoization. Payload identity and the registry's virtual-time
        // behaviour must not notice the difference.
        let mut cfg = ServeRunConfig::small(0x71E6);
        cfg.requests = 120;
        cfg.tenants = 3;
        cfg.tier = TierPolicy::raw();
        let raw = run_serve(&cfg);
        cfg.tier = TierPolicy::mixed();
        let mixed = run_serve(&cfg);
        assert!(raw.violations.is_empty(), "{:?}", raw.violations);
        assert!(mixed.violations.is_empty(), "{:?}", mixed.violations);
        assert_eq!(raw.key_digests_sha256, mixed.key_digests_sha256);
        assert_eq!(raw.request_log_sha256, mixed.request_log_sha256);
        assert_eq!(raw.schedule_sha256, mixed.schedule_sha256);
        assert_eq!(mixed.tier, "mixed");
        assert_eq!(raw.tier, "raw");
        assert!(mixed.maintain_promoted > 0, "Zipf-hot blobs must promote");
        assert_eq!(raw.maintain_promoted, 0, "raw tier has nothing to promote");
    }

    #[test]
    fn store_kind_parses_all_five() {
        for (name, kind) in [
            ("qcow2", StoreKind::Qcow2),
            ("Qcow2+Gzip", StoreKind::Gzip),
            ("mirage", StoreKind::Mirage),
            ("HEMERA", StoreKind::Hemera),
            ("expelliarmus", StoreKind::Expelliarmus),
        ] {
            assert_eq!(StoreKind::parse(name), Some(kind));
        }
        assert_eq!(StoreKind::parse("zfs"), None);
    }
}
