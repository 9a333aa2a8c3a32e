//! The wire serving benchmark — `repro serve --net`.
//!
//! Drives the same seeded multi-tenant schedule as `repro serve`, but
//! over the `xpl-net` wire layer: a threaded server fronts the real
//! store behind the frame codec and per-tenant admission gate, and a
//! pool of retrying clients (one [`xpl_net::NetClient`] per tenant
//! connection) pushes every scheduled request through it. Three legs:
//!
//! 1. **In-process memoization.** Execute each distinct request key
//!    once against the store, exactly as `run_serve` phase 1 does, and
//!    fingerprint the sorted `key -> payload digest` table.
//! 2. **The wire run.** Serve the whole schedule through the chosen
//!    transport — real TCP on a loopback socket, or the deterministic
//!    fault-injecting in-memory transport (`--net-faults`) with seeded
//!    resets, torn writes, short reads, and delays. Clients retry
//!    transport faults and typed `Overload` with deterministic backoff.
//! 3. **The differential oracle.** Every wire response is diffed
//!    against the memoized digest, and the table assembled from wire
//!    responses is fingerprinted again: `wire_key_digests_sha256` must
//!    be byte-identical to the in-process `key_digests_sha256`. A lost
//!    request, a duplicated or torn payload, or a client left hanging
//!    is a violation — under any fault rate.

use crate::serve::{execute_key, prepare, spec_key, PreparedServe, ServeRunConfig};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xpl_net::{
    BackoffPolicy, ClientStats, FaultConfig, MemHost, NetClient, NetServer, WireConfig, WireService,
};
use xpl_registry::RequestKey;
use xpl_store::{ImageStore, RetrieveRequest};
use xpl_util::Sha256;
use xpl_workloads::{ScaledWorld, ServeConfig, ServeSchedule};

/// Which transport carries the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTransportKind {
    /// Real TCP sockets on 127.0.0.1 (ephemeral port).
    Tcp,
    /// The in-memory transport, optionally fault-injected.
    Mem,
}

/// `repro serve --net` parameters on top of [`ServeRunConfig`].
#[derive(Clone, Copy, Debug)]
pub struct NetServeConfig {
    pub transport: NetTransportKind,
    /// Fault rate per 256 transport ops (0 = clean). Nonzero implies
    /// the in-memory transport: fault schedules are seeded and
    /// per-connection deterministic there.
    pub fault_rate: u32,
    /// Seeds the fault schedules and every client's backoff jitter.
    pub net_seed: u64,
    /// Concurrent connections per tenant.
    pub conns_per_tenant: usize,
}

impl Default for NetServeConfig {
    fn default() -> Self {
        NetServeConfig {
            transport: NetTransportKind::Tcp,
            fault_rate: 0,
            net_seed: 0x77AE,
            conns_per_tenant: 2,
        }
    }
}

/// The machine-readable `repro serve --net` report.
#[derive(Clone, Debug, Serialize)]
pub struct NetServeReport {
    pub schema_version: u32,
    pub seed: u64,
    pub net_seed: u64,
    pub scale: String,
    pub store: String,
    pub transport: String,
    pub fault_rate: u32,
    pub tenants: u32,
    pub requests: usize,
    pub conns_per_tenant: usize,
    pub queue_depth: usize,
    pub images_published: usize,
    pub distinct_keys: usize,
    /// In-process fingerprint of the sorted `key -> digest` table
    /// (identical to `repro serve`'s field of the same name for the
    /// same seed/scale/store).
    pub key_digests_sha256: String,
    /// The same table assembled purely from wire responses. Must be
    /// byte-identical to `key_digests_sha256`.
    pub wire_key_digests_sha256: String,
    // Client-side accounting, summed over the pool.
    pub served: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub overloads_seen: u64,
    // Server-side accounting.
    pub srv_connections: u64,
    pub srv_served: u64,
    pub srv_overloads: u64,
    pub srv_evictions: u64,
    pub srv_peer_closed: u64,
    pub srv_drain_rejects: u64,
    pub srv_frame_errors: u64,
    // Injected-fault counters (zero on clean transports).
    pub faults_resets: u64,
    pub faults_torn_writes: u64,
    pub faults_short_reads: u64,
    pub faults_delays: u64,
    /// Successful `Stats` wire probes issued while the schedule (and
    /// any fault storm) was in flight. Zero without a registry.
    pub stats_probes: u64,
    /// Deterministic-section fingerprint from the last `Stats` probe —
    /// the mid-drain one when the in-memory host ran, else the last
    /// mid-storm one. Empty without a registry.
    pub stats_probe_fingerprint: String,
    pub wall_s: f64,
    pub wire_ops_per_s: f64,
    /// Differential-oracle violations (must be empty at any fault
    /// rate): digest mismatches, lost requests, table divergence.
    pub violations: Vec<String>,
}

/// The service the wire server runs: parse the canonical key rendering,
/// execute it against the real store, reply with the payload digest.
/// Digests — not payloads — are the oracle identity (payloads can be
/// gigabytes of simulated disk); a hostile or unknown key is a typed
/// service error, never a panic.
pub struct StoreService {
    world: Arc<ScaledWorld>,
    store: Arc<dyn ImageStore>,
    requests: Arc<HashMap<String, (RetrieveRequest, u64)>>,
}

impl WireService for StoreService {
    fn call(&self, _tenant: u32, request: &[u8]) -> Result<Vec<u8>, String> {
        let text =
            std::str::from_utf8(request).map_err(|e| format!("request is not UTF-8: {e}"))?;
        let key =
            RequestKey::parse(text).ok_or_else(|| format!("unparseable request key: {text:?}"))?;
        let image = match &key {
            RequestKey::Image { image } => image,
            RequestKey::Range { image, .. } => image,
        };
        if !self.requests.contains_key(image) {
            return Err(format!("unknown image {image:?}"));
        }
        let (_, _, digest) = execute_key(&*self.store, &self.world, &self.requests, &key)
            .map_err(|e| format!("{}: {e}", key.render()))?;
        Ok(digest.into_bytes())
    }
}

fn sorted_table_sha256(table: &HashMap<String, String>) -> String {
    let mut lines: Vec<String> = table.iter().map(|(k, d)| format!("{k} {d}")).collect();
    lines.sort_unstable();
    Sha256::digest(lines.join("\n").as_bytes()).to_hex()
}

/// Run the wire pipeline. See the module docs for the legs.
///
/// With [`ServeRunConfig::registry`] set, the store mirrors its CAS
/// accounting, the server mirrors its connection accounting onto
/// `net.*` counters, a prober thread issues `Stats` wire requests
/// *while* the schedule (and any fault storm) is in flight, and one
/// more probe lands mid-drain on the in-memory host — every snapshot
/// must come back parseable with a well-formed deterministic-section
/// fingerprint, or the run records a violation.
pub fn run_serve_net(cfg: &ServeRunConfig, net: &NetServeConfig) -> NetServeReport {
    let PreparedServe {
        world,
        names,
        store,
        requests,
    } = prepare(cfg);
    let registry = cfg.registry.as_ref();
    let world = Arc::new(world);
    let requests = Arc::new(requests);

    // Leg 1 — the schedule and the in-process digest table. Arrival
    // times are irrelevant over the wire (clients issue back to back);
    // the key stream is what matters, and it is identical to
    // `run_serve`'s for the same seed.
    let mut serve_cfg = ServeConfig::new(cfg.seed);
    serve_cfg.tenants = cfg.tenants;
    serve_cfg.requests = cfg.requests;
    let schedule = ServeSchedule::generate(&names, &serve_cfg);
    let mut memo: HashMap<String, String> = HashMap::new();
    let mut keys: Vec<(u32, String)> = Vec::with_capacity(schedule.requests.len());
    for spec in &schedule.requests {
        let key = spec_key(spec);
        let rendered = key.render();
        if !memo.contains_key(&rendered) {
            let (_, _, digest) = execute_key(&*store, &world, &requests, &key)
                .unwrap_or_else(|e| panic!("net serve memo: {rendered}: {e}"));
            memo.insert(rendered.clone(), digest);
        }
        keys.push((spec.tenant, rendered));
    }
    let key_digests_sha256 = sorted_table_sha256(&memo);
    let distinct_keys = memo.len();

    // Leg 2 — the wire run.
    let svc: Arc<dyn WireService> = Arc::new(StoreService {
        world: world.clone(),
        store: store.clone(),
        requests: requests.clone(),
    });
    let wire_cfg = WireConfig {
        queue_depth: cfg.queue_depth,
        read_deadline: Duration::from_secs(30),
        write_deadline: Duration::from_secs(30),
        ..WireConfig::default()
    };
    // A dense storm can kill several consecutive connections per
    // request (every send and read burst rolls for a reset), so the
    // budget is generous — but still bounded, and idle runs never pay
    // for it: a clean transport succeeds on the first attempt.
    let backoff = BackoffPolicy {
        base_ns: 500_000,
        max_ns: 50_000_000,
        max_attempts: 64,
    };

    enum Host {
        Tcp(NetServer),
        Mem(Arc<MemHost>),
    }
    let faults = if net.fault_rate == 0 {
        FaultConfig::none(net.net_seed)
    } else {
        FaultConfig::storm(net.net_seed, net.fault_rate)
    };
    let host = match net.transport {
        NetTransportKind::Tcp => Host::Tcp(
            NetServer::bind_obs("127.0.0.1:0", svc, wire_cfg, registry)
                .unwrap_or_else(|e| panic!("net serve: bind: {e}")),
        ),
        NetTransportKind::Mem => {
            Host::Mem(Arc::new(MemHost::new_obs(svc, wire_cfg, faults, registry)))
        }
    };
    let probe_client = |tenant: u32, seed: u64| -> NetClient {
        match &host {
            Host::Tcp(server) => {
                NetClient::tcp(server.local_addr(), tenant, wire_cfg, backoff, seed)
            }
            Host::Mem(host) => {
                let host = host.clone();
                NetClient::new(
                    tenant,
                    wire_cfg,
                    backoff,
                    seed,
                    Box::new(move || Ok(host.connect())),
                )
            }
        }
    };

    // Partition each tenant's request stream round-robin across its
    // connections; every client thread replays its slice in order,
    // retrying through the storm, and records (key, wire digest).
    let wire_table: Mutex<HashMap<String, String>> = Mutex::new(HashMap::new());
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let pool_stats: Mutex<Vec<ClientStats>> = Mutex::new(Vec::new());
    let workers_live = AtomicUsize::new(0);
    let probes_ok = AtomicU64::new(0);
    let last_probe_fp: Mutex<String> = Mutex::new(String::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..cfg.tenants {
            for conn in 0..net.conns_per_tenant.max(1) {
                let slice: Vec<&String> = keys
                    .iter()
                    .filter(|(t, _)| *t == tenant)
                    .map(|(_, k)| k)
                    .skip(conn)
                    .step_by(net.conns_per_tenant.max(1))
                    .collect();
                if slice.is_empty() {
                    continue;
                }
                let client_seed = net.net_seed ^ (tenant as u64) << 16 ^ conn as u64;
                let mut client = match &host {
                    Host::Tcp(server) => {
                        NetClient::tcp(server.local_addr(), tenant, wire_cfg, backoff, client_seed)
                    }
                    Host::Mem(host) => {
                        let host = host.clone();
                        NetClient::new(
                            tenant,
                            wire_cfg,
                            backoff,
                            client_seed,
                            Box::new(move || Ok(host.connect())),
                        )
                    }
                };
                workers_live.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let (wire_table, violations, pool_stats, memo, workers_live) =
                    (&wire_table, &violations, &pool_stats, &memo, &workers_live);
                scope.spawn(move || {
                    for key in slice {
                        match client.call(key.as_bytes()) {
                            Ok(reply) => {
                                let digest = String::from_utf8_lossy(&reply).into_owned();
                                if memo.get(key.as_str()) != Some(&digest) {
                                    violations.lock().unwrap().push(format!(
                                        "{key}: wire digest {digest} != memoized {:?}",
                                        memo.get(key.as_str())
                                    ));
                                }
                                let mut table = wire_table.lock().unwrap();
                                if let Some(prev) = table.get(key.as_str()) {
                                    if prev != &digest {
                                        violations.lock().unwrap().push(format!(
                                            "{key}: wire digest {digest} disagrees with \
                                             earlier wire digest {prev}"
                                        ));
                                    }
                                } else {
                                    table.insert(key.clone(), digest);
                                }
                            }
                            Err(e) => violations
                                .lock()
                                .unwrap()
                                .push(format!("tenant {tenant} conn {conn}: {key}: {e}")),
                        }
                    }
                    client.close();
                    pool_stats.lock().unwrap().push(client.stats);
                    workers_live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
        }

        // The mid-storm prober: while worker clients push the schedule
        // through (and the storm tears at their connections), keep
        // asking the same server for its metrics snapshot over the
        // wire. Every reply must parse and carry a fingerprint.
        if registry.is_some() {
            let (violations, workers_live, probes_ok, last_probe_fp) =
                (&violations, &workers_live, &probes_ok, &last_probe_fp);
            let mut prober = probe_client(0, net.net_seed ^ 0x5747_5053);
            scope.spawn(move || {
                while workers_live.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                    match prober.stats_snapshot() {
                        Ok(raw) => match std::str::from_utf8(&raw)
                            .ok()
                            .and_then(xpl_obs::parse_det_fingerprint)
                        {
                            Some(fp) => {
                                probes_ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                *last_probe_fp.lock().unwrap() = fp.to_string();
                            }
                            None => violations
                                .lock()
                                .unwrap()
                                .push("mid-storm stats probe: unparseable snapshot".into()),
                        },
                        Err(e) => violations
                            .lock()
                            .unwrap()
                            .push(format!("mid-storm stats probe failed: {e}")),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                prober.close();
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Mid-drain probe (in-memory host only: it exposes the drain flag
    // without joining): the draining server must still answer `Stats`
    // even as it rejects ordinary requests.
    if let (Some(_), Host::Mem(mem)) = (registry, &host) {
        mem.begin_drain();
        let mut prober = probe_client(0, net.net_seed ^ 0x4452_4149);
        match prober.stats_snapshot() {
            Ok(raw) => match std::str::from_utf8(&raw)
                .ok()
                .and_then(xpl_obs::parse_det_fingerprint)
            {
                Some(fp) => *last_probe_fp.lock().unwrap() = fp.to_string(),
                None => violations
                    .lock()
                    .unwrap()
                    .push("mid-drain stats probe: unparseable snapshot".into()),
            },
            Err(e) => violations
                .lock()
                .unwrap()
                .push(format!("mid-drain stats probe failed: {e}")),
        }
        match prober.call(b"retrieve anything") {
            Err(xpl_net::NetError::Rejected(_)) => {}
            other => violations.lock().unwrap().push(format!(
                "mid-drain ordinary call should be Rejected, got {other:?}"
            )),
        }
        prober.close();
    }

    // Leg 3 — drain and close the books.
    let (srv, fault_counts, transport_name) = match host {
        Host::Tcp(server) => (server.drain(), [0u64; 4], "tcp"),
        Host::Mem(host) => {
            let stats = host.drain();
            use std::sync::atomic::Ordering::Relaxed;
            let f = host.fault_stats();
            (
                stats,
                [
                    f.resets.load(Relaxed),
                    f.torn_writes.load(Relaxed),
                    f.short_reads.load(Relaxed),
                    f.delays.load(Relaxed),
                ],
                "mem",
            )
        }
    };

    let wire_table = wire_table.into_inner().unwrap();
    let wire_key_digests_sha256 = sorted_table_sha256(&wire_table);
    let mut violations = violations.into_inner().unwrap();
    if wire_table.len() != memo.len() {
        violations.push(format!(
            "wire table holds {} keys, in-process table {} — requests were lost",
            wire_table.len(),
            memo.len()
        ));
    }
    if wire_key_digests_sha256 != key_digests_sha256 {
        violations.push(format!(
            "wire key-digest table {wire_key_digests_sha256} != in-process {key_digests_sha256}"
        ));
    }
    let pool_stats = pool_stats.into_inner().unwrap();
    let served: u64 = pool_stats.iter().map(|s| s.served).sum();
    if served != cfg.requests as u64 {
        violations.push(format!(
            "clients served {served} of {} scheduled requests",
            cfg.requests
        ));
    }

    let retries: u64 = pool_stats.iter().map(|s| s.retries).sum();
    let reconnects: u64 = pool_stats.iter().map(|s| s.reconnects).sum();
    let overloads_seen: u64 = pool_stats.iter().map(|s| s.overloads_seen).sum();
    if let Some(reg) = registry {
        // Fold the client-pool and injected-fault accounting onto the
        // canonical metric names, so the snapshot carries the same
        // numbers the report does (the server side already mirrored
        // live through `ServerObs`).
        use xpl_obs::Section::Wall;
        reg.counter("net.client.served", Wall).add(served);
        reg.counter("net.client.retries", Wall).add(retries);
        reg.counter("net.client.reconnects", Wall).add(reconnects);
        reg.counter("net.client.overloads_seen", Wall)
            .add(overloads_seen);
        reg.counter("net.faults.resets", Wall).add(fault_counts[0]);
        reg.counter("net.faults.torn_writes", Wall)
            .add(fault_counts[1]);
        reg.counter("net.faults.short_reads", Wall)
            .add(fault_counts[2]);
        reg.counter("net.faults.delays", Wall).add(fault_counts[3]);
        // Quiesced registry: two consecutive snapshots must agree.
        let a = reg.snapshot().fingerprint();
        let b = reg.snapshot().fingerprint();
        if a != b {
            violations.push(format!("quiesced registry unstable: {a} != {b}"));
        }
    }

    NetServeReport {
        schema_version: 2,
        seed: cfg.seed,
        net_seed: net.net_seed,
        scale: cfg.scale_name.clone(),
        store: store.name().to_string(),
        transport: transport_name.to_string(),
        fault_rate: net.fault_rate,
        tenants: cfg.tenants,
        requests: cfg.requests,
        conns_per_tenant: net.conns_per_tenant,
        queue_depth: cfg.queue_depth,
        images_published: names.len(),
        distinct_keys,
        key_digests_sha256,
        wire_key_digests_sha256,
        served,
        retries,
        reconnects,
        overloads_seen,
        srv_connections: srv.connections,
        srv_served: srv.served,
        srv_overloads: srv.overloads,
        srv_evictions: srv.evictions,
        srv_peer_closed: srv.peer_closed,
        srv_drain_rejects: srv.drain_rejects,
        srv_frame_errors: srv.frame_errors,
        faults_resets: fault_counts[0],
        faults_torn_writes: fault_counts[1],
        faults_short_reads: fault_counts[2],
        faults_delays: fault_counts[3],
        stats_probes: probes_ok.load(std::sync::atomic::Ordering::Relaxed),
        stats_probe_fingerprint: last_probe_fp.into_inner().unwrap(),
        wall_s,
        wire_ops_per_s: if wall_s > 0.0 {
            served as f64 / wall_s
        } else {
            0.0
        },
        violations,
    }
}

/// Console rendering of a net serve report.
pub fn render_net(r: &NetServeReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "SERVE/NET: {} requests from {} tenants over {} against {} ({} scale, seed {:#x})",
        r.requests, r.tenants, r.transport, r.store, r.scale, r.seed
    );
    let _ = writeln!(
        s,
        "  wire: {} conns/tenant, queue depth {}, fault rate {}/256 (net seed {:#x})",
        r.conns_per_tenant, r.queue_depth, r.fault_rate, r.net_seed
    );
    let _ = writeln!(
        s,
        "  clients: served {} ({} retries, {} reconnects, {} overloads seen)",
        r.served, r.retries, r.reconnects, r.overloads_seen
    );
    let _ = writeln!(
        s,
        "  server: {} conns, served {}, overloads {}, evictions {}, peer-closed {}, \
         frame-errors {}",
        r.srv_connections,
        r.srv_served,
        r.srv_overloads,
        r.srv_evictions,
        r.srv_peer_closed,
        r.srv_frame_errors
    );
    if r.fault_rate > 0 {
        let _ = writeln!(
            s,
            "  storm: {} resets, {} torn writes, {} short reads, {} delays injected",
            r.faults_resets, r.faults_torn_writes, r.faults_short_reads, r.faults_delays
        );
    }
    let _ = writeln!(
        s,
        "  throughput: {:.0} wire ops/s wall ({:.3}s)",
        r.wire_ops_per_s, r.wall_s
    );
    let _ = writeln!(
        s,
        "  key-digests sha256 (in-process): {}",
        r.key_digests_sha256
    );
    let _ = writeln!(
        s,
        "  key-digests sha256 (wire):       {}",
        r.wire_key_digests_sha256
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> ServeRunConfig {
        let mut cfg = ServeRunConfig::small(seed);
        cfg.requests = 80;
        cfg.tenants = 3;
        cfg
    }

    #[test]
    fn mem_wire_table_matches_in_process_table() {
        let cfg = tiny_cfg(0x11E7);
        let net = NetServeConfig {
            transport: NetTransportKind::Mem,
            fault_rate: 0,
            net_seed: 1,
            conns_per_tenant: 2,
        };
        let r = run_serve_net(&cfg, &net);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.wire_key_digests_sha256, r.key_digests_sha256);
        assert_eq!(r.served, 80);
        assert_eq!(r.retries, 0, "clean transport must not retry");
        let text = render_net(&r);
        assert!(text.contains("key-digests sha256 (wire)"));
    }

    #[test]
    fn net_digest_table_equals_run_serve_digest_table() {
        // The acceptance pin: the wire leg and the in-process pipeline
        // fingerprint the same key -> digest table for the same
        // seed/scale/store.
        let cfg = tiny_cfg(0x11E8);
        let in_process = crate::serve::run_serve(&cfg);
        let net = NetServeConfig {
            transport: NetTransportKind::Mem,
            fault_rate: 0,
            net_seed: 2,
            conns_per_tenant: 1,
        };
        let wire = run_serve_net(&cfg, &net);
        assert_eq!(wire.key_digests_sha256, in_process.key_digests_sha256);
        assert_eq!(wire.wire_key_digests_sha256, in_process.key_digests_sha256);
    }

    #[test]
    fn stats_probes_survive_the_storm_and_the_drain() {
        // The acceptance pin: `Stats` is served over the wire while the
        // fault storm is tearing at every other connection, and again
        // mid-drain — parseable, fingerprinted, zero violations.
        let registry = xpl_obs::Registry::new();
        let mut cfg = tiny_cfg(0x11EB);
        cfg.registry = Some(Arc::clone(&registry));
        let net = NetServeConfig {
            transport: NetTransportKind::Mem,
            fault_rate: 24,
            net_seed: 0xF00D,
            conns_per_tenant: 2,
        };
        let r = run_serve_net(&cfg, &net);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.stats_probes >= 1, "no mid-storm probe landed");
        assert_eq!(
            r.stats_probe_fingerprint.len(),
            64,
            "{}",
            r.stats_probe_fingerprint
        );
        // The registry saw both sides: CAS work (det) and wire traffic
        // (wall), including the client/fault fold-in.
        let json = registry.snapshot().render_json();
        assert!(json.contains("\"cas.get.hits\""), "{json}");
        assert!(json.contains("\"net.served\""), "{json}");
        assert!(json.contains("\"net.stats.served\""), "{json}");
        assert!(json.contains("\"net.client.served\""), "{json}");
        assert!(json.contains("\"net.faults.resets\""), "{json}");
    }

    #[test]
    fn faulty_wire_still_converges_with_zero_violations() {
        let cfg = tiny_cfg(0x11E9);
        let net = NetServeConfig {
            transport: NetTransportKind::Mem,
            fault_rate: 24,
            net_seed: 0xBAD5EED,
            conns_per_tenant: 2,
        };
        let r = run_serve_net(&cfg, &net);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.wire_key_digests_sha256, r.key_digests_sha256);
        let injected =
            r.faults_resets + r.faults_torn_writes + r.faults_short_reads + r.faults_delays;
        assert!(injected > 0, "the storm never fired");
    }
}
