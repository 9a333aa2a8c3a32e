//! `wire_serve` — the repository behind the wire.
//!
//! Set-up publishes `ScaledWorld::standard` (120 images of ~50 KB) into
//! in-memory Expelliarmus (tier `mixed`) behind `NetServer` on real TCP
//! loopback, with the harness's own `WireService` adapter and the
//! server's per-tenant `AdmissionGate`. The measured run is a closed
//! loop: as many client threads as the host has CPUs (never more) drain
//! a seeded `ServeSchedule` — Zipf image popularity, ~12 % range reads,
//! 8 tenants, one connection per tenant, each thread serving its share
//! of the tenants — over and over until the time box closes. One request
//! in fifty on the first thread is a push or a delete on a set of
//! images the readers never touch, so the server sees writes beside
//! reads while every read's expected digest stays known.
//!
//! Why it exists: a store hit is ~0.2 ms, so `xpl-net` (frame, transport,
//! thread-per-connection server, retrying client) and `xpl-registry`
//! carry a visible share of every request; the in-process replay of the
//! same keys in the traced run's probes prices the wire layer alone.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpl_core::ExpelliarmusRepo;
use xpl_guestfs::Vmi;
use xpl_net::{NetClient, NetServer};
use xpl_simio::SimEnv;
use xpl_store::{semantic_fingerprint, ImageStore, TierPolicy};
use xpl_util::Sha256;
use xpl_workloads::{ScaleConfig, ScaledWorld, ServeConfig, ServeSchedule};

use super::{
    client_threads, finish, op_list_digest, repeat_setup, timed, Finished, Kind, Ledger,
    ProbeInputs, RunConfig, RunCounts, RunOutput, SCALED_WORLD_SEED,
};
use crate::trace::{span_id, Tracer};
use crate::wire::{self, Pace, ReadTarget, StoreService};

const TENANTS: u32 = 8;
/// Requests in the schedule the clients cycle through.
const SCHEDULE_REQUESTS: usize = 20_000;
const SCHEDULE_REQUESTS_QUICK: usize = 300;
/// Images only pushes and deletes touch.
const CHURN_IMAGES: usize = 24;
/// One request in this many, on the first client thread, is a write.
const WRITE_EVERY: usize = 50;
/// Fixed rates of the traced run's open-loop sweep, requests per second.
const SWEEP_RATES: [f64; 4] = [500.0, 1000.0, 2000.0, 4000.0];
const SWEEP_SECONDS: f64 = 1.5;

/// One scheduled read, as a client sends it.
struct Read {
    tenant: u32,
    kind: Kind,
    body: String,
    /// Image-disk bytes a full retrieve moves (0 for a range).
    image_bytes: u64,
}

struct Setup {
    world: Arc<ScaledWorld>,
    repo: Arc<ExpelliarmusRepo>,
    service: Arc<StoreService>,
    schedule: Vec<Read>,
    /// In-process digest of every distinct read body.
    memo: HashMap<String, String>,
    churn: Vec<String>,
    served_images: Vec<Arc<Vmi>>,
    /// Publishes and memo retrieves of set-up, timed: the fixed point.
    ledger: Ledger,
    repo_bytes_per_image_byte: f64,
    registry: Arc<xpl_obs::Registry>,
    tracer: Arc<Tracer>,
}

fn setup(cfg: &RunConfig) -> Setup {
    let scale = if cfg.quick {
        ScaleConfig::small(SCALED_WORLD_SEED)
    } else {
        ScaleConfig::standard(SCALED_WORLD_SEED)
    };
    let world = Arc::new(ScaledWorld::generate(&scale));
    let catalog = &world.catalog;
    let names = world.image_names();
    let churn_count = CHURN_IMAGES.min(names.len() / 4);
    let (served, churn) = names.split_at(names.len() - churn_count);

    let tracer = Arc::new(Tracer::new(cfg.trace));
    let registry = xpl_obs::Registry::new();
    let repo = Arc::new(ExpelliarmusRepo::new(SimEnv::testbed()).with_tier(TierPolicy::mixed()));
    if cfg.trace {
        repo.attach_obs(&registry);
    }
    let mut service = StoreService::new(
        Arc::clone(&world) as Arc<dyn wire::HasCatalog>,
        Arc::clone(&repo) as Arc<dyn ImageStore>,
        Arc::clone(&tracer),
    );
    let mut ledger = Ledger::default();
    let mut image_bytes = 0u64;
    let mut served_images = Vec::with_capacity(served.len());
    for name in &names {
        let vmi = Arc::new(world.build(name, 0));
        let (result, elapsed) = timed(|| repo.publish(catalog, &vmi));
        let report = result.unwrap_or_else(|e| panic!("set-up publish {name}: {e}"));
        ledger.record(Kind::Publish, elapsed, 1, vmi.disk_bytes());
        ledger.sim_publish_s += report.duration.as_secs_f64();
        image_bytes += vmi.disk_bytes();
        if churn.contains(name) {
            service
                .pushes
                .insert((name.clone(), 1), Arc::new(world.build(name, 1)));
            service.pushes.insert((name.clone(), 0), vmi);
        } else {
            service
                .reads
                .insert(name.clone(), ReadTarget::of(&vmi, catalog));
            served_images.push(vmi);
        }
    }
    let repo_bytes_per_image_byte = repo.repo_bytes() as f64 / image_bytes as f64;

    let mut serve_cfg = ServeConfig::new(cfg.seed);
    serve_cfg.tenants = TENANTS;
    serve_cfg.requests = if cfg.quick {
        SCHEDULE_REQUESTS_QUICK
    } else {
        SCHEDULE_REQUESTS
    };
    let schedule: Vec<Read> = ServeSchedule::generate(served, &serve_cfg)
        .requests
        .iter()
        .map(|r| match r.range {
            None => Read {
                tenant: r.tenant,
                kind: Kind::Retrieve,
                body: format!("retrieve {}", r.image),
                image_bytes: service.reads[&r.image].disk_bytes,
            },
            Some((frac, len)) => Read {
                tenant: r.tenant,
                kind: Kind::Range,
                body: format!("range {} frac={frac} len={len}", r.image),
                image_bytes: 0,
            },
        })
        .collect();

    // Execute every distinct key once in-process: the oracle's digest
    // table, and the warm-up pass (untimed by the run, charged to set-up).
    let service = Arc::new(service);
    let mut memo: HashMap<String, String> = HashMap::new();
    for read in &schedule {
        if !memo.contains_key(&read.body) {
            let (result, elapsed) = timed(|| service.execute(&read.body));
            let digest = result.unwrap_or_else(|e| panic!("set-up memo: {e}"));
            if read.kind == Kind::Retrieve {
                ledger.record(Kind::Retrieve, elapsed, 1, 0);
            }
            memo.insert(read.body.clone(), digest);
        }
    }
    ledger.sim_retrieve_s = service
        .sim_retrieve_ns
        .load(std::sync::atomic::Ordering::Relaxed) as f64
        / 1e9;
    ledger.mark_fixed_point();
    Setup {
        world,
        repo,
        service,
        schedule,
        memo,
        churn: churn.to_vec(),
        served_images,
        ledger,
        repo_bytes_per_image_byte,
        registry,
        tracer,
    }
}

/// The write stream: each churn image in turn is deleted, then pushed
/// back at its other generation.
struct Writes<'a> {
    churn: &'a [String],
    /// The pre-built images, for the bytes a push moves.
    pushes: &'a HashMap<(String, u32), Arc<Vmi>>,
    /// Generation each churn image is (or was last) published at.
    generation: Vec<u32>,
    issued: usize,
}

impl Writes<'_> {
    /// The next write: its kind, its request body, the image bytes it moves.
    fn next(&mut self) -> (Kind, String, u64) {
        let slot = (self.issued / 2) % self.churn.len();
        let image = &self.churn[slot];
        let op = if self.issued.is_multiple_of(2) {
            (Kind::Delete, format!("delete {image}"), 0)
        } else {
            self.generation[slot] ^= 1;
            let gen = self.generation[slot];
            (
                Kind::Publish,
                format!("publish {image} gen={gen}"),
                self.pushes[&(image.clone(), gen)].disk_bytes(),
            )
        };
        self.issued += 1;
        op
    }

    /// Churn images live right now, with their generation.
    fn live(&self) -> Vec<(&String, u32)> {
        let pending_delete = (self.issued % 2 == 1).then(|| (self.issued / 2) % self.churn.len());
        self.churn
            .iter()
            .zip(&self.generation)
            .enumerate()
            .filter(|(slot, _)| Some(*slot) != pending_delete)
            .map(|(_, (image, &gen))| (image, gen))
            .collect()
    }
}

/// What one client thread brings home.
struct ThreadResult {
    ledger: Ledger,
    /// First wire digest seen per read body.
    table: HashMap<String, String>,
    retries: u64,
    reconnects: u64,
}

fn client_thread(
    thread: usize,
    threads: usize,
    setup: &Setup,
    addr: SocketAddr,
    mut writes: Option<&mut Writes<'_>>,
    deadline: Instant,
) -> ThreadResult {
    let mine: Vec<&Read> = setup
        .schedule
        .iter()
        .filter(|r| r.tenant as usize % threads == thread)
        .collect();
    let mut clients: HashMap<u32, NetClient> = HashMap::new();
    let mut out = ThreadResult {
        ledger: Ledger::default(),
        table: HashMap::new(),
        retries: 0,
        reconnects: 0,
    };
    let (mut issued, mut reads_issued) = (0usize, 0usize);
    // Request ids: unique across threads, so a server span names its client span.
    let mut request = thread as u64;
    // What happens between two calls is the clients' own overhead and
    // counts against `ops_per_s`: no allocation on the common path.
    while Instant::now() < deadline && !mine.is_empty() {
        let write;
        let (tenant, kind, body, image_bytes, expect): (u32, Kind, &str, u64, Option<&String>) =
            match writes.as_deref_mut() {
                Some(w) if issued % WRITE_EVERY == WRITE_EVERY - 1 => {
                    write = w.next();
                    (0, write.0, &write.1, write.2, None)
                }
                _ => {
                    let read = mine[reads_issued % mine.len()];
                    reads_issued += 1;
                    let expect = setup.memo.get(&read.body);
                    (read.tenant, read.kind, &read.body, read.image_bytes, expect)
                }
            };
        issued += 1;
        let client = clients
            .entry(tenant)
            .or_insert_with(|| wire::client(addr, tenant, u64::from(tenant)));
        let span = setup.tracer.op(kind.name(), request);
        let traced;
        let sent = match span_id(&span) {
            Some(id) => {
                traced = wire::traced_body(body, id, request);
                &traced
            }
            None => body,
        };
        let (reply, elapsed) = timed(|| client.call(sent.as_bytes()));
        drop(span);
        request += threads as u64;
        out.ledger.record(kind, elapsed, 1, image_bytes);
        match (reply, expect) {
            (Ok(reply), Some(want)) => {
                out.ledger.expect(reply == want.as_bytes(), || {
                    let got = String::from_utf8_lossy(&reply);
                    format!("{body}: wire digest {got} != in-process {want}")
                });
                if !out.table.contains_key(body) {
                    let got = String::from_utf8_lossy(&reply).into_owned();
                    out.table.insert(body.to_string(), got);
                }
            }
            (Ok(reply), None) => out.ledger.expect(reply == b"ok", || {
                format!("{body}: answered {:?}", String::from_utf8_lossy(&reply))
            }),
            (Err(e), _) => out.ledger.violation(format!("{body}: {e}")),
        }
    }
    for client in clients.values_mut() {
        out.retries += client.stats.retries;
        out.reconnects += client.stats.reconnects;
        client.close();
    }
    out
}

fn table_digest<'a>(rows: impl Iterator<Item = (&'a String, &'a String)>) -> String {
    let mut lines: Vec<String> = rows.map(|(k, d)| format!("{k} {d}")).collect();
    lines.sort_unstable();
    Sha256::digest(lines.join("\n").as_bytes()).to_hex()
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let (setup, setup_s) = repeat_setup(cfg, || setup(cfg));
    let server = NetServer::bind_obs(
        "127.0.0.1:0",
        Arc::clone(&setup.service) as Arc<dyn xpl_net::WireService>,
        wire::wire_config(),
        cfg.trace.then_some(&setup.registry),
    )
    .unwrap_or_else(|e| panic!("bind loopback server: {e}"));
    let addr = server.local_addr();
    let threads = client_threads();
    let op_digest = op_list_digest(
        setup
            .schedule
            .iter()
            .map(|r| format!("tenant={} {}", r.tenant, r.body)),
    );
    let layer_counts = cfg.trace.then(|| {
        RunCounts {
            registry: &setup.registry.snapshot(),
            vfs: None,
            live_bytes: setup.repo.repo_bytes(),
        }
        .layer_metrics()
    });

    // The measured run: the closed loop, for `seconds` of wall clock.
    let mut writes = Writes {
        churn: &setup.churn,
        pushes: &setup.service.pushes,
        generation: vec![0; setup.churn.len()],
        issued: 0,
    };
    setup.tracer.enter_phase("closed-loop");
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let setup = &setup;
        let mut writes = Some(&mut writes);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let writes = if t == 0 { writes.take() } else { None };
                scope.spawn(move || client_thread(t, threads, setup, addr, writes, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    setup.tracer.end_phase();

    let mut ledger = Ledger::default();
    let mut wire_table: HashMap<String, String> = HashMap::new();
    let (mut retries, mut reconnects) = (0, 0);
    for r in results {
        ledger.merge(r.ledger);
        retries += r.retries;
        reconnects += r.reconnects;
        for (body, digest) in r.table {
            if let Some(prev) = wire_table.get(&body) {
                ledger.expect(*prev == digest, || {
                    format!("{body}: two connections saw different digests")
                });
            } else {
                wire_table.insert(body, digest);
            }
        }
    }
    // Only the fixed point crosses over; set-up's samples stay out.
    ledger.copy_fixed_point(&setup.ledger);

    // Closing oracle: the table assembled from wire responses equals the
    // in-process one over the keys served; the pushed images come back
    // whole in-process; the books balance.
    let wire_sha = table_digest(wire_table.iter());
    let memo_sha = table_digest(
        setup
            .memo
            .iter()
            .filter(|(body, _)| wire_table.contains_key(*body)),
    );
    ledger.expect(wire_sha == memo_sha, || {
        format!("wire key-digest table {wire_sha} != in-process {memo_sha}")
    });
    let catalog = &setup.world.catalog;
    for (image, gen) in writes.live() {
        let vmi = &setup.service.pushes[&(image.clone(), gen)];
        let request = xpl_store::RetrieveRequest::for_image(vmi, catalog);
        match setup.repo.retrieve(catalog, &request) {
            Ok((got, _)) => ledger.expect(
                semantic_fingerprint(catalog, &got) == semantic_fingerprint(catalog, vmi),
                || format!("pushed {image} gen={gen} diverged"),
            ),
            Err(e) => ledger.violation(format!("pushed {image} gen={gen}: {e}")),
        }
    }
    if let Err(e) = setup.repo.check_integrity_deep() {
        ledger.violation(format!("deep integrity: {e}"));
    }

    let mut notes = vec![
        format!(
            "inputs: {} served images + {} churned, schedule of {} requests ({} distinct keys), \
             {} tenants on {} client threads",
            setup.served_images.len(),
            setup.churn.len(),
            setup.schedule.len(),
            setup.memo.len(),
            TENANTS,
            threads
        ),
        format!("key-digest table sha256: wire {wire_sha}, in-process {memo_sha}"),
    ];

    // Traced run only: latency at fixed offered rates, from due time.
    if cfg.trace && !cfg.quick {
        let bodies: Vec<String> = setup.schedule.iter().map(|r| r.body.clone()).collect();
        let memo = &setup.memo;
        let check =
            |body: &str, reply: &[u8]| memo.get(body).is_some_and(|d| d.as_bytes() == reply);
        for rate in SWEEP_RATES {
            let r = wire::drive(
                addr,
                threads,
                Pace::Open { per_s: rate },
                SWEEP_SECONDS,
                &bodies,
                &check,
            );
            ledger.expect(r.failed == 0, || {
                format!("open loop at {rate}/s: {} requests failed", r.failed)
            });
            notes.push(format!(
                "extra: open loop at {rate} req/s for {SWEEP_SECONDS} s: n {} p50 {:.3} ms \
                 p99 {:.3} ms (generator late p99 {:.0} us)",
                r.latency.len(),
                r.latency.percentile_ms(50.0),
                r.latency.tail_ms(99.0).0,
                r.lateness.tail_ms(99.0).0 * 1e3
            ));
        }
    }

    let Setup {
        world,
        served_images,
        repo_bytes_per_image_byte,
        tracer,
        ..
    } = setup;
    let stats = server.drain();
    notes.push(format!(
        "server: {} connections, {} served, {} overloads, {} service errors; \
         clients: {retries} retries, {reconnects} reconnects",
        stats.connections, stats.served, stats.overloads, stats.service_errors
    ));
    ledger.expect(stats.service_errors == 0, || {
        format!("server reported {} service errors", stats.service_errors)
    });
    let layer_counts = layer_counts.map(|mut m| {
        m.set("net.retries", retries as f64);
        m.set("net.reconnects", reconnects as f64);
        m.set("registry.overloads", stats.overloads as f64);
        m
    });
    let rebuild = |vmi: &Vmi| world.build(&vmi.name, 0);
    finish(
        cfg,
        &tracer,
        Finished {
            ledger,
            setup_s,
            wall_s,
            repo_bytes_per_image_byte,
            layer_counts,
            probe_inputs: ProbeInputs {
                world: Arc::clone(&world) as Arc<dyn wire::HasCatalog>,
                sample: super::sample_images(&served_images, 3, cfg.seed),
                rebuild: &rebuild,
            },
            notes,
            op_digest,
        },
    )
}
