//! The harness's wire adapter and load generators.
//!
//! [`StoreService`] is the `WireService` the benchmark puts behind
//! `NetServer`: it parses a request body, executes it against a real
//! store and answers with the payload's digest (payloads can be whole
//! disks; the digest is the oracle identity, as in `repro serve --net`).
//! Besides the two read keys of `xpl_registry::RequestKey` it accepts
//! `publish <image> gen=<g>` for a pre-built image and `delete <image>`,
//! so a served repository sees pushes beside pulls.
//!
//! [`drive`] loads a server from `threads` connections: back to back
//! ([`Pace::Closed`]), or on a fixed schedule with each request timed
//! from the moment it was due ([`Pace::Open`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpl_guestfs::Vmi;
use xpl_net::{BackoffPolicy, NetClient, WireConfig, WireService};
use xpl_pkg::Catalog;
use xpl_registry::RequestKey;
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest};
use xpl_util::Sha256;
use xpl_workloads::{ScaledWorld, World};

use crate::measure::Samples;
use crate::trace::Tracer;

/// A world that can lend its catalog to server threads.
pub trait HasCatalog: Send + Sync + 'static {
    fn catalog(&self) -> &Catalog;
}

impl HasCatalog for World {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

impl HasCatalog for ScaledWorld {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// How to retrieve one published image.
pub struct ReadTarget {
    pub request: RetrieveRequest,
    pub virtual_size: u64,
    /// Allocated bytes of the image's disk.
    pub disk_bytes: u64,
}

impl ReadTarget {
    pub fn of(vmi: &Vmi, catalog: &Catalog) -> ReadTarget {
        ReadTarget {
            request: RetrieveRequest::for_image(vmi, catalog),
            virtual_size: vmi.disk.virtual_size(),
            disk_bytes: vmi.disk_bytes(),
        }
    }
}

/// Separates a request body from the `parent span`, `request id` pair a
/// traced client appends to it.
const TRACE_SEP: char = '\t';

pub struct StoreService {
    pub world: Arc<dyn HasCatalog>,
    pub store: Arc<dyn ImageStore>,
    pub reads: HashMap<String, ReadTarget>,
    /// Pre-built images a `publish` request may name, by (image, generation).
    pub pushes: HashMap<(String, u32), Arc<Vmi>>,
    pub tracer: Arc<Tracer>,
    /// Simulated nanoseconds the store charged for publishes / full retrieves.
    pub sim_publish_ns: AtomicU64,
    pub sim_retrieve_ns: AtomicU64,
}

impl StoreService {
    pub fn new(
        world: Arc<dyn HasCatalog>,
        store: Arc<dyn ImageStore>,
        tracer: Arc<Tracer>,
    ) -> StoreService {
        StoreService {
            world,
            store,
            reads: HashMap::new(),
            pushes: HashMap::new(),
            tracer,
            sim_publish_ns: AtomicU64::new(0),
            sim_retrieve_ns: AtomicU64::new(0),
        }
    }

    fn target(&self, image: &str) -> Result<&ReadTarget, String> {
        self.reads
            .get(image)
            .ok_or_else(|| format!("unknown image {image:?}"))
    }

    /// Execute one request body in-process; the wire path calls this too.
    pub fn execute(&self, body: &str) -> Result<String, String> {
        let catalog = self.world.catalog();
        if let Some(rest) = body.strip_prefix("publish ") {
            let (image, gen) = rest
                .rsplit_once(" gen=")
                .and_then(|(image, g)| Some((image, g.parse::<u32>().ok()?)))
                .ok_or_else(|| format!("unparseable publish request {body:?}"))?;
            let vmi = self
                .pushes
                .get(&(image.to_string(), gen))
                .ok_or_else(|| format!("no pre-built {image} gen={gen}"))?;
            let report = self
                .store
                .publish(catalog, vmi)
                .map_err(|e| format!("{body}: {e}"))?;
            self.sim_publish_ns
                .fetch_add(report.duration.as_nanos(), Relaxed);
            return Ok("ok".to_string());
        }
        if let Some(image) = body.strip_prefix("delete ") {
            self.store
                .delete(image)
                .map_err(|e| format!("{body}: {e}"))?;
            return Ok("ok".to_string());
        }
        match RequestKey::parse(body).ok_or_else(|| format!("unparseable request {body:?}"))? {
            RequestKey::Image { image } => {
                let target = self.target(&image)?;
                let (vmi, report) = self
                    .store
                    .retrieve(catalog, &target.request)
                    .map_err(|e| format!("{body}: {e}"))?;
                self.sim_retrieve_ns
                    .fetch_add(report.duration.as_nanos(), Relaxed);
                Ok(semantic_fingerprint(catalog, &vmi).to_hex())
            }
            RequestKey::Range {
                image,
                start_frac,
                len_bytes,
            } => {
                let target = self.target(&image)?;
                let start = target.virtual_size * u64::from(start_frac) / 256;
                let (bytes, _) = self
                    .store
                    .retrieve_range(catalog, &target.request, start, u64::from(len_bytes))
                    .map_err(|e| format!("{body}: {e}"))?;
                Ok(Sha256::digest(&bytes).to_hex())
            }
        }
    }
}

impl WireService for StoreService {
    fn call(&self, _tenant: u32, request: &[u8]) -> Result<Vec<u8>, String> {
        let text =
            std::str::from_utf8(request).map_err(|e| format!("request is not UTF-8: {e}"))?;
        // A traced client appends "\t<parent span>\t<request id>".
        let mut parts = text.split(TRACE_SEP);
        let body = parts.next().unwrap_or_default();
        let ids = parts
            .next()
            .zip(parts.next())
            .and_then(|(p, r)| Some((p.parse::<u64>().ok()?, r.parse::<u64>().ok()?)));
        let _span =
            ids.and_then(|(parent, request)| self.tracer.child("service", Some(parent), request));
        self.execute(body).map(String::into_bytes)
    }
}

/// `body` as a traced client sends it: tagged with its span and request id.
pub fn traced_body(body: &str, parent_span: u64, request: u64) -> String {
    format!("{body}{TRACE_SEP}{parent_span}{TRACE_SEP}{request}")
}

/// Wire policy of every benchmark server and client: generous deadlines
/// (nothing here is supposed to stall) and a deep per-tenant queue.
pub fn wire_config() -> WireConfig {
    WireConfig {
        queue_depth: 128,
        read_deadline: Duration::from_secs(30),
        write_deadline: Duration::from_secs(30),
        ..WireConfig::default()
    }
}

pub fn client(addr: SocketAddr, tenant: u32, seed: u64) -> NetClient {
    let backoff = BackoffPolicy {
        base_ns: 500_000,
        max_ns: 50_000_000,
        max_attempts: 16,
    };
    NetClient::tcp(addr, tenant, wire_config(), backoff, seed)
}

/// What a load generator saw.
#[derive(Default)]
pub struct LoadResult {
    /// Closed loop: send to verified response. Open loop: due time to
    /// verified response.
    pub latency: Samples,
    /// Open loop only: how late each request left, in ms.
    pub lateness: Samples,
    pub failed: u64,
    pub wall_s: f64,
}

impl LoadResult {
    fn merge(&mut self, other: LoadResult) {
        self.latency.extend(&other.latency);
        self.lateness.extend(&other.lateness);
        self.failed += other.failed;
    }

    pub fn per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.latency.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// How a generator paces its requests.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Each connection sends its next request when the last one returned.
    Closed,
    /// Request `i` is due at `i / rate` seconds, whatever came before.
    Open { per_s: f64 },
}

/// Drive `addr` from `threads` connections for `seconds`, cycling through
/// `bodies` (connection `c` takes every `threads`-th, from `c`). `check`
/// judges each `(body, response)`; a rejected or failed call counts as
/// failed.
pub fn drive(
    addr: SocketAddr,
    threads: usize,
    pace: Pace,
    seconds: f64,
    bodies: &[String],
    check: &(dyn Fn(&str, &[u8]) -> bool + Sync),
) -> LoadResult {
    assert!(!bodies.is_empty() && threads > 0);
    // Every connection says hello and warms its path before the clock starts.
    let mut clients: Vec<NetClient> = (0..threads)
        .map(|c| {
            let mut cl = client(addr, c as u32, c as u64);
            let _ = cl.call(bodies[c % bodies.len()].as_bytes());
            cl
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = LoadResult::default();
    let parts: Vec<LoadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, cl)| {
                scope.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut i = c;
                    loop {
                        let due = match pace {
                            Pace::Closed => Instant::now(),
                            Pace::Open { per_s } => {
                                start + Duration::from_secs_f64(i as f64 / per_s)
                            }
                        };
                        if due >= deadline {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let body = &bodies[i % bodies.len()];
                        let reply = cl.call(body.as_bytes());
                        let done = Instant::now();
                        match pace {
                            Pace::Closed => out.latency.push(done - sent),
                            Pace::Open { .. } => {
                                out.latency.push(done.saturating_duration_since(due));
                                out.lateness.push(sent.saturating_duration_since(due));
                            }
                        }
                        match reply {
                            Ok(r) if check(body, &r) => {}
                            _ => out.failed += 1,
                        }
                        i += threads;
                    }
                    cl.close();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    total.wall_s = start.elapsed().as_secs_f64();
    for part in parts {
        total.merge(part);
    }
    total
}
