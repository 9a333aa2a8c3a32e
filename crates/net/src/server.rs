//! The threaded wire server.
//!
//! One thread per connection, each running [`serve_connection`]:
//! handshake (a `Hello` frame naming the connection's tenant), then a
//! request/response loop. Per-connection tenants map onto the
//! registry's [`AdmissionGate`] — a full tenant bound becomes a typed
//! `Overload` wire response, never a dropped connection. Read and write
//! deadlines bound every blocking step, so a stalled or vanished client
//! is *evicted* (connection closed, counted) instead of pinning a
//! thread forever. Shutdown is a graceful drain: stop accepting, let
//! in-flight requests finish, answer anything newly read with
//! `Draining`, flush, then close.
//!
//! Two front ends share the connection loop: [`NetServer`] accepts real
//! TCP sockets; [`MemHost`] hands out in-memory (optionally
//! fault-injected) connections for deterministic robustness tests.

use crate::frame::{
    decode_request, encode_response, read_frame, write_frame, FrameKind, DEFAULT_MAX_FRAME,
    STATUS_DRAINING, STATUS_ERROR, STATUS_OK, STATUS_OVERLOAD,
};
use crate::transport::{mem_pair, FaultConfig, FaultStats, FaultTransport, TcpTransport};
use crate::{NetError, Transport};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use xpl_obs::{Counter, Registry, Section};
use xpl_registry::AdmissionGate;

/// What the server executes once a request is admitted. Implemented by
/// the bench crate over a real image store; tests use closures.
pub trait WireService: Send + Sync {
    fn call(&self, tenant: u32, request: &[u8]) -> Result<Vec<u8>, String>;
}

impl<F> WireService for F
where
    F: Fn(u32, &[u8]) -> Result<Vec<u8>, String> + Send + Sync,
{
    fn call(&self, tenant: u32, request: &[u8]) -> Result<Vec<u8>, String> {
        self(tenant, request)
    }
}

/// Wire-level policy shared by server and client.
#[derive(Clone, Copy, Debug)]
pub struct WireConfig {
    /// Maximum accepted frame payload.
    pub max_frame: u32,
    /// Per-read deadline; a connection that stalls longer mid-request
    /// is evicted.
    pub read_deadline: Duration,
    /// Per-write deadline; a client that stops draining its socket is
    /// evicted.
    pub write_deadline: Duration,
    /// Per-tenant admission bound (concurrent in-flight requests).
    pub queue_depth: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
            read_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            queue_depth: 64,
        }
    }
}

/// Atomic server-side accounting — every way a request or connection
/// can end is counted somewhere, so "nothing silently lost" is
/// checkable: `connections`, `served`, `overloads`, `drain_rejects`,
/// `service_errors`, `evictions` (deadline), `peer_closed` (client
/// vanished), `frame_errors` (protocol garbage).
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    pub connections: AtomicU64,
    pub served: AtomicU64,
    pub overloads: AtomicU64,
    pub drain_rejects: AtomicU64,
    pub service_errors: AtomicU64,
    pub evictions: AtomicU64,
    pub peer_closed: AtomicU64,
    pub frame_errors: AtomicU64,
}

/// Plain-number snapshot of the server's internal counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    pub connections: u64,
    pub served: u64,
    pub overloads: u64,
    pub drain_rejects: u64,
    pub service_errors: u64,
    pub evictions: u64,
    pub peer_closed: u64,
    pub frame_errors: u64,
}

/// Every way a request or connection can end — the one event vocabulary
/// both [`ServerStats`] and the registry mirror count in.
#[derive(Clone, Copy, Debug)]
enum Event {
    Connection,
    Served,
    Overload,
    DrainReject,
    ServiceError,
    Eviction,
    PeerClosed,
    FrameError,
}

/// Registry-side mirror of the server's wire accounting, plus raw frame
/// counts and `Stats`-request serves. All wall-section: connection
/// lifetimes, deadline evictions and fault-triggered retries depend on
/// real scheduling, so these counts are honest but not thread-count
/// deterministic.
pub(crate) struct ServerObs {
    registry: Arc<Registry>,
    connections: Arc<Counter>,
    served: Arc<Counter>,
    overloads: Arc<Counter>,
    drain_rejects: Arc<Counter>,
    service_errors: Arc<Counter>,
    evictions: Arc<Counter>,
    peer_closed: Arc<Counter>,
    frame_errors: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    stats_served: Arc<Counter>,
}

impl ServerObs {
    /// Resolve (or re-use) the `net.*` metric family in `reg`.
    pub fn new(reg: &Arc<Registry>) -> Arc<ServerObs> {
        let c = |name: &str| reg.counter(name, Section::Wall);
        Arc::new(ServerObs {
            connections: c("net.connections"),
            served: c("net.served"),
            overloads: c("net.overloads"),
            drain_rejects: c("net.drain_rejects"),
            service_errors: c("net.service_errors"),
            evictions: c("net.evictions"),
            peer_closed: c("net.peer_closed"),
            frame_errors: c("net.frame_errors"),
            frames_in: c("net.frames.in"),
            frames_out: c("net.frames.out"),
            stats_served: c("net.stats.served"),
            registry: Arc::clone(reg),
        })
    }

    fn counter(&self, ev: Event) -> &Counter {
        match ev {
            Event::Connection => &self.connections,
            Event::Served => &self.served,
            Event::Overload => &self.overloads,
            Event::DrainReject => &self.drain_rejects,
            Event::ServiceError => &self.service_errors,
            Event::Eviction => &self.evictions,
            Event::PeerClosed => &self.peer_closed,
            Event::FrameError => &self.frame_errors,
        }
    }
}

impl ServerStats {
    fn field(&self, ev: Event) -> &AtomicU64 {
        match ev {
            Event::Connection => &self.connections,
            Event::Served => &self.served,
            Event::Overload => &self.overloads,
            Event::DrainReject => &self.drain_rejects,
            Event::ServiceError => &self.service_errors,
            Event::Eviction => &self.evictions,
            Event::PeerClosed => &self.peer_closed,
            Event::FrameError => &self.frame_errors,
        }
    }

    /// Count `ev` in the atomic field and, when attached, the registry
    /// mirror — one call site per event, so the two can never skew.
    fn count(&self, ev: Event, obs: Option<&ServerObs>) {
        self.field(ev).fetch_add(1, Ordering::Relaxed);
        if let Some(o) = obs {
            o.counter(ev).inc();
        }
    }

    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            drain_rejects: self.drain_rejects.load(Ordering::Relaxed),
            service_errors: self.service_errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            peer_closed: self.peer_closed.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
        }
    }
}

/// Serve one connection until the peer closes, a deadline evicts it, or
/// drain finishes it. Every exit path is typed and counted; nothing in
/// here panics on peer misbehavior (a mid-response vanishing client
/// surfaces as [`NetError::PeerClosed`] on the write and is counted).
pub(crate) fn serve_connection(
    mut t: Box<dyn Transport>,
    svc: &dyn WireService,
    gate: &AdmissionGate,
    cfg: &WireConfig,
    draining: &AtomicBool,
    stats: &ServerStats,
    obs: Option<&ServerObs>,
) {
    let _ = t.set_read_deadline(Some(cfg.read_deadline));
    let _ = t.set_write_deadline(Some(cfg.write_deadline));

    // Handshake: the first frame must be Hello naming the tenant.
    let tenant = match read_frame(&mut *t, cfg.max_frame) {
        Ok(Some(f)) if f.kind == FrameKind::Hello && f.payload.len() == 4 => {
            if let Some(o) = obs {
                o.frames_in.inc();
            }
            u32::from_le_bytes(f.payload[..4].try_into().unwrap())
        }
        Ok(None) => return, // connected and left: nothing lost
        Ok(Some(_)) => {
            stats.count(Event::FrameError, obs);
            t.shutdown();
            return;
        }
        Err(NetError::Timeout) => {
            stats.count(Event::Eviction, obs);
            t.shutdown();
            return;
        }
        Err(NetError::PeerClosed | NetError::Reset | NetError::Truncated { .. }) => {
            stats.count(Event::PeerClosed, obs);
            t.shutdown();
            return;
        }
        Err(_) => {
            stats.count(Event::FrameError, obs);
            t.shutdown();
            return;
        }
    };

    loop {
        let frame = match read_frame(&mut *t, cfg.max_frame) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean close at a frame boundary
            Err(NetError::Timeout) => {
                // Slow-client eviction: stalled mid-request past the
                // read deadline.
                stats.count(Event::Eviction, obs);
                break;
            }
            Err(NetError::PeerClosed | NetError::Reset | NetError::Truncated { .. }) => {
                stats.count(Event::PeerClosed, obs);
                break;
            }
            Err(_) => {
                // Hostile header (oversized length, bad CRC, bad magic):
                // rejected typed before any allocation; drop the link.
                stats.count(Event::FrameError, obs);
                break;
            }
        };
        if let Some(o) = obs {
            o.frames_in.inc();
        }
        if frame.kind != FrameKind::Request && frame.kind != FrameKind::Stats {
            stats.count(Event::FrameError, obs);
            break;
        }
        let (id, body) = match decode_request(&frame.payload) {
            Ok(x) => x,
            Err(_) => {
                stats.count(Event::FrameError, obs);
                break;
            }
        };

        // A Stats request is answered before the draining check and
        // outside the admission gate: observability must keep working
        // exactly when the server is overloaded, faulting, or drained.
        if frame.kind == FrameKind::Stats {
            let (status, reply) = match obs {
                Some(o) => {
                    o.stats_served.inc();
                    (STATUS_OK, o.registry.snapshot().render_json().into_bytes())
                }
                None => (STATUS_ERROR, b"no metrics registry attached".to_vec()),
            };
            if !send_reply(&mut *t, stats, obs, id, status, &reply) {
                break;
            }
            continue;
        }

        let (status, reply) = if draining.load(Ordering::Acquire) {
            stats.count(Event::DrainReject, obs);
            (STATUS_DRAINING, b"server draining".to_vec())
        } else {
            match gate.try_admit(tenant) {
                Err(over) => {
                    stats.count(Event::Overload, obs);
                    (
                        STATUS_OVERLOAD,
                        format!("{} in flight", over.in_flight).into_bytes(),
                    )
                }
                Ok(_permit) => match svc.call(tenant, body) {
                    Ok(bytes) => {
                        stats.count(Event::Served, obs);
                        (STATUS_OK, bytes)
                    }
                    Err(msg) => {
                        stats.count(Event::ServiceError, obs);
                        (STATUS_ERROR, msg.into_bytes())
                    }
                },
            }
        };

        if !send_reply(&mut *t, stats, obs, id, status, &reply) {
            break;
        }
        if status == STATUS_DRAINING {
            break; // drained response flushed; close the connection
        }
    }
    t.shutdown();
}

/// Write one response frame, counting every failure mode. Returns
/// `false` when the connection is done for.
fn send_reply(
    t: &mut dyn Transport,
    stats: &ServerStats,
    obs: Option<&ServerObs>,
    id: u64,
    status: u8,
    reply: &[u8],
) -> bool {
    match write_frame(t, FrameKind::Response, &encode_response(id, status, reply)) {
        Ok(()) => {
            if let Some(o) = obs {
                o.frames_out.inc();
            }
            true
        }
        Err(NetError::PeerClosed | NetError::Reset) => {
            // The client died mid-response: typed, counted, never a
            // panic (SIGPIPE is ignored; EPIPE maps to PeerClosed).
            stats.count(Event::PeerClosed, obs);
            false
        }
        Err(NetError::Timeout) => {
            stats.count(Event::Eviction, obs);
            false
        }
        Err(_) => {
            stats.count(Event::FrameError, obs);
            false
        }
    }
}

/// Track a new connection thread, first joining the ones that have
/// finished, so a reconnect storm cannot grow the list without bound.
fn push_reaped(conns: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut conns = conns
        .lock()
        .expect("a thread panicked while tracking connections");
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    conns.push(handle);
}

// ---------------------------------------------------------- TCP server

/// A threaded TCP front end: accept loop + one thread per connection.
pub struct NetServer {
    addr: SocketAddr,
    stopped: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind and start accepting. `addr` is typically `"127.0.0.1:0"`;
    /// read the bound port back with [`NetServer::local_addr`].
    pub fn bind(
        addr: &str,
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
    ) -> Result<NetServer, NetError> {
        NetServer::bind_obs(addr, svc, cfg, None)
    }

    /// [`NetServer::bind`] with a metrics registry: every connection
    /// mirrors its accounting into `net.*` counters and answers
    /// [`FrameKind::Stats`] requests with a registry snapshot.
    pub fn bind_obs(
        addr: &str,
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
        registry: Option<&Arc<Registry>>,
    ) -> Result<NetServer, NetError> {
        let listener = TcpListener::bind(addr).map_err(NetError::from_io)?;
        let addr = listener.local_addr().map_err(NetError::from_io)?;
        let stopped = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let gate = Arc::new(AdmissionGate::new(cfg.queue_depth));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let obs: Option<Arc<ServerObs>> = registry.map(ServerObs::new);

        let accept = {
            let (stopped, draining, stats, conns) = (
                stopped.clone(),
                draining.clone(),
                stats.clone(),
                conns.clone(),
            );
            std::thread::Builder::new()
                .name("xpl-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stopped.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        stats.count(Event::Connection, obs.as_deref());
                        let (svc, gate, draining, stats, obs) = (
                            svc.clone(),
                            gate.clone(),
                            draining.clone(),
                            stats.clone(),
                            obs.clone(),
                        );
                        let handle = std::thread::Builder::new()
                            .name("xpl-net-conn".into())
                            .spawn(move || {
                                serve_connection(
                                    Box::new(TcpTransport::new(stream)),
                                    &*svc,
                                    &gate,
                                    &cfg,
                                    &draining,
                                    &stats,
                                    obs.as_deref(),
                                );
                            })
                            .expect("spawn connection thread");
                        push_reaped(&conns, handle);
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(NetServer {
            addr,
            stopped,
            draining,
            stats,
            accept: Some(accept),
            conns,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// (new reads are answered `Draining` and closed), join every
    /// connection thread, and return the final accounting.
    pub fn drain(mut self) -> ServerStatsSnapshot {
        self.draining.store(true, Ordering::Release);
        self.stopped.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Undrained drop: stop the accept loop but don't block in drop.
        self.stopped.store(true, Ordering::Release);
        self.draining.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

// ------------------------------------------------------------- MemHost

/// An in-memory "listener": every [`MemHost::connect`] spawns a server
/// thread on one end of a fresh pipe and hands back the client end,
/// optionally wrapping **both** ends in seeded fault transports (the
/// per-256 rates from [`FaultConfig`]). Deterministic per connection;
/// the robustness harness and tests drive this instead of real sockets.
pub struct MemHost {
    svc: Arc<dyn WireService>,
    cfg: WireConfig,
    gate: Arc<AdmissionGate>,
    draining: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    faults: FaultConfig,
    fault_stats: Arc<FaultStats>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    obs: Option<Arc<ServerObs>>,
}

impl MemHost {
    pub fn new(svc: Arc<dyn WireService>, cfg: WireConfig, faults: FaultConfig) -> MemHost {
        MemHost::new_obs(svc, cfg, faults, None)
    }

    /// [`MemHost::new`] with a metrics registry: connections mirror
    /// their accounting into `net.*` counters and answer
    /// [`FrameKind::Stats`] requests with a registry snapshot.
    pub fn new_obs(
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
        faults: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> MemHost {
        MemHost {
            svc,
            gate: Arc::new(AdmissionGate::new(cfg.queue_depth)),
            cfg,
            draining: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(ServerStats::default()),
            faults,
            fault_stats: Arc::new(FaultStats::default()),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            obs: registry.map(ServerObs::new),
        }
    }

    /// Open a connection; returns the client-end transport.
    pub fn connect(&self) -> Box<dyn Transport> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (client_end, server_end) = mem_pair();
        let server_t: Box<dyn Transport> = if self.faults.is_none() {
            Box::new(server_end)
        } else {
            Box::new(FaultTransport::new(
                Box::new(server_end),
                self.faults,
                &format!("srv-{id}"),
                self.fault_stats.clone(),
            ))
        };
        let client_t: Box<dyn Transport> = if self.faults.is_none() {
            Box::new(client_end)
        } else {
            Box::new(FaultTransport::new(
                Box::new(client_end),
                self.faults,
                &format!("cli-{id}"),
                self.fault_stats.clone(),
            ))
        };
        self.stats.count(Event::Connection, self.obs.as_deref());
        let (svc, gate, cfg, draining, stats, obs) = (
            self.svc.clone(),
            self.gate.clone(),
            self.cfg,
            self.draining.clone(),
            self.stats.clone(),
            self.obs.clone(),
        );
        let handle = std::thread::Builder::new()
            .name(format!("xpl-net-mem-{id}"))
            .spawn(move || {
                serve_connection(
                    server_t,
                    &*svc,
                    &gate,
                    &cfg,
                    &draining,
                    &stats,
                    obs.as_deref(),
                )
            })
            .expect("spawn mem connection thread");
        push_reaped(&self.conns, handle);
        client_t
    }

    /// Flip the draining flag without joining: connections answer their
    /// next request with `Draining` and close. Call [`MemHost::drain`]
    /// afterwards to join; split so a test can observe the fail-fast
    /// client behavior before connection threads are reaped.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Graceful drain, same semantics as [`NetServer::drain`].
    pub fn drain(&self) -> ServerStatsSnapshot {
        self.draining.store(true, Ordering::Release);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.stats.snapshot()
    }

    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Currently admitted in-flight requests for `tenant` (test
    /// introspection into the admission gate).
    pub fn gate_in_flight(&self, tenant: u32) -> usize {
        self.gate.in_flight(tenant)
    }

    /// Injected-fault counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let svc: Arc<dyn WireService> =
            Arc::new(|_t: u32, req: &[u8]| -> Result<Vec<u8>, String> { Ok(req.to_vec()) });
        let host = MemHost::new(svc, WireConfig::default(), FaultConfig::none(0));
        for _ in 0..64 {
            drop(host.connect());
            // Wait for this connection's server thread to see the hangup,
            // so the next connect finds it finished.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !host.conns.lock().unwrap().iter().all(|h| h.is_finished()) {
                assert!(Instant::now() < deadline, "connection thread never exited");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(host.conns.lock().unwrap().len() <= 1);
        }
        assert_eq!(host.drain().connections, 64);
    }
}
