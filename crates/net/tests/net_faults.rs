//! Robustness integration tests: vanished clients, slow-client
//! eviction, hostile frames over real sockets, typed overload with
//! retry convergence, graceful drain fail-fast, bounded backoff, and a
//! deterministic fault storm that must converge with nothing lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xpl_net::frame::{
    decode_response, encode_request, read_frame, write_frame, FrameKind, STATUS_OK, STATUS_OVERLOAD,
};
use xpl_net::{
    BackoffPolicy, FaultConfig, MemHost, NetClient, NetError, NetServer, TcpTransport, Transport,
    WireConfig, WireService, DEFAULT_MAX_FRAME,
};

/// An idempotent echo service: deterministic body per request, so every
/// retry converges on the same answer and the oracle can check nothing
/// was silently lost or corrupted.
fn echo_service() -> Arc<dyn WireService> {
    Arc::new(|tenant: u32, req: &[u8]| -> Result<Vec<u8>, String> {
        let mut out = format!("t{tenant}:").into_bytes();
        out.extend_from_slice(req);
        out.reverse();
        Ok(out)
    })
}

fn expected_echo(tenant: u32, req: &[u8]) -> Vec<u8> {
    let mut out = format!("t{tenant}:").into_bytes();
    out.extend_from_slice(req);
    out.reverse();
    out
}

fn hello(t: &mut dyn Transport, tenant: u32) {
    write_frame(t, FrameKind::Hello, &tenant.to_le_bytes()).unwrap();
}

// ------------------------------------------------- vanished clients (TCP)

#[test]
fn kill_client_mid_response_is_typed_peer_closed_not_a_panic() {
    // The satellite-1 pin: a client that sends a request and dies
    // before reading the response. The service's reply is large enough
    // to overrun the socket buffers, so the server's write hits the
    // dead peer (EPIPE/ECONNRESET) — which must surface as a counted
    // `peer_closed`, never a SIGPIPE death or a panic.
    let big = Arc::new(vec![0x5au8; 512 * 1024]);
    let svc: Arc<dyn WireService> = {
        let big = big.clone();
        Arc::new(move |_t: u32, _req: &[u8]| -> Result<Vec<u8>, String> {
            // Give the client time to be fully gone before we write.
            std::thread::sleep(Duration::from_millis(100));
            Ok(big.as_ref().clone())
        })
    };
    let server = NetServer::bind("127.0.0.1:0", svc, WireConfig::default()).unwrap();
    let addr = server.local_addr();

    {
        let mut t = TcpTransport::connect(&addr).unwrap();
        hello(&mut t, 0);
        write_frame(&mut t, FrameKind::Request, &encode_request(0, b"then-die")).unwrap();
        t.shutdown();
    } // dropped: the peer is gone before the response is written

    // Wait for the connection thread to hit the dead socket.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().peer_closed == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.drain();
    assert_eq!(stats.peer_closed, 1, "{stats:?}");
    assert_eq!(
        stats.served, 1,
        "service ran before the write failed: {stats:?}"
    );
}

#[test]
fn slow_client_is_evicted_on_read_deadline() {
    let cfg = WireConfig {
        read_deadline: Duration::from_millis(60),
        ..WireConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", echo_service(), cfg).unwrap();
    let addr = server.local_addr();

    let mut t = TcpTransport::connect(&addr).unwrap();
    hello(&mut t, 0);
    // Stall mid-frame: a few header bytes, then silence past the
    // deadline. The server must evict (typed, counted), not wait.
    t.send(b"XPLN\x02").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().evictions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.drain();
    assert_eq!(stats.evictions, 1, "{stats:?}");
    assert_eq!(stats.served, 0);
}

#[test]
fn hostile_header_over_tcp_is_a_typed_frame_error() {
    let server = NetServer::bind("127.0.0.1:0", echo_service(), WireConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut t = TcpTransport::connect(&addr).unwrap();
    hello(&mut t, 0);
    // A forged header claiming 3 GiB with a valid header CRC.
    let mut bytes = xpl_net::frame::encode(FrameKind::Request, b"x");
    bytes[5..9].copy_from_slice(&(3u32 << 30).to_le_bytes());
    let hcrc = xpl_util::Crc32::checksum(&bytes[..9]);
    bytes[9..13].copy_from_slice(&hcrc.to_le_bytes());
    t.send(&bytes).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().frame_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.drain();
    assert_eq!(stats.frame_errors, 1, "{stats:?}");
    // The server closed the link; our next read sees EOF or reset.
    let mut buf = [0u8; 16];
    loop {
        match t.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

// --------------------------------------------------- overload and retry

#[test]
fn overload_is_a_typed_wire_response_not_a_dropped_connection() {
    // queue_depth 1, a service that parks until released: the second
    // concurrent request for the tenant must get STATUS_OVERLOAD on a
    // healthy connection.
    let gate_open = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
    let svc: Arc<dyn WireService> = {
        let gate_open = gate_open.clone();
        Arc::new(move |_t: u32, req: &[u8]| -> Result<Vec<u8>, String> {
            if req == b"park" {
                let (lock, cond) = &*gate_open;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
            }
            Ok(req.to_vec())
        })
    };
    let cfg = WireConfig {
        queue_depth: 1,
        ..WireConfig::default()
    };
    let host = Arc::new(MemHost::new(svc, cfg, FaultConfig::none(0)));

    // Connection A parks inside the service, holding the tenant's slot.
    let mut a = host.connect();
    hello(&mut *a, 7);
    write_frame(&mut *a, FrameKind::Request, &encode_request(0, b"park")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.gate_in_flight(7) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(host.gate_in_flight(7), 1, "parked request never admitted");

    // Connection B, same tenant: typed overload, connection stays up.
    let mut b = host.connect();
    hello(&mut *b, 7);
    write_frame(&mut *b, FrameKind::Request, &encode_request(0, b"quick")).unwrap();
    let f = read_frame(&mut *b, DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("response, not a hangup");
    let (_, status, _) = decode_response(&f.payload).unwrap();
    assert_eq!(status, STATUS_OVERLOAD);

    // Admission isolation: while tenant 7 sits at its bound and is
    // refused, every request from tenant 8 is served.
    let mut c = host.connect();
    hello(&mut *c, 8);
    for i in 0..16u64 {
        let body = format!("light-{i}");
        write_frame(
            &mut *c,
            FrameKind::Request,
            &encode_request(i, body.as_bytes()),
        )
        .unwrap();
        let f = read_frame(&mut *c, DEFAULT_MAX_FRAME)
            .unwrap()
            .expect("light tenant response");
        let (id, status, reply) = decode_response(&f.payload).unwrap();
        assert_eq!((id, status, reply), (i, STATUS_OK, body.as_bytes()));
    }
    assert_eq!(host.gate_in_flight(7), 1, "tenant 7 still holds its slot");

    // Release A; B's retry on the SAME connection now succeeds.
    {
        let (lock, cond) = &*gate_open;
        *lock.lock().unwrap() = true;
        cond.notify_all();
    }
    let fa = read_frame(&mut *a, DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("parked response");
    let (_, status, body) = decode_response(&fa.payload).unwrap();
    assert_eq!((status, body), (STATUS_OK, &b"park"[..]));

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut retried = None;
    while Instant::now() < deadline {
        write_frame(&mut *b, FrameKind::Request, &encode_request(1, b"quick")).unwrap();
        let f = read_frame(&mut *b, DEFAULT_MAX_FRAME)
            .unwrap()
            .expect("retry response");
        let (_, status, body) = decode_response(&f.payload).unwrap();
        if status == STATUS_OK {
            retried = Some(body.to_vec());
            break;
        }
        assert_eq!(status, STATUS_OVERLOAD);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(retried.as_deref(), Some(&b"quick"[..]));
    drop((a, b, c));
    let stats = host.drain();
    assert!(stats.overloads >= 1, "{stats:?}");
    assert!(stats.served >= 18, "{stats:?}");
}

#[test]
fn client_retries_overload_with_backoff_until_capacity_frees() {
    // One tenant, queue_depth 1, a slow request hogging the slot: a
    // NetClient issuing a second request must see typed overloads and
    // converge once the slot frees — without ever reconnecting.
    let svc: Arc<dyn WireService> = Arc::new(|_t: u32, req: &[u8]| -> Result<Vec<u8>, String> {
        if req == b"slow" {
            std::thread::sleep(Duration::from_millis(250));
        }
        Ok(req.to_vec())
    });
    let cfg = WireConfig {
        queue_depth: 1,
        ..WireConfig::default()
    };
    let host = Arc::new(MemHost::new(svc, cfg, FaultConfig::none(0)));

    let slow_host = host.clone();
    let slow = std::thread::spawn(move || {
        let mut t = slow_host.connect();
        hello(&mut *t, 3);
        write_frame(&mut *t, FrameKind::Request, &encode_request(0, b"slow")).unwrap();
        let f = read_frame(&mut *t, DEFAULT_MAX_FRAME).unwrap().unwrap();
        let (_, status, _) = decode_response(&f.payload).unwrap();
        assert_eq!(status, STATUS_OK);
    });
    // Let the slow request claim the slot first.
    std::thread::sleep(Duration::from_millis(50));

    let conn_host = host.clone();
    let backoff = BackoffPolicy {
        base_ns: 2_000_000,
        max_ns: 50_000_000,
        max_attempts: 24,
    };
    let mut client = NetClient::new(
        3,
        cfg,
        backoff,
        11,
        Box::new(move || Ok(conn_host.connect())),
    );
    let reply = client.call(b"quick").expect("converges after overloads");
    assert_eq!(reply, b"quick");
    assert!(client.stats.overloads_seen >= 1, "{:?}", client.stats);
    assert_eq!(
        client.stats.reconnects, 0,
        "overload must not tear the connection"
    );
    assert!(client.stats.retries >= client.stats.overloads_seen);
    slow.join().unwrap();
    client.close();
    host.drain();
}

#[test]
fn retry_budget_is_bounded_and_delays_are_monotone() {
    // A connector that never succeeds: the client must give up after
    // exactly max_attempts with a typed Exhausted — not hang, not spin.
    let dials = Arc::new(AtomicU64::new(0));
    let d = dials.clone();
    let backoff = BackoffPolicy {
        base_ns: 50_000,
        max_ns: 400_000,
        max_attempts: 5,
    };
    let mut client = NetClient::new(
        0,
        WireConfig::default(),
        backoff,
        42,
        Box::new(move || {
            d.fetch_add(1, Ordering::Relaxed);
            Err(NetError::Reset)
        }),
    );
    let err = client.call(b"unreachable").unwrap_err();
    assert_eq!(err, NetError::Exhausted { attempts: 5 });
    assert_eq!(dials.load(Ordering::Relaxed), 5);
    assert_eq!(client.stats.retries, 4);

    // The schedule itself: deterministic, within jitter bounds, and
    // monotone non-decreasing below the cap.
    let sched = backoff.schedule(42);
    assert_eq!(sched, backoff.schedule(42));
    for (n, &delay) in sched.iter().enumerate() {
        let floor = backoff.floor_ns(n as u32);
        assert!(
            delay >= floor && delay <= floor + floor / 2,
            "attempt {n}: {delay}"
        );
    }
    assert!(sched.windows(2).all(|w| w[0] <= w[1]), "{sched:?}");
}

// ------------------------------------------------------- graceful drain

#[test]
fn drained_server_fails_clients_fast_with_rejected_not_a_hang() {
    let host = Arc::new(MemHost::new(
        echo_service(),
        WireConfig::default(),
        FaultConfig::none(0),
    ));

    // A request served before the drain goes through normally.
    let pre_host = host.clone();
    let mut client = NetClient::new(
        1,
        WireConfig::default(),
        BackoffPolicy::default(),
        5,
        Box::new(move || Ok(pre_host.connect())),
    );
    assert_eq!(client.call(b"before").unwrap(), expected_echo(1, b"before"));

    host.begin_drain();

    // After the drain flag: fail fast with typed Rejected — bounded
    // time, no retry storm against a server that told us to go away.
    let start = Instant::now();
    let err = client.call(b"after").unwrap_err();
    assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "fail-fast took {:?}",
        start.elapsed()
    );
    assert_eq!(client.stats.rejected, 1);
    assert_eq!(client.stats.retries, 0, "Draining must not be retried");

    client.close();
    let stats = host.drain();
    assert_eq!(stats.drain_rejects, 1, "{stats:?}");
    assert_eq!(stats.served, 1, "{stats:?}");
}

#[test]
fn tcp_drain_finishes_in_flight_and_stops_accepting() {
    let server = NetServer::bind("127.0.0.1:0", echo_service(), WireConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::tcp(addr, 2, WireConfig::default(), BackoffPolicy::default(), 9);
    assert_eq!(
        client.call(b"in-flight").unwrap(),
        expected_echo(2, b"in-flight")
    );
    client.close();

    let stats = server.drain();
    assert_eq!(stats.served, 1, "{stats:?}");
    // The listener is gone: a fresh dial must not reach a server.
    // (The wake-up connection during drain may linger in the backlog,
    // so assert on the served count staying put rather than connect
    // failing on every OS.)
    let mut late = NetClient::tcp(
        addr,
        2,
        WireConfig {
            read_deadline: Duration::from_millis(100),
            ..WireConfig::default()
        },
        BackoffPolicy {
            base_ns: 1_000_000,
            max_ns: 2_000_000,
            max_attempts: 3,
        },
        10,
    );
    assert!(late.call(b"too-late").is_err());
}

// ----------------------------------------------------------- fault storm

#[test]
fn fault_storm_converges_with_nothing_lost() {
    // Seeded storm: resets, torn writes, byte-level short reads, and
    // micro-delays on BOTH ends of every connection. Four tenants, 40
    // calls each, every reply checked against the idempotent echo
    // oracle. Zero losses, zero corruption, bounded retries — and the
    // storm must actually have fired.
    let cfg = WireConfig {
        queue_depth: 2,
        read_deadline: Duration::from_secs(2),
        write_deadline: Duration::from_secs(2),
        ..WireConfig::default()
    };
    let host = Arc::new(MemHost::new(
        echo_service(),
        cfg,
        FaultConfig::storm(0xF00D, 24),
    ));

    let mut handles = Vec::new();
    for tenant in 0..4u32 {
        let host = host.clone();
        handles.push(std::thread::spawn(move || {
            let conn_host = host.clone();
            let mut client = NetClient::new(
                tenant,
                cfg,
                BackoffPolicy {
                    base_ns: 200_000,
                    max_ns: 20_000_000,
                    max_attempts: 24,
                },
                0xBEEF ^ tenant as u64,
                Box::new(move || Ok(conn_host.connect())),
            );
            for i in 0..40u32 {
                let body = format!("tenant-{tenant}-req-{i}").into_bytes();
                let reply = client
                    .call(&body)
                    .unwrap_or_else(|e| panic!("t{tenant} req {i} lost to the storm: {e}"));
                assert_eq!(
                    reply,
                    expected_echo(tenant, &body),
                    "t{tenant} req {i} corrupted"
                );
            }
            client.stats
        }));
    }
    let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let served: u64 = stats.iter().map(|s| s.served).sum();
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    assert_eq!(served, 160, "{stats:?}");

    let faults = host.fault_stats();
    let injected = faults.resets.load(Ordering::Relaxed)
        + faults.torn_writes.load(Ordering::Relaxed)
        + faults.short_reads.load(Ordering::Relaxed);
    assert!(injected > 0, "the storm never fired");
    assert!(
        retries > 0,
        "a storm this dense must force at least one retry"
    );
    host.drain();
}

#[test]
fn depth_two_gate_overloads_under_the_ci_storm_rate() {
    // The overload the CI storm run sees only a handful of times, made
    // certain: at 48/256, two tenant-0 calls park in the service and hold
    // both admission slots, so a third tenant-0 call must be refused with
    // a typed overload. Then the latch opens and every call, retried
    // through the storm, returns its echo.
    let latch = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
    let svc: Arc<dyn WireService> = {
        let latch = latch.clone();
        Arc::new(move |tenant: u32, req: &[u8]| -> Result<Vec<u8>, String> {
            if req.starts_with(b"hold") {
                let (lock, cond) = &*latch;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
            }
            Ok(expected_echo(tenant, req))
        })
    };
    let cfg = WireConfig {
        queue_depth: 2,
        read_deadline: Duration::from_secs(10),
        write_deadline: Duration::from_secs(10),
        ..WireConfig::default()
    };
    let host = Arc::new(MemHost::new(svc, cfg, FaultConfig::storm(0x5707, 48)));
    let call = |body: &'static [u8], seed: u64| {
        let conn_host = host.clone();
        std::thread::spawn(move || {
            let mut client = NetClient::new(
                0,
                cfg,
                BackoffPolicy {
                    base_ns: 200_000,
                    max_ns: 20_000_000,
                    max_attempts: 400,
                },
                seed,
                Box::new(move || Ok(conn_host.connect())),
            );
            let reply = client.call(body);
            client.close();
            (body, reply)
        })
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let mut calls = vec![call(b"hold-1", 1), call(b"hold-2", 2)];
    wait_for("both slots held", &|| host.gate_in_flight(0) == 2);
    calls.push(call(b"third", 3));
    wait_for("an overload", &|| host.stats().overloads >= 1);
    {
        let (lock, cond) = &*latch;
        *lock.lock().unwrap() = true;
        cond.notify_all();
    }
    for h in calls {
        let (body, reply) = h.join().unwrap();
        assert_eq!(
            reply.as_deref().ok(),
            Some(expected_echo(0, body).as_slice()),
            "{reply:?}"
        );
    }
    assert!(host.drain().overloads >= 1);
}

// ---------------------------------------------------------- stats frames

#[test]
fn stats_frame_roundtrips_and_survives_drain() {
    let registry = xpl_obs::Registry::new();
    let host = Arc::new(MemHost::new_obs(
        echo_service(),
        WireConfig::default(),
        FaultConfig::none(0),
        Some(&registry),
    ));

    let conn_host = host.clone();
    let mut client = NetClient::new(
        3,
        WireConfig::default(),
        BackoffPolicy::default(),
        41,
        Box::new(move || Ok(conn_host.connect())),
    );
    assert_eq!(client.call(b"warm").unwrap(), expected_echo(3, b"warm"));

    // A healthy-server snapshot: parseable, fingerprint-stable JSON.
    let snap = client.stats_snapshot().unwrap();
    let json = String::from_utf8(snap).unwrap();
    let fp = xpl_obs::parse_det_fingerprint(&json)
        .expect("snapshot carries a det fingerprint")
        .to_string();
    assert_eq!(fp.len(), 64, "sha-256 hex fingerprint: {fp}");
    assert!(json.contains("\"net.served\""), "{json}");

    host.begin_drain();

    // Ordinary calls now fail fast with Rejected...
    let err = client.call(b"after").unwrap_err();
    assert!(matches!(err, NetError::Rejected(_)), "{err:?}");

    // ...but Stats is answered before the draining check: observability
    // keeps working on the very server that is going away.
    let snap2 = client.stats_snapshot().unwrap();
    let json2 = String::from_utf8(snap2).unwrap();
    let fp2 = xpl_obs::parse_det_fingerprint(&json2).unwrap().to_string();
    assert_eq!(fp2.len(), 64);

    client.close();
    host.drain();
}

#[test]
fn stats_without_registry_is_a_typed_service_error() {
    let host = Arc::new(MemHost::new(
        echo_service(),
        WireConfig::default(),
        FaultConfig::none(0),
    ));
    let conn_host = host.clone();
    let mut client = NetClient::new(
        1,
        WireConfig::default(),
        BackoffPolicy::default(),
        42,
        Box::new(move || Ok(conn_host.connect())),
    );
    let err = client.stats_snapshot().unwrap_err();
    assert!(matches!(err, NetError::Service(_)), "{err:?}");
    client.close();
    host.drain();
}
