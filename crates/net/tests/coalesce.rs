//! Live coalescing: identical requests that are in flight together
//! share one service call, over real connections, and a primary that
//! panics never strands its waiters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xpl_net::{
    BackoffPolicy, Coalescing, FaultConfig, MemHost, NetClient, WireConfig, WireService,
};

/// Counts the calls that enter it and parks each one until released.
struct Latch {
    calls: AtomicUsize,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    fn new() -> Arc<Latch> {
        Arc::new(Latch {
            calls: AtomicUsize::new(0),
            open: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    /// Count this call; returns its index once the latch is open.
    fn enter(&self) -> usize {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        n
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// Poll `cond` for up to 10 s. The callers open the latch whatever
/// this returns and assert afterwards, so a failure never leaves a
/// thread parked for the scope to wait on.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn a_hot_key_storm_costs_one_service_call() {
    const CLIENTS: usize = 8;
    let latch = Latch::new();
    let inner = {
        let latch = Arc::clone(&latch);
        move |_t: u32, request: &[u8]| -> Result<Vec<u8>, String> {
            latch.enter();
            Ok([b"served:", request].concat())
        }
    };
    let svc = Arc::new(Coalescing::new(inner, None));
    let host = Arc::new(MemHost::new(
        Arc::clone(&svc) as Arc<dyn WireService>,
        WireConfig::default(),
        FaultConfig::none(0),
    ));
    let backoff = BackoffPolicy {
        base_ns: 1_000_000,
        max_ns: 10_000_000,
        max_attempts: 4,
    };

    let (parked, replies) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS as u32)
            .map(|tenant| {
                let host = Arc::clone(&host);
                let mut client = NetClient::new(
                    tenant,
                    WireConfig::default(),
                    backoff,
                    u64::from(tenant),
                    Box::new(move || Ok(host.connect())),
                );
                s.spawn(move || {
                    let reply = client.call(b"retrieve hot").expect("hot key reply");
                    client.close();
                    reply
                })
            })
            .collect();
        // Every client but the primary parks on the primary's slot.
        let parked = eventually(|| svc.waiters() == CLIENTS as u64 - 1);
        latch.release();
        let replies: Vec<Vec<u8>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (parked, replies)
    });

    assert!(parked, "the waiters never parked");
    assert_eq!(latch.calls(), 1, "one store hit");
    assert_eq!((svc.primaries(), svc.waiters()), (1, CLIENTS as u64 - 1));
    assert_eq!(replies.len(), CLIENTS);
    assert!(replies.iter().all(|r| r == b"served:retrieve hot"));
    assert_eq!(host.drain().served, CLIENTS as u64);
}

#[test]
fn a_panicking_primary_releases_its_waiters() {
    const WAITERS: u64 = 3;
    // The first call parks until released, then panics; later calls
    // succeed.
    let latch = Latch::new();
    let inner = {
        let latch = Arc::clone(&latch);
        move |_t: u32, request: &[u8]| -> Result<Vec<u8>, String> {
            if latch.enter() == 0 {
                panic!("primary dies mid-call");
            }
            Ok(request.to_vec())
        }
    };
    let svc = &Coalescing::new(inner, None);
    std::thread::scope(|s| {
        let primary = s.spawn(|| svc.call(0, b"key"));
        let started = eventually(|| latch.calls() == 1);
        let waiters: Vec<_> = (1..=WAITERS as u32)
            .map(|t| s.spawn(move || svc.call(t, b"key")))
            .collect();
        let parked = eventually(|| svc.waiters() == WAITERS);
        latch.release();
        assert!(started && parked, "started {started}, parked {parked}");
        assert!(primary.join().is_err(), "the primary's panic propagates");
        for w in waiters {
            let reply = w.join().expect("a waiter never panics");
            assert!(reply.is_err(), "a waiter gets Err, got {reply:?}");
        }
    });

    // The slot is gone: the next call runs the service again.
    assert_eq!(svc.call(0, b"key"), Ok(b"key".to_vec()));
    assert_eq!(latch.calls(), 2);
    assert_eq!(svc.primaries(), 2);
}
