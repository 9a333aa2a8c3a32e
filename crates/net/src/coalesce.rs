//! Request coalescing on the live serving path.
//!
//! When many VMs boot from one image at once, the server sees a burst
//! of identical retrievals. [`Coalescing`] wraps a [`WireService`] so
//! that the burst costs one store hit: the first caller for a request
//! (the *primary*) runs the inner service, and every identical request
//! that arrives while it runs (a *waiter*) parks on a condvar and gets
//! a clone of the primary's result.
//!
//! The wrapper sits behind admission: each waiter keeps holding its
//! tenant's admission slot while it waits, exactly as if it were being
//! served.

use crate::server::WireService;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use xpl_obs::{Counter, Registry, Section};

type Reply = Result<Vec<u8>, String>;

/// A [`WireService`] that shares one inner call among concurrent
/// identical requests.
///
/// **Contract:** the key is the request bytes alone, so the inner
/// service's reply must depend only on those bytes, never on the
/// tenant. A waiter from tenant B receives the reply computed for
/// tenant A's identical request.
///
/// Only requests in flight at the same moment share a call; nothing is
/// cached. If the primary panics, its waiters get an `Err` and the
/// next call for the same bytes runs the inner service again — a
/// waiter never hangs on a primary that is gone.
pub struct Coalescing<S> {
    inner: S,
    in_flight: Mutex<HashMap<Vec<u8>, Arc<Slot>>>,
    primaries: Arc<Counter>,
    waiters: Arc<Counter>,
}

/// Where a primary publishes its result for the waiters.
#[derive(Default)]
struct Slot {
    reply: Mutex<Option<Reply>>,
    done: Condvar,
}

/// The primary's drop guard: whether the inner call returns or
/// unwinds, it unlists the slot and wakes every waiter.
struct Primary<'a> {
    in_flight: &'a Mutex<HashMap<Vec<u8>, Arc<Slot>>>,
    key: &'a [u8],
    slot: Arc<Slot>,
    reply: Option<Reply>,
}

impl Drop for Primary<'_> {
    fn drop(&mut self) {
        lock(self.in_flight).remove(self.key);
        let reply = self
            .reply
            .take()
            .unwrap_or_else(|| Err("coalesced request failed: the primary call panicked".into()));
        *lock(&self.slot.reply) = Some(reply);
        self.slot.done.notify_all();
    }
}

/// Every lock here guards plain data that a panic cannot leave half
/// written, so a poisoned lock is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<S: WireService> Coalescing<S> {
    /// Wrap `inner`. With a registry, the counts are the Wall-section
    /// counters `net.coalesce.primaries` (inner calls) and
    /// `net.coalesce.waiters` (requests that shared one).
    pub fn new(inner: S, registry: Option<&Arc<Registry>>) -> Coalescing<S> {
        let counter = |name: &str| match registry {
            Some(reg) => reg.counter(name, Section::Wall),
            None => Arc::new(Counter::default()),
        };
        Coalescing {
            inner,
            in_flight: Mutex::new(HashMap::new()),
            primaries: counter("net.coalesce.primaries"),
            waiters: counter("net.coalesce.waiters"),
        }
    }

    /// Calls that ran the inner service.
    pub fn primaries(&self) -> u64 {
        self.primaries.get()
    }

    /// Calls that received a primary's result instead.
    pub fn waiters(&self) -> u64 {
        self.waiters.get()
    }
}

impl<S: WireService> WireService for Coalescing<S> {
    fn call(&self, tenant: u32, request: &[u8]) -> Result<Vec<u8>, String> {
        let (slot, is_primary) = {
            let mut in_flight = lock(&self.in_flight);
            match in_flight.get(request) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::default());
                    in_flight.insert(request.to_vec(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !is_primary {
            self.waiters.inc();
            let mut reply = lock(&slot.reply);
            loop {
                if let Some(reply) = reply.as_ref() {
                    return reply.clone();
                }
                reply = slot
                    .done
                    .wait(reply)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        self.primaries.inc();
        let mut primary = Primary {
            in_flight: &self.in_flight,
            key: request,
            slot,
            reply: None,
        };
        let reply = self.inner.call(tenant, request);
        primary.reply = Some(reply.clone());
        reply
    }
}
