//! Live admission control for the threaded wire server.
//!
//! [`AdmissionGate`] bounds each tenant's *in-flight* requests: a
//! tenant may have at most `depth` requests in service at once, and an
//! arrival past the bound gets a typed [`Overloaded`] — the wire layer
//! turns that into an `Overload` response, never a dropped connection.
//! The bound is per tenant, so one tenant's flood can exhaust only its
//! own slots while every other tenant keeps being served.

use std::collections::HashMap;
use std::sync::Mutex;

/// Typed admission rejection: the tenant's in-flight bound is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    pub tenant: u32,
    /// In-flight requests observed at rejection (== the bound).
    pub in_flight: usize,
}

/// Per-tenant bounded in-flight admission. All methods are `&self`;
/// the gate is shared across connection threads.
pub struct AdmissionGate {
    depth: usize,
    in_flight: Mutex<HashMap<u32, usize>>,
}

impl AdmissionGate {
    /// A gate admitting at most `depth` concurrent requests per tenant.
    pub fn new(depth: usize) -> AdmissionGate {
        assert!(depth > 0, "admission gate needs a positive depth");
        AdmissionGate {
            depth,
            in_flight: Mutex::new(HashMap::new()),
        }
    }

    /// Try to admit one request for `tenant`. The returned permit
    /// releases the slot on drop.
    pub fn try_admit(&self, tenant: u32) -> Result<AdmissionPermit<'_>, Overloaded> {
        let mut map = self.in_flight.lock().unwrap();
        let slot = map.entry(tenant).or_insert(0);
        if *slot >= self.depth {
            return Err(Overloaded {
                tenant,
                in_flight: *slot,
            });
        }
        *slot += 1;
        Ok(AdmissionPermit { gate: self, tenant })
    }

    /// Currently admitted requests for `tenant`.
    pub fn in_flight(&self, tenant: u32) -> usize {
        *self.in_flight.lock().unwrap().get(&tenant).unwrap_or(&0)
    }

    fn release(&self, tenant: u32) {
        let mut map = self.in_flight.lock().unwrap();
        let slot = map.get_mut(&tenant).expect("release without admit");
        *slot = slot.checked_sub(1).expect("admission underflow");
    }
}

/// RAII admission slot; dropping it frees the tenant's slot.
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
    tenant: u32,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_enforced_and_released() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit(0).unwrap();
        let _b = gate.try_admit(0).unwrap();
        assert_eq!(
            gate.try_admit(0).err(),
            Some(Overloaded {
                tenant: 0,
                in_flight: 2
            })
        );
        assert_eq!(gate.in_flight(0), 2);
        drop(a);
        assert!(gate.try_admit(0).is_ok());
    }

    #[test]
    fn bound_is_per_tenant() {
        let gate = AdmissionGate::new(1);
        let _a = gate.try_admit(0).unwrap();
        assert!(gate.try_admit(0).is_err());
        // Another tenant's slots are untouched by tenant 0's flood.
        assert!(gate.try_admit(1).is_ok());
    }

    #[test]
    fn concurrent_admits_never_exceed_depth() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let gate = Arc::new(AdmissionGate::new(3));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (gate, peak, live) = (gate.clone(), peak.clone(), live.clone());
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Ok(_permit) = gate.try_admit(7) {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            live.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(gate.in_flight(7), 0);
    }
}
