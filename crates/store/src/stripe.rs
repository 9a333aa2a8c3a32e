//! Striped per-image locks.
//!
//! Every store serializes operations on the *same* image name while
//! letting distinct images proceed in parallel. A [`NameLocks`] is a
//! fixed array of mutexes; an image name hashes to one stripe, so
//! same-name operations (publish vs. re-publish vs. delete) contend on
//! exactly one lock and different names almost always map to different
//! stripes. False sharing between two names on one stripe is safe — it
//! only serializes a little more than strictly necessary.
//!
//! Lock-order discipline: a stripe guard is always acquired *before* any
//! of the owning store's internal index locks and is never taken while
//! one is held, so stripes cannot participate in a cycle.

use std::sync::{Mutex, MutexGuard};

/// Number of stripes; a power of two so selection is a mask.
pub(crate) const STRIPE_COUNT: usize = 32;

/// Striped mutexes keyed by image name.
pub struct NameLocks {
    stripes: Vec<Mutex<()>>,
}

impl Default for NameLocks {
    fn default() -> Self {
        Self::new()
    }
}

impl NameLocks {
    pub fn new() -> Self {
        NameLocks {
            stripes: (0..STRIPE_COUNT).map(|_| Mutex::new(())).collect(),
        }
    }

    fn stripe_of(name: &str) -> usize {
        // FNV-1a over the name bytes; stable across runs (no RandomState).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h as usize) & (STRIPE_COUNT - 1)
    }

    /// Acquire the stripe guarding `name`. Poisoning is not recoverable
    /// here (a panicked publish leaves no protected invariant half
    /// written that the next op could repair), so propagate it.
    pub fn lock(&self, name: &str) -> MutexGuard<'_, ()> {
        self.stripes[Self::stripe_of(name)].lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stripe() {
        let locks = NameLocks::new();
        let g = locks.lock("image-a");
        // A different name on (almost certainly) a different stripe can
        // be acquired while the first guard is held.
        assert_ne!(
            NameLocks::stripe_of("image-a"),
            NameLocks::stripe_of("image-b"),
            "test names should hash apart"
        );
        let _g2 = locks.lock("image-b");
        drop(g);
    }

    #[test]
    fn stripe_selection_is_stable() {
        for name in ["x", "img-001", "a/very/long/image/name"] {
            assert_eq!(NameLocks::stripe_of(name), NameLocks::stripe_of(name));
        }
    }

    #[test]
    fn serializes_same_name_across_threads() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let locks = NameLocks::new();
        let inside = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _g = locks.lock("contended");
                        let now = inside.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(now, 0, "two holders inside the same stripe");
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }
}
