//! The virtual clock.
//!
//! A single atomic nanosecond counter shared (via `Arc`) by every charged
//! component. Charges are `fetch_add`s, so parallel workers (rayon pools
//! hashing files, compressing clusters, …) can charge concurrently; the
//! final reading is the *sum of work*, which models the paper's mostly
//! I/O-bound, effectively serialized pipeline. Components that model
//! overlapped I/O (e.g. pipelined copy) charge `max(read, write)`
//! explicitly instead of both legs.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point in simulated time, in nanoseconds since the clock's origin.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SimInstant(pub u64);

impl SimInstant {
    pub(crate) fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of simulated time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub(crate) fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1e9).round().max(0.0) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs_f64();
        if s < 0.001 {
            write!(f, "{:.1} µs", s * 1e6)
        } else if s < 1.0 {
            write!(f, "{:.1} ms", s * 1e3)
        } else {
            write!(f, "{s:.2} s")
        }
    }
}

/// The shared virtual clock.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    pub fn new() -> Self {
        SimClock {
            nanos: AtomicU64::new(0),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.nanos.load(Ordering::Relaxed))
    }

    /// Advance the clock by a charge. Returns the new time.
    pub(crate) fn advance(&self, d: SimDuration) -> SimInstant {
        SimInstant(self.nanos.fetch_add(d.0, Ordering::Relaxed) + d.0)
    }

    /// Elapsed time since `start`.
    pub fn since(&self, start: SimInstant) -> SimDuration {
        self.now().duration_since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        let t0 = c.now();
        c.advance(SimDuration::from_millis(5));
        c.advance(SimDuration::from_micros(250));
        assert_eq!(c.since(t0).as_nanos(), 5_250_000);
    }

    #[test]
    fn concurrent_advances_sum() {
        use std::sync::Arc;
        let c = Arc::new(SimClock::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(SimDuration::from_nanos(3));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now().0, 8 * 1000 * 3);
    }

    #[test]
    fn duration_display() {
        assert_eq!(format!("{}", SimDuration::from_nanos(500)), "0.5 µs");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.0 ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(39.52)), "39.52 s");
    }

    #[test]
    fn from_secs_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn saturating_since() {
        let later = SimInstant(10);
        let earlier = SimInstant(50);
        assert_eq!(later.duration_since(earlier), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let parts = [SimDuration::from_millis(1), SimDuration::from_millis(2)];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total, SimDuration::from_millis(3));
    }
}
