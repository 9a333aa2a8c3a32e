//! Labelled time segments.
//!
//! Figure 5a decomposes Expelliarmus retrieval into four named phases
//! (base-image copy, libguestfs handle creation, VMI reset, import).
//! [`Breakdown`] records such phases generically: callers bracket a phase
//! with [`Breakdown::measure`] and the enclosed clock advancement is
//! attributed to the label.

use std::sync::Arc;

use crate::clock::{SimClock, SimDuration};

/// An ordered list of `(label, duration)` segments.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    segments: Vec<(String, SimDuration)>,
}

impl Breakdown {
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Run `f`, attributing all simulated time it charges to `label`.
    /// Repeated labels accumulate into one segment.
    pub fn measure<T>(&mut self, clock: &Arc<SimClock>, label: &str, f: impl FnOnce() -> T) -> T {
        let t0 = clock.now();
        let out = f();
        self.record(label, clock.since(t0));
        out
    }

    /// Attribute an externally measured duration to `label`.
    pub fn record(&mut self, label: &str, d: SimDuration) {
        if let Some(seg) = self.segments.iter_mut().find(|(l, _)| l == label) {
            seg.1 += d;
        } else {
            self.segments.push((label.to_string(), d));
        }
    }

    pub fn get(&self, label: &str) -> SimDuration {
        self.segments
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::ZERO)
    }

    pub fn total(&self) -> SimDuration {
        self.segments.iter().map(|(_, d)| *d).sum()
    }

    pub fn segments(&self) -> &[(String, SimDuration)] {
        &self.segments
    }

    /// Merge another breakdown into this one (label-wise accumulation).
    pub fn absorb(&mut self, other: &Breakdown) {
        for (l, d) in &other.segments {
            self.record(l, *d);
        }
    }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (l, d) in &self.segments {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{l}={d}")?;
            first = false;
        }
        write!(f, " (total {})", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_attributes_clock_time() {
        let clock = Arc::new(SimClock::new());
        let mut b = Breakdown::new();
        b.measure(&clock, "copy", || {
            clock.advance(SimDuration::from_millis(7));
        });
        b.measure(&clock, "reset", || {
            clock.advance(SimDuration::from_millis(3));
        });
        assert_eq!(b.get("copy"), SimDuration::from_millis(7));
        assert_eq!(b.get("reset"), SimDuration::from_millis(3));
        assert_eq!(b.total(), SimDuration::from_millis(10));
    }

    #[test]
    fn repeated_labels_accumulate() {
        let clock = Arc::new(SimClock::new());
        let mut b = Breakdown::new();
        for _ in 0..3 {
            b.measure(&clock, "import", || {
                clock.advance(SimDuration::from_millis(2));
            });
        }
        assert_eq!(b.get("import"), SimDuration::from_millis(6));
        assert_eq!(b.segments().len(), 1);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Breakdown::new();
        a.record("x", SimDuration::from_millis(1));
        let mut b = Breakdown::new();
        b.record("x", SimDuration::from_millis(2));
        b.record("y", SimDuration::from_millis(5));
        a.absorb(&b);
        assert_eq!(a.get("x"), SimDuration::from_millis(3));
        assert_eq!(a.get("y"), SimDuration::from_millis(5));
    }

    #[test]
    fn missing_label_is_zero() {
        let b = Breakdown::new();
        assert_eq!(b.get("nope"), SimDuration::ZERO);
    }

    #[test]
    fn display_is_readable() {
        let mut b = Breakdown::new();
        b.record("copy", SimDuration::from_secs_f64(9.0));
        b.record("import", SimDuration::from_secs_f64(1.5));
        let s = format!("{b}");
        assert!(s.contains("copy=9.00 s"), "{s}");
        assert!(s.contains("total 10.50 s"), "{s}");
    }
}
