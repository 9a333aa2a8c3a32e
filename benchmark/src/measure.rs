//! Small measurement helpers: latency samples, nearest-rank percentiles
//! with the "at least ten samples beyond" tail rule, run-to-run spread as
//! the driver computes it, and the process's peak resident set.

use std::time::Duration;

/// Samples beyond a reported tail percentile: with fewer, the "tail" is
/// one or two outliers and moves with them.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Latencies of one op kind, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ms.is_empty() {
            0.0
        } else {
            self.sum_ms() / self.ms.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile in ms (0 for an empty set).
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        percentile(&self.sorted(), pct)
    }

    /// The tail percentile in ms: `want_pct`, lowered to the highest
    /// percentile that still has [`TAIL_SAMPLES_BEYOND`] samples beyond
    /// it. Returns `(value, percentile actually used)`.
    pub fn tail_ms(&self, want_pct: f64) -> (f64, f64) {
        tail_percentile(&self.sorted(), want_pct)
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// See [`Samples::tail_ms`].
pub fn tail_percentile(sorted: &[f64], want_pct: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, want_pct);
    }
    let want_idx = ((want_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    // Index n-1-10 leaves exactly ten samples above it; a set too small
    // for any tail falls back to its median.
    let idx = match n.checked_sub(TAIL_SAMPLES_BEYOND + 1) {
        Some(highest) => want_idx.min(highest.max((n - 1) / 2)),
        None => (n - 1) / 2,
    };
    let used = if idx == want_idx {
        want_pct
    } else {
        (idx + 1) as f64 / n as f64 * 100.0
    };
    (sorted[idx], used)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's spread is
/// `(q3 - q1) / median`. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// `bytes` moved in `ms` milliseconds, as MiB/s (0 when no time passed).
pub fn mib_per_s(bytes: u64, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        bytes as f64 / MIB / (ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ms: &[f64]) -> Samples {
        Samples { ms: ms.to_vec() }
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 51.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        // Order of insertion does not matter.
        assert_eq!(samples(&[3.0, 1.0, 2.0]).percentile_ms(50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p90 of 200 leaves 20 beyond: granted as asked.
        assert_eq!(tail_percentile(&v, 90.0), (180.0, 90.0));
        // p99 of 200 would leave 2 beyond: lowered to leave ten.
        assert_eq!(tail_percentile(&v, 99.0), (190.0, 95.0));
        // Exactly enough: p90 of 100 leaves ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), (90.0, 90.0));
        // Too few for any tail: the median.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), (4.0, 50.0));
        // A tail never drops below the median.
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0).0, 7.0);
        assert_eq!(tail_percentile(&[], 90.0).0, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
