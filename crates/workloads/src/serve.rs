//! Deterministic multi-tenant serving schedules.
//!
//! A [`ServeSchedule`] is the load half of the registry harness:
//! thousands of simulated clients issuing retrieve-heavy traffic with
//! Zipf-skewed image popularity (a few images are hot, most are cold —
//! the access pattern every registry trace study reports) and skewed
//! tenant demand (tenant 0 is the heavy hitter). Everything derives
//! from one seed through SplitMix64, and arrivals use only integer
//! arithmetic and exactly-rounded f64 ops (`+ - * /`), so the same
//! config produces a byte-identical schedule on any host — the same
//! contract [`crate::Trace`] honors, with the same render/digest
//! fingerprint pattern.
//!
//! The schedule is plain data (names and byte ranges, no store or
//! registry types); `xpl-bench`'s serve driver turns it into registry
//! requests against a real store.

use xpl_util::SplitMix64;

/// Serving-schedule generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub seed: u64,
    /// Simulated tenants; tenant 0 gets the most traffic.
    pub tenants: u32,
    /// Total requests across all tenants.
    pub requests: usize,
    /// Integer Zipf exponent for image popularity (1 = classic 1/rank;
    /// larger is hotter). Integer so weights need only exact f64
    /// division, never `powf`.
    pub zipf_exponent: u32,
    /// Per-256 chance a retrieval is a byte-range read instead of a
    /// full image (the trace convention: frac-of-disk addressing).
    pub range_per_256: u32,
    /// Mean virtual inter-arrival gap; actual gaps are uniform in
    /// `[mean/2, 3·mean/2)`.
    pub mean_interarrival_ns: u64,
}

impl ServeConfig {
    /// Retrieve-heavy defaults at a given seed: 8 tenants, 2000
    /// requests, classic Zipf, ~12% range reads, 400 µs mean gap.
    pub fn new(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            tenants: 8,
            requests: 2000,
            zipf_exponent: 1,
            range_per_256: 32,
            mean_interarrival_ns: 400_000,
        }
    }
}

/// One scheduled client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRequestSpec {
    pub tenant: u32,
    /// Virtual arrival time; the schedule is sorted by this field.
    pub arrival_ns: u64,
    pub image: String,
    /// `Some((start_frac, len_bytes))` for a range read, `start_frac`
    /// in 256ths of the disk size.
    pub range: Option<(u32, u32)>,
}

impl ServeRequestSpec {
    /// Canonical one-line form.
    pub fn render(&self) -> String {
        match self.range {
            None => format!(
                "t={} tenant={} retrieve {}",
                self.arrival_ns, self.tenant, self.image
            ),
            Some((frac, len)) => format!(
                "t={} tenant={} range {} frac={frac} len={len}",
                self.arrival_ns, self.tenant, self.image
            ),
        }
    }
}

/// A generated serving schedule: requests sorted by arrival time.
#[derive(Clone, Debug)]
pub struct ServeSchedule {
    pub seed: u64,
    pub requests: Vec<ServeRequestSpec>,
}

/// Cumulative Zipf weights over `n` ranks: `w(rank) = rank^-exponent`
/// computed by repeated exact division.
fn zipf_cumulative(n: usize, exponent: u32) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 1..=n {
        let mut w = 1.0f64;
        for _ in 0..exponent {
            w /= rank as f64;
        }
        total += w;
        cum.push(total);
    }
    cum
}

/// Draw a rank from cumulative weights.
fn zipf_sample(cum: &[f64], rng: &mut SplitMix64) -> usize {
    let u = rng.next_f64() * cum[cum.len() - 1];
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

impl ServeSchedule {
    /// Generate a schedule over `images`. Popularity rank is a seeded
    /// permutation of the catalog (so the hot set is not just the first
    /// catalog entries), tenants draw Zipf-skewed demand, and arrivals
    /// accumulate uniform gaps around the configured mean.
    pub fn generate(images: &[String], cfg: &ServeConfig) -> ServeSchedule {
        assert!(
            !images.is_empty(),
            "serve schedule needs at least one image"
        );
        assert!(cfg.tenants > 0, "serve schedule needs at least one tenant");
        let mut rng = SplitMix64::new(cfg.seed).derive("serve-schedule");

        // Fisher–Yates: popularity rank -> catalog image.
        let mut by_rank: Vec<&String> = images.iter().collect();
        for i in (1..by_rank.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            by_rank.swap(i, j);
        }
        let image_cum = zipf_cumulative(by_rank.len(), cfg.zipf_exponent);
        let tenant_cum = zipf_cumulative(cfg.tenants as usize, 1);

        let mut arrival = 0u64;
        let mut requests = Vec::with_capacity(cfg.requests);
        for _ in 0..cfg.requests {
            let gap_lo = cfg.mean_interarrival_ns / 2;
            arrival += gap_lo + rng.next_below(cfg.mean_interarrival_ns.max(1));
            let tenant = zipf_sample(&tenant_cum, &mut rng) as u32;
            let image = by_rank[zipf_sample(&image_cum, &mut rng)].clone();
            let range = if rng.next_below(256) < cfg.range_per_256 as u64 {
                Some((
                    rng.next_below(256) as u32,
                    rng.next_range(512, 16 * 1024) as u32,
                ))
            } else {
                None
            };
            requests.push(ServeRequestSpec {
                tenant,
                arrival_ns: arrival,
                image,
                range,
            });
        }
        ServeSchedule {
            seed: cfg.seed,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl ServeSchedule {
        /// Requests per tenant, indexed by tenant id.
        fn per_tenant(&self, tenants: u32) -> Vec<usize> {
            let mut counts = vec![0usize; tenants as usize];
            for r in &self.requests {
                counts[r.tenant as usize] += 1;
            }
            counts
        }

        /// Count of range-read requests.
        fn range_reads(&self) -> usize {
            self.requests.iter().filter(|r| r.range.is_some()).count()
        }

        /// Canonical textual form, one request per line.
        fn render(&self) -> String {
            let mut out = String::new();
            for r in &self.requests {
                out.push_str(&r.render());
                out.push('\n');
            }
            out
        }

        /// SHA-256 of the rendering: the reproducibility fingerprint.
        fn digest_hex(&self) -> String {
            xpl_util::Sha256::digest(self.render().as_bytes()).to_hex()
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("img-{i:03}")).collect()
    }

    #[test]
    fn same_seed_byte_identical() {
        let cfg = ServeConfig::new(1234);
        let a = ServeSchedule::generate(&names(32), &cfg);
        let b = ServeSchedule::generate(&names(32), &cfg);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest_hex(), b.digest_hex());
        let c = ServeSchedule::generate(&names(32), &ServeConfig::new(1235));
        assert_ne!(a.digest_hex(), c.digest_hex());
    }

    #[test]
    fn arrivals_sorted_and_mix_sane() {
        let cfg = ServeConfig::new(7);
        let s = ServeSchedule::generate(&names(40), &cfg);
        assert_eq!(s.requests.len(), cfg.requests);
        assert!(s
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        let ranges = s.range_reads();
        assert!(ranges > 0 && ranges < cfg.requests / 4, "{ranges}");
        assert!(s.requests.iter().all(|r| match r.range {
            Some((frac, len)) => frac < 256 && (512..=16 * 1024).contains(&len),
            None => true,
        }));
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let s = ServeSchedule::generate(&names(40), &ServeConfig::new(42));
        let mut hits: HashMap<&str, usize> = HashMap::new();
        for r in &s.requests {
            *hits.entry(r.image.as_str()).or_default() += 1;
        }
        let mut counts: Vec<usize> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest image dominates the median one by a wide margin.
        assert!(
            counts[0] >= 5 * counts[counts.len() / 2].max(1),
            "no skew: {counts:?}"
        );
        // Tenant 0 is the heavy hitter but others still show up.
        let per = s.per_tenant(8);
        assert!(per[0] > per[4], "{per:?}");
        assert!(per.iter().filter(|&&c| c > 0).count() >= 6, "{per:?}");
    }
}
