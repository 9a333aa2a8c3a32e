//! Per-system cost constants (fitted to Figures 4–5; see DESIGN.md §6).

use xpl_simio::SimDuration;

/// Mounting an image read-only for scanning (guestmount-class).
pub(crate) fn mount_fixed() -> SimDuration {
    SimDuration::from_secs_f64(2.0)
}

/// Effective scan throughput while hashing a mounted guest filesystem
/// through FUSE, nominal bytes/second. The paper's Mirage/Hemera publish
/// times scale with mounted size; ~20 MiB/s reproduces the 95–135 s scan
/// component across the 1.9–2.7 GB images.
pub(crate) const SCAN_BPS: u64 = 20 * 1024 * 1024;

/// Index-match work per scanned file (hash lookup + metadata compare).
/// 1.8 ms/file puts Elastic Stack's 103 k files at ≈187 s, making it the
/// slowest Mirage/Hemera publish, as in Figure 4b.
pub(crate) fn file_match() -> SimDuration {
    SimDuration::from_micros(1800)
}

/// Hemera's per-row fetch surcharge at retrieval (SQLite page walk +
/// decode) on top of the device's base row cost. Total ≈1 ms/row puts
/// Elastic Stack retrieval at ≈115 s vs. the paper's 129.8 s, and keeps
/// Hemera well under Mirage's 4.2 ms/file penalty path.
pub(crate) fn hemera_row_fetch_extra() -> SimDuration {
    SimDuration::from_micros(780)
}

/// Files at or below this *nominal* size go into Hemera's database
/// (256 KB — "small sized files in the database").
pub(crate) const HEMERA_DB_THRESHOLD_NOMINAL: u64 = 256 * 1024;

/// DEFLATE compression compute, per nominal byte (multi-core effective).
pub(crate) fn deflate_per_byte() -> SimDuration {
    SimDuration::from_nanos(11)
}

/// DEFLATE decompression compute, per nominal byte.
pub(crate) fn inflate_per_byte() -> SimDuration {
    SimDuration::from_nanos(4)
}

/// Charge `per_byte` cost scaled to nominal for `real_bytes`.
pub(crate) fn scaled(per_byte: SimDuration, real_bytes: u64) -> SimDuration {
    SimDuration(
        per_byte
            .0
            .saturating_mul(real_bytes.saturating_mul(xpl_util::SCALE_FACTOR)),
    )
}

/// Transfer duration for `real_bytes` at a nominal-bytes/second rate.
pub(crate) fn xfer(real_bytes: u64, nominal_bps: u64) -> SimDuration {
    let nominal = real_bytes as u128 * xpl_util::SCALE_FACTOR as u128;
    SimDuration(((nominal * 1_000_000_000) / nominal_bps as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_time_for_typical_image() {
        // A 2 GB nominal image scans in ≈102 s at 20 MiB/s.
        let t = xfer(2 * 1024 * 1024, SCAN_BPS);
        assert!((95.0..110.0).contains(&t.as_secs_f64()), "{t}");
    }

    #[test]
    fn match_cost_for_elastic_files() {
        let t = SimDuration(file_match().0 * 103_719);
        assert!((170.0..200.0).contains(&t.as_secs_f64()), "{t}");
    }

    #[test]
    fn scaled_costs_scale() {
        let one_kib_real = scaled(SimDuration::from_nanos(1), 1024); // 1 MiB nominal
        assert_eq!(one_kib_real.as_nanos(), 1024 * 1024);
    }
}
