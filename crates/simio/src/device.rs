//! Charged storage devices.
//!
//! A [`SimDevice`] wraps a [`DeviceProfile`] (throughputs and per-operation
//! latencies) and a shared [`SimClock`]. Stores call the `charge_*` methods
//! as they move data; the device advances the clock and maintains
//! operation counters for the experiment reports.
//!
//! **Scale-model note:** all `bytes` arguments are *materialized* (real)
//! bytes. Profiles express throughput in *nominal* bytes per second (the
//! paper's axis), and the device multiplies real bytes by
//! [`xpl_util::SCALE_FACTOR`] before applying throughput, so charged time
//! matches the nominal data volume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::{SimClock, SimDuration};
use xpl_util::SCALE_FACTOR;

/// Bytes a metadata-DB row carries in its header; only payload past
/// them moves through the device as data.
const ROW_HEADER_BYTES: u64 = 64;

/// Static description of a device's performance characteristics.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Sequential read throughput, nominal bytes/second.
    pub seq_read_bps: u64,
    /// Sequential write throughput, nominal bytes/second.
    pub seq_write_bps: u64,
    /// Fixed cost to open an existing file (metadata lookup).
    pub file_open: SimDuration,
    /// Fixed cost to create a file (dentry + inode allocation).
    pub file_create: SimDuration,
    /// Files at or below this *nominal* size pay `small_file_extra` on each
    /// open/create — the "inefficient in reading small files" penalty the
    /// paper attributes to Mirage's file-system repository.
    pub small_file_threshold: u64,
    pub small_file_extra: SimDuration,
    /// Cost of a metadata-database row read (Hemera keeps small files in
    /// the DB precisely because this is much cheaper than `file_open`).
    pub db_row_read: SimDuration,
    /// Cost of a metadata-database row write.
    pub db_row_write: SimDuration,
}

impl DeviceProfile {
    fn xfer_time(bps: u64, real_bytes: u64) -> SimDuration {
        if bps == 0 {
            return SimDuration::ZERO;
        }
        let nominal = real_bytes as u128 * SCALE_FACTOR as u128;
        SimDuration(((nominal * 1_000_000_000) / bps as u128) as u64)
    }
}

/// Monotonic operation counters (relaxed atomics — totals only).
#[derive(Debug, Default)]
pub(crate) struct DeviceStats {
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub files_opened: AtomicU64,
    pub files_created: AtomicU64,
    pub db_rows_read: AtomicU64,
    pub db_rows_written: AtomicU64,
}

/// Snapshot of a device's internal counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub files_opened: u64,
    pub files_created: u64,
    pub db_rows_read: u64,
    pub db_rows_written: u64,
}

/// A charged device bound to the shared clock.
pub struct SimDevice {
    profile: DeviceProfile,
    clock: Arc<SimClock>,
    stats: DeviceStats,
}

impl SimDevice {
    pub fn new(profile: DeviceProfile, clock: Arc<SimClock>) -> Self {
        SimDevice {
            profile,
            clock,
            stats: DeviceStats::default(),
        }
    }

    /// Sequentially read `real_bytes` (charged at nominal volume).
    pub fn charge_read(&self, real_bytes: u64) -> SimDuration {
        self.stats
            .bytes_read
            .fetch_add(real_bytes, Ordering::Relaxed);
        let d = DeviceProfile::xfer_time(self.profile.seq_read_bps, real_bytes);
        self.clock.advance(d);
        d
    }

    /// Sequentially write `real_bytes`.
    pub fn charge_write(&self, real_bytes: u64) -> SimDuration {
        self.stats
            .bytes_written
            .fetch_add(real_bytes, Ordering::Relaxed);
        let d = DeviceProfile::xfer_time(self.profile.seq_write_bps, real_bytes);
        self.clock.advance(d);
        d
    }

    /// Pipelined copy of `real_bytes` from `self` to `dst`: reader and
    /// writer overlap, so wall time is the max of the two legs (this is how
    /// `cp`/`qemu-img convert` behave on two devices), not their sum.
    pub fn charge_copy_to(&self, dst: &SimDevice, real_bytes: u64) -> SimDuration {
        self.stats
            .bytes_read
            .fetch_add(real_bytes, Ordering::Relaxed);
        dst.stats
            .bytes_written
            .fetch_add(real_bytes, Ordering::Relaxed);
        let r = DeviceProfile::xfer_time(self.profile.seq_read_bps, real_bytes);
        let w = DeviceProfile::xfer_time(dst.profile.seq_write_bps, real_bytes);
        let d = r.max(w);
        self.clock.advance(d);
        d
    }

    /// Open an existing file of the given nominal size.
    pub fn charge_open(&self, nominal_size: u64) -> SimDuration {
        self.stats.files_opened.fetch_add(1, Ordering::Relaxed);
        let mut d = self.profile.file_open;
        if nominal_size <= self.profile.small_file_threshold {
            d += self.profile.small_file_extra;
        }
        self.clock.advance(d);
        d
    }

    /// Create a file (content charged separately via
    /// [`Self::charge_write`]). Creation does **not** pay the small-file
    /// penalty: content-addressed stores append new content sequentially;
    /// the penalty models random *reads* of small files (the paper's
    /// Mirage-retrieval pathology), not log-structured writes.
    pub fn charge_create(&self, _nominal_size: u64) -> SimDuration {
        self.stats.files_created.fetch_add(1, Ordering::Relaxed);
        let d = self.profile.file_create;
        self.clock.advance(d);
        d
    }

    /// Read one metadata-DB row (Hemera's small-file path).
    pub fn charge_db_read(&self, rows: u64) -> SimDuration {
        self.stats.db_rows_read.fetch_add(rows, Ordering::Relaxed);
        let d = SimDuration(self.profile.db_row_read.0 * rows);
        self.clock.advance(d);
        d
    }

    /// Write metadata-DB rows.
    pub fn charge_db_write(&self, rows: u64) -> SimDuration {
        self.stats
            .db_rows_written
            .fetch_add(rows, Ordering::Relaxed);
        let d = SimDuration(self.profile.db_row_write.0 * rows);
        self.clock.advance(d);
        d
    }

    /// Write one metadata-DB row carrying `payload` bytes: one row op,
    /// plus the payload when it does not fit the row header.
    pub fn charge_row_write(&self, payload: u64) -> SimDuration {
        let mut d = self.charge_db_write(1);
        if payload > ROW_HEADER_BYTES {
            d += self.charge_write(payload);
        }
        d
    }

    /// Read one metadata-DB row carrying `payload` bytes; see
    /// [`Self::charge_row_write`].
    pub fn charge_row_read(&self, payload: u64) -> SimDuration {
        let mut d = self.charge_db_read(1);
        if payload > ROW_HEADER_BYTES {
            d += self.charge_read(payload);
        }
        d
    }

    /// Charge an arbitrary fixed compute/IO cost on this device's clock.
    pub fn charge_fixed(&self, d: SimDuration) -> SimDuration {
        self.clock.advance(d);
        d
    }

    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
            files_opened: self.stats.files_opened.load(Ordering::Relaxed),
            files_created: self.stats.files_created.load(Ordering::Relaxed),
            db_rows_read: self.stats.db_rows_read.load(Ordering::Relaxed),
            db_rows_written: self.stats.db_rows_written.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_profile() -> DeviceProfile {
        DeviceProfile {
            name: "test",
            seq_read_bps: 250 * 1024 * 1024,
            seq_write_bps: 200 * 1024 * 1024,
            file_open: SimDuration::from_micros(100),
            file_create: SimDuration::from_micros(200),
            small_file_threshold: 1024 * 1024,
            small_file_extra: SimDuration::from_millis(2),
            db_row_read: SimDuration::from_micros(170),
            db_row_write: SimDuration::from_micros(300),
        }
    }

    fn dev() -> SimDevice {
        SimDevice::new(test_profile(), Arc::new(SimClock::new()))
    }

    #[test]
    fn read_charges_nominal_volume() {
        let d = dev();
        // 1 MiB real == 1 GiB nominal; at 250 MiB/s nominal that is 4.096 s.
        let t = d.charge_read(1024 * 1024);
        let expect = (1u64 << 30) as f64 / (250.0 * 1024.0 * 1024.0);
        assert!((t.as_secs_f64() - expect).abs() < 1e-6, "{t}");
        assert_eq!(d.stats().bytes_read, 1024 * 1024);
    }

    #[test]
    fn copy_is_pipelined_not_summed() {
        let clock = Arc::new(SimClock::new());
        let a = SimDevice::new(test_profile(), Arc::clone(&clock));
        let b = SimDevice::new(test_profile(), Arc::clone(&clock));
        let t0 = clock.now();
        a.charge_copy_to(&b, 1024 * 1024);
        let elapsed = clock.since(t0);
        // Write is the slower leg (200 MiB/s): copy time == write time.
        let write_time = (1u64 << 30) as f64 / (200.0 * 1024.0 * 1024.0);
        assert!((elapsed.as_secs_f64() - write_time).abs() < 1e-6);
        assert_eq!(a.stats().bytes_read, 1024 * 1024);
        assert_eq!(b.stats().bytes_written, 1024 * 1024);
    }

    #[test]
    fn small_file_penalty_applies_below_threshold() {
        let d = dev();
        let small = d.charge_open(4096);
        let large = d.charge_open(10 * 1024 * 1024);
        assert!(small > large);
        assert_eq!(small.as_nanos() - large.as_nanos(), 2_000_000);
        assert_eq!(d.stats().files_opened, 2);
    }

    #[test]
    fn db_rows_cheaper_than_small_files() {
        let d = dev();
        let file = d.charge_open(100); // small file
        let row = d.charge_db_read(1);
        assert!(
            row < file,
            "db row {row} should be cheaper than small file {file}"
        );
    }

    #[test]
    fn counters_accumulate() {
        let d = dev();
        d.charge_create(10);
        d.charge_create(10);
        d.charge_db_write(5);
        let s = d.stats();
        assert_eq!(s.files_created, 2);
        assert_eq!(s.db_rows_written, 5);
    }

    #[test]
    fn row_payload_moves_only_past_the_header() {
        // At the 64-byte header limit a row is one row op; one byte past
        // it, the whole payload also moves through the device.
        for (payload, moved) in [(64, 0), (65, 65)] {
            let d = dev();
            let t0 = d.clock.now();
            d.charge_row_write(payload);
            d.charge_row_read(payload);
            let s = d.stats();
            assert_eq!((s.db_rows_written, s.db_rows_read), (1, 1));
            assert_eq!((s.bytes_written, s.bytes_read), (moved, moved));
            let p = test_profile();
            let want = p.db_row_write
                + p.db_row_read
                + DeviceProfile::xfer_time(p.seq_write_bps, moved)
                + DeviceProfile::xfer_time(p.seq_read_bps, moved);
            assert_eq!(d.clock.since(t0), want, "{payload}-byte row");
        }
    }

    #[test]
    fn zero_bps_means_free() {
        let mut p = test_profile();
        p.seq_read_bps = 0;
        let d = SimDevice::new(p, Arc::new(SimClock::new()));
        assert_eq!(d.charge_read(12345), SimDuration::ZERO);
    }
}
