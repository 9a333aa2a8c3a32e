//! Calibrated cost profiles for the experiment testbed.
//!
//! The constants below were fitted once against the end-points the paper
//! reports (Table II publish/retrieval columns, Figures 4–5) and then
//! frozen; every experiment uses the same [`SimEnv::testbed`]. Per-constant
//! provenance is documented inline. Absolute values are synthetic by
//! construction — the experiments compare *shape* against the paper.

use std::sync::Arc;

use crate::clock::{SimClock, SimDuration};
use crate::device::{DeviceProfile, SimDevice};

const MIB: u64 = 1024 * 1024;

/// Profile of the 1 TB external repository SSD from the paper's setup.
pub(crate) fn repository_ssd() -> DeviceProfile {
    DeviceProfile {
        name: "repository-ssd",
        // External SATA/USB SSD class: the paper's base-image copy phase
        // (~9 s for a ~1.9 GB image, Fig. 5a) implies ~210 MB/s effective.
        seq_read_bps: 250 * MIB,
        seq_write_bps: 210 * MIB,
        // Per-file overheads drive Mirage's publish/retrieve penalty: the
        // paper attributes "time penalties in the range of seconds to few
        // minutes" to matching/reading ~75 k files per image.
        file_open: SimDuration::from_micros(900),
        file_create: SimDuration::from_micros(1200),
        // "inefficient in reading small files (below 1MB)" — Fig. 5b.
        small_file_threshold: MIB,
        small_file_extra: SimDuration::from_micros(3300),
        // Hemera stores small files as DB rows; SQLite-class row access.
        db_row_read: SimDuration::from_micros(170),
        db_row_write: SimDuration::from_micros(260),
    }
}

/// Profile of the local scratch disk where images are built/assembled.
pub(crate) fn local_ssd() -> DeviceProfile {
    DeviceProfile {
        name: "local-ssd",
        // Internal NVMe-class disk, faster than the external repository.
        seq_read_bps: 420 * MIB,
        seq_write_bps: 380 * MIB,
        file_open: SimDuration::from_micros(250),
        file_create: SimDuration::from_micros(400),
        small_file_threshold: MIB,
        small_file_extra: SimDuration::from_micros(800),
        db_row_read: SimDuration::from_micros(120),
        db_row_write: SimDuration::from_micros(200),
    }
}

/// Guest-side operation costs (libguestfs, dpkg/APT, virt-sysprep).
#[derive(Clone, Debug)]
pub struct CostParams {
    /// Creating and launching a `guestfs` appliance handle. libguestfs
    /// boots a minimal qemu VM: ~7 s on the paper's class of hardware
    /// (Fig. 5a shows the handle-creation band ≈ the copy band).
    pub guestfs_launch: SimDuration,
    /// `virt-sysprep` reset of a base image (Fig. 5a third band).
    pub sysprep_reset: SimDuration,
    /// Querying one installed package's metadata through the guest package
    /// manager while building the semantic graph (`dpkg -s`-class work).
    pub pkg_query: SimDuration,
    /// Rebuilding a binary package (`dpkg-repack`-class) per nominal
    /// *installed* byte. The paper stresses publish time follows the
    /// *installation* size of exported packages, not the `.deb` size.
    pub deb_build_per_byte: SimDuration,
    /// Fixed cost per rebuilt package.
    pub deb_build_fixed: SimDuration,
    /// Removing an installed package from the image, per installed byte
    /// (file unlinks + dpkg database update).
    pub pkg_remove_per_byte: SimDuration,
    /// Installing a package at retrieval, per nominal installed byte
    /// (unpack + configure). Dominates the Fig. 5a "Import" band.
    pub pkg_install_per_byte: SimDuration,
    /// Fixed cost per installed package (maintainer scripts, triggers).
    pub pkg_install_fixed: SimDuration,
    /// Local-repository scan per imported package (`apt-ftparchive`-class
    /// metadata generation at retrieval).
    pub repo_scan_per_pkg: SimDuration,
    /// Semantic-graph similarity computation per package vertex compared.
    /// The paper reports <100 ms per VMI for the whole computation.
    pub sim_per_vertex: SimDuration,
    /// Flatten/compact a base image into its repository qcow2 form
    /// (`qemu-img convert`-class work), per nominal byte. Paid once per
    /// *new* base image stored (dominates Mini's publish together with
    /// the reset and copy phases).
    pub base_pack_per_byte: SimDuration,
}

impl CostParams {
    pub fn testbed() -> Self {
        CostParams {
            guestfs_launch: SimDuration::from_secs_f64(7.0),
            sysprep_reset: SimDuration::from_secs_f64(7.3),
            pkg_query: SimDuration::from_micros(450),
            // ≈0.4 µs per nominal installed byte + 0.29 s/package: with the
            // workload's stack sizes this reproduces the paper's entire
            // publish column (Desktop 126 pkgs/0.40 GB → ≈202 s; Elastic
            // 3 pkgs/0.40 GB → ≈166 s; Redis → ≈10 s).
            deb_build_per_byte: SimDuration::from_nanos(400),
            deb_build_fixed: SimDuration::from_millis(290),
            pkg_remove_per_byte: SimDuration::from_nanos(4),
            // ≈0.19 µs per nominal installed byte + 20 ms/pkg: Desktop's
            // import band lands at ≈95 s and Elastic's at ≈76 s, matching
            // the Fig. 5a/Table II retrieval shape.
            pkg_install_per_byte: SimDuration::from_nanos(190),
            pkg_install_fixed: SimDuration::from_millis(20),
            repo_scan_per_pkg: SimDuration::from_millis(20),
            sim_per_vertex: SimDuration::from_micros(35),
            base_pack_per_byte: SimDuration::from_nanos(5),
        }
    }

    /// Time to rebuild a binary package with the given *materialized*
    /// installed size (scaled to nominal internally, like `SimDevice`).
    pub fn deb_build(&self, installed_bytes_real: u64) -> SimDuration {
        let nominal = installed_bytes_real.saturating_mul(xpl_util::SCALE_FACTOR);
        SimDuration(self.deb_build_fixed.0 + self.deb_build_per_byte.0.saturating_mul(nominal))
    }

    /// Time to install a package of the given materialized installed size.
    pub fn pkg_install(&self, installed_bytes_real: u64) -> SimDuration {
        let nominal = installed_bytes_real.saturating_mul(xpl_util::SCALE_FACTOR);
        SimDuration(self.pkg_install_fixed.0 + self.pkg_install_per_byte.0.saturating_mul(nominal))
    }

    /// Time to remove an installed package (materialized size).
    pub fn pkg_remove(&self, installed_bytes_real: u64) -> SimDuration {
        let nominal = installed_bytes_real.saturating_mul(xpl_util::SCALE_FACTOR);
        SimDuration(self.pkg_remove_per_byte.0.saturating_mul(nominal))
    }
}

/// The complete simulated environment handed to stores and to Expelliarmus:
/// one shared clock, the repository device, the local scratch device, and
/// the guest-operation cost table.
#[derive(Clone)]
pub struct SimEnv {
    pub clock: Arc<SimClock>,
    pub repo: Arc<SimDevice>,
    pub local: Arc<SimDevice>,
    pub costs: Arc<CostParams>,
}

impl SimEnv {
    /// The standard experiment environment (paper testbed analogue).
    pub fn testbed() -> Self {
        let clock = Arc::new(SimClock::new());
        SimEnv {
            repo: Arc::new(SimDevice::new(repository_ssd(), Arc::clone(&clock))),
            local: Arc::new(SimDevice::new(local_ssd(), Arc::clone(&clock))),
            costs: Arc::new(CostParams::testbed()),
            clock,
        }
    }

    /// An environment whose clock charges nothing — used by tests that only
    /// care about functional behaviour. (Devices still count operations.)
    pub fn free() -> Self {
        let clock = Arc::new(SimClock::new());
        let zero = DeviceProfile {
            name: "free",
            seq_read_bps: 0,
            seq_write_bps: 0,
            file_open: SimDuration::ZERO,
            file_create: SimDuration::ZERO,
            small_file_threshold: 0,
            small_file_extra: SimDuration::ZERO,
            db_row_read: SimDuration::ZERO,
            db_row_write: SimDuration::ZERO,
        };
        SimEnv {
            repo: Arc::new(SimDevice::new(zero.clone(), Arc::clone(&clock))),
            local: Arc::new(SimDevice::new(zero, Arc::clone(&clock))),
            costs: Arc::new(CostParams {
                guestfs_launch: SimDuration::ZERO,
                sysprep_reset: SimDuration::ZERO,
                pkg_query: SimDuration::ZERO,
                deb_build_per_byte: SimDuration::ZERO,
                deb_build_fixed: SimDuration::ZERO,
                pkg_remove_per_byte: SimDuration::ZERO,
                pkg_install_per_byte: SimDuration::ZERO,
                pkg_install_fixed: SimDuration::ZERO,
                repo_scan_per_pkg: SimDuration::ZERO,
                sim_per_vertex: SimDuration::ZERO,
                base_pack_per_byte: SimDuration::ZERO,
            }),
            clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_env_charges_time() {
        let env = SimEnv::testbed();
        let t0 = env.clock.now();
        env.repo.charge_write(MIB); // 1 GiB nominal at 210 MiB/s ≈ 4.88 s
        let dt = env.clock.since(t0).as_secs_f64();
        assert!((dt - 1024.0 / 210.0).abs() < 0.01, "{dt}");
    }

    #[test]
    fn free_env_charges_nothing() {
        let env = SimEnv::free();
        env.repo.charge_write(MIB);
        env.local.charge_open(10);
        env.repo.charge_fixed(env.costs.guestfs_launch);
        assert_eq!(env.clock.now().0, 0);
    }

    #[test]
    fn base_image_copy_matches_fig5a_band() {
        // A ~1.9 GB nominal base image copied repo→local should take ≈9 s,
        // matching the Fig. 5a base-image-copy band.
        let env = SimEnv::testbed();
        let real = (1.913 * 1024.0 * 1024.0) as u64; // 1.913 GiB nominal
        let t = env.repo.charge_copy_to(&env.local, real);
        let s = t.as_secs_f64();
        assert!((7.0..11.0).contains(&s), "copy time {s}");
    }

    #[test]
    fn install_cost_scales_with_installed_size() {
        let costs = CostParams::testbed();
        // Arguments are materialized bytes: 400 MiB nominal = 400 KiB real.
        let small = costs.pkg_install(10 * 1024);
        let large = costs.pkg_install(400 * 1024);
        assert!(large.as_secs_f64() > 10.0 * small.as_secs_f64() / 2.0);
        // ≈0.4 GB nominal of installed content imports in ≈80 s — the
        // Desktop/Elastic Fig. 5a import band.
        assert!((70.0..90.0).contains(&large.as_secs_f64()), "{large}");
    }

    #[test]
    fn deb_build_dominated_by_installed_bytes() {
        let costs = CostParams::testbed();
        // Redis-class stack: 8 MB nominal → ≈3.4 s + fixed (Table II row
        // 2 publishes in ≈10 s including the 7 s launch).
        let t = costs.deb_build(8 * 1024);
        assert!((3.0..4.5).contains(&t.as_secs_f64()), "{t}");
    }
}
