//! `xpl-simio` — simulated storage devices and a virtual clock.
//!
//! The paper reports wall-clock publish/retrieval times measured on a real
//! testbed (quad-core host, 1 TB external SSD). This reproduction replaces
//! the testbed with an explicit *cost model*: every byte moved, file
//! opened, database row touched, package built or installed advances a
//! shared [`SimClock`]. The result is deterministic "seconds" whose shape
//! (ordering, ratios, crossovers between systems) mirrors the paper's,
//! which is exactly what the experiments compare.
//!
//! Layout:
//! * [`clock`] — the virtual clock and duration type.
//! * [`device`] — [`SimDevice`]: a charged block/file device with
//!   throughput, per-file and small-file costs, plus operation counters.
//! * [`breakdown`] — labelled time segments (Figure 5a renders these).
//! * [`profiles`] — calibrated constants for the repository SSD, local
//!   scratch disk, metadata DB, and the guest-side package operations.

pub mod breakdown;
pub mod clock;
pub mod device;
pub mod profiles;

pub use breakdown::Breakdown;
pub use clock::{SimClock, SimDuration, SimInstant};
pub use device::{DeviceProfile, SimDevice};
pub use profiles::{CostParams, SimEnv};
