//! `xpl-workloads` — the synthetic evaluation world.
//!
//! The paper evaluates on synthetic Ubuntu images built with
//! `virt-builder`: the four images from the Mirage/Hemera studies (Mini,
//! Base, Desktop, IDE) plus fifteen AWS-marketplace-style stacks
//! (Table II), and a 40×-successive-IDE-build sequence (Figure 3c). This
//! crate regenerates that world deterministically:
//!
//! * [`catalog`] — a ~2.4 k-package Ubuntu-16.04-like catalog: a named
//!   essential core, generated base filler (the ~1.85 GB base install),
//!   and hand-sized application stacks. Stack installed sizes are chosen
//!   so the paper's publish-time column emerges from the cost model
//!   (publish ≈ launch + 0.4 µs/byte exported + 0.29 s/package).
//! * [`recipes`] — the 19 Table II image recipes in upload order (primary
//!   packages, per-image unique junk — caches/logs the semantic publisher
//!   discards but file-level systems store — and user data), plus the
//!   40-build IDE sequence.
//! * [`world`] — [`World`]: catalog + base template + builders, with
//!   [`World::standard`] (full evaluation scale) and [`World::small`]
//!   (fast scale for unit tests and doctests).

//! # Beyond the paper's fixed catalog
//!
//! The crate also generates arbitrarily scaled churn workloads:
//!
//! * [`scaled`] — [`ScaledWorld`]: a seeded catalog/recipe generator
//!   whose package universe and image count are parameters, with
//!   per-image upgrade generations for republish workloads.
//! * [`trace`] — [`Trace`]: deterministic lifecycle traces (publish /
//!   retrieve / upgrade / delete / burst) the churn oracle replays
//!   against every store in lockstep.

pub mod catalog;
pub mod recipes;
pub mod scaled;
pub mod serve;
pub mod trace;
pub mod world;

pub use recipes::{Table2Row, TABLE2_PAPER};
pub use scaled::{ScaleConfig, ScaledWorld};
pub use serve::{ServeConfig, ServeRequestSpec, ServeSchedule};
pub use trace::{Trace, TraceConfig, TraceOp};
pub use world::World;
