//! The repo's benchmark harness.
//!
//! Four lifecycle workloads drive the system through its public APIs
//! only, check every output, and report end-to-end wall metrics; a
//! separate traced run adds harness-side spans, attached registry counts
//! and layer probes. See `README.md` beside this crate for the metric and
//! workload definitions, and `BENCHMARK.json` at the repo root for the
//! contract the driver checks.

pub mod compare;
pub mod measure;
pub mod probes;
pub mod spec;
pub mod trace;
pub mod vfs;
pub mod wire;
pub mod workloads;
