//! # Expelliarmus — semantics-aware VM image management
//!
//! Facade crate for the Rust reproduction of *"Semantics-aware Virtual
//! Machine Image Management in IaaS Clouds"* (Saurabh et al., IPDPS 2019).
//!
//! The workspace implements the complete system described in the paper —
//! semantic graphs, master graphs, similarity metrics, the publish /
//! base-image-selection / retrieval algorithms — plus every substrate it
//! depends on (a qcow2-style disk format, a guest filesystem and package
//! manager, DEFLATE and LZ4-class codecs in a seekable blocked container,
//! an embedded metadata DB, a simulated storage
//! device) and the four comparison systems from its evaluation (Qcow2,
//! Qcow2+Gzip, Mirage, Hemera).
//!
//! ## Quickstart
//!
//! ```
//! use expelliarmus::prelude::*;
//!
//! // A deterministic synthetic package universe + image recipes.
//! let world = World::small();
//! let mini = world.build_image("mini");
//! let redis = world.build_image("redis");
//!
//! // Publish both into an Expelliarmus repository.
//! let mut repo = ExpelliarmusRepo::new(world.env());
//! repo.publish(&world.catalog, &mini).unwrap();
//! repo.publish(&world.catalog, &redis).unwrap();
//!
//! // Retrieval re-assembles a functionally identical image.
//! let request = RetrieveRequest::for_image(&redis, &world.catalog);
//! let (got, _report) = repo.retrieve(&world.catalog, &request).unwrap();
//! assert_eq!(
//!     got.installed_package_set(&world.catalog),
//!     redis.installed_package_set(&world.catalog),
//! );
//!
//! // Both images share one stored base image, so the repo is much
//! // smaller than the sum of the two disks.
//! assert!(repo.repo_bytes() < mini.disk_bytes() + redis.disk_bytes());
//! ```
//!
//! ## What the facade promises
//!
//! The [`prelude`], and the crates the examples, the integration tests and
//! this doctest reach through it. The wire layer, the admission gate, the
//! durable backend and the baseline stores' modules are not re-exported:
//! use `xpl-net`, `xpl-registry`, `xpl-persist` and `xpl-baselines`
//! directly.

pub use xpl_bench as bench;
pub use xpl_chunking as chunking;
pub use xpl_compress as compress;
pub use xpl_core as core;
pub use xpl_guestfs as guestfs;
pub use xpl_metadb as metadb;
pub use xpl_pkg as pkg;
pub use xpl_semgraph as semgraph;
pub use xpl_simio as simio;
pub use xpl_store as store;
pub use xpl_util as util;
pub use xpl_vdisk as vdisk;
pub use xpl_workloads as workloads;

/// Convenience re-exports covering the common workflow: build a workload,
/// publish into a store, retrieve, and measure.
pub mod prelude {
    pub use xpl_baselines::{
        CdcDedupStore, FixedBlockDedupStore, GzipStore, HemeraStore, MirageStore, QcowStore,
    };
    pub use xpl_core::{ExpelliarmusRepo, PublishMode};
    pub use xpl_guestfs::Vmi;
    pub use xpl_semgraph::{MasterGraph, SemanticGraph};
    pub use xpl_simio::{SimDevice, SimEnv};
    pub use xpl_store::{DeleteReport, ImageStore, PublishReport, RetrieveReport, RetrieveRequest};
    pub use xpl_util::{format_bytes, format_nominal};
    pub use xpl_workloads::{ScaleConfig, ScaledWorld, Trace, TraceConfig, World};
}
