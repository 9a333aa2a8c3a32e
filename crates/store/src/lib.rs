//! `xpl-store` — content-addressed storage and the store interface.
//!
//! * [`cas`] — a charged content-addressed blob store (digest → bytes)
//!   with refcounts; the building block of Mirage, Hemera and the
//!   Expelliarmus package/base-image repositories.
//! * [`api`] — the [`ImageStore`] trait every evaluated system implements
//!   (publish / retrieve / delete / repository size / integrity audit),
//!   plus the report types whose fields become Table II columns and
//!   Figure 4/5 series.
//! * [`oracle`] — canonical image fingerprints the churn replay driver
//!   uses to compare retrievals differentially across stores.
//! * [`stripe`] — striped per-image-name locks: every store serializes
//!   same-name operations on one stripe while distinct images proceed in
//!   parallel.

pub mod api;
pub mod cas;
pub mod oracle;
pub mod stripe;

pub use api::{
    DeleteReport, ImageStore, MaintainReport, PublishReport, RetrieveReport, RetrieveRequest,
    StoreError,
};
pub use cas::{BlobCodec, ContentStore, TierPolicy, TierSweep};
pub use oracle::{full_fingerprint, semantic_fingerprint};
pub use stripe::NameLocks;
