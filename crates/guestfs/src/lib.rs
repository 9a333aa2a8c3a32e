//! `xpl-guestfs` — guest filesystem, VMI model, and the libguestfs-like
//! access handle.
//!
//! The paper manipulates real qcow2 images through `libguestfs` (launch a
//! handle, query dpkg, export/import packages, `virt-sysprep` reset). This
//! crate reproduces that stack over [`xpl_vdisk`]:
//!
//! * [`fstree`] — a layered file tree (shared base layer + per-image
//!   overlay + tombstones), so nineteen images sharing one Ubuntu base
//!   cost one base file-set in memory.
//! * [`mkfs`] — deterministic layout of a file tree onto a qcow image.
//! * [`vmi`] — the [`Vmi`] type: base-image attributes, filesystem,
//!   installed-package DB, primary-package list, materialized disk.
//! * [`handle`] — [`GuestHandle`]: charged operations (launch, package
//!   query/install/remove/export, sysprep reset).
//! * [`builder`] — `virt-builder`-style image construction from a catalog
//!   and a recipe.

pub mod builder;
pub mod fstree;
pub mod handle;
pub mod mkfs;
pub mod vmi;

pub use builder::{BaseTemplate, ImageBuilder, ImageRecipe, JunkGroup};
pub use fstree::{FileOwner, FileRecord, FsTree};
pub use handle::GuestHandle;
pub use mkfs::{extents, materialize_range, Extent};
pub use vmi::Vmi;
