//! Internal: semantic snapshots of published images.
//!
//! Monolithic stores keep the whole image; our scale model stores the
//! actual (serialized/compressed/chunked) bytes for size accounting and a
//! lightweight semantic snapshot (file tree + package DB) beside them.
//! A retrieve hands back a functional [`Vmi`] built from both:
//!
//! * stores that keep a disk return the one they read back —
//!   [`VmiSnapshot::restore_with`] over Qcow2's parsed stream, Gzip's
//!   inflated one, or the block-dedup stores' reassembled device;
//! * stores that keep files (Mirage, Hemera) have no disk to return and
//!   rebuild it with `mkfs` from the tree ([`VmiSnapshot::restore`]).
//!
//! Either way the snapshot supplies the tree, the package DB and the
//! primary packages that tests compare against the original.

use xpl_guestfs::{FsTree, Vmi};
use xpl_pkg::{BaseImageAttrs, DpkgDb, PackageId};
use xpl_vdisk::QcowImage;

#[derive(Clone)]
pub(crate) struct VmiSnapshot {
    pub name: String,
    pub base: BaseImageAttrs,
    pub fs: FsTree,
    pub pkgdb: DpkgDb,
    pub primary: Vec<PackageId>,
}

impl VmiSnapshot {
    pub(crate) fn of(vmi: &Vmi) -> VmiSnapshot {
        VmiSnapshot {
            name: vmi.name.clone(),
            base: vmi.base.clone(),
            fs: vmi.fs.clone(),
            pkgdb: vmi.pkgdb.clone(),
            primary: vmi.primary.clone(),
        }
    }

    /// Rebuild a full Vmi, regenerating its disk with `mkfs`.
    pub(crate) fn restore(&self) -> Vmi {
        Vmi::assemble(
            &self.name,
            self.base.clone(),
            self.fs.clone(),
            self.pkgdb.clone(),
            self.primary.clone(),
        )
    }

    /// The Vmi around `disk`, a disk the store read back.
    pub(crate) fn restore_with(&self, disk: QcowImage) -> Vmi {
        Vmi {
            name: self.name.clone(),
            base: self.base.clone(),
            fs: self.fs.clone(),
            pkgdb: self.pkgdb.clone(),
            primary: self.primary.clone(),
            disk,
        }
    }
}
