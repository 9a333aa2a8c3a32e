//! Internal: semantic snapshots of published images.
//!
//! Monolithic stores keep the whole image; our scale model stores the
//! actual (serialized/compressed/chunked) bytes for size accounting and a
//! lightweight semantic snapshot (file tree + package DB) beside them.
//! A retrieve hands back a functional [`Vmi`] built from both:
//!
//! * stores that keep a disk return the one they read back —
//!   [`VmiSnapshot::restore_with`] over the whole-image store's parsed
//!   stream (raw for Qcow2, inflated for Gzip) or the block-dedup store's
//!   reassembled device;
//! * stores that keep files (Mirage, Hemera) have no disk to return and
//!   rebuild it with `mkfs` from the tree ([`VmiSnapshot::restore`]),
//!   charged to the retrieve as "assemble".
//!
//! Either way the snapshot supplies the tree, the package DB and the
//! primary packages that tests compare against the original.

use xpl_guestfs::{FsTree, Vmi};
use xpl_pkg::{BaseImageAttrs, DpkgDb, PackageId};
use xpl_simio::SimEnv;
use xpl_store::RetrieveReport;
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

    /// Rebuild a full Vmi on the local host, regenerating its disk with
    /// `mkfs` from the tree; charged to `report` as "assemble".
    pub(crate) fn restore(&self, env: &SimEnv, report: &mut RetrieveReport) -> Vmi {
        report.breakdown.measure(&env.clock, "assemble", || {
            let vmi = Vmi::assemble(
                &self.name,
                self.base.clone(),
                self.fs.clone(),
                self.pkgdb.clone(),
                self.primary.clone(),
            );
            env.local.charge_write(vmi.disk_bytes());
            vmi
        })
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
