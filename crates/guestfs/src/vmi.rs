//! The VMI model: `I = (BI, PS, DS, Data)`.
//!
//! Matches §III-A: a base image `BI` (with its attribute quadruple), a
//! primary package set `PS`, the dependency packages `DS` (tracked in the
//! dpkg database by install reason), and user data `Data` (files the
//! package manager does not know about).

use crate::fstree::{FileOwner, FileRecord, FsTree};
use crate::mkfs;
use xpl_pkg::dpkgdb::InstallReason;
use xpl_pkg::{BaseImageAttrs, Catalog, DpkgDb, PackageId};
use xpl_util::IStr;
use xpl_vdisk::QcowImage;

/// A virtual machine image.
#[derive(Clone)]
pub struct Vmi {
    pub name: String,
    /// Base-image attributes (type, distro, ver, arch).
    pub base: BaseImageAttrs,
    /// The guest filesystem.
    pub fs: FsTree,
    /// Installed-package database (primary = Manual, dependency = Auto).
    pub pkgdb: DpkgDb,
    /// The user-declared primary package set `PS`.
    pub primary: Vec<PackageId>,
    /// Materialized qcow disk. **Not** auto-synced with `fs`; call
    /// [`Vmi::rebuild_disk`] after mutating the tree when the disk matters
    /// (stores read it; decomposition does not).
    pub disk: QcowImage,
}

impl Vmi {
    /// Assemble a VMI from parts, materializing the disk once.
    pub fn assemble(
        name: &str,
        base: BaseImageAttrs,
        fs: FsTree,
        pkgdb: DpkgDb,
        primary: Vec<PackageId>,
    ) -> Vmi {
        let disk = mkfs::mkfs(name, &fs);
        Vmi {
            name: name.to_string(),
            base,
            fs,
            pkgdb,
            primary,
            disk,
        }
    }

    /// Re-materialize the disk from the current tree.
    pub fn rebuild_disk(&mut self) {
        self.disk = mkfs::mkfs(&self.name, &self.fs);
    }

    /// Mounted filesystem size (Table II's "Mounted size" column),
    /// materialized bytes.
    pub fn mounted_bytes(&self) -> u64 {
        self.fs.total_bytes()
    }

    /// Number of files (Table II's "Number of files" column).
    pub fn file_count(&self) -> usize {
        self.fs.file_count()
    }

    /// On-disk (allocated) size of the qcow image, materialized bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk.allocated_bytes()
    }

    /// Bytes of user data (`Data` component).
    pub fn user_data_bytes(&self) -> u64 {
        self.fs.user_data().iter().map(|r| r.size as u64).sum()
    }

    /// User-data file records (for import on retrieval).
    pub fn user_data_files(&self) -> Vec<FileRecord> {
        self.fs.user_data()
    }

    /// Identity strings of all installed packages — the functional
    /// equality notion used by publish→retrieve round-trip tests.
    pub fn installed_package_set(&self, catalog: &Catalog) -> std::collections::BTreeSet<String> {
        self.pkgdb
            .installed_ids()
            .iter()
            .map(|&id| catalog.get(id).identity())
            .collect()
    }

    /// Refresh the `/var/lib/dpkg/status` file from the package DB. The
    /// file's content is keyed by a digest of the rendered status text, so
    /// images with equal package sets carry identical status files (and
    /// dedup accordingly).
    pub fn refresh_status_file(&mut self, catalog: &Catalog) {
        let text = self.pkgdb.render_status(catalog);
        let digest = xpl_util::Sha256::digest(text.as_bytes());
        self.fs.add_file(FileRecord {
            path: IStr::new("/var/lib/dpkg/status"),
            size: text.len() as u32,
            seed: digest.prefix64(),
            owner: FileOwner::System,
        });
    }

    /// Install a package's files + DB record (no cost charging — the
    /// charged path is [`crate::GuestHandle::install_package`]).
    pub fn install_package_raw(&mut self, catalog: &Catalog, id: PackageId, reason: InstallReason) {
        let meta = catalog.get(id);
        for f in &meta.manifest.files {
            self.fs.add_file(FileRecord {
                path: f.path,
                size: f.size,
                seed: f.seed,
                owner: FileOwner::Package(id),
            });
        }
        self.pkgdb.install(catalog, id, reason);
    }

    /// Remove the named packages' DB records, then all their files;
    /// returns each package's removed bytes in `names` order (0 for a
    /// name that is not installed).
    pub fn remove_packages_raw(&mut self, names: &[IStr]) -> Vec<u64> {
        let (slots, ids): (Vec<usize>, Vec<PackageId>) = names
            .iter()
            .enumerate()
            .filter_map(|(slot, &name)| Some((slot, self.pkgdb.remove(name)?)))
            .unzip();
        let mut removed = vec![0u64; names.len()];
        for (slot, bytes) in slots.into_iter().zip(self.fs.remove_packages(&ids)) {
            removed[slot] = bytes;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_pkg::catalog::PackageSpec;
    use xpl_pkg::meta::{FileManifest, PkgFile, Section};
    use xpl_pkg::{Arch, Version};

    fn tiny_catalog() -> (Catalog, PackageId) {
        let mut c = Catalog::new();
        let id = c.add(PackageSpec {
            name: "redis".into(),
            version: Version::parse("6.0"),
            arch: Arch::Amd64,
            section: Section::Databases,
            essential: false,
            deb_size: 100,
            installed_size: 350,
            depends: vec![],
            manifest: FileManifest {
                files: vec![
                    PkgFile {
                        path: IStr::new("/usr/bin/redis"),
                        size: 300,
                        seed: 70,
                    },
                    PkgFile {
                        path: IStr::new("/etc/redis.conf"),
                        size: 50,
                        seed: 71,
                    },
                ],
            },
        });
        (c, id)
    }

    fn empty_vmi() -> Vmi {
        Vmi::assemble(
            "test",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            FsTree::new(),
            DpkgDb::new(),
            vec![],
        )
    }

    #[test]
    fn install_adds_files_and_db_entry() {
        let (c, id) = tiny_catalog();
        let mut vmi = empty_vmi();
        vmi.install_package_raw(&c, id, InstallReason::Manual);
        assert_eq!(vmi.file_count(), 2);
        assert_eq!(vmi.mounted_bytes(), 350);
        assert!(vmi.pkgdb.is_installed(IStr::new("redis")));
        assert_eq!(
            vmi.installed_package_set(&c)
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["redis=6.0/amd64"]
        );
    }

    #[test]
    fn remove_undoes_install() {
        let (c, id) = tiny_catalog();
        let mut vmi = empty_vmi();
        vmi.install_package_raw(&c, id, InstallReason::Manual);
        let removed = vmi.remove_packages_raw(&[IStr::new("redis"), IStr::new("absent")]);
        assert_eq!(removed, [350, 0]);
        assert_eq!(vmi.file_count(), 0);
        assert!(!vmi.pkgdb.is_installed(IStr::new("redis")));
    }

    #[test]
    fn status_file_reflects_package_set() {
        let (c, id) = tiny_catalog();
        let mut a = empty_vmi();
        a.refresh_status_file(&c);
        let empty_status = a.fs.get(IStr::new("/var/lib/dpkg/status")).unwrap();
        a.install_package_raw(&c, id, InstallReason::Manual);
        a.refresh_status_file(&c);
        let with_redis = a.fs.get(IStr::new("/var/lib/dpkg/status")).unwrap();
        assert_ne!(empty_status.seed, with_redis.seed);

        // A second image with the same package set gets an identical file.
        let mut b = empty_vmi();
        b.install_package_raw(&c, id, InstallReason::Manual);
        b.refresh_status_file(&c);
        let b_status = b.fs.get(IStr::new("/var/lib/dpkg/status")).unwrap();
        assert_eq!(with_redis.seed, b_status.seed);
        assert_eq!(with_redis.size, b_status.size);
    }

    #[test]
    fn user_data_accounting() {
        let mut vmi = empty_vmi();
        vmi.fs.add_file(FileRecord {
            path: IStr::new("/home/u/data.bin"),
            size: 1234,
            seed: 9,
            owner: FileOwner::UserData,
        });
        assert_eq!(vmi.user_data_bytes(), 1234);
        assert_eq!(vmi.user_data_files().len(), 1);
    }

    #[test]
    fn rebuild_disk_tracks_fs() {
        let (c, id) = tiny_catalog();
        let mut vmi = empty_vmi();
        let before = vmi.disk_bytes();
        vmi.install_package_raw(&c, id, InstallReason::Manual);
        vmi.rebuild_disk();
        assert!(vmi.disk_bytes() > before);
    }
}
