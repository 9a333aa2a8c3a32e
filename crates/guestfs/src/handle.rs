//! The libguestfs-like charged access handle.
//!
//! Every Expelliarmus publish/retrieve in the paper starts by configuring
//! and launching a `guestfs` handle (a minimal qemu appliance boot, ~7 s);
//! package operations then run *through the guest*, so their costs follow
//! installed sizes. [`GuestHandle`] reproduces that interface and charges
//! the [`xpl_simio::SimEnv`] cost table.

use crate::vmi::Vmi;
use xpl_pkg::dpkgdb::InstallReason;
use xpl_pkg::{Catalog, DebPackage, PackageId};
use xpl_simio::{SimDuration, SimEnv};
use xpl_util::IStr;

/// A launched handle over one VMI.
pub struct GuestHandle<'a> {
    vmi: &'a mut Vmi,
    env: SimEnv,
}

impl<'a> GuestHandle<'a> {
    /// Configure + launch (charges `guestfs_launch`).
    pub fn launch(env: &SimEnv, vmi: &'a mut Vmi) -> Self {
        env.local.charge_fixed(env.costs.guestfs_launch);
        GuestHandle {
            vmi,
            env: env.clone(),
        }
    }

    pub fn vmi(&self) -> &Vmi {
        self.vmi
    }

    pub fn vmi_mut(&mut self) -> &mut Vmi {
        self.vmi
    }

    /// Query the installed package list through the guest package manager
    /// (`dpkg -l`-class work, charged per package).
    pub fn installed_packages(&self, _catalog: &Catalog) -> Vec<PackageId> {
        let ids = self.vmi.pkgdb.installed_ids();
        self.env
            .local
            .charge_fixed(SimDuration(self.env.costs.pkg_query.0 * ids.len() as u64));
        ids
    }

    /// Install a package (files + DB + status refresh), charged by
    /// installed size. Returns the charged duration.
    pub fn install_package(
        &mut self,
        catalog: &Catalog,
        id: PackageId,
        reason: InstallReason,
    ) -> SimDuration {
        let installed = catalog.get(id).installed_size;
        let d = self.env.costs.pkg_install(installed);
        self.env.local.charge_fixed(d);
        self.vmi.install_package_raw(catalog, id, reason);
        d
    }

    /// Remove a package by name, charged by the bytes removed.
    pub fn remove_package(&mut self, _catalog: &Catalog, name: IStr) -> SimDuration {
        self.remove_packages(&[name])
    }

    /// Remove packages by name. Each package is charged by its own
    /// removed bytes, in `names` order — the same charges as removing
    /// them one at a time. Returns their sum.
    pub fn remove_packages(&mut self, names: &[IStr]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for removed in self.vmi.remove_packages_raw(names) {
            let d = self.env.costs.pkg_remove(removed);
            self.env.local.charge_fixed(d);
            total += d;
        }
        total
    }

    /// Remove every auto-installed package no longer required by a manual
    /// one (`apt autoremove`); returns the removed ids.
    pub fn autoremove(&mut self, catalog: &Catalog) -> Vec<PackageId> {
        let mut all_removed = Vec::new();
        // Iterate to a fixed point: removing one package can orphan others.
        while let Ok(unused) = self
            .vmi
            .pkgdb
            .unused_dependencies(catalog, self.vmi.base.arch)
        {
            if unused.is_empty() {
                break;
            }
            let names: Vec<IStr> = unused.iter().map(|&id| catalog.get(id).name).collect();
            self.remove_packages(&names);
            all_removed.extend(unused);
        }
        all_removed
    }

    /// Rebuild the binary package for an installed package
    /// (`dpkg-repack`): charged by *installed* size, which the paper
    /// identifies as the dominant publish cost.
    pub fn export_deb(&self, catalog: &Catalog, id: PackageId) -> DebPackage {
        let installed = catalog.get(id).installed_size;
        self.env
            .local
            .charge_fixed(self.env.costs.deb_build(installed));
        xpl_pkg::deb::build_deb(catalog, id)
    }

    /// `virt-sysprep`-style reset: drop user data, caches and logs;
    /// charges the fixed reset cost.
    pub fn sysprep_reset(&mut self) -> u64 {
        self.env.local.charge_fixed(self.env.costs.sysprep_reset);
        self.vmi.fs.remove_user_data_and_junk()
    }

    /// Refresh the dpkg status file after package operations.
    pub fn refresh_status(&mut self, catalog: &Catalog) {
        self.vmi.refresh_status_file(catalog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fstree::{FileOwner, FileRecord, FsTree};
    use xpl_pkg::catalog::PackageSpec;
    use xpl_pkg::meta::{Dependency, FileManifest, PkgFile, Section};
    use xpl_pkg::{Arch, BaseImageAttrs, DpkgDb, Version};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(PackageSpec {
            name: "libhiredis".into(),
            version: Version::parse("0.14"),
            arch: Arch::Amd64,
            section: Section::Libs,
            essential: false,
            deb_size: 40,
            installed_size: 120,
            depends: vec![],
            manifest: FileManifest {
                files: vec![PkgFile {
                    path: IStr::new("/usr/lib/libhiredis.so"),
                    size: 120,
                    seed: 1,
                }],
            },
        });
        c.add(PackageSpec {
            name: "redis".into(),
            version: Version::parse("6.0"),
            arch: Arch::Amd64,
            section: Section::Databases,
            essential: false,
            deb_size: 100,
            installed_size: 400,
            depends: vec![Dependency::any("libhiredis")],
            manifest: FileManifest {
                files: vec![PkgFile {
                    path: IStr::new("/usr/bin/redis"),
                    size: 400,
                    seed: 2,
                }],
            },
        });
        c
    }

    fn fresh_vmi() -> Vmi {
        Vmi::assemble(
            "t",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            FsTree::new(),
            DpkgDb::new(),
            vec![],
        )
    }

    #[test]
    fn launch_charges_fixed_cost() {
        let env = SimEnv::testbed();
        let mut vmi = fresh_vmi();
        let t0 = env.clock.now();
        let _h = GuestHandle::launch(&env, &mut vmi);
        let dt = env.clock.since(t0).as_secs_f64();
        assert!((6.5..7.5).contains(&dt), "{dt}");
    }

    #[test]
    fn install_charges_by_installed_size() {
        let env = SimEnv::testbed();
        let c = catalog();
        let redis = c.newest("redis").unwrap();
        let lib = c.newest("libhiredis").unwrap();
        let mut vmi = fresh_vmi();
        let mut h = GuestHandle::launch(&env, &mut vmi);
        let big = h.install_package(&c, redis, InstallReason::Manual);
        let small = h.install_package(&c, lib, InstallReason::Auto);
        assert!(big > small);
        assert_eq!(h.vmi().file_count(), 2);
    }

    #[test]
    fn autoremove_iterates_to_fixpoint() {
        let env = SimEnv::free();
        let c = catalog();
        let redis = c.newest("redis").unwrap();
        let lib = c.newest("libhiredis").unwrap();
        let mut vmi = fresh_vmi();
        let mut h = GuestHandle::launch(&env, &mut vmi);
        h.install_package(&c, redis, InstallReason::Manual);
        h.install_package(&c, lib, InstallReason::Auto);
        // Remove the primary, then autoremove should clear the orphan lib.
        h.remove_package(&c, IStr::new("redis"));
        let removed = h.autoremove(&c);
        assert_eq!(removed.len(), 1);
        assert_eq!(h.vmi().file_count(), 0);
    }

    #[test]
    fn export_deb_returns_deterministic_package() {
        let env = SimEnv::free();
        let c = catalog();
        let redis = c.newest("redis").unwrap();
        let mut vmi = fresh_vmi();
        let h = GuestHandle::launch(&env, &mut vmi);
        let a = h.export_deb(&c, redis);
        let b = h.export_deb(&c, redis);
        assert_eq!(a.digest, b.digest);
        // Archive is at least deb_size (header can exceed it for tiny
        // packages).
        assert!(a.bytes.len() as u64 >= c.get(redis).deb_size);
    }

    #[test]
    fn sysprep_drops_user_data_and_charges() {
        let env = SimEnv::testbed();
        let mut vmi = fresh_vmi();
        vmi.fs.add_file(FileRecord {
            path: IStr::new("/home/u/x"),
            size: 500,
            seed: 3,
            owner: FileOwner::UserData,
        });
        let mut h = GuestHandle::launch(&env, &mut vmi);
        let t0 = env.clock.now();
        let dropped = h.sysprep_reset();
        assert_eq!(dropped, 500);
        assert!(env.clock.since(t0).as_secs_f64() > 7.0);
        assert_eq!(h.vmi().user_data_bytes(), 0);
    }
}
