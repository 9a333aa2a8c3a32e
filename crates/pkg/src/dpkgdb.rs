//! Per-image installed-package database (the `/var/lib/dpkg/status`
//! analogue).
//!
//! Tracks which packages are installed in an image and whether each was
//! requested explicitly (a *primary* package, in the paper's terms) or
//! pulled in as a dependency. Supports the autoremove-style query that
//! Algorithm 1's `removeUnusedDependencies` step needs.

use crate::arch::Arch;
use crate::catalog::{Catalog, ResolveError};
use crate::meta::PackageId;
use xpl_util::{FxHashMap, FxHashSet, IStr};

/// Why a package is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallReason {
    /// Explicitly requested (primary package or base-image member).
    Manual,
    /// Pulled in as a dependency.
    Auto,
}

/// The installed-package database of one image.
#[derive(Clone, Default)]
pub struct DpkgDb {
    installed: FxHashMap<IStr, (PackageId, InstallReason)>,
}

impl DpkgDb {
    pub fn new() -> Self {
        DpkgDb::default()
    }

    /// Record `id` as installed. A later install of the same name replaces
    /// the entry (upgrade). Manual reason is sticky: once manual, a
    /// re-install as Auto keeps Manual.
    pub fn install(&mut self, catalog: &Catalog, id: PackageId, reason: InstallReason) {
        let name = catalog.get(id).name;
        let reason = match self.installed.get(&name) {
            Some((_, InstallReason::Manual)) => InstallReason::Manual,
            _ => reason,
        };
        self.installed.insert(name, (id, reason));
    }

    /// Remove by name; returns the removed package id if present.
    pub fn remove(&mut self, name: IStr) -> Option<PackageId> {
        self.installed.remove(&name).map(|(id, _)| id)
    }

    pub fn is_installed(&self, name: IStr) -> bool {
        self.installed.contains_key(&name)
    }

    pub fn reason_of(&self, name: IStr) -> Option<InstallReason> {
        self.installed.get(&name).map(|(_, r)| *r)
    }

    /// All installed package ids, sorted for determinism.
    pub fn installed_ids(&self) -> Vec<PackageId> {
        let mut v: Vec<PackageId> = self.installed.values().map(|(id, _)| *id).collect();
        v.sort();
        v
    }

    /// Ids of manually installed packages, sorted.
    pub fn manual_ids(&self) -> Vec<PackageId> {
        let mut v: Vec<PackageId> = self
            .installed
            .values()
            .filter(|(_, r)| *r == InstallReason::Manual)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    pub fn len(&self) -> usize {
        self.installed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.installed.is_empty()
    }

    /// Mark a package manual (e.g. promoted to primary).
    pub fn mark_manual(&mut self, name: IStr) {
        if let Some(entry) = self.installed.get_mut(&name) {
            entry.1 = InstallReason::Manual;
        }
    }

    /// Autoremove candidates: auto-installed packages not in the install
    /// closure of any manual package. This implements Algorithm 1's
    /// `removeUnusedDependencies` after primary packages are deleted.
    pub fn unused_dependencies(
        &self,
        catalog: &Catalog,
        host: Arch,
    ) -> Result<Vec<PackageId>, ResolveError> {
        let manual = self.manual_ids();
        let needed: FxHashSet<PackageId> = catalog
            .install_closure(&manual, host)?
            .into_iter()
            .collect();
        // A package participates by identity of its installed version; an
        // auto package whose *name* is required but at a different version
        // is still "used" (the dependency is satisfied by what's there).
        let needed_names: FxHashSet<IStr> = needed.iter().map(|&id| catalog.get(id).name).collect();
        let mut out: Vec<PackageId> = self
            .installed
            .values()
            .filter(|(id, r)| {
                *r == InstallReason::Auto && !needed_names.contains(&catalog.get(*id).name)
            })
            .map(|(id, _)| *id)
            .collect();
        out.sort();
        Ok(out)
    }

    /// Render a dpkg-status-like text file; its bytes live inside the
    /// image filesystem, so images with different package sets differ in
    /// content even where their other files agree.
    pub fn render_status(&self, catalog: &Catalog) -> String {
        let mut ids = self.installed_ids();
        ids.sort_by_key(|&id| catalog.get(id).name.as_str());
        let mut out = String::new();
        for id in ids {
            let p = catalog.get(id);
            out.push_str(&format!(
                "Package: {}\nStatus: install ok installed\nVersion: {}\nArchitecture: {}\n\n",
                p.name, p.version, p.arch
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PackageSpec;
    use crate::meta::{Dependency, FileManifest, Section};
    use crate::Version;

    fn spec(name: &str, version: &str, deps: &[Dependency]) -> PackageSpec {
        PackageSpec {
            name: name.to_string(),
            version: Version::parse(version),
            arch: Arch::Amd64,
            section: Section::Misc,
            essential: false,
            deb_size: 10,
            installed_size: 30,
            depends: deps.to_vec(),
            manifest: FileManifest::default(),
        }
    }

    fn world() -> (Catalog, PackageId, PackageId, PackageId) {
        let mut c = Catalog::new();
        let libc = c.add(spec("libc6", "2.31", &[]));
        let ssl = c.add(spec("openssl", "1.1", &[Dependency::any("libc6")]));
        let redis = c.add(spec("redis", "6.0", &[Dependency::any("openssl")]));
        (c, libc, ssl, redis)
    }

    #[test]
    fn install_and_query() {
        let (c, libc, _, redis) = world();
        let mut db = DpkgDb::new();
        db.install(&c, redis, InstallReason::Manual);
        db.install(&c, libc, InstallReason::Auto);
        assert!(db.is_installed(IStr::new("redis")));
        assert_eq!(db.reason_of(IStr::new("libc6")), Some(InstallReason::Auto));
        assert_eq!(db.len(), 2);
        assert_eq!(db.manual_ids(), vec![redis]);
    }

    #[test]
    fn manual_reason_is_sticky() {
        let (c, libc, _, _) = world();
        let mut db = DpkgDb::new();
        db.install(&c, libc, InstallReason::Manual);
        db.install(&c, libc, InstallReason::Auto);
        assert_eq!(
            db.reason_of(IStr::new("libc6")),
            Some(InstallReason::Manual)
        );
    }

    #[test]
    fn unused_dependencies_found_after_primary_removal() {
        let (c, libc, ssl, redis) = world();
        let mut db = DpkgDb::new();
        db.install(&c, redis, InstallReason::Manual);
        db.install(&c, ssl, InstallReason::Auto);
        db.install(&c, libc, InstallReason::Auto);
        // Nothing unused while redis is installed.
        assert!(db.unused_dependencies(&c, Arch::Amd64).unwrap().is_empty());
        // Remove the primary: both deps become unused.
        db.remove(IStr::new("redis"));
        let unused = db.unused_dependencies(&c, Arch::Amd64).unwrap();
        assert_eq!(unused, vec![libc, ssl]);
    }

    #[test]
    fn shared_dependency_kept_while_needed() {
        let mut c = Catalog::new();
        let libc = c.add(spec("libc6", "2.31", &[]));
        let a = c.add(spec("a", "1.0", &[Dependency::any("libc6")]));
        let b = c.add(spec("b", "1.0", &[Dependency::any("libc6")]));
        let mut db = DpkgDb::new();
        db.install(&c, a, InstallReason::Manual);
        db.install(&c, b, InstallReason::Manual);
        db.install(&c, libc, InstallReason::Auto);
        db.remove(IStr::new("a"));
        // libc still needed by b.
        assert!(db.unused_dependencies(&c, Arch::Amd64).unwrap().is_empty());
        db.remove(IStr::new("b"));
        assert_eq!(db.unused_dependencies(&c, Arch::Amd64).unwrap(), vec![libc]);
    }

    #[test]
    fn upgrade_replaces_version() {
        let mut c = Catalog::new();
        let v1 = c.add(spec("tool", "1.0", &[]));
        let v2 = c.add(spec("tool", "2.0", &[]));
        let mut db = DpkgDb::new();
        db.install(&c, v1, InstallReason::Manual);
        assert_eq!(db.installed_ids(), vec![v1]);
        db.install(&c, v2, InstallReason::Manual);
        assert_eq!(db.installed_ids(), vec![v2]);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn status_render_is_sorted_and_complete() {
        let (c, libc, ssl, redis) = world();
        let mut db = DpkgDb::new();
        db.install(&c, redis, InstallReason::Manual);
        db.install(&c, ssl, InstallReason::Auto);
        db.install(&c, libc, InstallReason::Auto);
        let s = db.render_status(&c);
        let li = s.find("Package: libc6").unwrap();
        let oi = s.find("Package: openssl").unwrap();
        let ri = s.find("Package: redis").unwrap();
        assert!(li < oi && oi < ri, "sorted by name");
        assert_eq!(s.matches("Status: install ok installed").count(), 3);
    }
}
