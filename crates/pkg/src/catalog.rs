//! The package universe and its dependency resolver.
//!
//! A [`Catalog`] holds every package (all versions) that exists in the
//! synthetic distribution. The resolver computes *install closures* —
//! breadth-first expansion of dependencies picking the newest version that
//! satisfies each constraint — and tolerates dependency cycles (the paper's
//! Figure 1 explicitly models the `libc6`/`perl-base`/`dpkg` cycle).

use crate::arch::Arch;
use crate::meta::{Dependency, FileManifest, PackageId, PackageMeta, Section, VersionReq};
use crate::version::Version;
use xpl_util::{FxHashMap, FxHashSet, IStr};

/// Resolution failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// Dependency names a package that does not exist at all.
    UnknownPackage(IStr),
    /// Package exists but no version satisfies the constraint.
    NoMatchingVersion { name: IStr, req: String },
    /// Package exists but is not installable on the requested architecture.
    ArchMismatch { name: IStr, host: Arch },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::UnknownPackage(n) => write!(f, "unknown package {n}"),
            ResolveError::NoMatchingVersion { name, req } => {
                write!(f, "no version of {name} satisfies {req}")
            }
            ResolveError::ArchMismatch { name, host } => {
                write!(f, "{name} not installable on {host}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// The package universe.
#[derive(Default)]
pub struct Catalog {
    packages: Vec<PackageMeta>,
    /// name → package ids, kept sorted by version ascending.
    by_name: FxHashMap<IStr, Vec<PackageId>>,
}

/// Builder-style argument bundle for [`Catalog::add`].
pub struct PackageSpec {
    pub name: String,
    pub version: Version,
    pub arch: Arch,
    pub section: Section,
    pub essential: bool,
    pub deb_size: u64,
    pub installed_size: u64,
    pub depends: Vec<Dependency>,
    pub manifest: FileManifest,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a package; returns its id.
    pub fn add(&mut self, spec: PackageSpec) -> PackageId {
        let id = PackageId(self.packages.len() as u32);
        let name = IStr::new(&spec.name);
        let meta = PackageMeta {
            id,
            name,
            version: spec.version,
            arch: spec.arch,
            section: spec.section,
            essential: spec.essential,
            deb_size: spec.deb_size,
            installed_size: spec.installed_size,
            depends: spec.depends,
            manifest: spec.manifest,
        };
        self.packages.push(meta);
        let packages = &self.packages;
        let versions = self.by_name.entry(name).or_default();
        versions.push(id);
        // Keep versions sorted ascending so "newest satisfying" is a
        // reverse scan.
        versions.sort_by(|&a, &b| {
            packages[a.0 as usize]
                .version
                .cmp(&packages[b.0 as usize].version)
        });
        id
    }

    pub fn get(&self, id: PackageId) -> &PackageMeta {
        &self.packages[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.packages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &PackageMeta> {
        self.packages.iter()
    }

    /// All ids registered under a name, version-ascending.
    pub fn versions_of(&self, name: IStr) -> &[PackageId] {
        self.by_name.get(&name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Newest version of a package by name.
    pub fn newest(&self, name: &str) -> Option<PackageId> {
        self.by_name
            .get(&IStr::new(name))
            .and_then(|v| v.last().copied())
    }

    /// Newest version satisfying `req` and installable on `host`.
    pub fn best_match(
        &self,
        name: IStr,
        req: &VersionReq,
        host: Arch,
    ) -> Result<PackageId, ResolveError> {
        let versions = self
            .by_name
            .get(&name)
            .ok_or(ResolveError::UnknownPackage(name))?;
        let mut arch_ok = false;
        for &id in versions.iter().rev() {
            let p = self.get(id);
            if p.arch.installable_on(host) {
                arch_ok = true;
                if req.matches(&p.version) {
                    return Ok(id);
                }
            }
        }
        if arch_ok {
            Err(ResolveError::NoMatchingVersion {
                name,
                req: req.to_string(),
            })
        } else {
            Err(ResolveError::ArchMismatch { name, host })
        }
    }

    /// Compute the install closure of `roots`: every package required,
    /// directly or transitively, deduplicated, cycle-safe, in
    /// deterministic (BFS discovery) order. Roots come first.
    pub fn install_closure(
        &self,
        roots: &[PackageId],
        host: Arch,
    ) -> Result<Vec<PackageId>, ResolveError> {
        let mut seen: FxHashSet<PackageId> = FxHashSet::default();
        let mut order: Vec<PackageId> = Vec::new();
        let mut queue: std::collections::VecDeque<PackageId> = std::collections::VecDeque::new();
        for &r in roots {
            if seen.insert(r) {
                order.push(r);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            // Clone the dependency list to keep the borrow checker happy
            // (deps are tiny).
            let deps = self.get(id).depends.clone();
            for dep in deps {
                let target = self.best_match(dep.name, &dep.req, host)?;
                if seen.insert(target) {
                    order.push(target);
                    queue.push_back(target);
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn closure_simple_chain() {
        let mut c = Catalog::new();
        let libc = c.add(spec("libc6", "2.31", &[]));
        let ssl = c.add(spec("openssl", "1.1", &[Dependency::any("libc6")]));
        let nginx = c.add(spec("nginx", "1.18", &[Dependency::any("openssl")]));
        let closure = c.install_closure(&[nginx], Arch::Amd64).unwrap();
        assert_eq!(closure, vec![nginx, ssl, libc]);
    }

    #[test]
    fn closure_handles_cycles() {
        // The paper's libc6 / perl-base / dpkg cycle.
        let mut c = Catalog::new();
        let libc = c.add(spec("libc6", "2.31", &[Dependency::any("perl-base")]));
        let perl = c.add(spec("perl-base", "5.30", &[Dependency::any("dpkg")]));
        let dpkg = c.add(spec("dpkg", "1.19", &[Dependency::any("libc6")]));
        let closure = c.install_closure(&[libc], Arch::Amd64).unwrap();
        assert_eq!(closure.len(), 3);
        assert!(closure.contains(&perl) && closure.contains(&dpkg));
    }

    #[test]
    fn best_match_picks_newest_satisfying() {
        let mut c = Catalog::new();
        c.add(spec("redis", "5.0", &[]));
        let v6 = c.add(spec("redis", "6.0", &[]));
        let v4 = c.add(spec("redis", "4.0", &[]));
        assert_eq!(c.newest("redis"), Some(v6));
        let req = VersionReq::AtLeast(Version::parse("4.5"));
        assert_eq!(
            c.best_match(IStr::new("redis"), &req, Arch::Amd64).unwrap(),
            v6
        );
        let exact = VersionReq::Exact(Version::parse("4.0"));
        assert_eq!(
            c.best_match(IStr::new("redis"), &exact, Arch::Amd64)
                .unwrap(),
            v4
        );
    }

    #[test]
    fn unknown_package_errors() {
        let c = Catalog::new();
        let e = c.best_match(IStr::new("ghost"), &VersionReq::Any, Arch::Amd64);
        assert!(matches!(e, Err(ResolveError::UnknownPackage(_))));
    }

    #[test]
    fn no_matching_version_errors() {
        let mut c = Catalog::new();
        c.add(spec("tool", "1.0", &[]));
        let req = VersionReq::AtLeast(Version::parse("2.0"));
        let e = c.best_match(IStr::new("tool"), &req, Arch::Amd64);
        assert!(matches!(e, Err(ResolveError::NoMatchingVersion { .. })));
    }

    #[test]
    fn arch_mismatch_errors() {
        let mut c = Catalog::new();
        c.add(spec("tool", "1.0", &[]));
        let e = c.best_match(IStr::new("tool"), &VersionReq::Any, Arch::Arm64);
        assert!(matches!(e, Err(ResolveError::ArchMismatch { .. })));
    }

    #[test]
    fn all_arch_resolves_on_any_host() {
        let mut c = Catalog::new();
        let mut s = spec("docs", "1.0", &[]);
        s.arch = Arch::All;
        let id = c.add(s);
        assert_eq!(
            c.best_match(IStr::new("docs"), &VersionReq::Any, Arch::Arm64)
                .unwrap(),
            id
        );
    }

    #[test]
    fn diamond_dependencies_deduplicate() {
        let mut c = Catalog::new();
        let libc = c.add(spec("libc6", "2.31", &[]));
        c.add(spec("liba", "1.0", &[Dependency::any("libc6")]));
        c.add(spec("libb", "1.0", &[Dependency::any("libc6")]));
        let app = c.add(spec(
            "app",
            "1.0",
            &[Dependency::any("liba"), Dependency::any("libb")],
        ));
        let closure = c.install_closure(&[app], Arch::Amd64).unwrap();
        assert_eq!(closure.len(), 4);
        assert_eq!(closure.iter().filter(|&&p| p == libc).count(), 1);
    }

    #[test]
    fn closure_is_deterministic() {
        let mut c = Catalog::new();
        c.add(spec("z", "1.0", &[]));
        c.add(spec("a", "1.0", &[Dependency::any("z")]));
        let root = c.add(spec(
            "m",
            "1.0",
            &[Dependency::any("a"), Dependency::any("z")],
        ));
        let c1 = c.install_closure(&[root], Arch::Amd64).unwrap();
        let c2 = c.install_closure(&[root], Arch::Amd64).unwrap();
        assert_eq!(c1, c2);
    }
}
