//! Package metadata: identity, dependencies and file manifests.
//!
//! All sizes in this crate are *materialized* (real) bytes; the scale
//! model reports them ×1024. `installed_size` is always larger than
//! `deb_size` — the paper's publish-time analysis hinges on this
//! distinction ("installation size … always larger than the size of a
//! software packaged in the .deb or .rpm format").

use crate::arch::Arch;
use crate::version::Version;
use xpl_util::IStr;

/// Dense package identifier within a [`crate::Catalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackageId(pub u32);

/// Broad package classification; drives synthetic file-population shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Section {
    /// Core OS bits (libc, coreutils, …) — part of every base image.
    Base,
    Libs,
    Interpreters,
    Servers,
    Databases,
    Web,
    Devel,
    Desktop,
    Editors,
    Utils,
    Misc,
}

impl Section {
    pub fn as_str(self) -> &'static str {
        match self {
            Section::Base => "base",
            Section::Libs => "libs",
            Section::Interpreters => "interpreters",
            Section::Servers => "servers",
            Section::Databases => "databases",
            Section::Web => "web",
            Section::Devel => "devel",
            Section::Desktop => "desktop",
            Section::Editors => "editors",
            Section::Utils => "utils",
            Section::Misc => "misc",
        }
    }
}

/// A version constraint in a dependency declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VersionReq {
    /// Any version satisfies.
    Any,
    /// Exactly this version (`=`).
    Exact(Version),
    /// This version or newer (`>=`).
    AtLeast(Version),
}

impl VersionReq {
    pub(crate) fn matches(&self, v: &Version) -> bool {
        match self {
            VersionReq::Any => true,
            VersionReq::Exact(x) => v == x,
            VersionReq::AtLeast(x) => v >= x,
        }
    }
}

impl std::fmt::Display for VersionReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VersionReq::Any => write!(f, "*"),
            VersionReq::Exact(v) => write!(f, "= {v}"),
            VersionReq::AtLeast(v) => write!(f, ">= {v}"),
        }
    }
}

/// One edge of the dependency graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependency {
    pub name: IStr,
    pub req: VersionReq,
}

impl Dependency {
    pub fn any(name: &str) -> Dependency {
        Dependency {
            name: IStr::new(name),
            req: VersionReq::Any,
        }
    }
}

/// One file a package installs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PkgFile {
    pub path: IStr,
    /// Materialized size in bytes.
    pub size: u32,
    /// Content seed: same seed + size ⇒ identical bytes, which is what
    /// makes file-level dedup (Mirage/Hemera) find cross-image redundancy.
    pub seed: u64,
}

/// The complete file population a package installs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileManifest {
    pub files: Vec<PkgFile>,
}

impl FileManifest {
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size as u64).sum()
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// Full description of one package (one name+version+arch build).
#[derive(Clone, Debug)]
pub struct PackageMeta {
    pub id: PackageId,
    pub name: IStr,
    pub version: Version,
    pub arch: Arch,
    pub section: Section,
    /// Essential packages are part of every base image and are never
    /// exported or removed by decomposition.
    pub essential: bool,
    /// Packed (`.deb`) size, materialized bytes.
    pub deb_size: u64,
    /// Installed size, materialized bytes (≈ manifest total).
    pub installed_size: u64,
    pub depends: Vec<Dependency>,
    pub manifest: FileManifest,
}

impl PackageMeta {
    /// `name=version/arch` — the identity string used in digests and logs.
    pub fn identity(&self) -> String {
        format!("{}={}/{}", self.name, self.version, self.arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_req_matching() {
        let v1 = Version::parse("1.2");
        let v2 = Version::parse("2.0");
        assert!(VersionReq::Any.matches(&v1));
        assert!(VersionReq::Exact(v1.clone()).matches(&v1));
        assert!(!VersionReq::Exact(v1.clone()).matches(&v2));
        assert!(VersionReq::AtLeast(v1.clone()).matches(&v2));
        assert!(!VersionReq::AtLeast(v2).matches(&v1));
    }

    #[test]
    fn manifest_totals() {
        let m = FileManifest {
            files: vec![
                PkgFile {
                    path: IStr::new("/usr/bin/tool"),
                    size: 100,
                    seed: 1,
                },
                PkgFile {
                    path: IStr::new("/usr/share/doc/tool"),
                    size: 50,
                    seed: 2,
                },
            ],
        };
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.file_count(), 2);
    }

    #[test]
    fn at_least_requirement_matches_and_renders() {
        let d = Dependency {
            name: IStr::new("libc6"),
            req: VersionReq::AtLeast(Version::parse("2.27")),
        };
        assert_eq!(d.name.as_str(), "libc6");
        assert!(d.req.matches(&Version::parse("2.31")));
        assert!(!d.req.matches(&Version::parse("2.19")));
        assert_eq!(format!("{}", d.req), ">= 2.27");
    }
}
