//! `.deb`-style binary package construction.
//!
//! Expelliarmus's decomposer recreates binary packages from installed
//! trees (`dpkg-repack`-style) and stores them in the repository; the
//! assembler imports them back. The binary blob built here is
//! deterministic for a given `(name, version, arch)` — that is what makes
//! package-level deduplication exact — and its size is the package's
//! `deb_size` (smaller than `installed_size`, modelling compression of the
//! payload inside the archive).

use crate::catalog::Catalog;
use crate::meta::PackageId;
use xpl_util::{Digest, Sha256};

/// A built binary package.
#[derive(Clone, Debug)]
pub struct DebPackage {
    pub package: PackageId,
    /// Identity string `name=version/arch`.
    pub identity: String,
    /// The archive bytes (control member + payload).
    pub bytes: Vec<u8>,
    pub digest: Digest,
}

/// Magic prefix of the archive format (stand-in for `!<arch>\ndebian-binary`).
const MAGIC: &[u8; 8] = b"XDEB\x01\x00\x00\x00";

/// Build the binary package for `id`.
///
/// Layout: magic, control paragraph (text), file index (path + size +
/// content digest per manifest entry), then a deterministic compressed-
/// payload stand-in sized so the total equals `deb_size`.
pub fn build_deb(catalog: &Catalog, id: PackageId) -> DebPackage {
    let meta = catalog.get(id);
    let mut bytes = Vec::with_capacity(meta.deb_size as usize + 256);
    bytes.extend_from_slice(MAGIC);

    // Control paragraph — same fields dpkg writes.
    let mut control = String::new();
    control.push_str(&format!("Package: {}\n", meta.name));
    control.push_str(&format!("Version: {}\n", meta.version));
    control.push_str(&format!("Architecture: {}\n", meta.arch));
    control.push_str(&format!("Section: {}\n", meta.section.as_str()));
    control.push_str(&format!("Installed-Size: {}\n", meta.installed_size));
    if !meta.depends.is_empty() {
        let deps: Vec<String> = meta
            .depends
            .iter()
            .map(|d| format!("{} ({})", d.name, d.req))
            .collect();
        control.push_str(&format!("Depends: {}\n", deps.join(", ")));
    }
    bytes.extend_from_slice(&(control.len() as u32).to_le_bytes());
    bytes.extend_from_slice(control.as_bytes());

    // File index, as a compact rollup: count + one digest over all
    // entries. (A literal per-file index would be ~40 *real* bytes per
    // file — 40 KB nominal under the scale model — and would dwarf the
    // payload for file-heavy packages; the rollup keeps the archive's
    // content identity sensitive to every manifest entry at realistic
    // size.)
    bytes.extend_from_slice(&(meta.manifest.files.len() as u32).to_le_bytes());
    let mut index = xpl_util::Sha256::new();
    for f in &meta.manifest.files {
        index.update(f.path.as_str().as_bytes());
        index.update(&f.size.to_le_bytes());
        index.update(&crate::content::content_digest(f.seed, f.size as usize).0[..8]);
    }
    bytes.extend_from_slice(&index.finalize().0);

    // Compressed-payload stand-in: deterministic bytes keyed on identity,
    // padding the archive to deb_size (if the header already exceeds it,
    // the archive is just the header — tiny packages).
    let identity = meta.identity();
    if (bytes.len() as u64) < meta.deb_size {
        let pad = meta.deb_size as usize - bytes.len();
        let mut rng = xpl_util::SplitMix64::new(0xDEB0).derive(&identity);
        let start = bytes.len();
        bytes.resize(start + pad, 0);
        rng.fill_bytes(&mut bytes[start..]);
    }

    let digest = Sha256::digest(&bytes);
    DebPackage {
        package: id,
        identity,
        bytes,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PackageSpec;
    use crate::meta::{Dependency, FileManifest, PkgFile, Section, VersionReq};
    use crate::{Arch, Version};
    use xpl_util::IStr;

    fn catalog_with_redis() -> (Catalog, PackageId) {
        let mut c = Catalog::new();
        c.add(PackageSpec {
            name: "libc6".into(),
            version: Version::parse("2.31"),
            arch: Arch::Amd64,
            section: Section::Base,
            essential: true,
            deb_size: 2000,
            installed_size: 6000,
            depends: vec![],
            manifest: FileManifest::default(),
        });
        let redis = c.add(PackageSpec {
            name: "redis-server".into(),
            version: Version::parse("5.0.7"),
            arch: Arch::Amd64,
            section: Section::Databases,
            essential: false,
            deb_size: 800,
            installed_size: 2600,
            depends: vec![Dependency {
                name: IStr::new("libc6"),
                req: VersionReq::AtLeast(Version::parse("2.27")),
            }],
            manifest: FileManifest {
                files: vec![
                    PkgFile {
                        path: IStr::new("/usr/bin/redis-server"),
                        size: 1800,
                        seed: 11,
                    },
                    PkgFile {
                        path: IStr::new("/etc/redis/redis.conf"),
                        size: 800,
                        seed: 12,
                    },
                ],
            },
        });
        (c, redis)
    }

    #[test]
    fn deterministic_bytes_and_digest() {
        let (c, redis) = catalog_with_redis();
        let a = build_deb(&c, redis);
        let b = build_deb(&c, redis);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.identity, "redis-server=5.0.7/amd64");
    }

    #[test]
    fn archive_size_equals_deb_size() {
        let (c, redis) = catalog_with_redis();
        let deb = build_deb(&c, redis);
        assert_eq!(deb.bytes.len() as u64, c.get(redis).deb_size);
    }

    #[test]
    fn control_fields_present() {
        let (c, redis) = catalog_with_redis();
        let deb = build_deb(&c, redis);
        let text = String::from_utf8_lossy(&deb.bytes);
        assert!(text.contains("Package: redis-server"));
        assert!(text.contains("Version: 5.0.7"));
        assert!(text.contains("Depends: libc6 (>= 2.27)"));
    }

    #[test]
    fn different_versions_different_digests() {
        let (mut c, redis) = catalog_with_redis();
        let redis2 = c.add(PackageSpec {
            name: "redis-server".into(),
            version: Version::parse("6.0.1"),
            arch: Arch::Amd64,
            section: Section::Databases,
            essential: false,
            deb_size: 820,
            installed_size: 2700,
            depends: vec![],
            manifest: FileManifest::default(),
        });
        assert_ne!(build_deb(&c, redis).digest, build_deb(&c, redis2).digest);
    }

    #[test]
    fn tiny_package_header_dominates() {
        let mut c = Catalog::new();
        let id = c.add(PackageSpec {
            name: "tiny".into(),
            version: Version::parse("0.1"),
            arch: Arch::All,
            section: Section::Misc,
            essential: false,
            deb_size: 4, // smaller than the header — allowed
            installed_size: 10,
            depends: vec![],
            manifest: FileManifest::default(),
        });
        let deb = build_deb(&c, id);
        assert!(deb.bytes.len() >= MAGIC.len());
    }
}
