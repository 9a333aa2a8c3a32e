//! `virt-builder`-style image construction.
//!
//! A [`BaseTemplate`] captures a distribution's base install (attribute
//! quadruple + base package set + the shared base file layer); an
//! [`ImageRecipe`] names primary packages and user data; the
//! [`ImageBuilder`] resolves the recipe against a catalog and produces a
//! ready [`Vmi`] with a materialized disk.

use crate::fstree::{FileOwner, FileRecord, FsTree};
use crate::vmi::Vmi;
use xpl_pkg::dpkgdb::InstallReason;
use xpl_pkg::{BaseImageAttrs, Catalog, DpkgDb, PackageId, ResolveError};
use xpl_util::{FxHashSet, IStr, SplitMix64};

/// A distribution base install shared by many images.
#[derive(Clone)]
pub struct BaseTemplate {
    pub attrs: BaseImageAttrs,
    /// Install closure of the base system (essential set and friends).
    pub base_packages: Vec<PackageId>,
    /// The shared base file layer (base package files + system files).
    pub base_layer: crate::fstree::FsLayer,
}

impl BaseTemplate {
    /// Build a template from the catalog: the closure of
    /// `base_package_names` plus `extra_system_files` generated
    /// deterministically (boot blobs, caches, locale archives — content
    /// the package manager does not own).
    pub fn build(
        catalog: &Catalog,
        attrs: BaseImageAttrs,
        base_package_names: &[&str],
        extra_system_files: &[(String, u32)],
        seed: u64,
    ) -> Result<BaseTemplate, ResolveError> {
        let roots: Vec<PackageId> = base_package_names
            .iter()
            .map(|n| {
                catalog
                    .newest(n)
                    .ok_or_else(|| ResolveError::UnknownPackage(IStr::new(n)))
            })
            .collect::<Result<_, _>>()?;
        let closure = catalog.install_closure(&roots, attrs.arch)?;

        let mut records: Vec<FileRecord> = Vec::new();
        let mut seen: FxHashSet<IStr> = FxHashSet::default();
        for &id in &closure {
            for f in &catalog.get(id).manifest.files {
                // First package to claim a path wins (same as dpkg).
                if seen.insert(f.path) {
                    records.push(FileRecord {
                        path: f.path,
                        size: f.size,
                        seed: f.seed,
                        owner: FileOwner::Package(id),
                    });
                }
            }
        }
        let rng = SplitMix64::new(seed);
        for (path, size) in extra_system_files {
            let path_i = IStr::new(path);
            if seen.insert(path_i) {
                let mut file_rng = rng.derive(path);
                records.push(FileRecord {
                    path: path_i,
                    size: *size,
                    seed: file_rng.next_u64(),
                    owner: FileOwner::System,
                });
            }
        }
        Ok(BaseTemplate {
            attrs,
            base_packages: closure,
            base_layer: crate::fstree::layer_from(records),
        })
    }
}

/// A group of "junk" files: package caches, logs, tmp — content that
/// mounts (and file-level stores) see, but that semantic decomposition
/// discards. Groups with equal seeds produce identical files (dedupable
/// across images); per-image seeds model image-unique noise.
#[derive(Clone, Debug)]
pub struct JunkGroup {
    /// Total materialized bytes.
    pub bytes: u64,
    pub files: u32,
    pub seed: u64,
}

/// What to build on top of a base template.
#[derive(Clone, Debug)]
pub struct ImageRecipe {
    pub name: String,
    /// Primary package names (resolved to newest matching versions).
    pub primary: Vec<String>,
    /// Pinned versions: `(name, version)` overrides for successive-build
    /// workloads. Applied when a primary name matches.
    pub pinned: Vec<(String, xpl_pkg::Version)>,
    /// User-data volume (materialized bytes) and its content seed.
    pub user_data_bytes: u64,
    pub user_data_seed: u64,
    /// Cache/log/tmp noise in the image.
    pub junk: Vec<JunkGroup>,
}

impl ImageRecipe {
    pub fn new(name: &str, primary: &[&str]) -> Self {
        ImageRecipe {
            name: name.to_string(),
            primary: primary.iter().map(|s| s.to_string()).collect(),
            pinned: Vec::new(),
            user_data_bytes: 0,
            user_data_seed: 0,
            junk: Vec::new(),
        }
    }

    pub fn with_user_data(mut self, bytes: u64, seed: u64) -> Self {
        self.user_data_bytes = bytes;
        self.user_data_seed = seed;
        self
    }

    pub fn with_pin(mut self, name: &str, version: xpl_pkg::Version) -> Self {
        self.pinned.push((name.to_string(), version));
        self
    }

    pub fn with_junk(mut self, bytes: u64, files: u32, seed: u64) -> Self {
        self.junk.push(JunkGroup { bytes, files, seed });
        self
    }
}

/// The builder.
pub struct ImageBuilder<'a> {
    pub catalog: &'a Catalog,
    pub template: &'a BaseTemplate,
}

impl<'a> ImageBuilder<'a> {
    pub fn new(catalog: &'a Catalog, template: &'a BaseTemplate) -> Self {
        ImageBuilder { catalog, template }
    }

    /// Build an image from a recipe.
    pub fn build(&self, recipe: &ImageRecipe) -> Result<Vmi, ResolveError> {
        let catalog = self.catalog;
        let host = self.template.attrs.arch;

        // 1. Base install.
        let mut fs = FsTree::with_base(std::sync::Arc::clone(&self.template.base_layer));
        let mut pkgdb = DpkgDb::new();
        for &id in &self.template.base_packages {
            let reason = if catalog.get(id).essential {
                InstallReason::Manual
            } else {
                InstallReason::Auto
            };
            pkgdb.install(catalog, id, reason);
        }

        // 2. Resolve primary packages (respecting pins).
        let mut primary_ids: Vec<PackageId> = Vec::with_capacity(recipe.primary.len());
        for name in &recipe.primary {
            let pinned = recipe.pinned.iter().find(|(n, _)| n == name);
            let id = match pinned {
                Some((_, v)) => catalog.best_match(
                    IStr::new(name),
                    &xpl_pkg::VersionReq::Exact(v.clone()),
                    host,
                )?,
                None => catalog.best_match(IStr::new(name), &xpl_pkg::VersionReq::Any, host)?,
            };
            primary_ids.push(id);
        }

        // 3. Install the primary closure (skipping what the base supplies).
        let installed_names: FxHashSet<IStr> = self
            .template
            .base_packages
            .iter()
            .map(|&id| catalog.get(id).name)
            .collect();
        let closure = catalog.install_closure(&primary_ids, host)?;
        let primary_set: FxHashSet<PackageId> = primary_ids.iter().copied().collect();
        let mut vmi = Vmi {
            name: recipe.name.clone(),
            base: self.template.attrs.clone(),
            fs: FsTree::new(),
            pkgdb: DpkgDb::new(),
            primary: primary_ids.clone(),
            disk: xpl_vdisk::QcowImage::create(0),
        };
        std::mem::swap(&mut vmi.fs, &mut fs);
        std::mem::swap(&mut vmi.pkgdb, &mut pkgdb);
        for &id in &closure {
            let name = catalog.get(id).name;
            let is_primary = primary_set.contains(&id);
            if installed_names.contains(&name) && !is_primary {
                // Dependency already satisfied by the base install.
                continue;
            }
            let reason = if is_primary {
                InstallReason::Manual
            } else {
                InstallReason::Auto
            };
            vmi.install_package_raw(catalog, id, reason);
        }

        // 4. User data.
        if recipe.user_data_bytes > 0 {
            let rng = SplitMix64::new(recipe.user_data_seed);
            let mut remaining = recipe.user_data_bytes;
            let mut i = 0;
            while remaining > 0 {
                let size = remaining.clamp(1, 2048) as u32;
                let mut frng = rng.derive(&format!("user-{i}"));
                vmi.fs.add_file(FileRecord {
                    path: IStr::new(&format!("/home/user/data/{}-{i}.bin", recipe.name)),
                    size,
                    seed: frng.next_u64(),
                    owner: FileOwner::UserData,
                });
                remaining -= size as u64;
                i += 1;
            }
        }

        // 5. Junk (caches/logs/tmp). Paths are derived from the group
        // seed, so equal seeds yield identical files across images.
        for (gi, group) in recipe.junk.iter().enumerate() {
            let rng = SplitMix64::new(group.seed ^ 0x4A554E4B);
            let files = group.files.max(1);
            let per = (group.bytes / files as u64).max(1);
            for i in 0..files {
                let dir = match i % 3 {
                    0 => "/var/cache/apt/archives",
                    1 => "/var/log/journal",
                    _ => "/tmp/build",
                };
                let mut frng = rng.derive(&format!("junk-{gi}-{i}"));
                let tag = frng.next_u64();
                let size = if i + 1 == files {
                    group.bytes - per * (files as u64 - 1)
                } else {
                    per
                };
                vmi.fs.add_file(FileRecord {
                    path: IStr::new(&format!("{dir}/j{tag:016x}")),
                    size: size.min(u32::MAX as u64) as u32,
                    seed: tag,
                    owner: FileOwner::System,
                });
            }
        }

        // 6. Status file + disk.
        vmi.refresh_status_file(catalog);
        vmi.rebuild_disk();
        Ok(vmi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_pkg::catalog::PackageSpec;
    use xpl_pkg::meta::{Dependency, FileManifest, PkgFile, Section};
    use xpl_pkg::{Arch, Version};

    fn spec(
        name: &str,
        version: &str,
        essential: bool,
        files: Vec<PkgFile>,
        deps: Vec<Dependency>,
    ) -> PackageSpec {
        let installed: u64 = files.iter().map(|f| f.size as u64).sum();
        PackageSpec {
            name: name.to_string(),
            version: Version::parse(version),
            arch: Arch::Amd64,
            section: Section::Misc,
            essential,
            deb_size: installed / 3 + 1,
            installed_size: installed,
            depends: deps,
            manifest: FileManifest { files },
        }
    }

    fn pf(path: &str, size: u32, seed: u64) -> PkgFile {
        PkgFile {
            path: IStr::new(path),
            size,
            seed,
        }
    }

    fn world() -> (Catalog, BaseTemplate) {
        let mut c = Catalog::new();
        c.add(spec(
            "libc6",
            "2.23",
            true,
            vec![pf("/lib/libc.so", 1800, 1)],
            vec![],
        ));
        c.add(spec(
            "coreutils",
            "8.25",
            true,
            vec![pf("/bin/ls", 120, 2), pf("/bin/cat", 50, 3)],
            vec![Dependency::any("libc6")],
        ));
        c.add(spec(
            "libssl",
            "1.0.2",
            false,
            vec![pf("/usr/lib/libssl.so", 400, 4)],
            vec![Dependency::any("libc6")],
        ));
        c.add(spec(
            "redis",
            "3.0.6",
            false,
            vec![pf("/usr/bin/redis-server", 700, 5)],
            vec![Dependency::any("libssl")],
        ));
        let t = BaseTemplate::build(
            &c,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            &["coreutils"],
            &[("/boot/vmlinuz".to_string(), 900)],
            77,
        )
        .unwrap();
        (c, t)
    }

    #[test]
    fn base_template_contains_closure_files() {
        let (_c, t) = world();
        // coreutils + libc6 files + boot blob.
        assert_eq!(t.base_layer.len(), 4);
        assert_eq!(t.base_packages.len(), 2);
        let bytes: u64 = t.base_layer.iter().map(|r| r.size as u64).sum();
        assert_eq!(bytes, 1800 + 120 + 50 + 900);
    }

    #[test]
    fn build_minimal_image() {
        let (c, t) = world();
        let vmi = ImageBuilder::new(&c, &t)
            .build(&ImageRecipe::new("mini", &[]))
            .unwrap();
        assert_eq!(vmi.primary.len(), 0);
        assert_eq!(vmi.pkgdb.len(), 2);
        // files: 4 base + status file.
        assert_eq!(vmi.file_count(), 5);
        assert!(vmi.disk_bytes() > 0);
    }

    #[test]
    fn build_with_primary_installs_closure() {
        let (c, t) = world();
        let vmi = ImageBuilder::new(&c, &t)
            .build(&ImageRecipe::new("redis", &["redis"]))
            .unwrap();
        assert!(vmi.pkgdb.is_installed(IStr::new("redis")));
        assert!(vmi.pkgdb.is_installed(IStr::new("libssl")));
        assert_eq!(
            vmi.pkgdb.reason_of(IStr::new("redis")),
            Some(xpl_pkg::dpkgdb::InstallReason::Manual)
        );
        assert_eq!(
            vmi.pkgdb.reason_of(IStr::new("libssl")),
            Some(xpl_pkg::dpkgdb::InstallReason::Auto)
        );
        // Base-satisfied dependency (libc6) not re-installed.
        assert!(vmi.pkgdb.is_installed(IStr::new("libc6")));
    }

    #[test]
    fn user_data_materializes() {
        let (c, t) = world();
        let recipe = ImageRecipe::new("data", &[]).with_user_data(5000, 99);
        let vmi = ImageBuilder::new(&c, &t).build(&recipe).unwrap();
        assert_eq!(vmi.user_data_bytes(), 5000);
        assert!(vmi.user_data_files().len() >= 3);
    }

    #[test]
    fn pinned_version_respected() {
        let (mut c, _) = world();
        c.add(spec(
            "redis",
            "4.0.1",
            false,
            vec![pf("/usr/bin/redis-server", 750, 6)],
            vec![],
        ));
        let t = BaseTemplate::build(
            &c,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            &["coreutils"],
            &[],
            77,
        )
        .unwrap();
        let pinned = ImageRecipe::new("r3", &["redis"]).with_pin("redis", Version::parse("3.0.6"));
        let vmi = ImageBuilder::new(&c, &t).build(&pinned).unwrap();
        let set = vmi.installed_package_set(&c);
        assert!(set.iter().any(|s| s.starts_with("redis=3.0.6")), "{set:?}");

        let latest = ImageBuilder::new(&c, &t)
            .build(&ImageRecipe::new("r4", &["redis"]))
            .unwrap();
        let set = latest.installed_package_set(&c);
        assert!(set.iter().any(|s| s.starts_with("redis=4.0.1")), "{set:?}");
    }

    #[test]
    fn identical_recipes_identical_disks() {
        let (c, t) = world();
        let b = ImageBuilder::new(&c, &t);
        let r = ImageRecipe::new("same", &["redis"]).with_user_data(1000, 5);
        let v1 = b.build(&r).unwrap();
        let v2 = b.build(&r).unwrap();
        assert_eq!(v1.disk.serialize(), v2.disk.serialize());
    }

    #[test]
    fn unknown_primary_errors() {
        let (c, t) = world();
        let err = ImageBuilder::new(&c, &t).build(&ImageRecipe::new("x", &["ghost"]));
        assert!(err.is_err());
    }
}
