//! Parameterized scaled worlds for churn workloads.
//!
//! `World::standard()` regenerates the paper's fixed 19-image catalog;
//! the churn simulator needs worlds whose package universe and image
//! catalog scale arbitrarily (and deterministically) beyond that. A
//! [`ScaledWorld`] is generated from a [`ScaleConfig`] seed:
//!
//! * a small essential base (reused from the fast test catalog),
//! * `shared_libs` generated library packages — the cross-image
//!   deduplication fodder every recipe samples from,
//! * one dedicated application package per image, registered at
//!   `versions` ascending versions so upgrade-and-republish traces can
//!   pin successive generations,
//! * `images` recipes, each combining its dedicated app, a sampled set
//!   of shared libs, per-generation junk and stable user data.
//!
//! Upgrades bump only the image's *dedicated* app (plus its fresh junk);
//! shared libs never change version. That keeps the master graph's
//! newest-version-wins union aligned with every image's latest
//! generation, which is what makes exact differential comparison across
//! all five stores possible under churn.

use crate::catalog::{add_pkg, small_catalog};
use xpl_guestfs::{BaseTemplate, ImageBuilder, ImageRecipe, Vmi};
use xpl_pkg::meta::Section;
use xpl_pkg::{Arch, BaseImageAttrs, Catalog, Version};
use xpl_util::SplitMix64;

/// Nominal MB in materialized bytes (the workspace-wide 1/1024 scale).
const MB: u64 = 1024;

/// Parameters of a generated world.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Seeds every generated name, size and sample below.
    pub seed: u64,
    /// Shared library packages (cross-image dedup fodder).
    pub shared_libs: usize,
    /// Catalog images, each with a dedicated app package.
    pub images: usize,
    /// Versions registered per dedicated app (upgrade headroom).
    pub versions: u32,
}

impl ScaleConfig {
    /// Fast scale for `cargo test`: tiny images, still well beyond the
    /// paper's 19-image catalog.
    pub fn small(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            shared_libs: 12,
            images: 32,
            versions: 5,
        }
    }

    /// Heavier scale for release-mode stress runs.
    pub fn standard(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            shared_libs: 60,
            images: 120,
            versions: 8,
        }
    }
}

/// One generated image recipe.
#[derive(Clone, Debug)]
pub(crate) struct ScaledRecipe {
    pub name: String,
    /// The image's dedicated application package (the upgrade target).
    pub app: String,
    /// Shared libraries this image also requests as primaries.
    pub libs: Vec<String>,
    junk_bytes: u64,
    junk_files: u32,
    data_bytes: u64,
    seed: u64,
}

/// A generated catalog + base template + recipe set.
pub struct ScaledWorld {
    pub catalog: Catalog,
    pub template: BaseTemplate,
    pub config: ScaleConfig,
    recipes: Vec<ScaledRecipe>,
}

fn app_name(i: usize) -> String {
    format!("app-{i:03}")
}

fn app_version(v: u32) -> Version {
    Version::parse(&format!("1.{v}.0"))
}

impl ScaledWorld {
    /// Generate the world. Same config → byte-identical catalog, recipes
    /// and images.
    pub fn generate(cfg: &ScaleConfig) -> ScaledWorld {
        assert!(cfg.versions >= 1 && cfg.images >= 1 && cfg.shared_libs >= 1);
        let mut catalog = small_catalog();
        let mut rng = SplitMix64::new(cfg.seed).derive("scaled-world");

        for j in 0..cfg.shared_libs {
            let inst = rng.next_range(1, 4);
            let files = rng.next_range(6, 20) as usize;
            add_pkg(
                &mut catalog,
                &format!("scaledlib-{j:02}"),
                "1.0-1",
                inst,
                files,
                &["libc6"],
                Section::Libs,
                false,
            );
        }
        for i in 0..cfg.images {
            let name = app_name(i);
            let inst = rng.next_range(2, 10);
            let files = rng.next_range(8, 40) as usize;
            // One fixed shared-lib dependency per app keeps closures
            // interesting without coupling upgrade targets.
            let dep = format!("scaledlib-{:02}", rng.next_below(cfg.shared_libs as u64));
            for v in 0..cfg.versions {
                add_pkg(
                    &mut catalog,
                    &name,
                    &app_version(v).to_string(),
                    inst,
                    files,
                    &["libc6", dep.as_str()],
                    Section::Servers,
                    false,
                );
            }
        }

        let template = BaseTemplate::build(
            &catalog,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            &["ubuntu-minimal"],
            &[("/boot/vmlinuz".to_string(), 2048)],
            0x5CA1ED,
        )
        .expect("scaled base template must resolve");

        let mut recipes = Vec::with_capacity(cfg.images);
        for i in 0..cfg.images {
            let mut libs = Vec::new();
            let lib_count = rng.next_range(0, 2) as usize;
            while libs.len() < lib_count {
                let lib = format!("scaledlib-{:02}", rng.next_below(cfg.shared_libs as u64));
                if !libs.contains(&lib) {
                    libs.push(lib);
                }
            }
            recipes.push(ScaledRecipe {
                name: format!("img-{i:03}"),
                app: app_name(i),
                libs,
                junk_bytes: rng.next_range(1, 3) * MB,
                junk_files: rng.next_range(6, 18) as u32,
                data_bytes: rng.next_range(1, 2) * MB,
                seed: rng.next_u64(),
            });
        }

        ScaledWorld {
            catalog,
            template,
            config: *cfg,
            recipes,
        }
    }

    /// Recipe names in catalog order.
    pub fn image_names(&self) -> Vec<String> {
        self.recipes.iter().map(|r| r.name.clone()).collect()
    }

    pub(crate) fn recipe(&self, name: &str) -> Option<&ScaledRecipe> {
        self.recipes.iter().find(|r| r.name == name)
    }

    /// Build `name` at a lifecycle generation. Generation 0 is the first
    /// publish; upgrades pin the dedicated app to the next registered
    /// version (capped at the catalog's newest) and refresh the image's
    /// fresh-junk population, while stable junk, user data and shared
    /// libs are untouched — the partial stability churn dedup exploits.
    pub fn build(&self, name: &str, generation: u32) -> Vmi {
        let r = self
            .recipe(name)
            .unwrap_or_else(|| panic!("unknown scaled recipe: {name}"));
        let pinned = generation.min(self.config.versions - 1);
        let mut primary: Vec<&str> = vec![r.app.as_str()];
        primary.extend(r.libs.iter().map(String::as_str));
        let stable = r.junk_bytes - r.junk_bytes / 3;
        let fresh = r.junk_bytes / 3;
        let recipe = ImageRecipe::new(&r.name, &primary)
            .with_pin(&r.app, app_version(pinned))
            .with_junk(stable.max(1), r.junk_files.max(1), r.seed ^ 0x57AB1E)
            .with_junk(
                fresh.max(1),
                (r.junk_files / 2).max(1),
                r.seed ^ 0xF4E54 ^ (0x9E37 + generation as u64),
            )
            .with_user_data(r.data_bytes, r.seed ^ 0xDA7A);
        ImageBuilder::new(&self.catalog, &self.template)
            .build(&recipe)
            .unwrap_or_else(|e| panic!("building {name} gen {generation} failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ScaleConfig::small(42);
        let a = ScaledWorld::generate(&cfg);
        let b = ScaledWorld::generate(&cfg);
        assert_eq!(a.image_names(), b.image_names());
        let va = a.build("img-005", 2);
        let vb = b.build("img-005", 2);
        assert_eq!(va.disk.serialize(), vb.disk.serialize());
    }

    #[test]
    fn scales_beyond_standard_catalog() {
        let w = ScaledWorld::generate(&ScaleConfig::small(7));
        assert!(w.image_names().len() > 19, "must exceed the paper's 19");
        // Dedicated app + versions all registered.
        let ids = w.catalog.versions_of(xpl_util::IStr::new("app-000"));
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn upgrade_bumps_only_the_dedicated_app() {
        let w = ScaledWorld::generate(&ScaleConfig::small(7));
        let g0 = w.build("img-003", 0);
        let g1 = w.build("img-003", 1);
        let s0 = g0.installed_package_set(&w.catalog);
        let s1 = g1.installed_package_set(&w.catalog);
        let diff: Vec<_> = s0.symmetric_difference(&s1).collect();
        assert_eq!(diff.len(), 2, "one app at two versions: {diff:?}");
        assert!(diff.iter().all(|d| d.starts_with("app-003=")));
    }

    #[test]
    fn generation_cap_keeps_newest_version() {
        let w = ScaledWorld::generate(&ScaleConfig::small(7));
        let capped = w.build("img-001", 99);
        let last = w.build("img-001", 4);
        assert_eq!(
            capped.installed_package_set(&w.catalog),
            last.installed_package_set(&w.catalog)
        );
    }
}
