//! The assembled evaluation world.

use crate::catalog::{base_system_files, small_catalog, standard_catalog};
use crate::recipes::{ide_build_recipe, table2_recipes};
use xpl_guestfs::{BaseTemplate, ImageBuilder, ImageRecipe, Vmi};
use xpl_pkg::{Arch, BaseImageAttrs, Catalog};
use xpl_simio::SimEnv;

/// Catalog + base template + recipes: everything needed to regenerate the
/// paper's workloads.
pub struct World {
    pub catalog: Catalog,
    pub template: BaseTemplate,
    recipes: Vec<ImageRecipe>,
}

impl World {
    /// The full evaluation world (19 Table II images + 40 IDE builds
    /// available via [`World::ide_build`]).
    pub fn standard() -> World {
        let catalog = standard_catalog(40);
        let template = BaseTemplate::build(
            &catalog,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            &["ubuntu-minimal"],
            &base_system_files(),
            0x16_04,
        )
        .expect("standard base template must resolve");
        World {
            catalog,
            template,
            recipes: table2_recipes(),
        }
    }

    /// A miniature world for unit tests, doctests and quick examples.
    pub fn small() -> World {
        let catalog = small_catalog();
        let template = BaseTemplate::build(
            &catalog,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            &["ubuntu-minimal"],
            &[("/boot/vmlinuz".to_string(), 2048)],
            0x5A11,
        )
        .expect("small base template must resolve");
        let recipes = vec![
            ImageRecipe::new("mini", &[]),
            ImageRecipe::new("redis", &["redis-server"]).with_user_data(512, 1),
            ImageRecipe::new("nginx", &["nginx"]).with_user_data(256, 2),
            ImageRecipe::new("lamp", &["apache2", "mysql-server-5.7", "php7.0"])
                .with_junk(512, 8, 9)
                .with_user_data(512, 3),
        ];
        World {
            catalog,
            template,
            recipes,
        }
    }

    /// A fresh simulated environment (testbed profile, zeroed clock).
    pub fn env(&self) -> SimEnv {
        SimEnv::testbed()
    }

    /// Recipe names in upload order.
    pub fn image_names(&self) -> Vec<&str> {
        self.recipes.iter().map(|r| r.name.as_str()).collect()
    }

    pub(crate) fn recipe(&self, name: &str) -> Option<&ImageRecipe> {
        self.recipes.iter().find(|r| r.name == name)
    }

    /// Build one image by recipe name (deterministic).
    pub fn build_image(&self, name: &str) -> Vmi {
        let recipe = self
            .recipe(name)
            .unwrap_or_else(|| panic!("unknown image recipe: {name}"));
        ImageBuilder::new(&self.catalog, &self.template)
            .build(recipe)
            .unwrap_or_else(|e| panic!("building {name} failed: {e}"))
    }

    /// Build the k-th successive IDE build (standard world only; the
    /// catalog carries 40 bumped version sets).
    pub fn ide_build(&self, k: u32) -> Vmi {
        ImageBuilder::new(&self.catalog, &self.template)
            .build(&ide_build_recipe(k))
            .unwrap_or_else(|e| panic!("building IDE build {k} failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_util::bytesize::nominal_gb;

    #[test]
    fn small_world_builds_images() {
        let w = World::small();
        let mini = w.build_image("mini");
        let redis = w.build_image("redis");
        assert!(redis.mounted_bytes() > mini.mounted_bytes());
        assert!(redis
            .pkgdb
            .is_installed(xpl_util::IStr::new("redis-server")));
        assert_eq!(w.image_names(), vec!["mini", "redis", "nginx", "lamp"]);
    }

    #[test]
    fn small_world_deterministic() {
        let w = World::small();
        let a = w.build_image("lamp");
        let b = w.build_image("lamp");
        assert_eq!(a.disk.serialize(), b.disk.serialize());
    }

    // The standard-world tests are heavier (seconds); they pin the
    // workload's Table II shape.
    #[test]
    fn standard_mini_matches_table2_scale() {
        let w = World::standard();
        let mini = w.build_image("Mini");
        let gb = nominal_gb(mini.mounted_bytes());
        assert!((1.75..2.1).contains(&gb), "Mini mounted {gb:.3} GB");
        let files = mini.file_count();
        assert!((60_000..90_000).contains(&files), "Mini files {files}");
    }

    #[test]
    fn standard_mounted_sizes_track_paper_ordering() {
        let w = World::standard();
        let mini = w.build_image("Mini");
        let cassandra = w.build_image("Cassandra");
        let ide = w.build_image("IDE");
        let elastic = w.build_image("Elastic Stack");
        // Paper: Mini 1.913 < Cassandra 2.531 < IDE 2.727; Elastic 2.671.
        assert!(mini.mounted_bytes() < cassandra.mounted_bytes());
        assert!(cassandra.mounted_bytes() < ide.mounted_bytes());
        assert!(elastic.mounted_bytes() > cassandra.mounted_bytes());
        // Elastic has by far the most files (paper: 103 719).
        assert!(elastic.file_count() > ide.file_count());
    }

    #[test]
    fn ide_builds_differ_only_modestly() {
        let w = World::standard();
        let b0 = w.ide_build(0);
        let b1 = w.ide_build(1);
        // Same primary set, bumped versions.
        assert_eq!(b0.primary.len(), b1.primary.len());
        let s0 = b0.installed_package_set(&w.catalog);
        let s1 = b1.installed_package_set(&w.catalog);
        let diff = s0.symmetric_difference(&s1).count();
        assert_eq!(diff, 6, "3 packages × 2 versions differ, got {diff}");
        // Mounted sizes nearly equal.
        let delta = b0.mounted_bytes().abs_diff(b1.mounted_bytes());
        assert!(delta < b0.mounted_bytes() / 50, "delta {delta}");
    }
}
