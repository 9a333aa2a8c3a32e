//! The semantic graph and its subgraphs.

use xpl_pkg::{Arch, BaseImageAttrs, Catalog, PackageId, Version};
use xpl_util::{FxHashMap, FxHashSet, IStr};

/// Why a package vertex is in the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PkgRole {
    /// User-requested primary package (`PS`).
    Primary,
    /// Dependency of a primary package (`DS`).
    Dependency,
    /// Member of the base install.
    BaseMember,
}

/// A package vertex: the semantic attributes of §III-C plus installed
/// size (materialized bytes) for the `simsize` weighting.
#[derive(Clone, Debug)]
pub struct PkgVertex {
    pub pkg: PackageId,
    pub name: IStr,
    pub version: Version,
    pub arch: Arch,
    /// Installed size, materialized bytes.
    pub size: u64,
    pub role: PkgRole,
}

impl PkgVertex {
    pub(crate) fn from_catalog(catalog: &Catalog, id: PackageId, role: PkgRole) -> Self {
        let m = catalog.get(id);
        PkgVertex {
            pkg: id,
            name: m.name,
            version: m.version.clone(),
            arch: m.arch,
            size: m.installed_size,
            role,
        }
    }

    /// Identity triple used for union-by-identity in SimG.
    pub fn identity(&self) -> (IStr, &Version, Arch) {
        (self.name, &self.version, self.arch)
    }
}

/// The VMI semantic graph.
#[derive(Clone)]
pub struct SemanticGraph {
    /// Image name (for diagnostics and master-graph membership lists).
    pub image: String,
    pub base: BaseImageAttrs,
    pub vertices: Vec<PkgVertex>,
    /// Dependency edges between vertices (indices into `vertices`).
    /// Cycles are legal (§III-B).
    pub edges: Vec<(u32, u32)>,
    by_name: FxHashMap<IStr, u32>,
}

impl SemanticGraph {
    /// Build a graph from explicit parts (used by tests and the master-
    /// graph machinery).
    pub fn from_parts(
        image: &str,
        base: BaseImageAttrs,
        vertices: Vec<PkgVertex>,
        edges: Vec<(u32, u32)>,
    ) -> Self {
        let by_name = vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name, i as u32))
            .collect();
        SemanticGraph {
            image: image.to_string(),
            base,
            vertices,
            edges,
            by_name,
        }
    }

    /// Construct the semantic graph of an image: vertices for every
    /// installed package, edges from the catalog's dependency
    /// declarations.
    ///
    /// Role precedence: a package explicitly requested is `Primary`; a
    /// package reachable from `base_roots` (the base install) is
    /// `BaseMember` *even if a primary also depends on it* — the base
    /// provides it (Algorithm 3 line 7 skips such packages at assembly);
    /// remaining packages in the primary closure are `Dependency`.
    pub fn of_image(
        catalog: &Catalog,
        image: &str,
        base: BaseImageAttrs,
        installed: &[PackageId],
        primary: &[PackageId],
        base_roots: &[PackageId],
    ) -> SemanticGraph {
        let primary_set: FxHashSet<PackageId> = primary.iter().copied().collect();
        let base_closure: FxHashSet<IStr> = catalog
            .install_closure(base_roots, base.arch)
            .map(|ids| ids.into_iter().map(|id| catalog.get(id).name).collect())
            .unwrap_or_default();

        let mut vertices = Vec::with_capacity(installed.len());
        for &id in installed {
            let name = catalog.get(id).name;
            let role = if primary_set.contains(&id) {
                PkgRole::Primary
            } else if base_closure.contains(&name) {
                PkgRole::BaseMember
            } else {
                PkgRole::Dependency
            };
            vertices.push(PkgVertex::from_catalog(catalog, id, role));
        }

        let by_name: FxHashMap<IStr, u32> = vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name, i as u32))
            .collect();
        let mut edges = Vec::new();
        for (i, v) in vertices.iter().enumerate() {
            for dep in &catalog.get(v.pkg).depends {
                if let Some(&j) = by_name.get(&dep.name) {
                    edges.push((i as u32, j));
                }
            }
        }
        SemanticGraph {
            image: image.to_string(),
            base,
            vertices,
            edges,
            by_name,
        }
    }

    pub(crate) fn vertex_by_name(&self, name: IStr) -> Option<&PkgVertex> {
        self.by_name.get(&name).map(|&i| &self.vertices[i as usize])
    }

    pub fn package_count(&self) -> usize {
        self.vertices.len()
    }

    /// Total installed bytes across vertices (materialized).
    pub fn total_size(&self) -> u64 {
        self.vertices.iter().map(|v| v.size).sum()
    }

    /// The base-image subgraph `G_I[BI]`: base-member vertices and edges
    /// among them.
    pub fn base_subgraph(&self) -> SemanticGraph {
        self.filtered(&format!("{}[BI]", self.image), |v| {
            v.role == PkgRole::BaseMember
        })
    }

    /// The primary-package subgraph `G_I[PS]`: primary vertices plus their
    /// dependency vertices, and edges among them.
    pub fn primary_subgraph(&self) -> SemanticGraph {
        self.filtered(&format!("{}[PS]", self.image), |v| {
            matches!(v.role, PkgRole::Primary | PkgRole::Dependency)
        })
    }

    /// Keep only vertices satisfying `keep`, remapping edges.
    pub(crate) fn filtered(&self, name: &str, keep: impl Fn(&PkgVertex) -> bool) -> SemanticGraph {
        let mut map = vec![u32::MAX; self.vertices.len()];
        let mut vertices = Vec::new();
        for (i, v) in self.vertices.iter().enumerate() {
            if keep(v) {
                map[i] = vertices.len() as u32;
                vertices.push(v.clone());
            }
        }
        let edges = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                let (na, nb) = (map[a as usize], map[b as usize]);
                (na != u32::MAX && nb != u32::MAX).then_some((na, nb))
            })
            .collect();
        SemanticGraph::from_parts(name, self.base.clone(), vertices, edges)
    }

    /// Does the graph contain a dependency cycle? (Fig. 1 shows cycles are
    /// expected, so this is a diagnostic, not a validation failure.)
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: cycle iff not all vertices drain.
        let n = self.vertices.len();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &self.edges {
            indeg[b as usize] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut drained = 0;
        while let Some(i) = queue.pop() {
            drained += 1;
            for &(a, b) in &self.edges {
                if a as usize == i {
                    indeg[b as usize] -= 1;
                    if indeg[b as usize] == 0 {
                        queue.push(b as usize);
                    }
                }
            }
        }
        drained < n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_pkg::catalog::PackageSpec;
    use xpl_pkg::meta::{Dependency, FileManifest, Section};

    fn spec(name: &str, version: &str, size: u64, deps: Vec<Dependency>) -> PackageSpec {
        PackageSpec {
            name: name.to_string(),
            version: Version::parse(version),
            arch: Arch::Amd64,
            section: Section::Misc,
            essential: false,
            deb_size: size / 3 + 1,
            installed_size: size,
            depends: deps,
            manifest: FileManifest::default(),
        }
    }

    /// Figure 1's world: debian base (libc6/perl-base/dpkg cycle, bash,
    /// coreutils) + MariaDB and Tomcat8 primaries with dependencies.
    fn figure1() -> (Catalog, SemanticGraph) {
        let mut c = Catalog::new();
        let libc = c.add(spec(
            "libc6",
            "2.24",
            1800,
            vec![Dependency::any("perl-base")],
        ));
        let perl = c.add(spec(
            "perl-base",
            "5.24",
            600,
            vec![Dependency::any("dpkg")],
        ));
        let dpkg = c.add(spec("dpkg", "1.18", 400, vec![Dependency::any("libc6")]));
        let bash = c.add(spec("bash", "4.4", 120, vec![Dependency::any("libc6")]));
        let core = c.add(spec(
            "coreutils",
            "8.26",
            150,
            vec![Dependency::any("libc6")],
        ));
        let jdk = c.add(spec(
            "openjdk",
            "8u141",
            900,
            vec![Dependency::any("libc6")],
        ));
        let ucf = c.add(spec("ucf", "3.0", 30, vec![Dependency::any("coreutils")]));
        let gawk = c.add(spec("gawk", "4.1", 80, vec![Dependency::any("libc6")]));
        let maria = c.add(spec(
            "mariadb",
            "10.1",
            500,
            vec![Dependency::any("libc6"), Dependency::any("gawk")],
        ));
        let tomcat = c.add(spec(
            "tomcat8",
            "8.5",
            250,
            vec![Dependency::any("openjdk"), Dependency::any("ucf")],
        ));
        let installed = vec![libc, perl, dpkg, bash, core, jdk, ucf, gawk, maria, tomcat];
        let base_roots = vec![libc, bash, core];
        let g = SemanticGraph::of_image(
            &c,
            "fig1",
            BaseImageAttrs {
                os_type: xpl_pkg::OsType::Linux,
                distro: "debian".into(),
                version: "9".into(),
                arch: Arch::Amd64,
            },
            &installed,
            &[maria, tomcat],
            &base_roots,
        );
        (c, g)
    }

    #[test]
    fn roles_assigned_correctly() {
        let (_c, g) = figure1();
        assert_eq!(
            g.vertex_by_name(IStr::new("mariadb")).unwrap().role,
            PkgRole::Primary
        );
        assert_eq!(
            g.vertex_by_name(IStr::new("tomcat8")).unwrap().role,
            PkgRole::Primary
        );
        assert_eq!(
            g.vertex_by_name(IStr::new("gawk")).unwrap().role,
            PkgRole::Dependency
        );
        assert_eq!(
            g.vertex_by_name(IStr::new("openjdk")).unwrap().role,
            PkgRole::Dependency
        );
        assert_eq!(
            g.vertex_by_name(IStr::new("bash")).unwrap().role,
            PkgRole::BaseMember
        );
    }

    #[test]
    fn figure1_has_the_cycle() {
        let (_c, g) = figure1();
        assert!(g.has_cycle(), "libc6/perl-base/dpkg cycle expected");
    }

    #[test]
    fn subgraphs_partition_roles() {
        let (_c, g) = figure1();
        let base = g.base_subgraph();
        let prim = g.primary_subgraph();
        assert!(base.vertices.iter().all(|v| v.role == PkgRole::BaseMember));
        assert!(prim
            .vertices
            .iter()
            .all(|v| matches!(v.role, PkgRole::Primary | PkgRole::Dependency)));
        assert_eq!(
            base.package_count() + prim.package_count(),
            g.package_count()
        );
        // Edges inside subgraphs reference only subgraph vertices.
        for &(a, b) in &prim.edges {
            assert!((a as usize) < prim.vertices.len());
            assert!((b as usize) < prim.vertices.len());
        }
    }

    #[test]
    fn total_size_sums_vertices() {
        let (_c, g) = figure1();
        assert_eq!(
            g.total_size(),
            1800 + 600 + 400 + 120 + 150 + 900 + 30 + 80 + 500 + 250
        );
    }

    #[test]
    fn acyclic_graph_reports_no_cycle() {
        let g = SemanticGraph::from_parts(
            "t",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            vec![],
            vec![],
        );
        assert!(!g.has_cycle());
    }
}
