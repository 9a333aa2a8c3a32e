//! Master graphs (§III-H).
//!
//! A master graph `G_M[T,D,V,A]` merges every stored VMI with base-image
//! attributes `(T,D,V,A)`: one base-image subgraph plus the union of all
//! member images' primary-package subgraphs (all of which are semantically
//! compatible with the base). Its purpose is to reduce similarity
//! computation: a new image is compared against one master per attribute
//! quadruple instead of every stored image.

use crate::graph::{PkgVertex, SemanticGraph};
use crate::similarity::sim_g;
use xpl_pkg::BaseImageAttrs;
use xpl_util::{FxHashMap, IStr};

/// The `(T, D, V, A)` key, rendered canonically.
pub(crate) type MasterKey = String;

/// A master graph.
#[derive(Clone)]
pub struct MasterGraph {
    pub key: MasterKey,
    pub base: BaseImageAttrs,
    /// The single base-image subgraph.
    pub base_vertices: Vec<PkgVertex>,
    /// Union of member primary-package subgraph vertices, by name. On
    /// conflict the newer version wins (upgrades in later uploads).
    pub packages: FxHashMap<IStr, PkgVertex>,
    /// Dependency edges among `packages` (by name, as vertex order is
    /// unstable under union).
    pub edges: Vec<(IStr, IStr)>,
    /// Image names merged into this master.
    pub members: Vec<String>,
}

impl MasterGraph {
    /// Create a master from one image's graph (Algorithm 1 line 16,
    /// `createMasterGraph`).
    pub fn create(graph: &SemanticGraph) -> MasterGraph {
        let base_sub = graph.base_subgraph();
        let mut m = MasterGraph {
            key: graph.base.key(),
            base: graph.base.clone(),
            base_vertices: base_sub.vertices.clone(),
            packages: FxHashMap::default(),
            edges: Vec::new(),
            members: Vec::new(),
        };
        m.absorb(graph);
        m
    }

    /// Merge an image's primary-package subgraph into the master
    /// (Algorithm 1 line 21, `G_M ← G_M ∪ G_I[PS]`).
    pub fn absorb(&mut self, graph: &SemanticGraph) {
        debug_assert_eq!(
            graph.base.key(),
            self.key,
            "master graphs are per-quadruple"
        );
        let prim = graph.primary_subgraph();
        for v in &prim.vertices {
            match self.packages.get(&v.name) {
                Some(existing) if existing.version >= v.version => {}
                _ => {
                    self.packages.insert(v.name, v.clone());
                }
            }
        }
        for &(a, b) in &prim.edges {
            let ea = prim.vertices[a as usize].name;
            let eb = prim.vertices[b as usize].name;
            if !self.edges.contains(&(ea, eb)) {
                self.edges.push((ea, eb));
            }
        }
        self.members.push(graph.image.clone());
    }

    /// Merge another master's packages (Algorithm 1 lines 22–26: when a
    /// base image is replaced, its master's primary packages move here).
    pub fn absorb_master(&mut self, other: &MasterGraph) {
        for (name, v) in &other.packages {
            match self.packages.get(name) {
                Some(existing) if existing.version >= v.version => {}
                _ => {
                    self.packages.insert(*name, v.clone());
                }
            }
        }
        for e in &other.edges {
            if !self.edges.contains(e) {
                self.edges.push(*e);
            }
        }
        self.members.extend(other.members.iter().cloned());
    }

    /// Render the master as a plain graph for similarity computation
    /// (base vertices + union packages).
    pub fn as_graph(&self) -> SemanticGraph {
        let mut vertices = self.base_vertices.clone();
        let mut names: Vec<&IStr> = self.packages.keys().collect();
        names.sort_by_key(|n| n.as_str());
        for n in names {
            vertices.push(self.packages[n].clone());
        }
        let by_name: FxHashMap<IStr, u32> = vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name, i as u32))
            .collect();
        let edges = self
            .edges
            .iter()
            .filter_map(|(a, b)| Some((*by_name.get(a)?, *by_name.get(b)?)))
            .collect();
        SemanticGraph::from_parts(
            &format!("master{}", self.key),
            self.base.clone(),
            vertices,
            edges,
        )
    }

    /// Similarity of an image graph to this master (§IV-B: "compares the
    /// newly uploaded VMI with the appropriate master graph").
    pub fn similarity_to(&self, graph: &SemanticGraph) -> f64 {
        sim_g(graph, &self.as_graph())
    }

    pub fn package_count(&self) -> usize {
        self.packages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PkgRole;
    use xpl_pkg::{Arch, PackageId, Version};

    fn vx(name: &str, version: &str, size: u64, role: PkgRole) -> PkgVertex {
        PkgVertex {
            pkg: PackageId(0),
            name: IStr::new(name),
            version: Version::parse(version),
            arch: Arch::Amd64,
            size,
            role,
        }
    }

    fn image(name: &str, primaries: &[(&str, &str, u64)]) -> SemanticGraph {
        let mut vs = vec![
            vx("libc6", "2.23", 1800, PkgRole::BaseMember),
            vx("bash", "4.4", 120, PkgRole::BaseMember),
        ];
        for (n, v, s) in primaries {
            vs.push(vx(n, v, *s, PkgRole::Primary));
        }
        SemanticGraph::from_parts(
            name,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            vs,
            vec![],
        )
    }

    #[test]
    fn create_captures_base_and_packages() {
        let g = image("redis", &[("redis", "6.0", 400)]);
        let m = MasterGraph::create(&g);
        assert_eq!(m.base_vertices.len(), 2);
        assert_eq!(m.package_count(), 1);
        assert_eq!(m.members, vec!["redis"]);
        assert_eq!(m.key, "[linux,ubuntu,16.04,amd64]");
    }

    #[test]
    fn absorb_unions_packages() {
        let mut m = MasterGraph::create(&image("redis", &[("redis", "6.0", 400)]));
        m.absorb(&image("nginx", &[("nginx", "1.18", 350)]));
        assert_eq!(m.package_count(), 2);
        assert_eq!(m.members.len(), 2);
        // Absorbing the same package again doesn't duplicate.
        m.absorb(&image("redis2", &[("redis", "6.0", 400)]));
        assert_eq!(m.package_count(), 2);
    }

    #[test]
    fn absorb_keeps_newest_version() {
        let mut m = MasterGraph::create(&image("r5", &[("redis", "5.0", 380)]));
        m.absorb(&image("r6", &[("redis", "6.0", 400)]));
        assert_eq!(
            m.packages[&IStr::new("redis")].version,
            Version::parse("6.0")
        );
        // Older upload later does not downgrade.
        m.absorb(&image("r4", &[("redis", "4.0", 300)]));
        assert_eq!(
            m.packages[&IStr::new("redis")].version,
            Version::parse("6.0")
        );
    }

    #[test]
    fn identical_image_high_similarity_to_master() {
        let g = image("redis", &[("redis", "6.0", 400)]);
        let m = MasterGraph::create(&g);
        let s = m.similarity_to(&image("redis-again", &[("redis", "6.0", 400)]));
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn master_reduces_comparisons_but_matches_pairwise_best() {
        // The master over {redis, nginx} should give a lemp-like image a
        // similarity at least as high as its best pairwise match.
        let redis = image("redis", &[("redis", "6.0", 400)]);
        let nginx = image("nginx", &[("nginx", "1.18", 350)]);
        let mut m = MasterGraph::create(&redis);
        m.absorb(&nginx);
        let lemp = image("lemp", &[("nginx", "1.18", 350), ("redis", "6.0", 400)]);
        let s_master = m.similarity_to(&lemp);
        let s_pair = sim_g(&lemp, &redis).max(sim_g(&lemp, &nginx));
        assert!(
            s_master >= s_pair - 1e-9,
            "master {s_master} vs pairwise {s_pair}"
        );
    }

    #[test]
    fn absorb_master_moves_packages() {
        let mut a = MasterGraph::create(&image("redis", &[("redis", "6.0", 400)]));
        let b = MasterGraph::create(&image("nginx", &[("nginx", "1.18", 350)]));
        a.absorb_master(&b);
        assert_eq!(a.package_count(), 2);
        assert!(a.members.contains(&"nginx".to_string()));
    }

    #[test]
    fn as_graph_is_deterministic() {
        let mut m = MasterGraph::create(&image("a", &[("zzz", "1", 10)]));
        m.absorb(&image("b", &[("aaa", "1", 10)]));
        let g1 = m.as_graph();
        let g2 = m.as_graph();
        let names1: Vec<&str> = g1.vertices.iter().map(|v| v.name.as_str()).collect();
        let names2: Vec<&str> = g2.vertices.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names1, names2);
    }
}
