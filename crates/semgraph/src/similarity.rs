//! Similarity and compatibility metrics (§III-E/F/G).

use crate::graph::{PkgVertex, SemanticGraph};
use xpl_util::FxHashMap;

/// Package similarity `simP`: product of per-attribute similarities.
/// Different names → 0 (unmatched). Same name: version similarity ×
/// architecture similarity. The paper requires `simP = 1` for semantic
/// compatibility, i.e. identical version and compatible architecture.
pub(crate) fn sim_p(a: &PkgVertex, b: &PkgVertex) -> f64 {
    if a.name != b.name {
        return 0.0;
    }
    version_similarity(&a.version, &b.version) * a.arch.similarity(b.arch)
}

/// Graded version similarity: 1 for equal, decaying with how early the
/// versions diverge (same upstream > same major > different).
fn version_similarity(a: &xpl_pkg::Version, b: &xpl_pkg::Version) -> f64 {
    if a == b {
        return 1.0;
    }
    if a.epoch != b.epoch {
        return 0.2;
    }
    if a.upstream == b.upstream {
        // Same upstream, different revision — nearly identical.
        return 0.9;
    }
    let major =
        |v: &xpl_pkg::Version| -> String { v.upstream.split('.').next().unwrap_or("").to_string() };
    if major(a) == major(b) {
        0.6
    } else {
        0.3
    }
}

/// Size similarity of a matched pair (§III-F): the larger of the two
/// sizes, normalized by the largest package across both graphs.
pub(crate) fn sim_size(a: &PkgVertex, b: &PkgVertex, max_size: u64) -> f64 {
    if max_size == 0 {
        return 0.0;
    }
    a.size.max(b.size) as f64 / max_size as f64
}

/// The VMI semantic similarity `SimG` (§III-F): `simBI` times the
/// size-weighted matched mass over the size-weighted union mass.
pub fn sim_g(g1: &SemanticGraph, g2: &SemanticGraph) -> f64 {
    let bi = g1.base.similarity(&g2.base);
    if bi == 0.0 {
        return 0.0;
    }
    let max_size = g1
        .vertices
        .iter()
        .chain(g2.vertices.iter())
        .map(|v| v.size)
        .max()
        .unwrap_or(0);
    if max_size == 0 {
        return bi; // two empty graphs: degenerate but defined
    }

    let by_name: FxHashMap<_, &PkgVertex> = g2.vertices.iter().map(|v| (v.name, v)).collect();

    // Numerator: matched pairs (name equality), weighted.
    let mut matched = 0.0;
    for v1 in &g1.vertices {
        if let Some(v2) = by_name.get(&v1.name) {
            matched += sim_size(v1, v2, max_size) * sim_p(v1, v2);
        }
    }

    // Denominator: union by identity (name, version, arch). When the same
    // identity appears in both graphs, weigh it once by the *larger* size
    // — mirroring simsize's max() — so the matched mass can never exceed
    // the union mass and the metric stays symmetric and ≤ 1 even for
    // degenerate inputs where equal identities carry different sizes.
    let mut union_sizes: FxHashMap<(xpl_util::IStr, String), u64> = FxHashMap::default();
    for v in g1.vertices.iter().chain(g2.vertices.iter()) {
        let key = (v.name, format!("{}/{}", v.version, v.arch));
        let entry = union_sizes.entry(key).or_insert(0);
        *entry = (*entry).max(v.size);
    }
    let union_mass: f64 = union_sizes
        .values()
        .map(|&s| s as f64 / max_size as f64)
        .sum();
    if union_mass == 0.0 {
        return bi;
    }
    bi * (matched / union_mass)
}

/// Semantic compatibility (§III-G): the product of `simP` over pairs of
/// packages with the same name between a base-image subgraph and a
/// primary-package subgraph. 1.0 ⇒ installable together; < 1 ⇒
/// incompatible (e.g. the primary closure pins a different version of a
/// package the base provides).
pub fn compatibility(base_sub: &SemanticGraph, primary_sub: &SemanticGraph) -> f64 {
    let mut c = 1.0;
    for pv in &primary_sub.vertices {
        if let Some(bv) = base_sub.vertex_by_name(pv.name) {
            c *= sim_p(bv, pv);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PkgRole;
    use xpl_pkg::{Arch, BaseImageAttrs, PackageId, Version};
    use xpl_util::IStr;

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

    fn graph(name: &str, vs: Vec<PkgVertex>) -> SemanticGraph {
        SemanticGraph::from_parts(
            name,
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            vs,
            vec![],
        )
    }

    #[test]
    fn sim_p_name_gate() {
        let a = vx("redis", "6.0", 100, PkgRole::Primary);
        let b = vx("nginx", "6.0", 100, PkgRole::Primary);
        assert_eq!(sim_p(&a, &b), 0.0);
        assert_eq!(sim_p(&a, &a.clone()), 1.0);
    }

    #[test]
    fn sim_p_version_grades() {
        let base = vx("redis", "6.0.1-1", 100, PkgRole::Primary);
        let same = vx("redis", "6.0.1-1", 100, PkgRole::Primary);
        let rev = vx("redis", "6.0.1-2", 100, PkgRole::Primary);
        let minor = vx("redis", "6.1.0", 100, PkgRole::Primary);
        let major = vx("redis", "7.0", 100, PkgRole::Primary);
        assert_eq!(sim_p(&base, &same), 1.0);
        assert!(sim_p(&base, &rev) > sim_p(&base, &minor));
        assert!(sim_p(&base, &minor) > sim_p(&base, &major));
        assert!(sim_p(&base, &major) > 0.0);
    }

    #[test]
    fn identical_graphs_similarity_one() {
        let g = graph(
            "a",
            vec![
                vx("libc6", "2.23", 1800, PkgRole::BaseMember),
                vx("redis", "6.0", 400, PkgRole::Primary),
            ],
        );
        let s = sim_g(&g, &g.clone());
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn disjoint_packages_similarity_zero() {
        let a = graph("a", vec![vx("redis", "6.0", 400, PkgRole::Primary)]);
        let b = graph("b", vec![vx("nginx", "1.18", 300, PkgRole::Primary)]);
        assert_eq!(sim_g(&a, &b), 0.0);
    }

    #[test]
    fn different_base_zeroes_similarity() {
        let a = graph("a", vec![vx("redis", "6.0", 400, PkgRole::Primary)]);
        let mut b = a.clone();
        b.base = BaseImageAttrs::ubuntu("18.04", Arch::Amd64);
        assert_eq!(sim_g(&a, &b), 0.0);
    }

    #[test]
    fn shared_base_heavy_overlap_high_similarity() {
        // Mirrors Table II's Redis row (0.97): image with one small
        // primary vs. master covering the same big base.
        let mut base_pkgs: Vec<PkgVertex> = (0..50)
            .map(|i| vx(&format!("base-{i}"), "1.0", 1000, PkgRole::BaseMember))
            .collect();
        let master = graph("master", base_pkgs.clone());
        base_pkgs.push(vx("redis", "6.0", 300, PkgRole::Primary));
        let redis = graph("redis", base_pkgs);
        let s = sim_g(&redis, &master);
        assert!(s > 0.9, "expected Redis-like high similarity, got {s}");
    }

    #[test]
    fn big_unique_packages_low_similarity() {
        // Mirrors Table II's MongoDB row (0.15): large unique payload.
        let base: Vec<PkgVertex> = (0..10)
            .map(|i| vx(&format!("base-{i}"), "1.0", 200, PkgRole::BaseMember))
            .collect();
        let master = graph("master", base.clone());
        let mut mongo_v = base;
        mongo_v.push(vx("mongodb", "3.6", 9000, PkgRole::Primary));
        let mongo = graph("mongo", mongo_v);
        let s = sim_g(&mongo, &master);
        assert!(s < 0.4, "expected MongoDB-like low similarity, got {s}");
    }

    #[test]
    fn sim_g_symmetric() {
        let a = graph(
            "a",
            vec![
                vx("libc6", "2.23", 1800, PkgRole::BaseMember),
                vx("redis", "6.0", 400, PkgRole::Primary),
            ],
        );
        let b = graph(
            "b",
            vec![
                vx("libc6", "2.23", 1800, PkgRole::BaseMember),
                vx("nginx", "1.18", 350, PkgRole::Primary),
            ],
        );
        assert!((sim_g(&a, &b) - sim_g(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn version_mismatch_discounts_similarity() {
        let a = graph("a", vec![vx("redis", "6.0", 400, PkgRole::Primary)]);
        let b_same = graph("b", vec![vx("redis", "6.0", 400, PkgRole::Primary)]);
        let b_diff = graph("b", vec![vx("redis", "7.0", 400, PkgRole::Primary)]);
        assert!(sim_g(&a, &b_same) > sim_g(&a, &b_diff));
    }

    #[test]
    fn compatibility_empty_intersection_is_one() {
        let base = graph("base", vec![vx("libc6", "2.23", 1800, PkgRole::BaseMember)]);
        let prim = graph("prim", vec![vx("redis", "6.0", 400, PkgRole::Primary)]);
        assert_eq!(compatibility(&base, &prim), 1.0);
    }

    #[test]
    fn compatibility_same_version_one_different_below() {
        let base = graph(
            "base",
            vec![vx("libssl", "1.0.2", 300, PkgRole::BaseMember)],
        );
        let prim_ok = graph("p1", vec![vx("libssl", "1.0.2", 300, PkgRole::Dependency)]);
        let prim_bad = graph("p2", vec![vx("libssl", "1.1.0", 300, PkgRole::Dependency)]);
        assert_eq!(compatibility(&base, &prim_ok), 1.0);
        assert!(compatibility(&base, &prim_bad) < 1.0);
    }
}
