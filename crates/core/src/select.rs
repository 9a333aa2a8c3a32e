//! Base-image selection (Algorithm 2).
//!
//! Given the base image left over after decomposition, pick which base to
//! keep: the new one, or an already-stored semantically identical one —
//! and compute the *replace list* of stored bases the chosen one makes
//! redundant (their master graphs' packages are all compatible with it).
//! Candidates are ranked by (more replaced bases, smaller base, already
//! stored) exactly as the paper's sort criteria describe.
//!
//! Pseudocode fixes (the published listing has two typos): line 16 must
//! destructure `j` (not `i` again), and `replaceList` must be reset per
//! candidate `i`; both are corrected here.

use crate::repo::SemanticState;
use xpl_pkg::BaseImageAttrs;
use xpl_semgraph::{compatibility, SemanticGraph};

/// Outcome of base-image selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// `None` ⇒ keep (store) the incoming base; `Some(id)` ⇒ reuse the
    /// stored base with that id.
    pub chosen_existing: Option<String>,
    /// Stored base ids made redundant by the choice (to be absorbed and
    /// deleted — Algorithm 1 lines 22–28).
    pub replace: Vec<String>,
}

/// One candidate row of Algorithm 2's `list3`/`list4`.
struct Candidate {
    /// `None` = the incoming base.
    id: Option<String>,
    base_graph: SemanticGraph,
    /// Union of the primary packages hosted on this base (for stored
    /// bases: the master's packages; for the incoming base: the incoming
    /// image's primary subgraph).
    hosted: SemanticGraph,
    replace: Vec<String>,
    base_size: u64,
}

/// Run Algorithm 2.
///
/// * `attrs`/`base_graph` — the incoming base image after decomposition.
/// * `primary_subgraph` — the incoming image's `G_I[PS]`.
pub fn select_base_image(
    semantic: &SemanticState,
    attrs: &BaseImageAttrs,
    base_graph: &SemanticGraph,
    primary_subgraph: &SemanticGraph,
) -> Selection {
    // list3: the incoming base + every stored base with simBI = 1.
    let mut candidates: Vec<Candidate> = vec![Candidate {
        id: None,
        base_graph: base_graph.clone(),
        hosted: primary_subgraph.clone(),
        replace: Vec::new(),
        base_size: base_graph.total_size(),
    }];
    for stored in semantic.bases_with_attrs(&attrs.key()) {
        if attrs.similarity(&stored.attrs) == 1.0 {
            if let Some(master) = semantic.masters.get(&stored.id) {
                candidates.push(Candidate {
                    id: Some(stored.id.clone()),
                    base_graph: stored.base_graph.clone(),
                    hosted: master.as_graph(),
                    replace: Vec::new(),
                    base_size: stored.base_graph.total_size(),
                });
            }
        }
    }

    // For each candidate i, collect every other candidate j it can
    // replace: i's base must be compatible with j's hosted packages
    // (Algorithm 2 lines 13–19). The *incoming* base participates as a
    // replaceable entry too — that is how a stored base qualifies at line
    // 30 via "BI ∈ replaceList". `can_host_incoming[i]` records that case;
    // `replace` keeps only stored ids (those are what Algorithm 1 deletes).
    let n = candidates.len();
    let mut can_host_incoming = vec![false; n];
    for i in 0..n {
        let mut replace = Vec::new();
        for j in 0..n {
            if i == j {
                continue;
            }
            if compatibility(&candidates[i].base_graph, &candidates[j].hosted) == 1.0 {
                match &candidates[j].id {
                    Some(jid) => replace.push(jid.clone()),
                    None => can_host_incoming[i] = true,
                }
            }
        }
        candidates[i].replace = replace;
    }

    // list4 sort (Algorithm 2 line 27): more replacements first, then
    // smaller base, then already-stored bases (avoid unnecessary storage).
    // The incoming base counts itself as hosted, mirroring the paper's
    // replace-list semantics where every candidate's list draws from the
    // same list3.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ca = &candidates[a];
        let cb = &candidates[b];
        let ra = ca.replace.len() + usize::from(can_host_incoming[a]);
        let rb = cb.replace.len() + usize::from(can_host_incoming[b]);
        rb.cmp(&ra)
            .then(ca.base_size.cmp(&cb.base_size))
            .then(cb.id.is_some().cmp(&ca.id.is_some()))
    });

    // Lines 28–32: first candidate that either *is* the incoming base or
    // can replace it.
    for &i in &order {
        let cand = &candidates[i];
        match &cand.id {
            None => {
                return Selection {
                    chosen_existing: None,
                    replace: cand.replace.clone(),
                };
            }
            Some(id) => {
                if can_host_incoming[i] {
                    return Selection {
                        chosen_existing: Some(id.clone()),
                        replace: cand.replace.clone(),
                    };
                }
            }
        }
    }
    // Line 33: fall back to storing the incoming base.
    Selection {
        chosen_existing: None,
        replace: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::ExpelliarmusRepo;
    use xpl_store::ImageStore;
    use xpl_workloads::World;

    fn graph_of(w: &World, name: &str) -> (SemanticGraph, SemanticGraph) {
        let vmi = w.build_image(name);
        let installed = vmi.pkgdb.installed_ids();
        let primary_set: std::collections::HashSet<_> = vmi.primary.iter().copied().collect();
        let base_roots: Vec<_> = vmi
            .pkgdb
            .manual_ids()
            .into_iter()
            .filter(|id| !primary_set.contains(id))
            .collect();
        let g = SemanticGraph::of_image(
            &w.catalog,
            name,
            vmi.base.clone(),
            &installed,
            &vmi.primary,
            &base_roots,
        );
        (g.base_subgraph(), g.primary_subgraph())
    }

    #[test]
    fn empty_repo_selects_incoming() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let (base_g, prim_g) = graph_of(&w, "redis");
        let attrs = w.template.attrs.clone();
        let cat = repo.state.read();
        let sel = select_base_image(&cat.semantic, &attrs, &base_g, &prim_g);
        assert_eq!(sel.chosen_existing, None);
        assert!(sel.replace.is_empty());
    }

    #[test]
    fn compatible_stored_base_reused() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();
        assert_eq!(repo.base_count(), 1);

        let (base_g, prim_g) = graph_of(&w, "redis");
        let attrs = w.template.attrs.clone();
        let cat = repo.state.read();
        let sel = select_base_image(&cat.semantic, &attrs, &base_g, &prim_g);
        assert!(
            sel.chosen_existing.is_some(),
            "should reuse the stored base"
        );
    }

    #[test]
    fn incompatible_attrs_not_considered() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();

        let (mut base_g, prim_g) = graph_of(&w, "redis");
        let mut attrs = w.template.attrs.clone();
        attrs.version = "18.04".into();
        base_g.base = attrs.clone();
        let cat = repo.state.read();
        let sel = select_base_image(&cat.semantic, &attrs, &base_g, &prim_g);
        assert_eq!(
            sel.chosen_existing, None,
            "different quadruple must store new base"
        );
    }
}

#[cfg(test)]
mod replacement_tests {
    use super::*;
    use crate::repo::{ExpelliarmusRepo, StoredBase};
    use xpl_pkg::{Arch, BaseImageAttrs, PackageId, Version};
    use xpl_semgraph::{PkgRole, PkgVertex};
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

    fn base_graph(extra: &[(&str, &str)]) -> SemanticGraph {
        let mut vs = vec![
            vx("libc6", "2.23", 1800, PkgRole::BaseMember),
            vx("bash", "4.4", 120, PkgRole::BaseMember),
        ];
        for (n, v) in extra {
            vs.push(vx(n, v, 100, PkgRole::BaseMember));
        }
        SemanticGraph::from_parts(
            "bi",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            vs,
            vec![],
        )
    }

    fn prim_graph(pkgs: &[(&str, &str)]) -> SemanticGraph {
        let vs = pkgs
            .iter()
            .map(|(n, v)| vx(n, v, 300, PkgRole::Primary))
            .collect();
        SemanticGraph::from_parts(
            "ps",
            BaseImageAttrs::ubuntu("16.04", Arch::Amd64),
            vs,
            vec![],
        )
    }

    /// Inject a stored base + master directly into repository state
    /// (bypasses publish, to construct multi-base scenarios that the
    /// single-flavour worlds cannot reach).
    fn inject_base(repo: &ExpelliarmusRepo, id: &str, bg: SemanticGraph, ps: SemanticGraph) {
        let mut full = SemanticGraph::from_parts(id, bg.base.clone(), bg.vertices.clone(), vec![]);
        full.vertices.extend(ps.vertices.iter().cloned());
        let full = SemanticGraph::from_parts(id, bg.base.clone(), full.vertices, vec![]);
        let master = xpl_semgraph::MasterGraph::create(&full);
        let mut cat = repo.state.write();
        let sem = &mut cat.semantic;
        sem.bases.push(StoredBase {
            id: id.to_string(),
            attrs: bg.base.clone(),
            fs: xpl_guestfs::FsTree::new(),
            pkgdb: xpl_pkg::DpkgDb::new(),
            qcow_bytes: bg.total_size(),
            base_graph: bg,
        });
        sem.masters.insert(id.to_string(), master);
    }

    #[test]
    fn candidate_replacing_more_bases_wins() {
        // Two stored bases with the same quadruple, mutually compatible
        // masters. The incoming base (same content class) must pick one
        // existing base and report the other as replaceable.
        let world = xpl_workloads::World::small();
        let repo = ExpelliarmusRepo::new(world.env());
        inject_base(
            &repo,
            "base:a",
            base_graph(&[]),
            prim_graph(&[("redis", "6.0")]),
        );
        inject_base(
            &repo,
            "base:b",
            base_graph(&[]),
            prim_graph(&[("nginx", "1.18")]),
        );

        let incoming_bg = base_graph(&[]);
        let incoming_ps = prim_graph(&[("postgres", "9.5")]);
        let cat = repo.state.read();
        let sel = select_base_image(
            &cat.semantic,
            &incoming_bg.base.clone(),
            &incoming_bg,
            &incoming_ps,
        );
        let chosen = sel.chosen_existing.expect("must reuse a stored base");
        assert!(chosen == "base:a" || chosen == "base:b");
        // The other stored base is redundant (compatible) → replace list.
        assert_eq!(sel.replace.len(), 1);
        assert_ne!(sel.replace[0], chosen);
    }

    #[test]
    fn incompatible_stored_base_not_replaced() {
        // base:b hosts a package pinned at a version that conflicts with
        // base:a's content → a cannot replace b.
        let world = xpl_workloads::World::small();
        let repo = ExpelliarmusRepo::new(world.env());
        // base:a ships libwidget 2.0 in its base.
        inject_base(
            &repo,
            "base:a",
            base_graph(&[("libwidget", "2.0")]),
            prim_graph(&[("redis", "6.0")]),
        );
        // base:b's master hosts a primary needing libwidget 1.0 exactly.
        inject_base(
            &repo,
            "base:b",
            base_graph(&[("libwidget", "1.0")]),
            prim_graph(&[("libwidget", "1.0")]),
        );

        // Incoming base matches a's flavour.
        let incoming_bg = base_graph(&[("libwidget", "2.0")]);
        let incoming_ps = prim_graph(&[("mongo", "3.6")]);
        let cat = repo.state.read();
        let sel = select_base_image(
            &cat.semantic,
            &incoming_bg.base.clone(),
            &incoming_bg,
            &incoming_ps,
        );
        // Whatever is chosen, base:b must not be replaced by a 2.0-flavour
        // base (its hosted package pins 1.0).
        if let Some(chosen) = &sel.chosen_existing {
            if chosen == "base:a" {
                assert!(!sel.replace.contains(&"base:b".to_string()));
            }
        } else {
            assert!(!sel.replace.contains(&"base:b".to_string()));
        }
    }

    #[test]
    fn publish_after_replacement_keeps_invariants() {
        // End-to-end: two synthetic bases, then a real publish that can
        // consolidate them; invariants must hold afterwards.
        let world = xpl_workloads::World::small();
        let repo = ExpelliarmusRepo::new(world.env());
        use xpl_store::ImageStore;
        repo.publish(&world.catalog, &world.build_image("mini"))
            .unwrap();
        repo.publish(&world.catalog, &world.build_image("redis"))
            .unwrap();
        repo.publish(&world.catalog, &world.build_image("lamp"))
            .unwrap();
        repo.check_invariants().unwrap();
        assert_eq!(repo.base_count(), 1, "one quadruple → one base");
    }
}
