//! The semantic analyzer (§IV-B).
//!
//! Builds the uploaded VMI's semantic graph by querying the guest package
//! manager through the launched handle, then compares it against the
//! master graphs sharing its attribute quadruple. The master-graph design
//! means one comparison per quadruple instead of one per stored image; the
//! paper reports <100 ms of similarity computation per VMI, which is what
//! the `sim_per_vertex` charge reproduces.

use crate::repo::SemanticState;
use xpl_guestfs::{GuestHandle, Vmi};
use xpl_pkg::Catalog;
use xpl_semgraph::SemanticGraph;
use xpl_simio::{SimDuration, SimEnv};

/// Result of analyzing an uploaded image.
pub struct Analysis {
    pub graph: SemanticGraph,
    /// Best similarity against a same-quadruple master (0 if none exists —
    /// Table II row 1 reports 0 for Mini on the empty repository).
    pub similarity: f64,
}

/// Analyze `vmi` through `handle`, consulting the current masters. The
/// caller passes the semantic section of the catalog it already holds.
pub fn analyze(
    env: &SimEnv,
    semantic: &SemanticState,
    catalog: &Catalog,
    handle: &GuestHandle<'_>,
    vmi: &Vmi,
) -> Analysis {
    // Graph construction: one package-manager query per installed package
    // (charged inside `installed_packages`).
    let installed = handle.installed_packages(catalog);
    // Base roots: manually installed packages that are not primaries —
    // i.e. the essential/base install the template provided.
    let primary_set: std::collections::HashSet<_> = vmi.primary.iter().copied().collect();
    let base_roots: Vec<_> = vmi
        .pkgdb
        .manual_ids()
        .into_iter()
        .filter(|id| !primary_set.contains(id))
        .collect();
    let graph = SemanticGraph::of_image(
        catalog,
        &vmi.name,
        vmi.base.clone(),
        &installed,
        &vmi.primary,
        &base_roots,
    );

    // Similarity against each master with the same attribute quadruple.
    let key = vmi.base.key();
    let mut best: Option<f64> = None;
    for base in semantic.bases_with_attrs(&key) {
        if let Some(master) = semantic.masters.get(&base.id) {
            let compared =
                graph.package_count() + master.package_count() + master.base_vertices.len();
            env.local
                .charge_fixed(SimDuration(env.costs.sim_per_vertex.0 * compared as u64));
            let s = master.similarity_to(&graph);
            if best.is_none_or(|b| s > b) {
                best = Some(s);
            }
        }
    }
    Analysis {
        graph,
        similarity: best.unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::ExpelliarmusRepo;
    use xpl_store::ImageStore;
    use xpl_workloads::World;

    #[test]
    fn first_image_has_zero_similarity() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let mut mini = w.build_image("mini");
        let env = repo.env().clone();
        let handle = GuestHandle::launch(&env, &mut mini);
        let vmi_copy = handle.vmi().clone();
        let cat = repo.state.read();
        let a = analyze(&env, &cat.semantic, &w.catalog, &handle, &vmi_copy);
        assert_eq!(a.similarity, 0.0);
        assert!(a.graph.package_count() > 3);
    }

    #[test]
    fn second_similar_image_scores_high() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let mini = w.build_image("mini");
        repo.publish(&w.catalog, &mini).unwrap();

        let mut redis = w.build_image("redis");
        let env = repo.env().clone();
        let handle = GuestHandle::launch(&env, &mut redis);
        let vmi_copy = handle.vmi().clone();
        let cat = repo.state.read();
        let a = analyze(&env, &cat.semantic, &w.catalog, &handle, &vmi_copy);
        assert!(
            a.similarity > 0.5,
            "redis vs mini-master similarity {}",
            a.similarity
        );
    }

    #[test]
    fn similarity_computation_is_fast_in_sim_time() {
        // The paper claims <100 ms similarity cost per VMI; verify the
        // charged time for the analysis phase is of that order.
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let mut redis = w.build_image("redis");
        let env = repo.env().clone();
        let handle = GuestHandle::launch(&env, &mut redis);
        let vmi_copy = handle.vmi().clone();
        let cat = repo.state.read();
        let t0 = env.clock.now();
        analyze(&env, &cat.semantic, &w.catalog, &handle, &vmi_copy);
        let dt = env.clock.since(t0).as_secs_f64();
        assert!(dt < 0.2, "analysis charged {dt}s");
    }
}
