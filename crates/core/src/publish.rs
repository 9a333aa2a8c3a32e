//! VMI publishing — the decomposer (Algorithm 1).
//!
//! Steps, following the listing: extract the primary-package subgraph;
//! store packages absent from the repository (lines 2–5); store user data
//! (line 6); remove primary packages, user data and unused dependencies
//! from the image (lines 7–11); select a base image (line 14); store the
//! new base + master graph, or merge into the selected base's master
//! (lines 15–21); absorb and delete replaced bases (lines 22–28).
//!
//! Publishing holds the repository's catalog in write mode for its
//! whole run: Algorithm 1 is order-sensitive (similarity, base selection
//! and master consolidation all read the evolving repository), so
//! publishes serialize — and because retrievals hold the same lock in
//! read mode, a publish can never release a replaced generation's CAS
//! blobs while an assembly is reading them. The lock is also the
//! durability boundary: CAS mutations are only logged while the
//! algorithm runs, and one commit per section makes them durable before
//! the publish returns.

use crate::analyzer;
use crate::repo::{IndexedPackage, PublishedImage, RepoCatalog, RepoState, StoredBase, StoredData};
use crate::select::select_base_image;
use xpl_guestfs::{GuestHandle, Vmi};
use xpl_metadb::Value;
use xpl_pkg::Catalog;
use xpl_semgraph::MasterGraph;
use xpl_store::{PublishReport, StoreError};
use xpl_util::{Digest, IStr};

/// Publishing behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishMode {
    /// Full Expelliarmus: exports only packages the repository lacks.
    Expelliarmus,
    /// Figure 4b's "Semantic" variant: decomposes the image but exports
    /// every package of the primary subgraph regardless of what is stored
    /// (no similarity-driven skipping). Storage is still deduplicated by
    /// content; only the export work differs.
    SemanticDecomposition,
}

/// Run Algorithm 1 for `vmi`, durably: both CAS sections are committed
/// once before the catalog is released, also when the algorithm bailed
/// out early — memory has applied whatever it logged by then.
pub fn publish(
    state: &RepoState,
    catalog: &Catalog,
    vmi: &Vmi,
) -> Result<PublishReport, StoreError> {
    let mut cat = state.write();
    state.committed(decompose(state, &mut cat, catalog, vmi))
}

/// Algorithm 1 proper, over the catalog the caller holds in write mode.
fn decompose(
    state: &RepoState,
    cat: &mut RepoCatalog,
    catalog: &Catalog,
    vmi: &Vmi,
) -> Result<PublishReport, StoreError> {
    let env = state.env.clone();
    let t0 = env.clock.now();
    let bytes_before = state.repo_bytes(cat);
    let mut report = PublishReport {
        image: vmi.name.clone(),
        ..Default::default()
    };

    // Work on a private copy: decomposition is destructive. The uploaded
    // disk is never read (a new base's disk is rebuilt from the stripped
    // tree), so the copy carries an empty one.
    let mut work = Vmi {
        name: vmi.name.clone(),
        base: vmi.base.clone(),
        fs: vmi.fs.clone(),
        pkgdb: vmi.pkgdb.clone(),
        primary: vmi.primary.clone(),
        disk: xpl_vdisk::QcowImage::create(&vmi.name, 0),
    };
    let mut handle = report.breakdown.measure(&env.clock, "handle", || {
        GuestHandle::launch(&env, &mut work)
    });

    // ---- Semantic analysis (§IV-B). --------------------------------
    let analysis = report.breakdown.measure(&env.clock, "analyze", || {
        analyzer::analyze(&env, &cat.semantic, catalog, &handle, handle.vmi())
    });
    report.similarity = analysis.similarity;
    let graph = analysis.graph;
    let primary_sub = graph.primary_subgraph();

    // ---- Export non-redundant packages (lines 1–5). -----------------
    // Every package this image's primary subgraph touches takes one CAS
    // reference (new export or `add_ref` on a stored blob), so that
    // delete/re-publish can release exactly this image's share later.
    let mut exported = 0usize;
    let mut package_refs: Vec<Digest> = Vec::with_capacity(primary_sub.vertices.len());
    report.breakdown.measure(
        &env.clock,
        "export packages",
        || -> Result<(), StoreError> {
            for v in &primary_sub.vertices {
                let identity = catalog.get(v.pkg).identity();
                if let Some(digest) = cat.package_index.get(&identity).map(|p| p.digest) {
                    if state.mode == PublishMode::SemanticDecomposition {
                        // The variant rebuilds the package anyway; the CAS
                        // dedups it, and the put doubles as this image's ref.
                        let deb = handle.export_deb(catalog, v.pkg);
                        let was_new = state.packages.put_with_digest(deb.digest, &deb.bytes);
                        debug_assert!(!was_new);
                    } else {
                        // An indexed identity whose blob is gone is corruption;
                        // recording the phantom ref would poison the ledger.
                        state.packages.add_ref(digest).map_err(|_| {
                            StoreError::Corrupt(format!("indexed package blob missing: {identity}"))
                        })?;
                    }
                    package_refs.push(digest);
                    continue;
                }
                // Rebuild the binary package through the guest (charged by
                // installed size) and store it.
                let deb = handle.export_deb(catalog, v.pkg);
                state.packages.put_with_digest(deb.digest, &deb.bytes);
                cat.package_index.insert(
                    identity.clone(),
                    IndexedPackage {
                        digest: deb.digest,
                        package: v.pkg,
                    },
                );
                cat.insert_row(
                    "packages",
                    vec![
                        Value::from(identity),
                        Value::from(deb.digest.to_hex()),
                        Value::from(deb.bytes.len() as u64),
                    ],
                )?;
                package_refs.push(deb.digest);
                exported += 1;
            }
            Ok(())
        },
    )?;
    report.units_stored = exported;

    // ---- Store user data (line 6). -----------------------------------
    let data = report.breakdown.measure(&env.clock, "store data", || {
        let mut stored = StoredData::default();
        for f in handle.vmi().user_data_files() {
            let content = f.content();
            let (digest, _) = state.data_store.put(&content);
            stored.files.push(f);
            stored.digests.push(digest);
        }
        stored
    });

    // ---- Strip the image down to the base (lines 7–11). --------------
    report.breakdown.measure(&env.clock, "strip", || {
        let primary_names: Vec<IStr> = handle
            .vmi()
            .primary
            .iter()
            .map(|&id| catalog.get(id).name)
            .collect();
        handle.remove_packages(&primary_names);
        handle.autoremove(catalog);
        let dropped = handle.vmi_mut().fs.remove_user_data_and_junk();
        env.local.charge_fixed(env.costs.pkg_remove(dropped));
    });

    // ---- Base-image selection (line 14 / Algorithm 2). ---------------
    let base_graph = graph.base_subgraph();
    let base_attrs = handle.vmi().base.clone();
    let selection = report.breakdown.measure(&env.clock, "select base", || {
        select_base_image(&cat.semantic, &base_attrs, &base_graph, &primary_sub)
    });

    let base_id = match &selection.chosen_existing {
        None => {
            // Store the incoming base (lines 15–17): reset, repack,
            // upload, create its master graph.
            let id = format!("base:{}:{}", base_attrs.key(), cat.semantic.bases.len());
            report
                .breakdown
                .measure(&env.clock, "store base", || -> Result<(), StoreError> {
                    handle.sysprep_reset();
                    let work = handle.vmi_mut();
                    work.primary.clear();
                    work.refresh_status_file(catalog);
                    work.rebuild_disk();
                    let packed = work.disk.serialize();
                    let qcow_bytes = packed.len() as u64;
                    env.local.charge_fixed(xpl_simio::SimDuration(
                        env.costs.base_pack_per_byte.0
                            * qcow_bytes.saturating_mul(xpl_util::SCALE_FACTOR),
                    ));
                    env.local.charge_copy_to(&env.repo, qcow_bytes);
                    cat.insert_row(
                        "bases",
                        vec![
                            Value::from(id.clone()),
                            Value::from(work.base.key()),
                            Value::from(qcow_bytes),
                        ],
                    )?;
                    cat.semantic.bases.push(StoredBase {
                        id: id.clone(),
                        attrs: work.base.clone(),
                        fs: work.fs.clone(),
                        pkgdb: work.pkgdb.clone(),
                        qcow_bytes,
                        base_graph: base_graph.clone(),
                    });
                    cat.semantic
                        .masters
                        .insert(id.clone(), MasterGraph::create(&graph));
                    Ok(())
                })?;
            id
        }
        Some(id) => {
            // Merge into the existing master (lines 19–21).
            let master = cat
                .semantic
                .masters
                .get_mut(id)
                .ok_or_else(|| StoreError::Corrupt(format!("master missing for base {id}")))?;
            master.absorb(&graph);
            id.clone()
        }
    };

    drop(handle);
    let image_name = work.name.clone();

    // ---- Absorb and delete replaced bases (lines 22–28). -------------
    for replaced_id in &selection.replace {
        if replaced_id == &base_id {
            continue;
        }
        if let Some(replaced_master) = cat.semantic.masters.get(replaced_id).cloned() {
            if let Some(master) = cat.semantic.masters.get_mut(&base_id) {
                master.absorb_master(&replaced_master);
            }
        }
        cat.semantic.remove_base(replaced_id);
    }

    let new_row = cat.insert_row(
        "images",
        vec![
            Value::from(image_name.clone()),
            Value::from(base_id),
            Value::from((report.similarity * 1000.0) as u64),
        ],
    )?;

    // ---- Release the replaced generation (re-publish / upgrade). -----
    // The new generation already holds its references, so content shared
    // across generations survives the release.
    let image = PublishedImage {
        packages: package_refs,
        data,
    };
    if let Some(replaced) = cat.images.insert(image_name.clone(), image) {
        state.release_image(cat, replaced)?;
    }
    cat.delete_rows("images", "name", &image_name, Some(new_row))?;

    report.duration = env.clock.since(t0);
    let after = state.repo_bytes(cat);
    report.bytes_added = after.saturating_sub(bytes_before);
    report.bytes_freed = bytes_before.saturating_sub(after);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use crate::repo::ExpelliarmusRepo;
    use crate::PublishMode;
    use xpl_store::ImageStore;
    use xpl_workloads::World;

    #[test]
    fn first_publish_stores_base_and_packages() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let redis = w.build_image("redis");
        let report = repo.publish(&w.catalog, &redis).unwrap();
        assert_eq!(repo.base_count(), 1);
        assert!(repo.package_count() >= 1, "redis package exported");
        assert!(
            report.duration.as_secs_f64() > 7.0,
            "at least the launch cost"
        );
        assert_eq!(report.similarity, 0.0);
        repo.check_invariants().unwrap();
    }

    #[test]
    fn second_publish_shares_base() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let size_after_mini = repo.repo_bytes();
        let report = repo.publish(&w.catalog, &w.build_image("redis")).unwrap();
        assert_eq!(repo.base_count(), 1, "base shared, not duplicated");
        assert!(report.similarity > 0.5);
        let growth = repo.repo_bytes() - size_after_mini;
        assert!(
            growth < size_after_mini / 4,
            "publishing redis should add only its packages; grew {growth}"
        );
        repo.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_publish_adds_almost_nothing() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("redis")).unwrap();
        let before = repo.repo_bytes();
        let report = repo.publish(&w.catalog, &w.build_image("redis")).unwrap();
        assert_eq!(report.units_stored, 0, "nothing new to export");
        let growth = repo.repo_bytes() - before;
        assert!(growth < 2_000, "only metadata rows, grew {growth}");
    }

    #[test]
    fn semantic_mode_exports_everything_but_stores_once() {
        let w = World::small();
        let full = ExpelliarmusRepo::new(w.env());
        let sem = ExpelliarmusRepo::with_mode(w.env(), PublishMode::SemanticDecomposition);
        for name in ["redis", "lamp"] {
            full.publish(&w.catalog, &w.build_image(name)).unwrap();
            sem.publish(&w.catalog, &w.build_image(name)).unwrap();
        }
        // Re-publishing redis: the variant rebuilds all its packages.
        let r_full = full.publish(&w.catalog, &w.build_image("redis")).unwrap();
        let r_sem = sem.publish(&w.catalog, &w.build_image("redis")).unwrap();
        assert_eq!(r_full.units_stored, 0);
        assert!(r_sem.duration > r_full.duration, "variant must be slower");
        // Storage identical (CAS dedups the rebuilt packages).
        assert_eq!(full.package_count(), sem.package_count());
    }

    #[test]
    fn publish_time_dominated_by_exports() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let lamp = repo.publish(&w.catalog, &w.build_image("lamp")).unwrap();
        let export = lamp.breakdown.get("export packages");
        assert!(
            export.as_secs_f64() > lamp.breakdown.get("select base").as_secs_f64(),
            "exports {export} should dominate selection"
        );
    }
}
