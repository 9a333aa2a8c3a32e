//! VMI retrieval — the assembler (Algorithm 3).
//!
//! Fetches the stored base image and the requested packages, then
//! assembles a VMI: copy base (Fig. 5a band 1), create the guestfs handle
//! (band 2), `virt-sysprep` reset (band 3), import data + install
//! packages from the local repository (band 4).

use crate::repo::{RepoCatalog, RepoState};
use xpl_guestfs::{FileOwner, GuestHandle, Vmi};
use xpl_pkg::dpkgdb::InstallReason;
use xpl_pkg::{Catalog, PackageId};
use xpl_store::{RetrieveReport, RetrieveRequest, StoreError};
use xpl_util::{Digest, FxHashMap, FxHashSet, IStr};

/// Labels of the four Figure 5a phases.
pub const PHASES: [&str; 4] = [
    "Base image copy",
    "Libguestfs handler creation",
    "VMI reset",
    "Import",
];

/// Run Algorithm 3 for `request`.
///
/// Retrieval is a read-only operation: it holds the repository's
/// catalog in read mode across the whole assembly (any number of
/// retrievals run concurrently; mutations — which can release CAS blobs
/// — wait for the write side), because the stored base is borrowed out
/// of the guard.
///
/// Per-op metrics caveat: `duration` and `bytes_read` come from the
/// store's shared clock and device counters, so under *concurrent*
/// retrievals each report is an upper bound that may include a
/// neighbour's charges; with retrievals serialized they are exact. The
/// churn oracle therefore treats them as nonzero-ness witnesses, and
/// the figure pipelines (5a/5b) measure with one retrieval in flight.
pub(crate) fn retrieve(
    state: &RepoState,
    catalog: &Catalog,
    request: &RetrieveRequest,
) -> Result<(Vmi, RetrieveReport), StoreError> {
    let cat = state.read();
    retrieve_impl(state, &cat, catalog, request, true).map(|(vmi, report, _)| (vmi, report))
}

/// The packages an assembly installs, each resolved once to the exported
/// package and the digest of its stored `.deb`.
type Installs = Vec<(PackageId, Digest)>;

/// The assembler body. `materialize` distinguishes the two callers:
///
/// * `true` — full Algorithm 3: charge the base copy, read every data
///   and package blob out of the repository, and materialize the disk.
/// * `false` — metadata-only assembly for [`retrieve_range`]: run the
///   identical resolution + guest-side tree construction (so the final
///   tree is byte-for-byte the one a full retrieval would lay out) but
///   skip the repository blob reads and the disk build; the range path
///   then fetches only the blob slices its extents overlap.
///
/// `cat` is the catalog the caller holds in read mode.
fn retrieve_impl(
    state: &RepoState,
    cat: &RepoCatalog,
    catalog: &Catalog,
    request: &RetrieveRequest,
    materialize: bool,
) -> Result<(Vmi, RetrieveReport, Installs), StoreError> {
    let env = state.env.clone();
    let t0 = env.clock.now();
    let reads_before = env.repo.stats().bytes_read;
    let mut report = RetrieveReport {
        image: request.name.clone(),
        ..Default::default()
    };

    let (semantic, package_index) = (&cat.semantic, &cat.package_index);

    // ---- Locate a base + master serving this request (line 1–2). -----
    let key = request.base.key();
    let base = semantic
        .bases
        .iter()
        .find(|b| b.attrs.key() == key)
        .ok_or_else(|| StoreError::NotFound(format!("no base image for {key}")))?;
    let master = semantic
        .masters
        .get(&base.id)
        .ok_or_else(|| StoreError::Corrupt(format!("master missing for {}", base.id)))?;

    // Resolve requested primary packages against the master's package
    // union (the repository's view of available software).
    let mut roots: Vec<PackageId> = Vec::with_capacity(request.primary.len());
    for name in &request.primary {
        let iname = IStr::new(name);
        if let Some(v) = master.packages.get(&iname) {
            roots.push(v.pkg);
        } else if base.pkgdb.is_installed(iname) {
            // Provided by the base itself (Algorithm 3 line 7).
            continue;
        } else {
            return Err(StoreError::NotFound(format!(
                "package {name} not in repository"
            )));
        }
    }
    // Dependency closure; skip what the base provides. Each package to
    // install is resolved here, once, to the exported package and its
    // blob; the import loop and the range fetch carry the pair.
    let closure = catalog
        .install_closure(&roots, request.base.arch)
        .map_err(StoreError::Resolve)?;
    let mut to_install: Installs = Vec::new();
    for id in closure {
        let meta = catalog.get(id);
        if base.pkgdb.is_installed(meta.name) {
            continue;
        }
        // Prefer the exact exported version; fall back to any exported
        // version of the same package (semantically similar assembly).
        let indexed = package_index
            .get(&meta.identity())
            .or_else(|| {
                package_index
                    .values()
                    .find(|p| catalog.get(p.package).name == meta.name)
            })
            .ok_or_else(|| {
                StoreError::NotFound(format!(
                    "package {} required but never published",
                    meta.identity()
                ))
            })?;
        to_install.push((indexed.package, indexed.digest));
    }

    // ---- Phase 1: base image copy. ------------------------------------
    let qcow_bytes = base.qcow_bytes;
    report.breakdown.measure(&env.clock, PHASES[0], || {
        if materialize {
            env.repo.charge_open(qcow_bytes);
            env.repo.charge_copy_to(&env.local, qcow_bytes);
        }
    });

    // Reconstruct the working image from the stored semantic snapshot.
    let mut vmi = Vmi {
        name: request.name.clone(),
        base: base.attrs.clone(),
        fs: base.fs.clone(),
        pkgdb: base.pkgdb.clone(),
        primary: roots.clone(),
        disk: xpl_vdisk::QcowImage::create(0),
    };

    // ---- Phase 2: guestfs handle. --------------------------------------
    let mut handle = report.breakdown.measure(&env.clock, PHASES[1], || {
        GuestHandle::launch(&env, &mut vmi)
    });

    // ---- Phase 3: reset. ------------------------------------------------
    report.breakdown.measure(&env.clock, PHASES[2], || {
        handle.sysprep_reset();
    });

    // ---- Phase 4: import (data + packages). -----------------------------
    report
        .breakdown
        .measure(&env.clock, PHASES[3], || -> Result<(), StoreError> {
            // User data: prefer repository-stored data for this image name;
            // otherwise import what the request carries.
            let files = match cat.images.get(&request.name).map(|image| &image.data) {
                Some(d) => {
                    if materialize {
                        for digest in &d.digests {
                            state
                                .data_store
                                .get(digest)
                                .map_err(|_| StoreError::Corrupt(format!("data blob {digest}")))?;
                        }
                    }
                    &d.files
                }
                None => &request.user_data,
            };
            for &f in files {
                env.local.charge_create(f.size as u64);
                env.local.charge_write(f.size as u64);
                handle.vmi_mut().fs.add_file(f);
            }

            // Packages: read the deb, register in the local repository, and
            // install through the guest package manager.
            for &(package, digest) in &to_install {
                if materialize {
                    state.packages.get(&digest).map_err(|_| {
                        StoreError::Corrupt(format!(
                            "package blob {}",
                            catalog.get(package).identity()
                        ))
                    })?;
                }
                env.local.charge_fixed(env.costs.repo_scan_per_pkg);
                handle.install_package(catalog, package, InstallReason::Auto);
            }
            // Primary packages were installed as part of the loop; mark them.
            for &root in &roots {
                let name = catalog.get(root).name;
                handle.vmi_mut().pkgdb.mark_manual(name);
            }
            handle.refresh_status(catalog);
            Ok(())
        })?;

    // Materialize the delivered disk. No extra I/O charge: the assembled
    // image *is* the copied base file, mutated in place by the package
    // installs (whose costs were charged above); rebuild_disk is model
    // bookkeeping.
    if materialize {
        vmi.rebuild_disk();
    }

    report.duration = env.clock.since(t0);
    report.bytes_read = env.repo.stats().bytes_read - reads_before;
    Ok((vmi, report, to_install))
}

/// Serve only disk bytes `[start, start+len)` of the image `request`
/// describes, without assembling the whole disk.
///
/// Runs the same resolution + guest-side tree construction as
/// [`retrieve`] (metadata only — no blob reads, no disk build), maps the
/// range onto file extents with [`xpl_guestfs::materialize_range`], and
/// fetches just the overlapping content:
///
/// * user-data files stored in the repository — a ranged CAS read of
///   exactly the overlap ([`ContentStore::get_range`]);
/// * packages being installed — one full `.deb` read per *touched*
///   package (debs are fetched whole; untouched packages cost nothing);
/// * base-provided files — a repository read charged per overlap byte
///   (the stored base is seekable).
///
/// The returned bytes are byte-identical to slicing a full retrieval's
/// disk, and `bytes_read` reflects only the content above.
///
/// [`ContentStore::get_range`]: xpl_store::ContentStore::get_range
pub(crate) fn retrieve_range(
    state: &RepoState,
    catalog: &Catalog,
    request: &RetrieveRequest,
    start: u64,
    len: u64,
) -> Result<(Vec<u8>, RetrieveReport), StoreError> {
    let cat = state.read();
    let env = state.env.clone();
    let t0 = env.clock.now();
    let reads_before = env.repo.stats().bytes_read;

    let (vmi, mut report, to_install) = retrieve_impl(state, &cat, catalog, request, false)?;
    let to_install: FxHashMap<PackageId, Digest> = to_install.into_iter().collect();

    // Blob addresses of the image's stored user data. Files and digests
    // are parallel vectors from publish; images assembled from
    // request-carried user data have no stored blobs and fall back to
    // local generation (the bytes arrived with the request).
    let stored = cat.images.get(&request.name).map(|image| &image.data);
    let data_digests: FxHashMap<IStr, Digest> = match stored {
        Some(d) => d
            .files
            .iter()
            .zip(d.digests.iter())
            .map(|(f, dg)| (f.path, *dg))
            .collect(),
        None => FxHashMap::default(),
    };

    let mut touched_pkgs: FxHashSet<PackageId> = FxHashSet::default();
    let bytes = report
        .breakdown
        .measure(&env.clock, "Range assemble", || {
            xpl_guestfs::materialize_range(&vmi.fs, start, len, |rec, off, l| {
                let local_slice = || {
                    let content = rec.content();
                    Ok(content[off as usize..(off + l) as usize].to_vec())
                };
                match rec.owner {
                    FileOwner::UserData => match data_digests.get(&rec.path) {
                        Some(dg) => state
                            .data_store
                            .get_range(dg, off, l)
                            .map_err(|e| format!("data blob for {}: {e:?}", rec.path)),
                        None => local_slice(),
                    },
                    FileOwner::Package(id) if to_install.contains_key(&id) => {
                        // A deb is fetched whole: charge the full blob
                        // the first time any of its files is touched.
                        if touched_pkgs.insert(id) {
                            let dg = &to_install[&id];
                            state
                                .packages
                                .get(dg)
                                .map_err(|e| format!("package blob {dg}: {e:?}"))?;
                        }
                        local_slice()
                    }
                    // Base-provided content (including generated system
                    // files like the dpkg status database): a seekable
                    // read of the stored base, charged per overlap byte.
                    _ => {
                        env.repo.charge_open(l);
                        env.repo.charge_read(l);
                        local_slice()
                    }
                }
            })
        })
        .map_err(StoreError::Corrupt)?;
    env.local.charge_write(bytes.len() as u64);

    report.duration = env.clock.since(t0);
    report.bytes_read = env.repo.stats().bytes_read - reads_before;
    Ok((bytes, report))
}

#[cfg(test)]
mod tests {
    use crate::repo::ExpelliarmusRepo;
    use xpl_store::{ImageStore, RetrieveRequest, StoreError};
    use xpl_workloads::World;

    #[test]
    fn roundtrip_restores_package_set() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let original = w.build_image("lamp");
        repo.publish(&w.catalog, &original).unwrap();
        let req = RetrieveRequest::for_image(&original, &w.catalog);
        let (got, report) = repo.retrieve(&w.catalog, &req).unwrap();
        assert_eq!(
            got.installed_package_set(&w.catalog),
            original.installed_package_set(&w.catalog)
        );
        assert!(
            report.duration.as_secs_f64() > 14.0,
            "copy+launch+reset floor"
        );
        // User data restored.
        assert_eq!(got.user_data_bytes(), original.user_data_bytes());
    }

    /// What the free retrieve-side reset rests on: a base is reset before
    /// it is stored, whichever image it was cut from, so the reset a
    /// retrieve runs on its copy finds nothing to drop — and still
    /// charges the fixed cost (Fig. 5a band 3).
    #[test]
    fn a_stored_base_is_already_reset() {
        use xpl_guestfs::{FileOwner, FsTree, GuestHandle, Vmi};
        let w = World::small();
        for first in w.image_names() {
            let repo = ExpelliarmusRepo::new(w.env());
            let rest = w.image_names().into_iter().filter(|&name| name != first);
            for name in std::iter::once(first).chain(rest) {
                repo.publish(&w.catalog, &w.build_image(name)).unwrap();
                let cat = repo.state.read();
                assert!(!cat.semantic.bases.is_empty());
                for base in &cat.semantic.bases {
                    for rec in base.fs.iter() {
                        assert_ne!(rec.owner, FileOwner::UserData, "{}: {}", base.id, rec.path);
                        assert!(!FsTree::is_junk_path(rec.path), "{}: {}", base.id, rec.path);
                    }
                    let env = w.env();
                    let mut vmi = Vmi {
                        name: "reset".to_string(),
                        base: base.attrs.clone(),
                        fs: base.fs.clone(),
                        pkgdb: base.pkgdb.clone(),
                        primary: Vec::new(),
                        disk: xpl_vdisk::QcowImage::create(0),
                    };
                    let mut handle = GuestHandle::launch(&env, &mut vmi);
                    let t0 = env.clock.now();
                    assert_eq!(handle.sysprep_reset(), 0);
                    assert_eq!(env.clock.since(t0), env.costs.sysprep_reset);
                    assert!(vmi.fs.iter().eq(base.fs.iter()), "view changed");
                }
            }
        }
    }

    #[test]
    fn retrieval_has_four_phases() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let redis = w.build_image("redis");
        repo.publish(&w.catalog, &redis).unwrap();
        let (_vmi, report) = repo
            .retrieve(&w.catalog, &RetrieveRequest::for_image(&redis, &w.catalog))
            .unwrap();
        for phase in crate::retrieve::PHASES {
            assert!(
                report.breakdown.get(phase).as_nanos() > 0,
                "phase {phase} missing from {report:?}"
            );
        }
    }

    #[test]
    fn range_retrieval_matches_disk_slice_and_reads_less() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let original = w.build_image("lamp");
        repo.publish(&w.catalog, &original).unwrap();
        let req = RetrieveRequest::for_image(&original, &w.catalog);
        let (vmi, full) = repo.retrieve(&w.catalog, &req).unwrap();
        let size = vmi.disk.virtual_size();
        assert!(full.bytes_read > 0);
        let spans = [
            (0u64, 700u64),
            (511, 4 * 1024),
            (size / 2, 9000),
            (size.saturating_sub(100), 400), // clamped at the tail
            (size + 5, 10),                  // fully past the end → empty
            (123, 0),                        // empty request
        ];
        for (start, len) in spans {
            let (bytes, report) = repo.retrieve_range(&w.catalog, &req, start, len).unwrap();
            let end = start.saturating_add(len).min(size);
            let s = start.min(end);
            let want = vmi.disk.read_at(s, (end - s) as usize).unwrap();
            assert_eq!(bytes, want, "span ({start}, {len})");
            assert!(
                report.bytes_read < full.bytes_read,
                "span ({start}, {len}): range read {} vs full {}",
                report.bytes_read,
                full.bytes_read
            );
        }
    }

    #[test]
    fn range_retrieval_serves_functional_requests() {
        // The range path must also serve images never uploaded as such
        // (user data carried by the request, not the repository).
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("redis")).unwrap();
        repo.publish(&w.catalog, &w.build_image("nginx")).unwrap();
        let req = RetrieveRequest {
            name: "redis+nginx".into(),
            base: w.template.attrs.clone(),
            primary: vec!["redis-server".into(), "nginx".into()],
            user_data: vec![],
        };
        let (vmi, _) = repo.retrieve(&w.catalog, &req).unwrap();
        let size = vmi.disk.virtual_size();
        for (start, len) in [(0u64, 2048u64), (size / 3, 8192), (size - 64, 128)] {
            let (bytes, _) = repo.retrieve_range(&w.catalog, &req, start, len).unwrap();
            let end = start.saturating_add(len).min(size);
            let want = vmi.disk.read_at(start, (end - start) as usize).unwrap();
            assert_eq!(bytes, want, "span ({start}, {len})");
        }
    }

    #[test]
    fn functional_retrieval_without_exact_upload() {
        // Publish redis and nginx separately, then request an image with
        // BOTH — never uploaded as such. Monolithic stores cannot do this.
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("redis")).unwrap();
        repo.publish(&w.catalog, &w.build_image("nginx")).unwrap();
        let req = RetrieveRequest {
            name: "redis+nginx".into(),
            base: w.template.attrs.clone(),
            primary: vec!["redis-server".into(), "nginx".into()],
            user_data: vec![],
        };
        let (vmi, _) = repo.retrieve(&w.catalog, &req).unwrap();
        assert!(vmi.pkgdb.is_installed(xpl_util::IStr::new("redis-server")));
        assert!(vmi.pkgdb.is_installed(xpl_util::IStr::new("nginx")));
    }

    #[test]
    fn missing_package_is_clean_error() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        repo.publish(&w.catalog, &w.build_image("mini")).unwrap();
        let req = RetrieveRequest {
            name: "wants-redis".into(),
            base: w.template.attrs.clone(),
            primary: vec!["redis-server".into()],
            user_data: vec![],
        };
        match repo.retrieve(&w.catalog, &req) {
            Err(StoreError::NotFound(msg)) => assert!(msg.contains("redis"), "{msg}"),
            other => panic!("expected NotFound, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn empty_repo_retrieval_fails() {
        let w = World::small();
        let repo = ExpelliarmusRepo::new(w.env());
        let req = RetrieveRequest {
            name: "x".into(),
            base: w.template.attrs.clone(),
            primary: vec![],
            user_data: vec![],
        };
        assert!(matches!(
            repo.retrieve(&w.catalog, &req),
            Err(StoreError::NotFound(_))
        ));
    }
}
