//! Layer probes: the per-layer ledger, measured from outside.
//!
//! After a traced run the harness replays each layer's public calls over
//! a seeded sample of the workload's own inputs — its image disks, the
//! blobs its publishes export, its graphs, its request frames — and times
//! them. The suite is the same for every workload; what differs is what
//! it is fed, which is the point: `guestfs.mkfs_ms` over an 80 k-record
//! paper image and over a 50 KB churn image are different numbers, and
//! each explains its own workload's retrieve.
//!
//! Every probe repeats its call until a small time budget is spent and
//! reports the mean. Probes that need a fresh state per call rebuild it
//! outside the timed region.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpl_chunking::rabin::{chunk_cdc, CdcParams};
use xpl_core::repo::{SemanticState, StoredBase};
use xpl_core::{analyzer, select, ExpelliarmusRepo};
use xpl_guestfs::{materialize_range, GuestHandle, Vmi};
use xpl_metadb::{ColumnDef, Database, Schema, Value};
use xpl_net::{frame, NetServer};
use xpl_persist::{DurableConfig, DurableContentStore, StdFs, Vfs};
use xpl_pkg::dpkgdb::InstallReason;
use xpl_pkg::{Catalog, PackageId};
use xpl_registry::AdmissionGate;
use xpl_semgraph::MasterGraph;
use xpl_simio::SimEnv;
use xpl_store::{ContentStore, ImageStore, TierPolicy};
use xpl_util::{Crc32, Digest, Sha256};

use crate::measure::mib_per_s;
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::vfs::CountingVfs;
use crate::wire::{self, Pace, ReadTarget, StoreService};
use crate::workloads::baseline_blobs::five_stores;
use crate::workloads::{client_threads, ProbeInputs, RunConfig, ScratchDir, RANGE_BYTES};

/// Time budget and repeat cap of one probe.
#[derive(Clone, Copy)]
struct Budget {
    time: Duration,
    max_reps: usize,
}

/// Call `f` (which returns the duration of its own timed part) until the
/// budget is spent; mean seconds per call.
fn mean_s(budget: Budget, mut f: impl FnMut() -> Duration) -> f64 {
    let started = Instant::now();
    let (mut total, mut reps) = (Duration::ZERO, 0usize);
    while reps == 0 || (reps < budget.max_reps && started.elapsed() < budget.time) {
        total += f();
        reps += 1;
    }
    total.as_secs_f64() / reps as f64
}

fn time<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// Mean of `per_item` over `items`, each item probed under `budget`.
fn mean_over<T>(items: &[T], budget: Budget, mut per_item: impl FnMut(&T) -> Duration) -> f64 {
    let sum: f64 = items
        .iter()
        .map(|item| mean_s(budget, || per_item(item)))
        .sum();
    sum / items.len().max(1) as f64
}

/// Packages a probe installs, exports or removes for `vmi`: its
/// primaries, or a few installed packages when it has none (Mini).
fn probe_packages(vmi: &Vmi) -> Vec<PackageId> {
    if vmi.primary.is_empty() {
        vmi.pkgdb.installed_ids().into_iter().take(8).collect()
    } else {
        vmi.primary.clone()
    }
}

/// `vmi` decomposed the way a publish does it: primaries and their
/// unused dependencies removed, junk dropped.
fn strip(env: &SimEnv, catalog: &Catalog, work: &mut Vmi) {
    let names: Vec<_> = work
        .primary
        .iter()
        .map(|&id| catalog.get(id).name)
        .collect();
    let mut handle = GuestHandle::launch(env, work);
    for name in names {
        handle.remove_package(catalog, name);
    }
    handle.autoremove(catalog);
    handle.vmi_mut().fs.remove_junk();
}

fn guestfs_and_pkg(m: &mut Metrics, catalog: &Catalog, sample: &[Arc<Vmi>], budget: Budget) {
    let env = SimEnv::testbed();
    m.set(
        "guestfs.mkfs_ms",
        1e3 * mean_over(sample, budget, |vmi| {
            let mut work = (**vmi).clone();
            time(|| work.rebuild_disk())
        }),
    );
    m.set(
        "guestfs.vmi_clone_ms",
        1e3 * mean_over(sample, budget, |vmi| time(|| (**vmi).clone())),
    );
    m.set(
        "guestfs.strip_ms",
        1e3 * mean_over(sample, budget, |vmi| {
            let mut work = (**vmi).clone();
            time(|| strip(&env, catalog, &mut work))
        }),
    );
    m.set(
        "guestfs.export_deb_us",
        1e6 * mean_over(sample, budget, |vmi| {
            let packages = probe_packages(vmi);
            let mut work = (**vmi).clone();
            let handle = GuestHandle::launch(&env, &mut work);
            time(|| {
                for &id in &packages {
                    black_box(handle.export_deb(catalog, id));
                }
            }) / packages.len() as u32
        }),
    );
    m.set(
        "guestfs.install_pkg_us",
        1e6 * mean_over(sample, budget, |vmi| {
            let packages = probe_packages(vmi);
            let mut work = (**vmi).clone();
            strip(&env, catalog, &mut work);
            let mut handle = GuestHandle::launch(&env, &mut work);
            time(|| {
                for &id in &packages {
                    handle.install_package(catalog, id, InstallReason::Auto);
                }
            }) / packages.len() as u32
        }),
    );
    m.set(
        "guestfs.range_extents_us",
        1e6 * mean_over(sample, budget, |vmi| {
            let start = vmi.disk.virtual_size() / 3;
            time(|| {
                // A free fetch isolates the extent placement and walk.
                materialize_range(&vmi.fs, start, RANGE_BYTES, |_, _, len| {
                    Ok(vec![0u8; len as usize])
                })
            })
        }),
    );
    m.set(
        "pkg.install_closure_us",
        1e6 * mean_over(sample, budget, |vmi| {
            let roots = probe_packages(vmi);
            time(|| catalog.install_closure(&roots, vmi.base.arch))
        }),
    );
}

/// Byte kernels over the sample's serialized disks.
fn byte_kernels(m: &mut Metrics, sample: &[Arc<Vmi>], budget: Budget) {
    let disks: Vec<Vec<u8>> = sample.iter().map(|v| v.disk.serialize()).collect();
    // MiB/s of `per_item` over `items`, item `i` standing for `disks[i]`'s bytes.
    fn rate<T>(
        items: &[T],
        disks: &[Vec<u8>],
        budget: Budget,
        mut per_item: impl FnMut(&T) -> Duration,
    ) -> f64 {
        let secs: f64 = items
            .iter()
            .map(|item| mean_s(budget, || per_item(item)))
            .sum();
        let bytes: usize = disks.iter().map(Vec::len).sum();
        mib_per_s(bytes as u64, secs * 1e3)
    }
    m.set(
        "vdisk.serialize_mib_per_s",
        rate(sample, &disks, budget, |v| time(|| v.disk.serialize())),
    );
    m.set(
        "vdisk.deserialize_mib_per_s",
        rate(&disks, &disks, budget, |d| {
            time(|| xpl_vdisk::QcowImage::deserialize(d))
        }),
    );
    m.set(
        "vdisk.read_at_us",
        1e6 * mean_over(sample, budget, |vmi| {
            let start = vmi.disk.virtual_size() / 3;
            time(|| vmi.disk.read_at(start, RANGE_BYTES as usize))
        }),
    );
    m.set(
        "util.sha256_mib_per_s",
        rate(&disks, &disks, budget, |d| time(|| Sha256::digest(d))),
    );
    m.set(
        "util.crc32_mib_per_s",
        rate(&disks, &disks, budget, |d| time(|| Crc32::checksum(d))),
    );
    let params = CdcParams::with_avg(crate::workloads::baseline_blobs::CDC_AVG_CHUNK);
    m.set(
        "chunking.cdc_mib_per_s",
        rate(&disks, &disks, budget, |d| time(|| chunk_cdc(d, params))),
    );
    let (chunks, bytes): (usize, usize) = disks
        .iter()
        .map(|d| (chunk_cdc(d, params).len(), d.len()))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.set(
        "chunking.chunks_per_mib",
        chunks as f64 / (bytes as f64 / (1024.0 * 1024.0)),
    );

    // Codecs: the blocked containers the stores keep their payloads in.
    let deflated: Vec<Vec<u8>> = disks
        .iter()
        .map(|d| xpl_compress::blocked_compress(d))
        .collect();
    let lz4ed: Vec<Vec<u8>> = disks
        .iter()
        .map(|d| xpl_compress::blocked_compress_lz4(d))
        .collect();
    let total = |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64;
    m.set(
        "compress.deflate_mib_per_s",
        rate(&disks, &disks, budget, |d| {
            time(|| xpl_compress::blocked_compress(d))
        }),
    );
    m.set(
        "compress.lz4_compress_mib_per_s",
        rate(&disks, &disks, budget, |d| {
            time(|| xpl_compress::blocked_compress_lz4(d))
        }),
    );
    let decode = |c: &Vec<u8>| time(|| xpl_compress::blocked_decompress(c));
    m.set(
        "compress.inflate_mib_per_s",
        rate(&deflated, &disks, budget, decode),
    );
    m.set(
        "compress.lz4_decompress_mib_per_s",
        rate(&lz4ed, &disks, budget, decode),
    );
    m.set("compress.deflate_ratio", total(&deflated) / total(&disks));
    m.set("compress.lz4_ratio", total(&lz4ed) / total(&disks));
    let blocks: usize = deflated
        .iter()
        .map(|c| {
            let mut reader = xpl_compress::BlockedReader::new(c).expect("own container parses");
            let start = reader.total_len() / 3;
            reader
                .read_at(start, RANGE_BYTES)
                .expect("own container reads");
            reader.blocks_inflated()
        })
        .sum();
    m.set(
        "compress.range_blocks_per_read",
        blocks as f64 / deflated.len() as f64,
    );
}

/// The blobs a publish of the sample hands the CAS: exported packages
/// and user-data files.
fn sample_blobs(catalog: &Catalog, sample: &[Arc<Vmi>]) -> Vec<(Digest, Vec<u8>)> {
    let mut blobs: Vec<(Digest, Vec<u8>)> = Vec::new();
    for vmi in sample {
        for id in probe_packages(vmi) {
            let deb = xpl_pkg::deb::build_deb(catalog, id);
            blobs.push((deb.digest, deb.bytes));
        }
        for file in vmi.user_data_files() {
            let content = file.content();
            blobs.push((Sha256::digest(&content), content));
        }
    }
    blobs.sort_by_key(|(d, _)| d.0);
    blobs.dedup_by_key(|(d, _)| d.0);
    blobs
}

fn store(m: &mut Metrics, blobs: &[(Digest, Vec<u8>)], budget: Budget) {
    let env = SimEnv::testbed();
    let fresh = || ContentStore::new(Arc::clone(&env.repo)).with_tier(TierPolicy::mixed());
    let n = blobs.len() as u32;
    m.set(
        "store.put_us",
        1e6 * mean_s(budget, || {
            let cas = fresh();
            time(|| {
                for (digest, bytes) in blobs {
                    cas.put_with_digest(*digest, bytes);
                }
            }) / n
        }),
    );
    let cas = fresh();
    for (digest, bytes) in blobs {
        cas.put_with_digest(*digest, bytes);
    }
    m.set(
        "store.get_us",
        1e6 * mean_s(budget, || {
            time(|| {
                for (digest, _) in blobs {
                    black_box(cas.get(digest).expect("probe blob is stored"));
                }
            }) / n
        }),
    );
    m.set(
        "store.get_range_us",
        1e6 * mean_s(budget, || {
            time(|| {
                for (digest, bytes) in blobs {
                    let len = (bytes.len() as u64 / 4).max(1);
                    black_box(
                        cas.get_range(digest, len, len)
                            .expect("probe blob is stored"),
                    );
                }
            }) / n
        }),
    );
    // The reads above made every blob hot: the sweep promotes them all.
    m.set(
        "store.maintain_ms",
        1e3 * time(|| cas.maintain()).as_secs_f64(),
    );
    m.set(
        "store.release_us",
        1e6 * mean_s(budget, || {
            let cas = fresh();
            for (digest, bytes) in blobs {
                cas.put_with_digest(*digest, bytes);
            }
            time(|| {
                for (digest, _) in blobs {
                    cas.release(digest).expect("probe blob is stored");
                }
            }) / n
        }),
    );
}

fn persist(m: &mut Metrics, blobs: &[(Digest, Vec<u8>)], budget: Budget) {
    let dir = ScratchDir::create("probe-persist");
    let (vfs, counts) = CountingVfs::new(Arc::new(StdFs::new(&dir.0).expect("probe medium")));
    let vfs: Arc<dyn Vfs> = vfs;
    let open = || {
        DurableContentStore::open(Arc::clone(&vfs), DurableConfig::named("probe"))
            .expect("probe durable store opens")
            .0
    };
    let n = blobs.len() as u32;
    let store = open();
    // Real fsyncs are milliseconds each; one pass over the blobs is the sample.
    let put = time(|| {
        for (digest, bytes) in blobs {
            store.put_with_digest(*digest, bytes).expect("probe put");
        }
    }) / n;
    m.set("persist.put_us", put.as_secs_f64() * 1e6);
    m.set(
        "persist.get_us",
        1e6 * mean_s(budget, || {
            time(|| {
                for (digest, _) in blobs {
                    black_box(store.get(digest).expect("probe blob is stored"));
                }
            }) / n
        }),
    );
    m.set(
        "persist.checkpoint_ms",
        1e3 * mean_s(
            Budget {
                max_reps: 5,
                ..budget
            },
            || time(|| store.checkpoint().expect("probe checkpoint")),
        ),
    );
    drop(store);
    let mut opens: Vec<f64> = (0..20)
        .map(|_| time(|| drop(open())).as_secs_f64() * 1e3)
        .collect();
    opens.sort_by(f64::total_cmp);
    m.set("persist.open_ms", crate::measure::median(&opens));
    let store = open();
    let release = time(|| {
        for (digest, _) in blobs {
            store.release(digest).expect("probe release");
        }
    }) / n;
    m.set("persist.release_us", release.as_secs_f64() * 1e6);
    m.set("persist.vfs_sync_us", counts.mean_sync_us());
}

fn metadb(m: &mut Metrics, budget: Budget) {
    m.set(
        "metadb.insert_us",
        1e6 * mean_s(budget, || {
            let mut db = Database::new();
            db.create_table(Schema::new(
                "packages",
                vec![
                    ColumnDef::indexed("identity"),
                    ColumnDef::plain("digest"),
                    ColumnDef::plain("deb_size"),
                ],
            ))
            .expect("fresh db");
            let rows = 200u32;
            time(|| {
                for i in 0..rows {
                    db.insert(
                        "packages",
                        vec![
                            Value::from(format!("pkg-{i}=1.0/amd64")),
                            Value::from(format!("{i:064x}")),
                            Value::from(u64::from(i) * 1000),
                        ],
                    )
                    .expect("probe insert");
                }
            }) / rows
        }),
    );
}

/// One sample image through each baseline store, fresh.
fn baselines(m: &mut Metrics, catalog: &Catalog, vmi: &Vmi) {
    let request = xpl_store::RetrieveRequest::for_image(vmi, catalog);
    let start = vmi.disk.virtual_size() / 3;
    for (label, store) in five_stores(SimEnv::testbed) {
        let publish = time(|| store.publish(catalog, vmi).expect("probe publish"));
        let retrieve = time(|| store.retrieve(catalog, &request).expect("probe retrieve"));
        let range = time(|| {
            store
                .retrieve_range(catalog, &request, start, RANGE_BYTES)
                .expect("probe range")
        });
        m.set(
            &format!("baselines.{label}.publish_ms"),
            publish.as_secs_f64() * 1e3,
        );
        m.set(
            &format!("baselines.{label}.retrieve_ms"),
            retrieve.as_secs_f64() * 1e3,
        );
        m.set(
            &format!("baselines.{label}.range_ms"),
            range.as_secs_f64() * 1e3,
        );
        m.set(
            &format!("baselines.{label}.repo_bytes"),
            store.repo_bytes() as f64,
        );
    }
}

/// The semantic state a publish of `first` leaves behind, rebuilt from
/// public parts: one stored base and its master graph.
fn semantic_state(env: &SimEnv, catalog: &Catalog, first: &Vmi) -> SemanticState {
    let mut work = first.clone();
    let graph = {
        let handle = GuestHandle::launch(env, &mut work);
        analyzer::analyze(env, &SemanticState::default(), catalog, &handle, first).graph
    };
    strip(env, catalog, &mut work);
    work.fs.remove_user_data();
    let mut state = SemanticState::default();
    let id = format!("base:{}:0", work.base.key());
    state.bases.push(StoredBase {
        id: id.clone(),
        attrs: work.base.clone(),
        fs: work.fs.clone(),
        pkgdb: work.pkgdb.clone(),
        qcow_bytes: 0,
        base_graph: graph.base_subgraph(),
    });
    state.masters.insert(id, MasterGraph::create(&graph));
    state
}

/// `xpl-core` and `xpl-semgraph` over the sample, the wire layer over a
/// repository holding it, and the few probes that need neither.
fn core_and_net(m: &mut Metrics, inputs: &ProbeInputs<'_>, cfg: &RunConfig, budget: Budget) {
    let catalog = inputs.world.catalog();
    let sample = &inputs.sample;
    let env = SimEnv::testbed();

    // Semantic layer: analysis and base selection against a stored base.
    let state = semantic_state(&env, catalog, &sample[0]);
    let master = state.masters.values().next().expect("one master").clone();
    let graphs: Vec<_> = sample
        .iter()
        .map(|vmi| {
            let mut work = (**vmi).clone();
            let handle = GuestHandle::launch(&env, &mut work);
            analyzer::analyze(&env, &state, catalog, &handle, vmi).graph
        })
        .collect();
    m.set(
        "core.analyze_ms",
        1e3 * mean_over(sample, budget, |vmi| {
            let mut work = (**vmi).clone();
            let handle = GuestHandle::launch(&env, &mut work);
            time(|| analyzer::analyze(&env, &state, catalog, &handle, vmi))
        }),
    );
    m.set(
        "core.select_base_us",
        1e6 * mean_over(&graphs, budget, |graph| {
            let (base, primary) = (graph.base_subgraph(), graph.primary_subgraph());
            time(|| select::select_base_image(&state, &sample[0].base, &base, &primary))
        }),
    );
    m.set(
        "semgraph.sim_g_us",
        1e6 * mean_over(&graphs, budget, |graph| {
            time(|| master.similarity_to(graph))
        }),
    );
    m.set(
        "semgraph.absorb_us",
        1e6 * mean_over(&graphs, budget, |graph| {
            let mut grown = master.clone();
            time(|| grown.absorb(graph))
        }),
    );

    // The repository: first-time publishes of the sample, then reads.
    let tracer = Arc::new(Tracer::new(false));
    let repo = Arc::new(ExpelliarmusRepo::new(SimEnv::testbed()).with_tier(TierPolicy::mixed()));
    let mut publish = Duration::ZERO;
    let mut service = StoreService::new(
        Arc::clone(&inputs.world),
        Arc::clone(&repo) as Arc<dyn ImageStore>,
        Arc::clone(&tracer),
    );
    for vmi in sample {
        publish += time(|| repo.publish(catalog, vmi).expect("probe publish"));
        service
            .reads
            .insert(vmi.name.clone(), ReadTarget::of(vmi, catalog));
    }
    let publish_ms = publish.as_secs_f64() * 1e3 / sample.len() as f64;
    m.set("core.publish_ms", publish_ms);
    m.set(
        "semgraph.master_vertices",
        repo.masters()
            .iter()
            .map(MasterGraph::package_count)
            .sum::<usize>() as f64,
    );
    let retrieve_ms = 1e3
        * mean_over(sample, budget, |vmi| {
            let target = &service.reads[&vmi.name];
            time(|| {
                repo.retrieve(catalog, &target.request)
                    .expect("probe retrieve")
            })
        });
    m.set("core.retrieve_ms", retrieve_ms);
    m.set(
        "core.range_ms",
        1e3 * mean_over(sample, budget, |vmi| {
            let target = &service.reads[&vmi.name];
            time(|| {
                repo.retrieve_range(
                    catalog,
                    &target.request,
                    target.virtual_size / 3,
                    RANGE_BYTES,
                )
                .expect("probe range")
            })
        }),
    );

    // What the probed child layers explain of a publish and a retrieve;
    // the rest is what in-program spans would have to find.
    let get = |name: &str| m.get(name).expect("probed above");
    let packages = sample
        .iter()
        .map(|v| probe_packages(v).len())
        .sum::<usize>() as f64
        / sample.len() as f64;
    // Packages a retrieve installs: the primaries' closure minus what the
    // stored base already provides.
    let base_pkgdb = &state.bases[0].pkgdb;
    let installs = sample
        .iter()
        .map(|v| {
            catalog
                .install_closure(&v.primary, v.base.arch)
                .map_or(0, |closure| {
                    closure
                        .iter()
                        .filter(|&&id| !base_pkgdb.is_installed(catalog.get(id).name))
                        .count()
                })
        })
        .sum::<usize>() as f64
        / sample.len() as f64;
    let new_base_share = 1.0 / sample.len() as f64;
    let serialize_ms = {
        let disk = sample[0].disk.serialize();
        disk.len() as f64 / (1024.0 * 1024.0) / get("vdisk.serialize_mib_per_s") * 1e3
    };
    let publish_explained = 2.0 * get("guestfs.vmi_clone_ms")
        + get("core.analyze_ms")
        + get("guestfs.strip_ms")
        + get("core.select_base_us") / 1e3
        + packages * (get("guestfs.export_deb_us") + get("store.put_us")) / 1e3
        + new_base_share * (get("guestfs.mkfs_ms") + serialize_ms)
        + (1.0 - new_base_share) * get("semgraph.absorb_us") / 1e3;
    let retrieve_explained = get("guestfs.vmi_clone_ms")
        + get("pkg.install_closure_us") / 1e3
        + installs * (get("guestfs.install_pkg_us") + get("store.get_us")) / 1e3
        + get("guestfs.mkfs_ms");
    m.set(
        "core.publish_unattributed_frac",
        (1.0 - publish_explained / publish_ms).max(-1.0),
    );
    m.set(
        "core.retrieve_unattributed_frac",
        (1.0 - retrieve_explained / retrieve_ms).max(-1.0),
    );

    // The wire layer over that repository: this workload's own requests.
    let mut bodies: Vec<String> = Vec::new();
    for vmi in sample {
        bodies.push(format!("retrieve {}", vmi.name));
        bodies.push(format!("range {} frac=85 len={RANGE_BYTES}", vmi.name));
    }
    let service = Arc::new(service);
    let memo: std::collections::HashMap<&String, String> = bodies
        .iter()
        .map(|b| (b, service.execute(b).expect("probe request executes")))
        .collect();
    let check = |body: &str, reply: &[u8]| {
        memo.iter()
            .any(|(b, d)| b.as_str() == body && d.as_bytes() == reply)
    };
    let threads = client_threads();
    let seconds = if cfg.quick { 0.05 } else { 1.0 };
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn xpl_net::WireService>,
        wire::wire_config(),
    )
    .expect("bind probe server");
    // The wire's own cost, paired: each request once in-process and once
    // over one connection, back to back and in alternating order, so
    // drift in the machine cancels; the median difference is the overhead.
    let mut one = wire::client(server.local_addr(), 0, 0);
    one.call(bodies[0].as_bytes()).expect("probe warm-up call");
    let (mut diffs, mut unloaded_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while diffs.len() < 4 || started.elapsed().as_secs_f64() < seconds {
        let body = &bodies[diffs.len() % bodies.len()];
        let over_wire = |one: &mut xpl_net::NetClient| {
            let t = Instant::now();
            let reply = one.call(body.as_bytes()).expect("probe wire call");
            let elapsed = t.elapsed();
            assert!(check(body, &reply), "probe wire digest diverged");
            elapsed
        };
        let (wire_s, local_s) = if diffs.len() % 2 == 0 {
            let w = over_wire(&mut one);
            (w, time(|| service.execute(body)))
        } else {
            let l = time(|| service.execute(body));
            (over_wire(&mut one), l)
        };
        diffs.push(wire_s.as_secs_f64() - local_s.as_secs_f64());
        unloaded_ms.push(wire_s.as_secs_f64() * 1e3);
    }
    one.close();
    m.set("net.overhead_us", crate::measure::median(&diffs) * 1e6);
    let closed = wire::drive(
        server.local_addr(),
        threads,
        Pace::Closed,
        seconds,
        &bodies,
        &check,
    );
    assert_eq!(closed.failed, 0, "probe wire requests failed");
    m.set("net.capacity_per_s", closed.per_s());
    let mut lateness = crate::measure::Samples::default();
    for (name, share) in [
        ("net.load20.p50_ms", 0.2),
        ("net.load50.p50_ms", 0.5),
        ("net.load80.p50_ms", 0.8),
    ] {
        let per_s = closed.per_s() * share;
        // Slow ops get a longer window, so a level sees a dozen requests.
        let window = (12.0 / per_s).clamp(seconds, 3.0 * seconds);
        let r = wire::drive(
            server.local_addr(),
            threads,
            Pace::Open { per_s },
            window,
            &bodies,
            &check,
        );
        assert_eq!(r.failed, 0, "probe wire requests failed");
        // A rate too low to land one request inside the window reads as
        // the unloaded latency.
        let p50 = match r.latency.len() {
            0 => crate::measure::median(&unloaded_ms),
            _ => r.latency.percentile_ms(50.0),
        };
        m.set(name, p50);
        lateness.extend(&r.lateness);
    }
    m.set("net.gen_late_p99_us", lateness.tail_ms(99.0).0 * 1e3);
    server.drain();

    // Pure wire: an echo service prices frames, sockets and threads alone.
    let echo: Arc<dyn xpl_net::WireService> =
        Arc::new(|_tenant: u32, request: &[u8]| -> Result<Vec<u8>, String> {
            Ok(request.to_vec())
        });
    let server = NetServer::bind("127.0.0.1:0", echo, wire::wire_config()).expect("bind echo");
    let echoed = wire::drive(
        server.local_addr(),
        1,
        Pace::Closed,
        seconds / 2.0,
        &bodies,
        &|body, reply| body.as_bytes() == reply,
    );
    server.drain();
    m.set("net.loopback_rtt_us", echoed.latency.mean_ms() * 1e3);
    let payload = frame::encode_request(7, bodies[0].as_bytes());
    let encoded = frame::encode(frame::FrameKind::Request, &payload);
    m.set(
        "net.frame_encode_ns",
        1e9 * mean_s(budget, || {
            time(|| {
                for _ in 0..1000 {
                    black_box(frame::encode(
                        frame::FrameKind::Request,
                        black_box(&payload),
                    ));
                }
            }) / 1000
        }),
    );
    m.set(
        "net.frame_decode_ns",
        1e9 * mean_s(budget, || {
            time(|| {
                for _ in 0..1000 {
                    black_box(frame::decode(black_box(&encoded), frame::DEFAULT_MAX_FRAME))
                        .expect("own frame decodes");
                }
            }) / 1000
        }),
    );
    let gate = AdmissionGate::new(wire::wire_config().queue_depth);
    m.set(
        "registry.admit_ns",
        1e9 * mean_s(budget, || {
            time(|| {
                for tenant in 0..1000u32 {
                    drop(black_box(gate.try_admit(tenant % 8)));
                }
            }) / 1000
        }),
    );

    // Deletes last: the wire probes needed the images published.
    let delete: Duration = sample
        .iter()
        .map(|vmi| time(|| repo.delete(&vmi.name).expect("probe delete")))
        .sum();
    m.set(
        "core.delete_us",
        delete.as_secs_f64() * 1e6 / sample.len() as f64,
    );
    m.set(
        "workloads.build_image_ms",
        1e3 * mean_over(sample, budget, |vmi| time(|| (inputs.rebuild)(vmi))),
    );
}

/// Run the whole suite over `inputs`.
pub fn run(inputs: &ProbeInputs<'_>, cfg: &RunConfig) -> Metrics {
    assert!(!inputs.sample.is_empty(), "probes need a sample");
    let budget = if cfg.quick {
        Budget {
            time: Duration::from_millis(2),
            max_reps: 3,
        }
    } else {
        Budget {
            time: Duration::from_millis(60),
            max_reps: 200,
        }
    };
    let catalog = inputs.world.catalog();
    let mut m = Metrics::default();
    guestfs_and_pkg(&mut m, catalog, &inputs.sample, budget);
    byte_kernels(&mut m, &inputs.sample, budget);
    let blobs = sample_blobs(catalog, &inputs.sample);
    store(&mut m, &blobs, budget);
    persist(&mut m, &blobs, budget);
    metadb(&mut m, budget);
    baselines(&mut m, catalog, &inputs.sample[0]);
    core_and_net(&mut m, inputs, cfg, budget);
    m
}
