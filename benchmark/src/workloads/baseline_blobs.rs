//! `baseline_blobs` — the semantics-free stores on the same images.
//!
//! Eight Table II images (the four of the Mirage/Hemera studies plus four
//! marketplace stacks) through Qcow2, Qcow2+Gzip, Mirage, Hemera and the
//! CDC block-dedup store, all in memory on their default tiers: publish
//! every image, retrieve every image and read one 64 KiB range of it,
//! `maintain()`, then retrieve+range rounds until the time box closes,
//! then delete a third, check the survivors, delete the rest.
//!
//! Why it exists: blob-heavy work where `xpl-compress`, `xpl-util`
//! (sha256/crc32), `xpl-chunking`, the `xpl-store` CAS and `xpl-vdisk`
//! serialization dominate and the semantic layers are idle — a guestfs or
//! semgraph optimisation must not move it, a codec or CAS one must. One
//! op is one image through all five stores in turn: per-store latencies
//! are five-modal, their sum is not.

use std::sync::Arc;

use xpl_baselines::{CdcDedupStore, GzipStore, HemeraStore, MirageStore, QcowStore};
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_simio::SimEnv;
use xpl_store::{full_fingerprint, ImageStore, RetrieveRequest};
use xpl_util::{Digest, SplitMix64};
use xpl_workloads::World;

use super::{
    disk_slice, finish, op_list_digest, repeat_setup, timed, Finished, Kind, Ledger, ProbeInputs,
    RunConfig, RunCounts, RunOutput, RANGE_BYTES,
};
use crate::trace::{span_id, Tracer};

/// The images of the run, by Table II name.
const IMAGES: [&str; 8] = [
    "Mini",
    "Redis",
    "Base",
    "Cassandra",
    "Lemp",
    "Desktop",
    "IDE",
    "Elastic Stack",
];

/// Average chunk size of the CDC store, as the repo's own tests use it.
pub const CDC_AVG_CHUNK: usize = 512;

/// The five stores under their metric-name labels, each over a fresh
/// simulated environment.
pub fn five_stores(env: impl Fn() -> SimEnv) -> Vec<(&'static str, Box<dyn ImageStore>)> {
    vec![
        (
            "qcow2",
            Box::new(QcowStore::new(env())) as Box<dyn ImageStore>,
        ),
        ("gzip", Box::new(GzipStore::new(env()))),
        ("mirage", Box::new(MirageStore::new(env()))),
        ("hemera", Box::new(HemeraStore::new(env()))),
        ("cdc", Box::new(CdcDedupStore::new(env(), CDC_AVG_CHUNK))),
    ]
}

struct Prepared {
    vmi: Arc<Vmi>,
    request: RetrieveRequest,
    fingerprint: Digest,
}

struct Setup {
    world: Arc<World>,
    images: Vec<Prepared>,
}

fn setup(cfg: &RunConfig) -> Setup {
    let world = if cfg.quick {
        World::small()
    } else {
        World::standard()
    };
    let names: Vec<String> = if cfg.quick {
        world.image_names().iter().map(|s| s.to_string()).collect()
    } else {
        IMAGES.iter().map(|s| s.to_string()).collect()
    };
    let images: Vec<Prepared> = names
        .iter()
        .map(|n| {
            let vmi = world.build_image(n);
            Prepared {
                request: RetrieveRequest::for_image(&vmi, &world.catalog),
                fingerprint: full_fingerprint(&world.catalog, &vmi),
                vmi: Arc::new(vmi),
            }
        })
        .collect();
    // Warm-up, untimed and charged to set-up: one image through each store.
    let p = &images[0];
    for (_, store) in five_stores(|| world.env()) {
        store
            .publish(&world.catalog, &p.vmi)
            .expect("warm-up publish");
        store
            .retrieve(&world.catalog, &p.request)
            .expect("warm-up retrieve");
    }
    Setup {
        world: Arc::new(world),
        images,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Publish(usize),
    Retrieve(usize),
    Range(usize, u64),
    Maintain,
    Delete(usize),
}

impl Op {
    fn render(&self, images: &[Prepared]) -> String {
        match *self {
            Op::Publish(i) => format!("publish {}", images[i].vmi.name),
            Op::Retrieve(i) => format!("retrieve {}", images[i].vmi.name),
            Op::Range(i, start) => format!("range {} start={start}", images[i].vmi.name),
            Op::Maintain => "maintain".to_string(),
            Op::Delete(i) => format!("delete {}", images[i].vmi.name),
        }
    }
}

/// One walk over the images in upload order: a retrieve, then a range
/// at a seeded offset, for each. Whole walks in a fixed order keep the mix
/// of images behind every median the same whatever the seed and however
/// many walks the time box admits.
fn read_walk(images: &[Prepared], rng: &mut SplitMix64) -> Vec<Op> {
    let mut walk = Vec::with_capacity(2 * images.len());
    for (i, p) in images.iter().enumerate() {
        let size = p.vmi.disk.virtual_size();
        let start = rng.next_below(size.saturating_sub(RANGE_BYTES).max(1));
        walk.extend([Op::Retrieve(i), Op::Range(i, start)]);
    }
    walk
}

struct Runner<'a> {
    catalog: &'a Catalog,
    images: &'a [Prepared],
    stores: &'a [(&'static str, Box<dyn ImageStore>)],
    tracer: &'a Tracer,
    ledger: Ledger,
    op_index: u64,
    /// The last full retrieval's five images: the range oracle's slices.
    last_full: Option<(usize, Vec<Vmi>)>,
}

impl Runner<'_> {
    /// Run `call` against every store in turn, each under its own child
    /// span, as one timed op.
    fn across_stores<T>(
        &mut self,
        kind: Kind,
        image_bytes: u64,
        mut call: impl FnMut(&dyn ImageStore) -> T,
    ) -> Vec<T> {
        let index = self.op_index;
        self.op_index += 1;
        let n = self.stores.len() as u64;
        let span = self.tracer.op(kind.name(), index);
        let (results, elapsed) = timed(|| {
            self.stores
                .iter()
                .map(|(label, store)| {
                    let name = format!("{label}.{}", kind.name());
                    let _child = self.tracer.child(&name, span_id(&span), index);
                    call(store.as_ref())
                })
                .collect::<Vec<T>>()
        });
        drop(span);
        self.ledger.record(kind, elapsed, n, image_bytes * n);
        results
    }

    fn exec(&mut self, op: Op) {
        let (catalog, images, stores) = (self.catalog, self.images, self.stores);
        let what = |label: &str| format!("{label}: {}", op.render(images));
        match op {
            Op::Publish(i) => {
                let p = &images[i];
                let results = self.across_stores(Kind::Publish, p.vmi.disk_bytes(), |s| {
                    s.publish(catalog, &p.vmi)
                });
                for ((label, _), result) in stores.iter().zip(results) {
                    match result {
                        Ok(r) => self.ledger.sim_publish_s += r.duration.as_secs_f64(),
                        Err(e) => self.ledger.violation(format!("{}: {e}", what(label))),
                    }
                }
            }
            Op::Retrieve(i) => {
                let p = &images[i];
                let results = self.across_stores(Kind::Retrieve, p.vmi.disk_bytes(), |s| {
                    s.retrieve(catalog, &p.request)
                });
                let mut full = Vec::with_capacity(stores.len());
                for ((label, _), result) in stores.iter().zip(results) {
                    match result {
                        Ok((got, r)) => {
                            self.ledger.sim_retrieve_s += r.duration.as_secs_f64();
                            let same = full_fingerprint(catalog, &got) == p.fingerprint;
                            self.ledger
                                .expect(same, || format!("{}: fingerprint diverged", what(label)));
                            full.push(got);
                        }
                        Err(e) => self.ledger.violation(format!("{}: {e}", what(label))),
                    }
                }
                self.last_full = (full.len() == stores.len()).then_some((i, full));
            }
            Op::Range(i, start) => {
                let p = &images[i];
                let results = self.across_stores(Kind::Range, 0, |s| {
                    s.retrieve_range(catalog, &p.request, start, RANGE_BYTES)
                });
                // Every stream pairs a range with the retrieval before it.
                let full = match self.last_full.take() {
                    Some((image, full)) if image == i => full,
                    _ => {
                        self.ledger
                            .violation(format!("{}: no full retrieval to slice", what("oracle")));
                        return;
                    }
                };
                for (((label, _), result), vmi) in stores.iter().zip(results).zip(&full) {
                    self.ledger.expect_range(
                        || what(label),
                        result.map(|(bytes, _)| bytes),
                        disk_slice(vmi, start, RANGE_BYTES),
                    );
                }
            }
            Op::Maintain => {
                self.across_stores(Kind::Maintain, 0, |s| s.maintain());
            }
            Op::Delete(i) => {
                let name = &images[i].vmi.name;
                let results = self.across_stores(Kind::Delete, 0, |s| s.delete(name));
                for ((label, _), result) in stores.iter().zip(results) {
                    if let Err(e) = result {
                        self.ledger.violation(format!("{}: {e}", what(label)));
                    }
                }
            }
        }
    }
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let (setup, setup_s) = repeat_setup(cfg, || setup(cfg));
    let Setup { world, images } = &setup;
    let catalog = &world.catalog;
    // The fixed op list: publish all in upload order (what each store
    // dedups against depends on it), retrieve+range all, maintain.
    let mut rng = SplitMix64::new(cfg.seed).derive("baseline-reads");
    let first_walk = read_walk(images, &mut rng);
    // Deletes go in upload order too: what a delete frees depends on
    // what is left.
    let first_third = images.len() / 3;
    let op_digest = op_list_digest(
        (0..images.len())
            .map(Op::Publish)
            .chain(first_walk.iter().copied())
            .chain([Op::Maintain])
            .chain((0..images.len()).map(Op::Delete))
            .map(|op| op.render(images)),
    );

    let tracer = Tracer::new(cfg.trace);
    let registry = xpl_obs::Registry::new();
    let stores = five_stores(|| world.env());
    if cfg.trace {
        for (_, store) in &stores {
            store.attach_obs(&registry);
        }
    }
    let mut runner = Runner {
        catalog,
        images,
        stores: &stores,
        tracer: &tracer,
        ledger: Ledger::default(),
        op_index: 0,
        last_full: None,
    };

    tracer.enter_phase("publish");
    for i in 0..images.len() {
        runner.exec(Op::Publish(i));
    }
    tracer.enter_phase("read");
    for op in first_walk {
        runner.exec(op);
    }
    tracer.enter_phase("maintain");
    runner.exec(Op::Maintain);
    // Fixed list done: the paper's size comparison, summed over stores.
    runner.ledger.mark_fixed_point();
    let image_bytes: u64 = images.iter().map(|p| p.vmi.disk_bytes()).sum();
    let sizes: Vec<String> = stores
        .iter()
        .map(|(label, s)| format!("{label} {}", s.repo_bytes()))
        .collect();
    let repo_bytes: u64 = stores.iter().map(|(_, s)| s.repo_bytes()).sum();
    let ratio = repo_bytes as f64 / (image_bytes * stores.len() as u64) as f64;
    let layer_counts = cfg.trace.then(|| {
        RunCounts {
            registry: &registry.snapshot(),
            vfs: None,
            live_bytes: repo_bytes,
        }
        .layer_metrics()
    });

    // The time box: whole walks of retrieve+range pairs on the maintained
    // stores, while they fit.
    tracer.enter_phase("read-more");
    while runner
        .ledger
        .another_walk_fits(cfg.seconds, 2 * images.len())
    {
        for op in read_walk(images, &mut rng) {
            runner.exec(op);
        }
    }

    // Delete a third, make sure a survivor that shared content with the
    // deleted images still comes back whole from every store, then
    // delete the rest (every image yields a delete sample).
    tracer.enter_phase("delete");
    for i in 0..first_third {
        runner.exec(Op::Delete(i));
    }
    if let Some(p) = images.get(first_third) {
        for (label, store) in &stores {
            match store.retrieve(catalog, &p.request) {
                Ok((got, _)) => runner
                    .ledger
                    .expect(full_fingerprint(catalog, &got) == p.fingerprint, || {
                        format!("{label}: survivor {} diverged after deletes", p.vmi.name)
                    }),
                Err(e) => runner
                    .ledger
                    .violation(format!("{label}: survivor {}: {e}", p.vmi.name)),
            }
        }
    }
    for i in first_third..images.len() {
        runner.exec(Op::Delete(i));
    }
    tracer.end_phase();
    let mut ledger = runner.ledger;
    for (label, store) in &stores {
        if let Err(e) = store.check_integrity_deep() {
            ledger.violation(format!("{label}: deep integrity after deletes: {e}"));
        }
    }

    let notes = vec![format!(
        "inputs: {} images, {:.1} MiB of image disks per store, five stores; \
         repo bytes after the fixed list sum to {repo_bytes} ({})",
        images.len(),
        image_bytes as f64 / (1024.0 * 1024.0),
        sizes.join(", ")
    )];
    let all: Vec<Arc<Vmi>> = images.iter().map(|p| Arc::clone(&p.vmi)).collect();
    let rebuild = |vmi: &Vmi| world.build_image(&vmi.name);
    let wall_s = ledger.timed_s();
    finish(
        cfg,
        &tracer,
        Finished {
            ledger,
            setup_s,
            wall_s,
            repo_bytes_per_image_byte: ratio,
            layer_counts,
            probe_inputs: ProbeInputs {
                world: Arc::clone(world) as Arc<dyn crate::wire::HasCatalog>,
                sample: super::sample_images(&all, 2, cfg.seed),
                rebuild: &rebuild,
            },
            notes,
            op_digest,
        },
    )
}
