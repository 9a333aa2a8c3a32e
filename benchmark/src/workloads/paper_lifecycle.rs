//! `paper_lifecycle` — the paper's own evaluation as one run.
//!
//! In-memory Expelliarmus (tier `mixed`) on `World::standard()`: publish
//! the 19 Table II images in upload order, then rounds of one successive
//! IDE build (Fig. 3c) followed by eight full retrieves and one 64 KiB
//! `retrieve_range`, then — once the IDE builds are in — the same read
//! rounds until the time box closes, then delete a third of the images,
//! check the survivors, and delete the rest.
//!
//! Why it exists: paper-scale images carry ~80 k file records and tiny
//! blobs, so `xpl-core`, `xpl-guestfs` (mkfs is most of a retrieve),
//! `xpl-semgraph`, `xpl-pkg` and `xpl-vdisk` do nearly all the work and
//! CAS/codec almost none. Reads walk a seeded permutation of the live
//! images rather than a Zipf draw: over 19 images whose retrieves cost
//! 113–178 ms, a Zipf median is a property of which image the seed made
//! hot, not of the code.

use std::cell::OnceCell;
use std::sync::Arc;

use xpl_core::ExpelliarmusRepo;
use xpl_guestfs::Vmi;
use xpl_pkg::Catalog;
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest, TierPolicy};
use xpl_util::{Digest, SplitMix64};
use xpl_workloads::World;

use super::{
    disk_slice, finish, measured, op_list_digest, repeat_setup, shuffle, Finished, Kind, Ledger,
    ProbeInputs, RunConfig, RunCounts, RunOutput, RANGE_BYTES,
};
use crate::trace::Tracer;

/// Successive IDE builds published between read rounds.
const IDE_BUILDS: u32 = 5;
/// Reads per round: this many full retrieves, then one range.
const RETRIEVES_PER_ROUND: usize = 8;

/// One pre-built image. Only Table II images are ever retrieved: a
/// request names packages, not versions, so the successive IDE builds —
/// same names, bumped versions — are publish-only, as in Fig. 3c.
struct Prepared {
    vmi: Arc<Vmi>,
    request: Option<RetrieveRequest>,
    /// What a retrieval must reproduce; computed by the oracle the first
    /// time the image comes back.
    fingerprint: OnceCell<Digest>,
}

impl Prepared {
    fn new(catalog: &Catalog, vmi: Vmi, retrievable: bool) -> Prepared {
        Prepared {
            request: retrievable.then(|| RetrieveRequest::for_image(&vmi, catalog)),
            fingerprint: OnceCell::new(),
            vmi: Arc::new(vmi),
        }
    }

    fn request(&self) -> &RetrieveRequest {
        self.request
            .as_ref()
            .expect("only Table II images are read")
    }

    fn matches(&self, catalog: &Catalog, got: &Vmi) -> bool {
        let want = self
            .fingerprint
            .get_or_init(|| semantic_fingerprint(catalog, &self.vmi));
        semantic_fingerprint(catalog, got) == *want
    }
}

struct Setup {
    world: Arc<World>,
    /// Table II images in upload order, then the IDE builds.
    images: Vec<Prepared>,
    table2: usize,
}

fn setup(cfg: &RunConfig) -> Setup {
    let world = if cfg.quick {
        World::small()
    } else {
        World::standard()
    };
    let names: Vec<String> = world.image_names().iter().map(|s| s.to_string()).collect();
    let mut images: Vec<Prepared> = names
        .iter()
        .map(|n| Prepared::new(&world.catalog, world.build_image(n), true))
        .collect();
    let table2 = images.len();
    if !cfg.quick {
        // Only the standard catalog carries the bumped IDE version sets.
        images.extend(
            (0..IDE_BUILDS).map(|k| Prepared::new(&world.catalog, world.ide_build(k), false)),
        );
    }
    // Warm-up, untimed and charged to set-up: the first pass through the
    // publish and retrieve paths runs about a quarter slower.
    let scratch = ExpelliarmusRepo::new(world.env()).with_tier(TierPolicy::mixed());
    let p = &images[0];
    scratch
        .publish(&world.catalog, &p.vmi)
        .expect("warm-up publish");
    scratch
        .retrieve(&world.catalog, p.request())
        .expect("warm-up retrieve");
    scratch
        .retrieve_range(&world.catalog, p.request(), 0, RANGE_BYTES)
        .expect("warm-up range");
    Setup {
        world: Arc::new(world),
        images,
        table2,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Publish(usize),
    Retrieve(usize),
    Range(usize, u64),
    Delete(usize),
}

impl Op {
    fn render(&self, images: &[Prepared]) -> String {
        match *self {
            Op::Publish(i) => format!("publish {}", images[i].vmi.name),
            Op::Retrieve(i) => format!("retrieve {}", images[i].vmi.name),
            Op::Range(i, start) => format!("range {} start={start}", images[i].vmi.name),
            Op::Delete(i) => format!("delete {}", images[i].vmi.name),
        }
    }
}

/// The seeded read mix: a shuffled walk over the live images, reshuffled
/// each time it is exhausted, every ninth read a range.
struct ReadStream {
    rng: SplitMix64,
    walk: Vec<usize>,
    issued: usize,
}

impl ReadStream {
    fn new(seed: u64) -> ReadStream {
        ReadStream {
            rng: SplitMix64::new(seed).derive("paper-reads"),
            walk: Vec::new(),
            issued: 0,
        }
    }

    fn next(&mut self, live: &[usize], images: &[Prepared]) -> Op {
        let image = loop {
            match self.walk.pop() {
                Some(i) if live.contains(&i) => break i,
                Some(_) => continue,
                None => {
                    self.walk = live.to_vec();
                    shuffle(&mut self.walk, &mut self.rng);
                }
            }
        };
        self.issued += 1;
        if self.issued.is_multiple_of(RETRIEVES_PER_ROUND + 1) {
            let size = images[image].vmi.disk.virtual_size();
            Op::Range(
                image,
                self.rng.next_below(size.saturating_sub(RANGE_BYTES).max(1)),
            )
        } else {
            Op::Retrieve(image)
        }
    }

    /// Whether the current walk over the images still has reads to give.
    fn mid_walk(&self) -> bool {
        !self.walk.is_empty()
    }

    fn round(&mut self, live: &[usize], images: &[Prepared]) -> Vec<Op> {
        (0..=RETRIEVES_PER_ROUND)
            .map(|_| self.next(live, images))
            .collect()
    }
}

struct Runner<'a> {
    catalog: &'a Catalog,
    images: &'a [Prepared],
    repo: &'a ExpelliarmusRepo,
    tracer: &'a Tracer,
    ledger: Ledger,
    op_index: u64,
}

impl Runner<'_> {
    fn exec(&mut self, op: Op) {
        let index = self.op_index;
        self.op_index += 1;
        let (catalog, repo, tracer) = (self.catalog, self.repo, self.tracer);
        let images = self.images;
        let what = || op.render(images);
        match op {
            Op::Publish(i) => {
                let p = &images[i];
                let bytes = p.vmi.disk_bytes();
                let result = measured(
                    tracer,
                    &mut self.ledger,
                    Kind::Publish,
                    index,
                    bytes,
                    || repo.publish(catalog, &p.vmi),
                );
                match result {
                    Ok(report) => self.ledger.sim_publish_s += report.duration.as_secs_f64(),
                    Err(e) => self.ledger.violation(format!("{}: {e}", what())),
                }
            }
            Op::Retrieve(i) => {
                let p = &images[i];
                let bytes = p.vmi.disk_bytes();
                let result = measured(
                    tracer,
                    &mut self.ledger,
                    Kind::Retrieve,
                    index,
                    bytes,
                    || repo.retrieve(catalog, p.request()),
                );
                match result {
                    Ok((got, report)) => {
                        self.ledger.sim_retrieve_s += report.duration.as_secs_f64();
                        let same = p.matches(catalog, &got);
                        self.ledger
                            .expect(same, || format!("{}: fingerprint diverged", what()));
                    }
                    Err(e) => self.ledger.violation(format!("{}: {e}", what())),
                }
            }
            Op::Range(i, start) => {
                let p = &images[i];
                let got = measured(tracer, &mut self.ledger, Kind::Range, index, 0, || {
                    repo.retrieve_range(catalog, p.request(), start, RANGE_BYTES)
                });
                // The oracle's own full retrieval, outside the timed region.
                let want = repo
                    .retrieve(catalog, p.request())
                    .map_err(|e| e.to_string())
                    .and_then(|(full, _)| disk_slice(&full, start, RANGE_BYTES));
                self.ledger
                    .expect_range(what, got.map(|(bytes, _)| bytes), want);
            }
            Op::Delete(i) => {
                let result = measured(tracer, &mut self.ledger, Kind::Delete, index, 0, || {
                    repo.delete(&images[i].vmi.name)
                });
                if let Err(e) = result {
                    self.ledger.violation(format!("{}: {e}", what()));
                }
            }
        }
    }
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let (setup, setup_s) = repeat_setup(cfg, || setup(cfg));
    let Setup {
        world,
        images,
        table2,
    } = &setup;
    let catalog = &world.catalog;

    // The fixed op list: Table II publishes in upload order, then one
    // round per IDE build (a single read round at smoke scale).
    let mut reads = ReadStream::new(cfg.seed);
    let readable: Vec<usize> = (0..*table2).collect();
    let live: Vec<usize> = (0..images.len()).collect();
    let uploads: Vec<Op> = readable.iter().map(|&i| Op::Publish(i)).collect();
    let mut rounds: Vec<Op> = Vec::new();
    for i in *table2..images.len() {
        rounds.push(Op::Publish(i));
        rounds.extend(reads.round(&readable, images));
    }
    if rounds.is_empty() {
        rounds = reads.round(&readable, images);
    }
    // Deleted in upload order (what a delete frees depends on what is
    // left, so a seeded order would make the median a property of the
    // seed): a third first, the rest after the survivors were checked.
    let doomed = live.clone();
    let first_third = live.len() / 3;
    let op_digest = op_list_digest(
        uploads
            .iter()
            .chain(&rounds)
            .copied()
            .chain(doomed.iter().map(|&i| Op::Delete(i)))
            .map(|op| op.render(images)),
    );

    let tracer = Tracer::new(cfg.trace);
    let registry = xpl_obs::Registry::new();
    let repo = ExpelliarmusRepo::new(world.env()).with_tier(TierPolicy::mixed());
    if cfg.trace {
        repo.attach_obs(&registry);
    }
    let mut runner = Runner {
        catalog,
        images,
        repo: &repo,
        tracer: &tracer,
        ledger: Ledger::default(),
        op_index: 0,
    };

    tracer.enter_phase("publish-table2");
    for op in uploads {
        runner.exec(op);
    }
    tracer.enter_phase("mix");
    for op in rounds {
        runner.exec(op);
    }
    // Fixed list done: every publish is in, nothing deleted yet — the
    // paper's Fig. 3 axis, independent of seed and machine speed.
    runner.ledger.mark_fixed_point();
    let image_bytes: u64 = live.iter().map(|&i| images[i].vmi.disk_bytes()).sum();
    let ratio = repo.repo_bytes() as f64 / image_bytes as f64;
    let layer_counts = cfg.trace.then(|| {
        RunCounts {
            registry: &registry.snapshot(),
            vfs: None,
            live_bytes: repo.repo_bytes(),
        }
        .layer_metrics()
    });

    // The time box: finish the walk in progress, then whole walks while
    // they fit, so that every image is read equally often.
    while reads.mid_walk() || runner.ledger.another_walk_fits(cfg.seconds, readable.len()) {
        runner.exec(reads.next(&readable, images));
    }

    // Delete a third; the books must balance and survivors that shared
    // content with the deleted images must still come back whole; then
    // delete the rest.
    tracer.enter_phase("delete");
    for &i in &doomed[..first_third] {
        runner.exec(Op::Delete(i));
    }
    if let Err(e) = repo.check_integrity_deep() {
        runner
            .ledger
            .violation(format!("deep integrity after deletes: {e}"));
    }
    let survivors = doomed[first_third..].iter().filter(|&&i| i < *table2);
    for &i in survivors.take(2) {
        let p = &images[i];
        match repo.retrieve(catalog, p.request()) {
            Ok((got, _)) => runner.ledger.expect(p.matches(catalog, &got), || {
                format!("survivor {} diverged after deletes", p.vmi.name)
            }),
            Err(e) => runner
                .ledger
                .violation(format!("survivor {}: {e}", p.vmi.name)),
        }
    }
    for &i in &doomed[first_third..] {
        runner.exec(Op::Delete(i));
    }
    tracer.end_phase();
    let mut ledger = runner.ledger;
    if let Err(e) = repo.check_integrity() {
        ledger.violation(format!("integrity after the last delete: {e}"));
    }

    let notes = vec![format!(
        "inputs: {} Table II images + {} IDE builds, {:.1} MiB of image disks; \
         repo {} bytes after the fixed list; {} deleted before the survivor check",
        table2,
        images.len() - table2,
        image_bytes as f64 / (1024.0 * 1024.0),
        (ratio * image_bytes as f64).round(),
        first_third
    )];
    let all: Vec<Arc<Vmi>> = images.iter().map(|p| Arc::clone(&p.vmi)).collect();
    let rebuild = |vmi: &Vmi| match vmi.name.strip_prefix("IDE-build-") {
        Some(k) => world.ide_build(k.parse().expect("IDE build number")),
        None => world.build_image(&vmi.name),
    };
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
