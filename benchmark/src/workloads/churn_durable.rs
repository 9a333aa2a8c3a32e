//! `churn_durable` — a long lifecycle trace on the durable repository.
//!
//! Durable Expelliarmus (`new_durable` over `StdFs` in a fresh directory
//! under `benchmark/out/`, real fsync, default `DurableConfig`, tier
//! `mixed`) replays a seeded `Trace` over `ScaledWorld::standard` (120
//! images of ~50 KB): publishes, upgrades, retrieves, ranges, bursts,
//! deletes and maintenance sweeps, no crash ops. The first
//! [`FIXED_OPS`] trace entries are the fixed list; the replay then goes
//! on until the time box closes. It ends by dropping the repository,
//! reopening both CAS sections from the medium and reading a blob of each.
//!
//! Why it exists: op-count-heavy work on tiny blobs, writes and deletes
//! beside reads, where `xpl-persist` (WAL and segment appends, fsync,
//! checkpoints) is most of a publish and `xpl-store`'s index and
//! refcounts and `xpl-metadb` come next. It also shows space
//! amplification: released blobs stay in their segments.

use std::collections::HashMap;
use std::sync::Arc;

use xpl_core::ExpelliarmusRepo;
use xpl_guestfs::Vmi;
use xpl_persist::{DurableConfig, DurableContentStore, StdFs, Vfs};
use xpl_simio::SimEnv;
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest, TierPolicy};
use xpl_util::{Digest, Sha256};
use xpl_workloads::{ScaleConfig, ScaledWorld, Trace, TraceConfig, TraceOp};

use super::{
    disk_slice, finish, measured, op_list_digest, repeat_setup, Finished, Kind, Ledger,
    ProbeInputs, RunConfig, RunCounts, RunOutput, ScratchDir, SCALED_WORLD_SEED,
};
use crate::trace::Tracer;
use crate::vfs::{CountingVfs, VfsCounts};

/// Trace entries of the fixed list (a burst is one entry).
const FIXED_OPS: usize = 4_000;
const FIXED_OPS_QUICK: usize = 150;
/// Entries generated: far more than any time box admits today.
const TRACE_OPS: usize = 400_000;
const SECTIONS: [&str; 2] = ["packages", "data"];

struct Setup {
    world: Arc<ScaledWorld>,
    trace: Trace,
    fixed_ops: usize,
}

/// A durable repository over `vfs`, with handles on both sections.
fn open_repo(vfs: &Arc<dyn Vfs>) -> (ExpelliarmusRepo, Vec<Arc<DurableContentStore>>) {
    let sections: Vec<Arc<DurableContentStore>> = SECTIONS
        .iter()
        .map(|name| {
            let (store, report) =
                DurableContentStore::open(Arc::clone(vfs), DurableConfig::named(name))
                    .unwrap_or_else(|e| panic!("open durable section {name}: {e}"));
            assert_eq!(report.blobs, 0, "a fresh medium holds no blobs");
            Arc::new(store)
        })
        .collect();
    let repo = ExpelliarmusRepo::new_durable(
        SimEnv::testbed(),
        Arc::clone(&sections[0]),
        Arc::clone(&sections[1]),
    )
    .with_tier(TierPolicy::mixed());
    (repo, sections)
}

fn setup(cfg: &RunConfig) -> Setup {
    let (scale, fixed_ops) = if cfg.quick {
        (ScaleConfig::small(SCALED_WORLD_SEED), FIXED_OPS_QUICK)
    } else {
        (ScaleConfig::standard(SCALED_WORLD_SEED), FIXED_OPS)
    };
    let world = ScaledWorld::generate(&scale);
    let trace = Trace::generate(
        &world.image_names(),
        &TraceConfig {
            seed: cfg.seed,
            ops: if cfg.quick { 4 * fixed_ops } else { TRACE_OPS },
        },
    );
    // Warm-up, untimed and charged to set-up: the head of the trace on a
    // scratch medium.
    let dir = ScratchDir::create("churn-warmup");
    let vfs: Arc<dyn Vfs> = Arc::new(StdFs::new(&dir.0).expect("scratch medium"));
    let (repo, _sections) = open_repo(&vfs);
    let tracer = Tracer::new(false);
    let mut replay = Replay::new(&world, &repo, &tracer);
    for op in trace.ops.iter().take(fixed_ops.min(150)) {
        replay.exec(op);
    }
    assert!(
        replay.ledger.violations.is_empty(),
        "warm-up replay failed: {:?}",
        replay.ledger.violations
    );
    Setup {
        world: Arc::new(world),
        trace,
        fixed_ops,
    }
}

/// What the oracle remembers about a live image.
struct LiveImage {
    request: RetrieveRequest,
    fingerprint: Digest,
    disk_bytes: u64,
    virtual_size: u64,
}

struct Replay<'a> {
    world: &'a ScaledWorld,
    repo: &'a ExpelliarmusRepo,
    tracer: &'a Tracer,
    live: HashMap<String, LiveImage>,
    ledger: Ledger,
    op_index: u64,
}

impl<'a> Replay<'a> {
    fn new(world: &'a ScaledWorld, repo: &'a ExpelliarmusRepo, tracer: &'a Tracer) -> Self {
        Replay {
            world,
            repo,
            tracer,
            live: HashMap::new(),
            ledger: Ledger::default(),
            op_index: 0,
        }
    }

    fn publish(&mut self, image: &str, generation: u32) {
        // Building the image is input generation: outside the timed region.
        let vmi = self.world.build(image, generation);
        let (catalog, repo) = (&self.world.catalog, self.repo);
        let result = measured(
            self.tracer,
            &mut self.ledger,
            Kind::Publish,
            self.op_index,
            vmi.disk_bytes(),
            || repo.publish(catalog, &vmi),
        );
        match result {
            Ok(report) => self.ledger.sim_publish_s += report.duration.as_secs_f64(),
            Err(e) => self
                .ledger
                .violation(format!("publish {image} gen={generation}: {e}")),
        }
        self.live.insert(
            image.to_string(),
            LiveImage {
                request: RetrieveRequest::for_image(&vmi, catalog),
                fingerprint: semantic_fingerprint(catalog, &vmi),
                disk_bytes: vmi.disk_bytes(),
                virtual_size: vmi.disk.virtual_size(),
            },
        );
    }

    fn retrieve(&mut self, image: &str) {
        let (catalog, repo) = (&self.world.catalog, self.repo);
        let Some(expect) = self.live.get(image) else {
            self.ledger
                .violation(format!("trace retrieved dead image {image}"));
            return;
        };
        let result = measured(
            self.tracer,
            &mut self.ledger,
            Kind::Retrieve,
            self.op_index,
            expect.disk_bytes,
            || repo.retrieve(catalog, &expect.request),
        );
        match result {
            Ok((got, report)) => {
                self.ledger.sim_retrieve_s += report.duration.as_secs_f64();
                let same = semantic_fingerprint(catalog, &got) == expect.fingerprint;
                self.ledger
                    .expect(same, || format!("retrieve {image}: fingerprint diverged"));
            }
            Err(e) => self.ledger.violation(format!("retrieve {image}: {e}")),
        }
    }

    fn range(&mut self, image: &str, start_frac: u32, len: u32) {
        let (catalog, repo) = (&self.world.catalog, self.repo);
        let Some(expect) = self.live.get(image) else {
            self.ledger
                .violation(format!("trace range-read dead image {image}"));
            return;
        };
        let (start, len) = (
            expect.virtual_size * u64::from(start_frac) / 256,
            u64::from(len),
        );
        let got = measured(
            self.tracer,
            &mut self.ledger,
            Kind::Range,
            self.op_index,
            0,
            || repo.retrieve_range(catalog, &expect.request, start, len),
        );
        // The oracle's own full retrieval, outside the timed region.
        let want = repo
            .retrieve(catalog, &expect.request)
            .map_err(|e| e.to_string())
            .and_then(|(full, _)| disk_slice(&full, start, len));
        self.ledger.expect_range(
            || format!("range {image} frac={start_frac} len={len}"),
            got.map(|(bytes, _)| bytes),
            want,
        );
    }

    fn exec(&mut self, op: &TraceOp) {
        let repo = self.repo;
        match op {
            TraceOp::Publish { image, generation } | TraceOp::Upgrade { image, generation } => {
                self.publish(image, *generation)
            }
            TraceOp::Retrieve { image } => self.retrieve(image),
            TraceOp::Burst { image, count } => {
                for _ in 0..*count {
                    self.retrieve(image);
                }
            }
            TraceOp::RetrieveRange {
                image,
                start_frac,
                len,
            } => self.range(image, *start_frac, *len),
            TraceOp::Delete { image } => {
                let result = measured(
                    self.tracer,
                    &mut self.ledger,
                    Kind::Delete,
                    self.op_index,
                    0,
                    || repo.delete(image),
                );
                if let Err(e) = result {
                    self.ledger.violation(format!("delete {image}: {e}"));
                }
                self.live.remove(image);
            }
            TraceOp::Maintain => {
                measured(
                    self.tracer,
                    &mut self.ledger,
                    Kind::Maintain,
                    self.op_index,
                    0,
                    || repo.maintain(),
                );
            }
            // The generator emits these only through `inject_crashes`,
            // which this workload never calls.
            TraceOp::Crash | TraceOp::Recover => {}
        }
        self.op_index += 1;
    }
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let (setup, setup_s) = repeat_setup(cfg, || setup(cfg));
    let Setup {
        world,
        trace,
        fixed_ops,
    } = &setup;
    let op_digest = op_list_digest(trace.ops.iter().take(*fixed_ops).map(TraceOp::render));

    let tracer = Tracer::new(cfg.trace);
    let registry = xpl_obs::Registry::new();
    let dir = ScratchDir::create("churn");
    let medium: Arc<dyn Vfs> = Arc::new(StdFs::new(&dir.0).expect("durable medium"));
    // Untraced runs talk to StdFs directly; the traced run counts and
    // times what crosses the boundary.
    let (vfs, vfs_counts): (Arc<dyn Vfs>, Option<Arc<VfsCounts>>) = if cfg.trace {
        let (counting, counts) = CountingVfs::new(Arc::clone(&medium));
        (counting, Some(counts))
    } else {
        (Arc::clone(&medium), None)
    };
    let (repo, sections) = open_repo(&vfs);
    if let Some(ring) = tracer.ring() {
        repo.attach_obs(&registry);
        for section in &sections {
            section.attach_trace(ring);
        }
    }

    let mut replay = Replay::new(world, &repo, &tracer);
    tracer.enter_phase("fixed");
    let mut ops = trace.ops.iter();
    for op in ops.by_ref().take(*fixed_ops) {
        replay.exec(op);
    }
    // Fixed list done: sizes and counts here depend on the seed alone.
    replay.ledger.mark_fixed_point();
    let live_image_bytes: u64 = replay.live.values().map(|l| l.disk_bytes).sum();
    let ratio = repo.repo_bytes() as f64 / live_image_bytes as f64;
    let disk_bytes = crate::vfs::bytes_on_medium(&*medium);
    let disk_note = format!(
        "after {} trace entries: {} live images, repo {} bytes, {} bytes on the medium \
         ({:.2} per live byte)",
        fixed_ops,
        replay.live.len(),
        repo.repo_bytes(),
        disk_bytes,
        disk_bytes as f64 / repo.repo_bytes() as f64
    );
    let layer_counts = vfs_counts.as_ref().map(|counts| {
        RunCounts {
            registry: &registry.snapshot(),
            vfs: Some((counts.as_ref(), &*medium)),
            live_bytes: repo.repo_bytes(),
        }
        .layer_metrics()
    });

    // The time box: keep replaying.
    tracer.enter_phase("more");
    while replay.ledger.timed_s() < cfg.seconds {
        match ops.next() {
            Some(op) => replay.exec(op),
            None => break,
        }
    }
    tracer.end_phase();
    let replayed = replay.op_index;
    let mut ledger = replay.ledger;

    // Closing oracle: deep audit, then drop the repository, reopen both
    // sections from the medium alone and compare them with the live CAS.
    if let Err(e) = repo.check_integrity_deep() {
        ledger.violation(format!("deep integrity: {e}"));
    }
    let live_fingerprints = repo.cas_fingerprints();
    drop(repo);
    drop(sections);
    for (name, (live_section, live_fp)) in SECTIONS.iter().zip(&live_fingerprints) {
        ledger.expect(live_section == name, || {
            format!("live CAS lists section {live_section}, expected {name}")
        });
        match DurableContentStore::open(Arc::clone(&medium), DurableConfig::named(name)) {
            Ok((reopened, _)) => {
                ledger.expect(reopened.state_fingerprint() == *live_fp, || {
                    format!("reopened {name} diverged from the live CAS")
                });
                if let Some((digest, _, _)) = reopened.snapshot_refs().first() {
                    match reopened.get(digest) {
                        Ok(bytes) => ledger.expect(Sha256::digest(&bytes) == *digest, || {
                            format!("reopened {name}: blob {digest} reads back wrong")
                        }),
                        Err(e) => ledger.violation(format!("reopened {name}: get {digest}: {e}")),
                    }
                }
            }
            Err(e) => ledger.violation(format!("reopen {name}: {e}")),
        }
    }

    let notes = vec![
        format!(
            "inputs: {} images of ~50 KB, {} trace entries replayed ({} fixed)",
            world.image_names().len(),
            replayed,
            fixed_ops
        ),
        disk_note,
    ];
    // Only the probes of a traced run look at the sample.
    let sample: Vec<Arc<Vmi>> = world
        .image_names()
        .iter()
        .take(if cfg.trace { 24 } else { 0 })
        .map(|n| Arc::new(world.build(n, 0)))
        .collect();
    let rebuild = |vmi: &Vmi| world.build(&vmi.name, 0);
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
                sample: super::sample_images(&sample, 3, cfg.seed),
                rebuild: &rebuild,
            },
            notes,
            op_digest,
        },
    )
}
