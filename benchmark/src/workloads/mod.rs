//! The four workloads and what they share: the run configuration, the
//! per-op-kind ledger every end-to-end metric is computed from, the
//! set-up repeater, and the output oracle's bookkeeping.
//!
//! Every workload has the same shape. Set-up (world generation, image
//! builds, pre-publishes, an untimed warm-up) runs [`SETUP_REPEATS`]
//! times and its median is `setup_s`. The measured run is a fixed,
//! seeded op list followed by a time-boxed extension of the same read
//! mix until `--seconds` of *timed* work have accumulated; numbers that
//! must not depend on machine speed (`repo_bytes_per_image_byte`, the
//! simulated-cost ledger, registry counts) are snapshotted where the
//! fixed list ends. Input generation and every oracle check sit outside
//! the timed regions.

pub mod baseline_blobs;
pub mod churn_durable;
pub mod paper_lifecycle;
pub mod wire_serve;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpl_guestfs::Vmi;
use xpl_util::SplitMix64;

use crate::measure::{self, Samples};
use crate::spec::Metrics;
use crate::trace::{TraceSummary, Tracer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Seed of the `ScaledWorld` catalog. The world is the benchmark's fixed
/// input, like the Table II catalog; `--seed` generates the trace or the
/// schedule over it. Image sizes differ between generated worlds by more
/// than the bounds allow the medians to move.
pub const SCALED_WORLD_SEED: u64 = 0x5CA1_ED00;

/// Bytes of one ranged read in the paper-scale workloads.
pub const RANGE_BYTES: u64 = 64 * 1024;

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Timed work to accumulate before the run stops extending.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke scale: small worlds, a handful of ops, same code paths.
    pub quick: bool,
}

/// What one run hands back to `main`.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations (first few are printed; any makes the run incorrect).
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines: sample counts, effective tail percentile, sizes.
    pub notes: Vec<String>,
    /// SHA-256 of the generated op list (same seed ⇒ same digest).
    pub op_digest: String,
    pub trace: Option<TraceSummary>,
}

/// Op kinds the end-to-end metrics distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Publish,
    Retrieve,
    Range,
    Delete,
    /// Maintenance sweeps: timed and counted, no metric of their own.
    Maintain,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Publish => "publish",
            Kind::Retrieve => "retrieve",
            Kind::Range => "range",
            Kind::Delete => "delete",
            Kind::Maintain => "maintain",
        }
    }
}

/// Per-kind latencies, bytes and counts of the measured run, plus the
/// oracle's verdicts. One per run (the wire workload merges one per
/// client thread).
#[derive(Default)]
pub struct Ledger {
    pub publish: Samples,
    pub retrieve: Samples,
    pub range: Samples,
    pub delete: Samples,
    pub maintain: Samples,
    /// Image-disk bytes moved by publishes / full retrieves.
    pub publish_bytes: u64,
    pub retrieve_bytes: u64,
    /// Store ops attempted (a five-store op counts five).
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Simulated seconds the program charged (Σ report durations).
    pub sim_publish_s: f64,
    pub sim_retrieve_s: f64,
    /// The simulated and wall seconds of publishes and full retrieves
    /// where the fixed op list ended: `[sim publish, wall publish, sim
    /// retrieve, wall retrieve]`.
    fixed_point: Option<[f64; 4]>,
    /// Σ of every timed region so far.
    timed: Duration,
}

impl Ledger {
    fn samples_mut(&mut self, kind: Kind) -> &mut Samples {
        match kind {
            Kind::Publish => &mut self.publish,
            Kind::Retrieve => &mut self.retrieve,
            Kind::Range => &mut self.range,
            Kind::Delete => &mut self.delete,
            Kind::Maintain => &mut self.maintain,
        }
    }

    /// Record one timed op of `kind` that stood for `store_ops` store calls.
    pub fn record(&mut self, kind: Kind, elapsed: Duration, store_ops: u64, image_bytes: u64) {
        self.samples_mut(kind).push(elapsed);
        self.timed += elapsed;
        self.attempted += store_ops;
        match kind {
            Kind::Publish => self.publish_bytes += image_bytes,
            Kind::Retrieve => self.retrieve_bytes += image_bytes,
            _ => {}
        }
    }

    /// A failed or wrong-output op.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    /// Check `ok`, counting a violation described by `what` otherwise.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }

    /// The range oracle: the bytes a `retrieve_range` returned must equal
    /// the slice of a full retrieval's disk.
    pub fn expect_range<E: std::fmt::Display>(
        &mut self,
        what: impl Fn() -> String,
        got: Result<Vec<u8>, E>,
        want: Result<Vec<u8>, String>,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => self.expect(got == want, || {
                format!("{}: differs from the full-retrieval slice", what())
            }),
            (Err(e), _) => self.violation(format!("{}: {e}", what())),
            (_, Err(e)) => self.violation(format!("{}: oracle: {e}", what())),
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.publish.extend(&other.publish);
        self.retrieve.extend(&other.retrieve);
        self.range.extend(&other.range);
        self.delete.extend(&other.delete);
        self.maintain.extend(&other.maintain);
        self.publish_bytes += other.publish_bytes;
        self.retrieve_bytes += other.retrieve_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.sim_publish_s += other.sim_publish_s;
        self.sim_retrieve_s += other.sim_retrieve_s;
        self.timed += other.timed;
    }

    /// The fixed op list ends here: freeze what must not depend on how
    /// many extension ops the time box admits.
    pub fn mark_fixed_point(&mut self) {
        self.fixed_point = Some([
            self.sim_publish_s,
            self.publish.sum_ms() / 1e3,
            self.sim_retrieve_s,
            self.retrieve.sum_ms() / 1e3,
        ]);
    }

    /// Whether another whole walk of `reads_per_walk` reads should start:
    /// yes while the time left in the box is more than half of what such
    /// a walk takes at the pace of the reads so far. Whole walks keep the
    /// mix of images behind every median the same whatever the machine's
    /// speed; this rule stops at the walk boundary nearest to the box.
    pub fn another_walk_fits(&self, seconds: f64, reads_per_walk: usize) -> bool {
        let reads = self.retrieve.len() + self.range.len();
        if reads == 0 {
            return self.timed_s() < seconds;
        }
        let walk_s = (self.retrieve.sum_ms() + self.range.sum_ms()) / 1e3 / reads as f64
            * reads_per_walk as f64;
        seconds - self.timed_s() > walk_s / 2.0
    }

    /// Take over `from`'s fixed point (a set-up that was itself the fixed list).
    pub fn copy_fixed_point(&mut self, from: &Ledger) {
        self.fixed_point = from.fixed_point;
    }

    /// Σ of every timed region, in seconds: the single client's busy time.
    pub fn timed_s(&self) -> f64 {
        self.timed.as_secs_f64()
    }

    /// The end-to-end metrics. `wall_s` is the measured wall the ops ran
    /// in: [`Ledger::timed_s`] for a single client, the phase's wall
    /// clock when several clients ran side by side.
    pub fn end_to_end(
        &self,
        setup_s: f64,
        wall_s: f64,
        repo_bytes_per_image_byte: f64,
        notes: &mut Vec<String>,
    ) -> Metrics {
        let mut m = Metrics::default();
        let (tail, tail_pct) = self.retrieve.tail_ms(90.0);
        m.set("setup_s", setup_s);
        m.set("ops_per_s", self.attempted as f64 / wall_s);
        m.set("publish_p50_ms", self.publish.percentile_ms(50.0));
        m.set("retrieve_p50_ms", self.retrieve.percentile_ms(50.0));
        m.set("retrieve_p90_ms", tail);
        m.set("range_p50_ms", self.range.percentile_ms(50.0));
        m.set("delete_p50_ms", self.delete.percentile_ms(50.0));
        m.set(
            "publish_mib_per_s",
            measure::mib_per_s(self.publish_bytes, self.publish.sum_ms()),
        );
        m.set(
            "retrieve_mib_per_s",
            measure::mib_per_s(self.retrieve_bytes, self.retrieve.sum_ms()),
        );
        m.set("repo_bytes_per_image_byte", repo_bytes_per_image_byte);
        m.set("peak_rss_mib", measure::peak_rss_mib());
        notes.push(format!(
            "samples: publish {} retrieve {} range {} delete {} maintain {}; \
             measured wall {:.3} s; retrieve tail is p{:.1}",
            self.publish.len(),
            self.retrieve.len(),
            self.range.len(),
            self.delete.len(),
            self.maintain.len(),
            wall_s,
            tail_pct
        ));
        m
    }

    /// The per-layer metrics the traced run reads off its own ledger and
    /// spans: op-kind span means, the tracing overhead, and the
    /// model-vs-machine ledger.
    pub fn run_layer_metrics(&self, trace: &TraceSummary, wall_s: f64) -> Metrics {
        let mut m = Metrics::default();
        m.set("run.publish_ms", trace.mean_ms("publish"));
        m.set("run.retrieve_ms", trace.mean_ms("retrieve"));
        m.set("run.range_ms", trace.mean_ms("range"));
        m.set("run.delete_us", trace.mean_ms("delete") * 1e3);
        m.set(
            "obs.trace_overhead_frac",
            trace.span_count() as f64 * Tracer::span_cost_ns() / 1e9 / wall_s,
        );
        let [sim_publish, wall_publish, sim_retrieve, wall_retrieve] = self
            .fixed_point
            .expect("every workload marks where its fixed op list ends");
        let per_wall = |sim_s: f64, wall_s: f64| if wall_s > 0.0 { sim_s / wall_s } else { 0.0 };
        m.set("simio.publish_sim_s", sim_publish);
        m.set("simio.retrieve_sim_s", sim_retrieve);
        m.set(
            "simio.publish_sim_per_wall",
            per_wall(sim_publish, wall_publish),
        );
        m.set(
            "simio.retrieve_sim_per_wall",
            per_wall(sim_retrieve, wall_retrieve),
        );
        m
    }
}

/// Time one call into the program.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// One store call of a single-client workload: under the op's span,
/// timed, and recorded in the ledger.
pub fn measured<T>(
    tracer: &Tracer,
    ledger: &mut Ledger,
    kind: Kind,
    request: u64,
    image_bytes: u64,
    call: impl FnOnce() -> T,
) -> T {
    let span = tracer.op(kind.name(), request);
    let (out, elapsed) = timed(call);
    drop(span);
    ledger.record(kind, elapsed, 1, image_bytes);
    out
}

/// Bytes `[start, start + len)` of a retrieved image's disk, clamped to
/// its size like a slice: what a ranged read of it must return.
pub fn disk_slice(vmi: &Vmi, start: u64, len: u64) -> Result<Vec<u8>, String> {
    let end = start.saturating_add(len).min(vmi.disk.virtual_size());
    let start = start.min(end);
    vmi.disk
        .read_at(start, (end - start) as usize)
        .map_err(|e| e.to_string())
}

/// SHA-256 of an op list's canonical rendering, one op per line.
pub fn op_list_digest(lines: impl Iterator<Item = String>) -> String {
    let mut text = String::new();
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    xpl_util::Sha256::digest(text.as_bytes()).to_hex()
}

/// Run `setup` [`SETUP_REPEATS`] times (once when tracing: `setup_s` is
/// an end-to-end metric) and keep the last product; returns the median
/// set-up time in seconds.
pub fn repeat_setup<T>(cfg: &RunConfig, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if cfg.trace || cfg.quick {
        1
    } else {
        SETUP_REPEATS
    };
    let mut times = Vec::with_capacity(repeats);
    let mut product = None;
    for _ in 0..repeats {
        // Free the previous product first, so peak memory is one set-up's.
        drop(product.take());
        let (p, d) = timed(&mut setup);
        times.push(d.as_secs_f64());
        product = Some(p);
    }
    (
        product.expect("at least one set-up"),
        measure::median(&times),
    )
}

/// Fisher–Yates shuffle driven by the workload's generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A seeded sample of up to `n` of the workload's own images, for the
/// layer probes.
pub fn sample_images(images: &[Arc<Vmi>], n: usize, seed: u64) -> Vec<Arc<Vmi>> {
    let mut rng = SplitMix64::new(seed).derive("probe-sample");
    let mut picks: Vec<Arc<Vmi>> = images.to_vec();
    shuffle(&mut picks, &mut rng);
    picks.truncate(n);
    picks
}

/// What the probes need of a workload: its world (for the catalog), a
/// sample of its images, and how to build one of them again.
pub struct ProbeInputs<'a> {
    pub world: Arc<dyn crate::wire::HasCatalog>,
    pub sample: Vec<Arc<Vmi>>,
    pub rebuild: &'a dyn Fn(&Vmi) -> Vmi,
}

/// `benchmark/out/`: trace files and scratch media live here, inside the
/// checkout and named in `.gitignore`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under `benchmark/out/`, unique to this process and
/// removed on drop, so a failed run leaves nothing behind.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> ScratchDir {
        let dir = out_dir().join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", dir.display()));
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the named workload (`None` for a name that is not one).
pub fn run(name: &str, cfg: &RunConfig) -> Option<RunOutput> {
    // Pin the program's worker pool to the host's parallelism, so a
    // RAYON_NUM_THREADS in the environment cannot change what is measured.
    rayon::with_num_threads(client_threads(), || match name {
        "paper_lifecycle" => Some(paper_lifecycle::run(cfg)),
        "baseline_blobs" => Some(baseline_blobs::run(cfg)),
        "churn_durable" => Some(churn_durable::run(cfg)),
        "wire_serve" => Some(wire_serve::run(cfg)),
        _ => None,
    })
}

/// Client threads the harness may use: the host's parallelism, never more.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the traced run's attachments counted: the `xpl_obs::Registry`
/// every store mirrored its accounting into, and (durable runs only) the
/// medium behind the counting `Vfs`.
pub struct RunCounts<'a> {
    pub registry: &'a xpl_obs::Snapshot,
    pub vfs: Option<(&'a crate::vfs::VfsCounts, &'a dyn xpl_persist::Vfs)>,
    /// `repo_bytes()` when the counts were taken.
    pub live_bytes: u64,
}

impl RunCounts<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.registry
            .counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |&(_, _, v)| v as f64)
    }

    /// The count and ratio metrics; a layer the workload never touched
    /// reads 0.
    pub fn layer_metrics(&self) -> Metrics {
        use std::sync::atomic::Ordering::Relaxed;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut m = Metrics::default();
        let (new, dedup) = (self.counter("cas.put.new"), self.counter("cas.put.dedup"));
        let user_bytes = self.counter("cas.put.logical_bytes");
        m.set("store.put_new", new);
        m.set("store.put_dedup", dedup);
        m.set("store.dedup_hit_ratio", ratio(dedup, new + dedup));
        m.set(
            "store.encoded_bytes_per_logical_byte",
            ratio(self.counter("cas.put.encoded_bytes"), user_bytes),
        );
        m.set("store.promoted", self.counter("cas.maintain.promoted"));
        m.set("persist.wal_appends", self.counter("persist.wal.appends"));
        m.set("persist.checkpoints", self.counter("persist.checkpoints"));
        // Only the wire workload has a server and clients; it overwrites these.
        m.set("registry.overloads", 0.0);
        m.set("net.retries", 0.0);
        m.set("net.reconnects", 0.0);
        let (mut segment_bytes, mut disk_bytes, mut written, mut syncs, mut appended) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        if let Some((counts, medium)) = self.vfs {
            for name in medium.list() {
                let len = medium.file_len(&name).unwrap_or(0);
                disk_bytes += len;
                if name.contains(".seg-") {
                    segment_bytes += len;
                }
            }
            written = counts.bytes_written();
            syncs = counts.syncs.load(Relaxed);
            appended = counts.append_bytes.load(Relaxed);
        }
        m.set("persist.segment_bytes", segment_bytes as f64);
        m.set(
            "persist.bytes_written_per_user_byte",
            ratio(written as f64, user_bytes),
        );
        m.set("persist.vfs_syncs", syncs as f64);
        m.set("persist.vfs_append_bytes", appended as f64);
        m.set(
            "persist.disk_bytes_per_live_byte",
            ratio(disk_bytes as f64, self.live_bytes as f64),
        );
        m
    }
}

/// Everything a workload has in hand when its measured run is over.
pub struct Finished<'a> {
    pub ledger: Ledger,
    pub setup_s: f64,
    /// Measured wall of the ops (see [`Ledger::end_to_end`]).
    pub wall_s: f64,
    pub repo_bytes_per_image_byte: f64,
    /// Count metrics taken where the fixed list ended (traced runs).
    pub layer_counts: Option<Metrics>,
    pub probe_inputs: ProbeInputs<'a>,
    pub notes: Vec<String>,
    pub op_digest: String,
}

/// Turn a finished run into its output: the end-to-end metrics of an
/// untraced run, or — traced — the span means, the attached counts and
/// the layer probes over the workload's own inputs.
pub fn finish(cfg: &RunConfig, tracer: &Tracer, mut done: Finished<'_>) -> RunOutput {
    let (metrics, trace) = if cfg.trace {
        let trace = tracer.finish();
        let mut m = done.ledger.run_layer_metrics(&trace, done.wall_s);
        m.extend(
            done.layer_counts
                .take()
                .expect("a traced run snapshots its counts"),
        );
        m.extend(crate::probes::run(&done.probe_inputs, cfg));
        (m, Some(trace))
    } else {
        let m = done.ledger.end_to_end(
            done.setup_s,
            done.wall_s,
            done.repo_bytes_per_image_byte,
            &mut done.notes,
        );
        (m, None)
    };
    RunOutput {
        attempted: done.ledger.attempted,
        failed: done.ledger.failed,
        violations: done.ledger.violations,
        metrics,
        notes: done.notes,
        op_digest: done.op_digest,
        trace,
    }
}
