//! `repro` — regenerate every table and figure of the paper, and drive
//! the replay, serving and audit harnesses CI gates on.
//!
//! ```text
//! repro table2        Table II (19-image characteristics + times)
//! repro fig3a         Figure 3a (repo growth, 4 images)
//! repro fig3b         Figure 3b (repo growth, 19 images)
//! repro fig3c [N]     Figure 3c (repo growth, N=40 IDE builds)
//! repro fig4a         Figure 4a (publish time, 4 images)
//! repro fig4b         Figure 4b (publish time, 19 images + Semantic)
//! repro fig5a         Figure 5a (retrieval breakdown)
//! repro fig5b         Figure 5b (retrieval comparison)
//! repro ablations     chunk-size sweep + master-graph speedup + codec tiers
//! repro all [DIR]     all of the above (figure JSON into DIR, default results/)
//! repro ablate-codec  raw vs blocked-DEFLATE vs blocked-LZ4 over one seeded
//!                     payload: size ratio, codec and range-read throughput
//! repro churn         trace-driven lifecycle replay of all five stores under
//!                     the differential oracle; --durable adds xpl-persist
//!                     backends and K (default 3) crash-recovery pairs
//! repro serve         the multi-tenant wire serving benchmark: TCP on
//!                     loopback, or with --net-faults R the in-memory
//!                     transport with seeded faults at rate R/256
//! repro profile       span-tree profile of the dedup publish pipeline
//! repro audit         publish the world into all five stores, delete a
//!                     third, then deep-audit every store
//! repro diff A.json B.json --fields POINTERS
//!                     compare two reports at comma-separated RFC 6901
//!                     JSON Pointers (`~1` is a `/` inside a key)
//! ```
//!
//! Each command's usage line (`COMMANDS`; the figures, the ablations and
//! `all` take `--world small|standard` and `--threads N`) is checked
//! before any work starts: an unknown, repeated or value-less flag, a
//! bad value or a stray operand exits 2 with a one-line usage error,
//! never a silent default. `--world small` is the fast 4-image test
//! world; fig3a, fig3c, fig4a and the ablations use images only the
//! standard world defines, so they, and `all`, refuse it.
//!
//! The harnesses exit 1 on any oracle or invariant violation, `diff` if
//! a value differs or is absent, null or empty in either file. Reports,
//! and churn's `--metrics F` det section, are byte-identical at any
//! `--threads`; attaching the metrics registry never changes a report or
//! an exit code. `repro all` writes only seed-determined text to stdout;
//! its wall-clock tables go to stderr.

use serde::{Json, Serialize};
use std::sync::Arc;
use xpl_bench::experiments::*;
use xpl_bench::{ablations, churn, render};
use xpl_store::TierPolicy;
use xpl_workloads::World;
use Fig3Scenario::{FourImages, IdeBuilds, Nineteen};

/// A command: its name, its usage line and its body, which returns the
/// exit code. The usage line is also the spec the command line is
/// checked against: operands first (`[X]` is optional), then flags. A
/// flag followed by a placeholder takes a value: `N` is a count of at
/// least 1; `SEED`, `K` and `R` are any unsigned integer (decimal or 0x
/// hex); `a|b` is one of the words listed; anything else is text the
/// command checks.
#[derive(Clone, Copy)]
struct Command {
    name: &'static str,
    usage: &'static str,
    run: fn(&Args) -> i32,
}

const WORLD: &str = "[--world small|standard] [--threads N]";
const FIG3C: &str = "[N] [--world small|standard] [--threads N]";

/// Every command but the figures'.
#[rustfmt::skip]
const COMMANDS: [Command; 8] = [
    Command { name: "ablations", usage: WORLD, run: |args| with_world(args, false, run_ablations) },
    Command { name: "ablate-codec", usage: "[--payload-mib N] [--json F]", run: run_ablate_codec_cmd },
    Command { name: "churn", usage: CHURN, run: run_churn_cmd },
    Command { name: "serve", usage: SERVE, run: run_serve_cmd },
    Command { name: "profile", usage: "[--images N] [--seed SEED] [--json F]", run: run_profile_cmd },
    Command { name: "audit", usage: "[--world small|standard]", run: |args| with_world(args, true, run_audit) },
    Command { name: "diff", usage: "A.json B.json --fields POINTERS", run: run_diff_cmd },
    Command { name: "all", usage: "[DIR] [--world small|standard] [--threads N]", run: run_all_cmd },
];

/// One of the paper's tables or figures, and so a command. `small_world`:
/// the small test world defines every image it uses. `run` returns the
/// rendered text and the JSON result; the `u32` is fig3c's IDE builds.
struct Figure {
    name: &'static str,
    small_world: bool,
    run: fn(&World, u32) -> (String, Json),
}

#[rustfmt::skip]
const FIGURES: [Figure; 8] = [
    Figure { name: "table2", small_world: true, run: |w, _| shown(table2(w), render::render_table2) },
    Figure { name: "fig3a", small_world: false, run: |w, _| fig3(w, "FIGURE 3a", FourImages) },
    Figure { name: "fig3b", small_world: true, run: |w, _| fig3(w, "FIGURE 3b", Nineteen) },
    Figure { name: "fig3c", small_world: false, run: |w, n| fig3(w, "FIGURE 3c", IdeBuilds(n)) },
    Figure { name: "fig4a", small_world: false, run: |w, _| fig4(fig4a_publish(w), "FIGURE 4a") },
    Figure { name: "fig4b", small_world: true, run: |w, _| fig4(fig4b_publish(w), "FIGURE 4b") },
    Figure { name: "fig5a", small_world: true, run: |w, _| shown(fig5a_breakdown(w), render::render_fig5a) },
    Figure { name: "fig5b", small_world: true, run: |w, _| shown(fig5b_retrieval(w), render::render_fig5b) },
];

fn shown<T: Serialize>(r: T, render: impl Fn(&T) -> String) -> (String, Json) {
    (render(&r), r.to_json())
}

fn fig3(world: &World, title: &str, scenario: Fig3Scenario) -> (String, Json) {
    shown(fig3_sizes(world, scenario), |r| {
        render::render_fig3(title, r)
    })
}

fn fig4(r: PublishTimesResult, title: &str) -> (String, Json) {
    shown(r, |r| render::render_publish(title, r))
}

/// The command called `name`: a figure's, or one of `COMMANDS`.
fn command(name: &str) -> Option<Command> {
    let usage = if name == "fig3c" { FIG3C } else { WORLD };
    let figure = FIGURES.iter().find(|f| f.name == name).map(|f| Command {
        name: f.name,
        usage,
        run: run_figure_cmd,
    });
    figure.or_else(|| COMMANDS.iter().find(|c| c.name == name).copied())
}

impl Command {
    /// The usage line's operands (`[X]` when optional) and its flag
    /// words (flags and placeholders, brackets stripped).
    fn words(&self) -> (Vec<&'static str>, Vec<&'static str>) {
        let words: Vec<&str> = self.usage.split_whitespace().collect();
        let at = words
            .iter()
            .position(|w| w.trim_start_matches('[').starts_with("--"));
        let (operands, flags) = words.split_at(at.unwrap_or(words.len()));
        let flags = flags.iter().map(|w| w.trim_matches(['[', ']'])).collect();
        (operands.to_vec(), flags)
    }
}

/// Print `repro: MSG` and exit 2.
fn die(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The command line, parsed once: the command, its operands, and every
/// flag it was given with its checked value.
struct Args {
    cmd: Command,
    operands: Vec<String>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: Vec<String>) -> Args {
        let mut argv = argv.into_iter();
        let name = argv.next().unwrap_or_else(|| "all".into());
        let Some(cmd) = command(&name) else {
            let figures = FIGURES.iter().map(|f| f.name);
            let names: Vec<&str> = figures.chain(COMMANDS.iter().map(|c| c.name)).collect();
            die(format!(
                "unknown command {name:?}; usage: repro [{}] …",
                names.join("|")
            ))
        };
        let mut args = Args {
            cmd,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let (operands, flags) = cmd.words();
        while let Some(token) = argv.next() {
            if !token.starts_with("--") {
                args.operands.push(token);
                continue;
            }
            let Some(at) = flags.iter().position(|f| *f == token) else {
                args.fail(format!("{} does not take {token}", cmd.name))
            };
            if args.has(&token) {
                args.fail(format!("{token} is given twice"));
            }
            let value = match flags.get(at + 1).filter(|m| !m.starts_with("--")) {
                None => None,
                // A flag that is last, or followed by another `--…`
                // token, has no value: the next flag is never taken as one.
                Some(meta) => match argv.next().filter(|v| !v.starts_with("--")) {
                    None => args.fail(format!("{token} needs a value")),
                    Some(v) => {
                        if matches!(*meta, "N" | "SEED" | "K" | "R") {
                            args.int_value(&token, &v, *meta == "N");
                        } else if meta.contains('|') && !meta.split('|').any(|w| w == v) {
                            let msg = format!("invalid {token} value {v:?} (expected {meta})");
                            args.fail(msg);
                        }
                        Some(v)
                    }
                },
            };
            args.flags.push((token, value));
        }
        if let Some(extra) = args.operands.get(operands.len()) {
            args.fail(format!("unexpected operand {extra:?}"));
        }
        let missing = operands[args.operands.len()..].first();
        if let Some(missing) = missing.filter(|o| !o.starts_with('[')) {
            args.fail(format!("missing {missing}"));
        }
        args
    }

    /// Print a one-line usage error for this command and exit 2.
    fn fail(&self, msg: String) -> ! {
        die(format!(
            "{msg}; usage: repro {} {}",
            self.cmd.name, self.cmd.usage
        ))
    }

    /// An integer value, decimal or 0x-prefixed hex; `nonzero` for
    /// counts, where zero makes no sense.
    fn int_value(&self, flag: &str, text: &str, nonzero: bool) -> u64 {
        let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        match parsed {
            Ok(0) if nonzero => self.fail(format!("{flag} must be at least 1")),
            Ok(n) => n,
            Err(_) => self.fail(format!(
                "invalid {flag} value {text:?} (expected an unsigned integer)"
            )),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag)?.1.as_deref()
    }

    /// An integer flag (checked by `parse`).
    fn int(&self, flag: &str) -> Option<u64> {
        self.text(flag)
            .map(|text| self.int_value(flag, text, false))
    }

    /// `--metrics F`: a registry to attach to the run; `finish` writes
    /// its snapshot.
    fn registry(&self) -> Option<Arc<xpl_obs::Registry>> {
        if self.has("--metrics") && self.has("--no-metrics") {
            self.fail("--metrics and --no-metrics are mutually exclusive".into());
        }
        self.text("--metrics").map(|_| xpl_obs::Registry::new())
    }

    /// The shared tail of `churn` and `serve`: write the `--json` report
    /// and the `--metrics` snapshot (both even when the oracle failed,
    /// so a red CI job still uploads them), then exit 0 on a clean
    /// oracle, or 1 after printing the first 20 violations.
    fn finish(
        &self,
        report: &impl Serialize,
        violations: &[String],
        registry: Option<Arc<xpl_obs::Registry>>,
    ) -> i32 {
        if let Some(path) = self.text("--json") {
            write_file(path, &pretty(report));
        }
        if let (Some(path), Some(registry)) = (self.text("--metrics"), registry) {
            let snap = registry.snapshot();
            write_file(path, &snap.render_json());
            eprintln!("[repro] det fingerprint {}", snap.det_fingerprint());
        }
        if violations.is_empty() {
            println!("  oracle: PASS");
            return 0;
        }
        eprintln!("  oracle: {} VIOLATIONS", violations.len());
        for v in violations.iter().take(20) {
            eprintln!("    {v}");
        }
        1
    }
}

fn pretty(value: &impl Serialize) -> String {
    serde_json::to_string_pretty(value).expect("the JSON printer is total")
}

/// Write `text` to `path`; a path that cannot be written exits 2.
fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    eprintln!("[repro] wrote {path}");
}

fn main() {
    let args = Args::parse(std::env::args().skip(1).collect());
    std::process::exit((args.cmd.run)(&args));
}

const CHURN: &str = "[--seed SEED] [--ops N] [--scale small|standard] [--json F] \
    [--threads N] [--durable] [--crashes K] [--crash-seed SEED] \
    [--codec raw|deflate|lz4|mixed] [--metrics F] [--no-metrics]";

fn run_churn_cmd(args: &Args) -> i32 {
    let seed = args.int("--seed").unwrap_or(0xDEADBEEF);
    let ops = args.int("--ops").unwrap_or(500) as usize;
    let mut cfg = match args.text("--scale") {
        Some("standard") => churn::ChurnConfig::standard(seed, ops),
        _ => churn::ChurnConfig::small(seed, ops),
    };
    cfg.tier = args
        .text("--codec")
        .and_then(TierPolicy::parse)
        .unwrap_or(cfg.tier);
    if let Some(k) = args.int("--crashes").filter(|&k| k as usize > ops) {
        args.fail(format!(
            "--crashes {k} exceeds the trace's {ops} ops (each crash needs an op to land after)"
        ));
    }
    let durable = args.has("--durable");
    if durable {
        let d = churn::DurableCfg::default();
        cfg = cfg.with_durable(churn::DurableCfg {
            crashes: args.int("--crashes").map_or(d.crashes, |k| k as usize),
            crash_seed: args.int("--crash-seed").unwrap_or(d.crash_seed),
        });
    } else if args.has("--crashes") || args.has("--crash-seed") {
        args.fail("--crashes and --crash-seed need --durable".into());
    }
    let registry = args.registry();
    cfg.registry = registry.clone();
    cfg.threads = args.int("--threads").map_or(cfg.threads, |n| n as usize);
    eprintln!(
        "[repro] churn replay: seed={seed:#x} ops={ops} threads={} durable={durable}",
        cfg.threads
    );
    let report = churn::run_churn(&cfg);
    print!("{}", churn::render_churn(&report));
    args.finish(&report, &report.violations, registry)
}

/// `repro audit` — the deep integrity audit (`check_integrity_deep`:
/// refcount coherence + every stored blob re-hashed) across all five
/// stores, after a publish + delete workload. Exits 1 if any store
/// fails the audit.
fn run_audit(world: &World) -> i32 {
    use xpl_store::ImageStore;
    let names = world.image_names();
    let stores: Vec<Box<dyn ImageStore>> = churn::five_stores(|| world.env());
    let vmis: Vec<_> = names.iter().map(|n| world.build_image(n)).collect();
    for store in &stores {
        for vmi in &vmis {
            if let Err(e) = store.publish(&world.catalog, vmi) {
                die(format!(
                    "audit setup: {} publish {}: {e}",
                    store.name(),
                    vmi.name
                ));
            }
        }
        // Exercise the release paths too: every third image is deleted.
        for name in names.iter().step_by(3) {
            if let Err(e) = store.delete(name) {
                die(format!("audit setup: {} delete {name}: {e}", store.name()));
            }
        }
    }
    println!(
        "AUDIT: deep integrity across {} stores ({} images published, {} deleted)",
        stores.len(),
        names.len(),
        names.iter().step_by(3).count()
    );
    let mut failures = 0usize;
    for store in &stores {
        match store.check_integrity_deep() {
            Ok(()) => println!("  {:<14} PASS", store.name()),
            Err(e) => {
                failures += 1;
                println!("  {:<14} FAIL: {e}", store.name());
            }
        }
    }
    if failures > 0 {
        eprintln!("AUDIT: {failures} store(s) failed the deep audit");
        return 1;
    }
    println!("AUDIT: PASS");
    0
}

const SERVE: &str = "[--seed SEED] [--scale small|standard] [--tenants N] \
    [--requests N] [--queue-depth N] [--store qcow2|gzip|mirage|hemera|expelliarmus] \
    [--threads N] [--codec raw|deflate|lz4|mixed] [--net-faults R] [--net-seed SEED] \
    [--conns N] [--json F] [--metrics F] [--no-metrics]";

/// `repro serve` — the multi-tenant wire serving benchmark (see
/// `xpl_bench::serve_net` for the three legs).
fn run_serve_cmd(args: &Args) -> i32 {
    use xpl_bench::serve_net::{self, NetServeConfig, NetTransportKind, ServeRunConfig, StoreKind};
    let seed = args.int("--seed").unwrap_or(0xC0FFEE);
    let mut cfg = match args.text("--scale") {
        Some("standard") => ServeRunConfig::standard(seed),
        _ => ServeRunConfig::small(seed),
    };
    cfg.tenants = args.int("--tenants").map_or(cfg.tenants, |t| t as u32);
    cfg.requests = args.int("--requests").map_or(cfg.requests, |r| r as usize);
    cfg.queue_depth = args
        .int("--queue-depth")
        .map_or(cfg.queue_depth, |q| q as usize);
    cfg.store = args
        .text("--store")
        .and_then(StoreKind::parse)
        .unwrap_or(cfg.store);
    cfg.tier = args
        .text("--codec")
        .and_then(TierPolicy::parse)
        .unwrap_or(cfg.tier);
    let mut net = NetServeConfig::default();
    if let Some(rate) = args.int("--net-faults") {
        if rate > 256 {
            args.fail(format!(
                "--net-faults {rate} exceeds the 256/256 maximum rate"
            ));
        }
        net.fault_rate = rate as u32;
    }
    // Fault injection needs the deterministic in-memory transport;
    // clean runs exercise real TCP on a loopback socket.
    if net.fault_rate > 0 {
        net.transport = NetTransportKind::Mem;
    }
    net.net_seed = args.int("--net-seed").unwrap_or(net.net_seed);
    net.conns_per_tenant = args
        .int("--conns")
        .map_or(net.conns_per_tenant, |c| c as usize);
    let registry = args.registry();
    cfg.registry = registry.clone();

    eprintln!(
        "[repro] serve: seed={seed:#x} scale={} tenants={} requests={} store={:?} \
         transport={:?} faults={}/256",
        cfg.scale_name, cfg.tenants, cfg.requests, cfg.store, net.transport, net.fault_rate
    );
    let run = || serve_net::run_serve_net(&cfg, &net);
    let report = match args.int("--threads") {
        Some(n) => rayon::with_num_threads(n as usize, run),
        None => run(),
    };
    print!("{}", serve_net::render_net(&report));
    args.finish(&report, &report.violations, registry)
}

/// `repro profile` — the span-tree profile of the publish pipeline
/// (see `xpl_bench::profile`). Exits 1 if the span accounting
/// invariant (`sum(phases) <= publish <= wall`) fails.
fn run_profile_cmd(args: &Args) -> i32 {
    use xpl_bench::profile::{render_profile, run_profile, ProfileConfig};
    let mut cfg = ProfileConfig::default();
    cfg.images = args.int("--images").map_or(cfg.images, |n| n as usize);
    cfg.seed = args.int("--seed").unwrap_or(cfg.seed);
    eprintln!(
        "[repro] profiling the publish pipeline: images={} seed={:#x}",
        cfg.images, cfg.seed
    );
    let report = run_profile(&cfg);
    print!("{}", render_profile(&report));
    if let Some(path) = args.text("--json") {
        write_file(path, &pretty(&report));
    }
    if !report.spans_nest {
        eprintln!("PROFILE: span accounting violated (sum(phases) <= publish <= wall failed)");
        return 1;
    }
    0
}

/// `repro ablate-codec` — the storage-codec trade-off table. Needs no
/// world: the sweep runs over one seeded synthetic payload.
fn run_ablate_codec_cmd(args: &Args) -> i32 {
    let mib = args.int("--payload-mib").unwrap_or(8) as usize;
    eprintln!("[repro] codec ablation over a {mib} MiB seeded payload…");
    let rows = ablations::codec_ablation_sweep(mib * 1024 * 1024, 0.2);
    println!("{}", codec_ablation_table(&rows));
    if let Some(path) = args.text("--json") {
        write_file(path, &pretty(&rows));
    }
    0
}

fn codec_ablation_table(rows: &[ablations::CodecAblationRow]) -> String {
    let mut table = format!(
        "CODEC ABLATION: storage tiers over one seeded payload\n\
         {:<16} {:>12} {:>8} {:>16} {:>18} {:>14}",
        "codec", "bytes", "ratio", "compress MiB/s", "decompress MiB/s", "range MiB/s"
    );
    for r in rows {
        table += &format!(
            "\n{:<16} {:>12} {:>8.3} {:>16.1} {:>18.1} {:>14.1}",
            r.codec,
            r.encoded_bytes,
            r.ratio,
            r.compress_mib_per_s,
            r.decompress_mib_per_s,
            r.range_read_mib_per_s
        );
    }
    table
}

/// Build the `--world` (default standard) and run `body` on it under
/// the `--threads` pool (multi-store sweeps fan stores out across it;
/// results are byte-identical at any size). `small_ok` is false for
/// commands that use images only the standard world defines.
fn with_world(args: &Args, small_ok: bool, body: impl FnOnce(&World) -> i32) -> i32 {
    let standard = args.text("--world") != Some("small");
    if !standard && !small_ok {
        let msg = " uses images only the standard world defines";
        args.fail([args.cmd.name, msg].concat());
    }
    let t0 = std::time::Instant::now();
    let world = if standard {
        eprintln!("[repro] building standard world (catalog + base template)…");
        World::standard()
    } else {
        eprintln!("[repro] building small world (test scale)…");
        World::small()
    };
    eprintln!("[repro] world ready in {:.1}s", t0.elapsed().as_secs_f64());
    let code = match args.int("--threads") {
        Some(n) => rayon::with_num_threads(n as usize, || body(&world)),
        None => body(&world),
    };
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
    code
}

/// One table or figure, printed to stdout.
fn run_figure_cmd(args: &Args) -> i32 {
    let Some(figure) = FIGURES.iter().find(|f| f.name == args.cmd.name) else {
        unreachable!("figure commands come from FIGURES")
    };
    let builds = match args.operands.first() {
        Some(n) => args.int_value("N", n, true) as u32,
        None => 40,
    };
    with_world(args, figure.small_world, |world| {
        println!("{}", (figure.run)(world, builds).0);
        0
    })
}

/// Every figure (JSON into DIR), then the ablations.
fn run_all_cmd(args: &Args) -> i32 {
    let dir = args.operands.first().map_or("results", String::as_str);
    with_world(args, false, |world| {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("cannot create {dir}: {e}")));
        for figure in &FIGURES {
            let (text, json) = (figure.run)(world, 40);
            println!("{text}");
            write_file(&format!("{dir}/{}.json", figure.name), &pretty(&json));
        }
        run_ablations(world)
    })
}

fn run_ablations(world: &World) -> i32 {
    println!("ABLATION: chunk-size sweep (4-image workload)");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12}",
        "block (KB)", "fixed dedup×", "cdc dedup×", "fixed GB", "cdc GB"
    );
    let rows = ablations::chunk_size_sweep(
        world,
        &["Mini", "Base", "Desktop", "IDE"],
        &[64, 128, 256, 512, 1024],
    );
    for r in &rows {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>12.2} {:>12.2}",
            r.block_nominal_kb,
            r.fixed_dedup_factor,
            r.cdc_dedup_factor,
            r.fixed_repo_gb,
            r.cdc_repo_gb
        );
    }
    println!();
    // The two wall-clock tables go to stderr, so stdout stays a pure
    // function of the seed. The codec-tier trade-off, small shape
    // (`repro ablate-codec` runs the full-size sweep standalone):
    let codec = ablations::codec_ablation_sweep(1024 * 1024, 0.05);
    eprintln!("{}", codec_ablation_table(&codec));
    eprintln!();
    eprintln!("ABLATION: master graph vs pairwise similarity (real CPU time)");
    eprintln!(
        "{:<14} {:>14} {:>14} {:>10}",
        "stored", "pairwise ms", "master ms", "speedup"
    );
    for n in [5usize, 10, 19] {
        let s = ablations::master_graph_speedup(world, n);
        eprintln!(
            "{:<14} {:>14.2} {:>14.2} {:>10.1}",
            s.stored_images, s.pairwise_ms, s.master_ms, s.speedup
        );
    }
    eprintln!();
    0
}

/// `repro diff A B --fields P,…` — the one comparison CI and the smoke
/// tests make between two reports. Each pointer must name a present,
/// non-null, non-empty value, equal in both files as parsed JSON.
fn run_diff_cmd(args: &Args) -> i32 {
    let Some(fields) = args.text("--fields") else {
        args.fail("diff needs --fields".into())
    };
    let pointers: Vec<&str> = fields.split(',').collect();
    if let Some(bad) = pointers
        .iter()
        .find(|p| !p.is_empty() && !p.starts_with('/'))
    {
        args.fail(format!("{bad:?} is not a JSON Pointer (/key/0/key)"));
    }
    let docs: Vec<Json> = (args.operands.iter())
        .map(|path| match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text)
                .unwrap_or_else(|e| die(format!("{path} is not JSON: {e}"))),
            Err(e) => die(format!("cannot read {path}: {e}")),
        })
        .collect();
    let mut failed = 0;
    for ptr in &pointers {
        let [a, b] = [&docs[0], &docs[1]].map(|doc| pointer(doc, ptr));
        let verdict = match vacancy(a).or(vacancy(b)) {
            Some(vacant) => vacant,
            None if a == b => "equal",
            None => "different",
        };
        println!("  {ptr}: {verdict}");
        if verdict != "equal" {
            failed += 1;
            for (path, value) in args.operands.iter().zip([a, b]) {
                let json = value.and_then(|v| serde_json::to_string(v).ok());
                println!("    {path}: {}", json.as_deref().unwrap_or("(absent)"));
            }
        }
    }
    println!("diff: {failed} of {} fields differ", pointers.len());
    i32::from(failed > 0)
}

/// The value at an RFC 6901 JSON Pointer: `/`-separated reference
/// tokens, with `~1` for `/` and `~0` for `~` inside a token.
fn pointer<'a>(doc: &'a Json, ptr: &str) -> Option<&'a Json> {
    ptr.split('/').skip(1).try_fold(doc, |node, token| {
        let token = token.replace("~1", "/").replace("~0", "~");
        match node {
            Json::Obj(_) => node.get(&token),
            // An index is a decimal without leading zeros.
            Json::Arr(items) if token == "0" || !token.starts_with('0') => {
                let digits = token.bytes().all(|b| b.is_ascii_digit());
                items.get(token.parse::<usize>().ok().filter(|_| digits)?)
            }
            _ => None,
        }
    })
}

/// Why a value cannot stand in a comparison, if it cannot.
fn vacancy(value: Option<&Json>) -> Option<&'static str> {
    match value {
        None => Some("absent"),
        Some(Json::Null) => Some("null"),
        Some(Json::Str(s)) if s.is_empty() => Some("empty"),
        Some(Json::Arr(a)) if a.is_empty() => Some("empty"),
        Some(Json::Obj(o)) if o.is_empty() => Some("empty"),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointers_follow_rfc_6901() {
        let doc: Json =
            serde_json::from_str(r#"{"a/b": {"~x": [10, 11]}, "": 1, "cas.put.new": 2}"#).unwrap();
        let at = |ptr| pointer(&doc, ptr).and_then(Json::as_f64);
        assert_eq!(at("/a~1b/~0x/1"), Some(11.0));
        assert_eq!(at("/"), Some(1.0));
        assert_eq!(at("/cas.put.new"), Some(2.0));
        assert_eq!(pointer(&doc, ""), Some(&doc));
        for absent in [
            "/a~1b/~0x/2",
            "/a~1b/~0x/01",
            "/a~1b/~0x/+1",
            "/a/b",
            "/cas",
        ] {
            assert_eq!(pointer(&doc, absent), None, "{absent}");
        }
    }

    #[test]
    fn every_usage_line_names_each_flag_once() {
        let figures = FIGURES.iter().filter_map(|f| command(f.name));
        for cmd in figures.chain(COMMANDS) {
            let (_, words) = cmd.words();
            let mut flags: Vec<_> = words.iter().filter(|w| w.starts_with("--")).collect();
            let named = flags.len();
            flags.sort();
            flags.dedup();
            assert_eq!(flags.len(), named, "{}: {}", cmd.name, cmd.usage);
        }
    }
}
