//! `repro` — regenerate every table and figure of the paper.
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
//! repro ablate-codec [--payload-mib N] [--json F]
//!                     the hot/cold codec trade-off table: size ratio,
//!                     compress/decompress throughput, and range-read
//!                     throughput of raw vs blocked-DEFLATE vs
//!                     blocked-LZ4 over one seeded payload (default
//!                     8 MiB). Every row is round-trip-verified.
//! repro churn [--seed N] [--ops N] [--scale small|standard] [--json F]
//!             [--threads N] [--durable] [--crashes K] [--crash-seed N]
//!             [--codec raw|deflate|lz4|mixed]
//!                     trace-driven lifecycle replay + differential oracle
//!                     (exits 1 on any oracle violation). Store replicas
//!                     and per-image retrieval groups replay on a pool
//!                     of --threads workers (default 1); the report is
//!                     byte-identical for every thread count.
//!                     With --durable, Expelliarmus and Mirage write
//!                     through to log-structured on-disk backends
//!                     (xpl-persist) and the trace gains K (default 3)
//!                     crash-recovery pairs; the oracle additionally
//!                     checks every recovery converges to the uncrashed
//!                     in-memory state. --codec picks the tier policy
//!                     the compressing stores run under (default mixed:
//!                     DEFLATE base, read-hot blobs recompressed onto
//!                     LZ4 by the trace's maintenance sweeps); the
//!                     oracle report is codec-invariant.
//! repro serve [--seed N] [--scale small|standard] [--tenants N]
//!             [--requests N] [--servers N] [--queue-depth N]
//!             [--store S] [--no-coalesce] [--threads N] [--json F]
//!             [--codec raw|deflate|lz4|mixed]
//!                     multi-tenant registry serving benchmark: a seeded
//!                     Zipf-skewed schedule through the admission/
//!                     coalescing/fair-share front end over a real store
//!                     (default expelliarmus). Latency percentiles and
//!                     the request-log fingerprint are virtual-time
//!                     numbers — byte-identical at any --threads; only
//!                     the replay ops/s is wall clock. Exits 1 on any
//!                     differential-oracle violation.
//!             [--net] [--net-faults R] [--net-seed N] [--conns N]
//!                     With --net the schedule is served over the
//!                     xpl-net wire layer instead: a threaded server
//!                     fronts the store behind the frame codec and the
//!                     per-tenant admission gate, and a pool of
//!                     retrying clients (N connections per tenant)
//!                     drives it. Clean runs use real TCP on loopback;
//!                     --net-faults R (implies --net) switches to the
//!                     deterministic in-memory transport with seeded
//!                     resets, torn writes, short reads, and delays at
//!                     rate R/256. The key->digest table assembled from
//!                     wire responses must be byte-identical to the
//!                     in-process table at any fault rate; exits 1
//!                     otherwise.
//! repro profile [--images N] [--seed N] [--json F]
//!                     span-tree profile of the dedup publish pipeline:
//!                     each image's publish is traced through its
//!                     chunk / dedup / compress / append phases and the
//!                     aggregated tree is printed with per-phase totals.
//!                     Exits 1 if the span accounting does not nest
//!                     (sum of phases <= publish <= run wall).
//! repro audit [--world small]
//!                     publish the world into all five stores, delete a
//!                     third of the images, then run every store's deep
//!                     integrity audit (refcounts + full content re-hash);
//!                     exits 1 if any store fails.
//! repro all [dir] [--threads N]
//!                     everything; JSON results into dir (default results/).
//!                     Multi-store sweeps run one store per pool worker
//!                     (JSON byte-identical to a sequential run);
//!                     --threads pins the pool size.
//! ```
//!
//! `--world small` swaps the paper-scale world for the fast 4-image
//! test world (used by the CLI smoke tests). It applies to the
//! catalog-driven commands — table2, fig3b, fig4b, fig5a, fig5b;
//! fig3a/fig3c/fig4a reference images only the standard world defines.
//!
//! `churn` and `serve` additionally take `--metrics FILE`:
//! an xpl-obs registry is attached to every store/server in the run
//! and its snapshot (deterministic + wall sections, with fingerprints)
//! is written to FILE as canonical JSON. Attaching the registry never
//! changes the run's report or exit code — the det section is a pure
//! function of the executed ops, byte-identical at any `--threads`.
//! `--no-metrics` spells the default explicitly.

use std::io::Write as _;
use xpl_bench::experiments::*;
use xpl_bench::{ablations, churn, render};
use xpl_workloads::World;

/// `--flag VALUE`. A flag that is last, or followed by another `--…`
/// token, is a usage error: treating it as absent (or swallowing the
/// next flag as its value) would silently drop the output it names.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Some(value.clone()),
        _ => fail(format!("{flag} needs a value")),
    }
}

/// Print a one-line usage error and exit 2.
fn fail(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Strict `--flag N` parsing: a present-but-unparseable value is an
/// error, never a silent fall-back onto a default the user didn't ask
/// for. Accepts decimal or 0x-prefixed hex.
fn parse_u64_flag(args: &[String], flag: &str) -> Option<u64> {
    flag_value(args, flag).map(|s| {
        let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| {
            fail(format!(
                "invalid {flag} value {s:?} (expected an unsigned integer)"
            ))
        })
    })
}

/// Strict `--flag N` where zero makes no sense (thread counts, op
/// counts, queue depths…).
fn parse_nonzero_flag(args: &[String], flag: &str) -> Option<u64> {
    parse_u64_flag(args, flag).inspect(|&n| {
        if n == 0 {
            fail(format!("{flag} must be at least 1"));
        }
    })
}

/// Arguments with `--flag value` pairs stripped, so positional parsing
/// (`fig3c N`, `all DIR`) composes with flags like `--world small`.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// `--threads N`, strictly: an unparseable or zero value is an error,
/// not a silent fall-back onto a different driver or pool size.
fn parse_threads(args: &[String]) -> Option<usize> {
    parse_nonzero_flag(args, "--threads").map(|n| n as usize)
}

/// `--scale small|standard`, strictly: a typo'd scale must not fall
/// back to a world the user didn't ask for (e.g. an empty or unknown
/// value silently benchmarking the 32-image world as "standard").
fn parse_scale(args: &[String]) -> &'static str {
    match flag_value(args, "--scale").as_deref() {
        None | Some("small") => "small",
        Some("standard") => "standard",
        Some(other) => fail(format!(
            "invalid --scale value {other:?} (expected small or standard)"
        )),
    }
}

/// `--codec raw|deflate|lz4|mixed`, strictly: an unknown codec must
/// not fall back onto a tier policy the user didn't ask for.
fn parse_codec_tier(args: &[String]) -> Option<xpl_store::TierPolicy> {
    flag_value(args, "--codec").map(|s| {
        xpl_store::TierPolicy::parse(&s).unwrap_or_else(|| {
            fail(format!(
                "unknown --codec {s:?} (expected raw, deflate, lz4, or mixed)"
            ))
        })
    })
}

/// `--metrics FILE`: an xpl-obs registry attached to the run and
/// snapshotted to FILE afterwards (canonical JSON, det + wall
/// sections). `--no-metrics` spells the default explicitly so CI
/// invocations that pin "report unchanged by metrics" are
/// self-documenting. Attaching a registry never changes any report or
/// exit code — only whether FILE is written.
struct Metrics {
    path: String,
    registry: std::sync::Arc<xpl_obs::Registry>,
}

fn parse_metrics(args: &[String]) -> Option<Metrics> {
    let path = flag_value(args, "--metrics");
    if args.iter().any(|a| a == "--no-metrics") {
        if path.is_some() {
            fail("--metrics and --no-metrics are mutually exclusive".to_string());
        }
        return None;
    }
    path.map(|path| Metrics {
        path,
        registry: xpl_obs::Registry::new(),
    })
}

impl Metrics {
    /// Snapshot the registry into the requested file. Written even when
    /// the run's oracle fails, so a red CI job still uploads metrics.
    fn finish(&self) {
        let snap = self.registry.snapshot();
        std::fs::File::create(&self.path)
            .and_then(|mut f| f.write_all(snap.render_json().as_bytes()))
            .expect("write metrics JSON");
        eprintln!(
            "[repro] wrote {} (det fingerprint {})",
            self.path,
            snap.det_fingerprint()
        );
    }
}

fn run_churn_cmd(args: &[String]) -> ! {
    let seed: u64 = parse_u64_flag(args, "--seed").unwrap_or(0xDEADBEEF);
    let ops: usize = parse_nonzero_flag(args, "--ops").unwrap_or(500) as usize;
    let mut cfg = match parse_scale(args) {
        "standard" => churn::ChurnConfig::standard(seed, ops),
        _ => churn::ChurnConfig::small(seed, ops),
    };
    if let Some(tier) = parse_codec_tier(args) {
        cfg = cfg.with_tier(tier);
    }
    let durable = args.iter().any(|a| a == "--durable");
    if durable {
        let mut dcfg = churn::DurableCfg::default();
        if let Some(k) = parse_u64_flag(args, "--crashes") {
            if k as usize > ops {
                fail(format!(
                    "--crashes {k} exceeds the trace's {ops} ops (each crash needs an op to land after)"
                ));
            }
            dcfg.crashes = k as usize;
        }
        if let Some(s) = parse_u64_flag(args, "--crash-seed") {
            dcfg.crash_seed = s;
        }
        cfg = cfg.with_durable(dcfg);
    }
    let json = flag_value(args, "--json");
    let metrics = parse_metrics(args);
    cfg.registry = metrics.as_ref().map(|m| m.registry.clone());
    match parse_threads(args) {
        Some(n) => {
            eprintln!(
                "[repro] churn replay: seed={seed:#x} ops={ops} threads={n} durable={durable}"
            );
            cfg.threads = n;
        }
        None => eprintln!("[repro] churn replay: seed={seed:#x} ops={ops} durable={durable}"),
    }
    let report = churn::run_churn(&cfg);
    println!("CHURN: {} ops replayed against 5 stores", report.ops);
    println!(
        "  mix: {} publish / {} retrieve (+{} ranged) / {} upgrade / {} delete / \
         {} burst ({} retrievals)",
        report.publishes,
        report.retrieves,
        report.range_retrieves,
        report.upgrades,
        report.deletes,
        report.bursts,
        report.burst_retrieves
    );
    println!("  oracle checks: {}", report.oracle_checks);
    println!(
        "  codec tier: {} ({} maintenance sweeps)",
        report.tier, report.maintains
    );
    println!("  trace sha256:  {}", report.trace_sha256);
    for s in &report.stores {
        println!(
            "  {:<14} {:>12} bytes, {:>4} live images, {:>10.1} sim-s",
            s.store, s.final_repo_bytes, s.final_images, s.sim_seconds
        );
    }
    if let Some(durable) = &report.durable {
        println!(
            "  durable: {} crash-recovery pairs injected",
            report.crashes
        );
        for d in durable {
            println!(
                "  {:<14} {} recoveries, {} WAL records replayed, {} torn tails, \
                 {} WAL appends, {} checkpoints",
                d.store,
                d.recoveries,
                d.wal_records_replayed,
                d.torn_tails,
                d.wal_appends,
                d.checkpoints
            );
        }
    }
    finish_oracle_run("churn", &report, &report.violations, json, metrics)
}

/// The shared tail of `churn`, `serve` and `serve --net`: write the
/// `--json` report and the `--metrics` snapshot (both even when the
/// oracle failed, so a red CI job still uploads them), then exit 0 on
/// a clean oracle, or 1 after printing the first 20 violations.
fn finish_oracle_run(
    what: &str,
    report: &impl serde::Serialize,
    violations: &[String],
    json: Option<String>,
    metrics: Option<Metrics>,
) -> ! {
    if let Some(path) = json {
        let json = serde_json::to_string_pretty(report)
            .unwrap_or_else(|e| panic!("serialize {what} report: {e:?}"));
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .unwrap_or_else(|e| panic!("write {what} JSON: {e:?}"));
        eprintln!("[repro] wrote {path}");
    }
    if let Some(m) = metrics {
        m.finish();
    }
    if violations.is_empty() {
        println!("  oracle: PASS");
        std::process::exit(0);
    }
    eprintln!("  oracle: {} VIOLATIONS", violations.len());
    for v in violations.iter().take(20) {
        eprintln!("    {v}");
    }
    std::process::exit(1);
}

/// `repro audit` — the deep integrity audit (`check_integrity_deep`:
/// refcount coherence + every stored blob re-hashed) across all five
/// stores, after a publish + delete workload. Exits 1 if any store
/// fails the audit.
fn run_audit_cmd(args: &[String]) -> ! {
    use xpl_store::ImageStore;
    let world = if flag_value(args, "--world").as_deref() == Some("small") {
        eprintln!("[repro] audit over the small world…");
        World::small()
    } else {
        eprintln!("[repro] audit over the standard world…");
        World::standard()
    };
    let names = world.image_names();
    let stores: Vec<Box<dyn ImageStore>> = churn::five_stores(|| world.env());
    let vmis: Vec<_> = names.iter().map(|n| world.build_image(n)).collect();
    for store in &stores {
        for vmi in &vmis {
            store.publish(&world.catalog, vmi).unwrap_or_else(|e| {
                eprintln!("audit setup: {} publish {}: {e}", store.name(), vmi.name);
                std::process::exit(2);
            });
        }
        // Exercise the release paths too: every third image is deleted.
        for name in names.iter().step_by(3) {
            store.delete(name).unwrap_or_else(|e| {
                eprintln!("audit setup: {} delete {name}: {e}", store.name());
                std::process::exit(2);
            });
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
        std::process::exit(1);
    }
    println!("AUDIT: PASS");
    std::process::exit(0);
}

/// `repro serve` — the multi-tenant registry serving benchmark (see
/// `xpl_bench::serve` for the three-phase pipeline).
fn run_serve_cmd(args: &[String]) -> ! {
    use xpl_bench::{ServeRunConfig, StoreKind};
    let seed: u64 = parse_u64_flag(args, "--seed").unwrap_or(0xC0FFEE);
    let mut cfg = match parse_scale(args) {
        "standard" => ServeRunConfig::standard(seed),
        _ => ServeRunConfig::small(seed),
    };
    if let Some(t) = parse_nonzero_flag(args, "--tenants") {
        cfg.tenants = t as u32;
    }
    if let Some(r) = parse_nonzero_flag(args, "--requests") {
        cfg.requests = r as usize;
    }
    if let Some(s) = parse_nonzero_flag(args, "--servers") {
        cfg.servers = s as usize;
    }
    if let Some(q) = parse_nonzero_flag(args, "--queue-depth") {
        cfg.queue_depth = q as usize;
    }
    if let Some(s) = flag_value(args, "--store") {
        cfg.store = StoreKind::parse(&s).unwrap_or_else(|| {
            fail(format!(
                "unknown --store {s:?} (expected qcow2, gzip, mirage, hemera, or expelliarmus)"
            ))
        });
    }
    if args.iter().any(|a| a == "--no-coalesce") {
        cfg.coalesce = false;
    }
    if let Some(tier) = parse_codec_tier(args) {
        cfg.tier = tier;
    }
    let json = flag_value(args, "--json");
    let metrics = parse_metrics(args);
    cfg.registry = metrics.as_ref().map(|m| m.registry.clone());

    // `--net`: serve the schedule over the wire layer instead of the
    // virtual-time registry simulation (see `xpl_bench::serve_net`).
    if args.iter().any(|a| a == "--net") || flag_value(args, "--net-faults").is_some() {
        use xpl_bench::{NetServeConfig, NetTransportKind};
        let mut net = NetServeConfig::default();
        if let Some(rate) = parse_u64_flag(args, "--net-faults") {
            if rate > 256 {
                fail(format!(
                    "--net-faults {rate} exceeds the 256/256 maximum rate"
                ));
            }
            net.fault_rate = rate as u32;
        }
        // Fault injection needs the deterministic in-memory transport;
        // clean runs exercise real TCP on a loopback socket.
        net.transport = if net.fault_rate > 0 {
            NetTransportKind::Mem
        } else {
            NetTransportKind::Tcp
        };
        if let Some(s) = parse_u64_flag(args, "--net-seed") {
            net.net_seed = s;
        }
        if let Some(c) = parse_nonzero_flag(args, "--conns") {
            net.conns_per_tenant = c as usize;
        }
        eprintln!(
            "[repro] serve --net: seed={seed:#x} scale={} tenants={} requests={} store={:?} \
             transport={:?} faults={}/256",
            cfg.scale_name, cfg.tenants, cfg.requests, cfg.store, net.transport, net.fault_rate
        );
        let report = xpl_bench::run_serve_net(&cfg, &net);
        print!("{}", xpl_bench::serve_net::render_net(&report));
        finish_oracle_run("net serve", &report, &report.violations, json, metrics)
    }

    let threads = parse_threads(args);
    eprintln!(
        "[repro] serve: seed={seed:#x} scale={} tenants={} requests={} store={:?}",
        cfg.scale_name, cfg.tenants, cfg.requests, cfg.store
    );
    let run = || xpl_bench::run_serve(&cfg);
    let report = match threads {
        Some(n) => rayon::with_num_threads(n, run),
        None => run(),
    };
    print!("{}", xpl_bench::serve::render(&report));
    finish_oracle_run("serve", &report, &report.violations, json, metrics)
}

/// `repro profile` — the span-tree profile of the publish pipeline
/// (see `xpl_bench::profile`). Exits 1 if the span accounting
/// invariant (`sum(phases) <= publish <= wall`) fails.
fn run_profile_cmd(args: &[String]) -> ! {
    use xpl_bench::{render_profile, run_profile, ProfileConfig};
    let mut cfg = ProfileConfig::default();
    if let Some(n) = parse_nonzero_flag(args, "--images") {
        cfg.images = n as usize;
    }
    if let Some(s) = parse_u64_flag(args, "--seed") {
        cfg.seed = s;
    }
    let json = flag_value(args, "--json");
    eprintln!(
        "[repro] profiling the publish pipeline: images={} seed={:#x}",
        cfg.images, cfg.seed
    );
    let report = run_profile(&cfg);
    print!("{}", render_profile(&report));
    if let Some(path) = json {
        let json = serde_json::to_string_pretty(&report).expect("serialize profile report");
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write profile JSON");
        eprintln!("[repro] wrote {path}");
    }
    if !report.spans_nest {
        eprintln!("PROFILE: span accounting violated (sum(phases) <= publish <= wall failed)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `repro ablate-codec` — the storage-codec trade-off table. Needs no
/// world: the sweep runs over one seeded synthetic payload.
fn run_ablate_codec_cmd(args: &[String]) -> ! {
    let mib = parse_nonzero_flag(args, "--payload-mib").unwrap_or(8) as usize;
    let json = flag_value(args, "--json");
    eprintln!("[repro] codec ablation over a {mib} MiB seeded payload…");
    let rows = ablations::codec_ablation_sweep(mib * 1024 * 1024, 0.2);
    print_codec_ablation(&rows);
    if let Some(path) = json {
        let json = serde_json::to_string_pretty(&rows).expect("serialize codec ablation");
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write codec ablation JSON");
        eprintln!("[repro] wrote {path}");
    }
    std::process::exit(0);
}

fn print_codec_ablation(rows: &[ablations::CodecAblationRow]) {
    println!("CODEC ABLATION: storage tiers over one seeded payload");
    println!(
        "{:<16} {:>12} {:>8} {:>16} {:>18} {:>14}",
        "codec", "bytes", "ratio", "compress MiB/s", "decompress MiB/s", "range MiB/s"
    );
    for r in rows {
        println!(
            "{:<16} {:>12} {:>8.3} {:>16.1} {:>18.1} {:>14.1}",
            r.codec,
            r.encoded_bytes,
            r.ratio,
            r.compress_mib_per_s,
            r.decompress_mib_per_s,
            r.range_read_mib_per_s
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if cmd == "churn" {
        // The churn replay generates its own scaled world.
        run_churn_cmd(&args);
    }
    if cmd == "ablate-codec" {
        // The codec sweep builds its own payload.
        run_ablate_codec_cmd(&args);
    }
    if cmd == "serve" {
        // The serving benchmark generates its own scaled world.
        run_serve_cmd(&args);
    }
    if cmd == "profile" {
        // The profile generates its own scaled world.
        run_profile_cmd(&args);
    }
    if cmd == "audit" {
        // The audit builds its own world (honoring --world small).
        run_audit_cmd(&args);
    }
    const KNOWN: [&str; 10] = [
        "table2",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig4a",
        "fig4b",
        "fig5a",
        "fig5b",
        "ablations",
        "all",
    ];
    if !KNOWN.contains(&cmd) {
        eprintln!("unknown experiment: {cmd}");
        eprintln!(
            "usage: repro [table2|fig3a|fig3b|fig3c|fig4a|fig4b|fig5a|fig5b|ablations|ablate-codec|churn|serve|profile|audit|all]"
        );
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    let world = if flag_value(&args, "--world").as_deref() == Some("small") {
        eprintln!("[repro] building small world (test scale)…");
        World::small()
    } else {
        eprintln!("[repro] building standard world (catalog + base template)…");
        World::standard()
    };
    eprintln!("[repro] world ready in {:.1}s", t0.elapsed().as_secs_f64());

    // Pin the worker pool for every experiment launched from this thread
    // (multi-store sweeps fan stores out across it; results are
    // byte-identical at any size).
    let run = || run_experiment(cmd, &args, &world);
    match parse_threads(&args) {
        Some(n) => rayon::with_num_threads(n, run),
        None => run(),
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn run_experiment(cmd: &str, args: &[String], world: &World) {
    match cmd {
        "table2" => {
            let r = table2(world);
            println!("{}", render::render_table2(&r));
        }
        "fig3a" => {
            let r = fig3_sizes(world, Fig3Scenario::FourImages);
            println!("{}", render::render_fig3("FIGURE 3a", &r));
        }
        "fig3b" => {
            let r = fig3_sizes(world, Fig3Scenario::Nineteen);
            println!("{}", render::render_fig3("FIGURE 3b", &r));
        }
        "fig3c" => {
            let n: u32 = positionals(args)
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(40);
            let r = fig3_sizes(world, Fig3Scenario::IdeBuilds(n));
            println!("{}", render::render_fig3("FIGURE 3c", &r));
        }
        "fig4a" => {
            let r = fig4a_publish(world);
            println!("{}", render::render_publish("FIGURE 4a", &r));
        }
        "fig4b" => {
            let r = fig4b_publish(world);
            println!("{}", render::render_publish("FIGURE 4b", &r));
        }
        "fig5a" => {
            let r = fig5a_breakdown(world);
            println!("{}", render::render_fig5a(&r));
        }
        "fig5b" => {
            let r = fig5b_retrieval(world);
            println!("{}", render::render_fig5b(&r));
        }
        "ablations" => {
            run_ablations(world);
        }
        "all" => {
            let pos = positionals(args);
            let dir = pos.get(1).map(String::as_str).unwrap_or("results");
            std::fs::create_dir_all(dir).expect("create results dir");
            let save = |name: &str, json: String| {
                let path = format!("{dir}/{name}.json");
                std::fs::File::create(&path)
                    .and_then(|mut f| f.write_all(json.as_bytes()))
                    .expect("write results");
                eprintln!("[repro] wrote {path}");
            };

            let r = table2(world);
            println!("{}", render::render_table2(&r));
            save("table2", serde_json::to_string_pretty(&r).unwrap());

            let r = fig3_sizes(world, Fig3Scenario::FourImages);
            println!("{}", render::render_fig3("FIGURE 3a", &r));
            save("fig3a", serde_json::to_string_pretty(&r).unwrap());

            let r = fig3_sizes(world, Fig3Scenario::Nineteen);
            println!("{}", render::render_fig3("FIGURE 3b", &r));
            save("fig3b", serde_json::to_string_pretty(&r).unwrap());

            let r = fig3_sizes(world, Fig3Scenario::IdeBuilds(40));
            println!("{}", render::render_fig3("FIGURE 3c", &r));
            save("fig3c", serde_json::to_string_pretty(&r).unwrap());

            let r = fig4a_publish(world);
            println!("{}", render::render_publish("FIGURE 4a", &r));
            save("fig4a", serde_json::to_string_pretty(&r).unwrap());

            let r = fig4b_publish(world);
            println!("{}", render::render_publish("FIGURE 4b", &r));
            save("fig4b", serde_json::to_string_pretty(&r).unwrap());

            let r = fig5a_breakdown(world);
            println!("{}", render::render_fig5a(&r));
            save("fig5a", serde_json::to_string_pretty(&r).unwrap());

            let r = fig5b_retrieval(world);
            println!("{}", render::render_fig5b(&r));
            save("fig5b", serde_json::to_string_pretty(&r).unwrap());

            run_ablations(world);
        }
        _ => unreachable!("command validated against KNOWN before the world is built"),
    }
}

fn run_ablations(world: &World) {
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
    // The codec-tier trade-off, small shape (`repro ablate-codec` runs
    // the full-size sweep standalone).
    print_codec_ablation(&ablations::codec_ablation_sweep(1024 * 1024, 0.05));
    println!();
    println!("ABLATION: master graph vs pairwise similarity (real CPU time)");
    println!(
        "{:<14} {:>14} {:>14} {:>10}",
        "stored", "pairwise ms", "master ms", "speedup"
    );
    for n in [5usize, 10, 19] {
        let s = ablations::master_graph_speedup(world, n);
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>10.1}",
            s.stored_images, s.pairwise_ms, s.master_ms, s.speedup
        );
    }
    println!();
}
