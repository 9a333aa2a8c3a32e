//! Command line of the benchmark harness.
//!
//! ```text
//! xpl-benchmark --workload W --seed N --seconds S --trace 0|1     the driver's form
//! xpl-benchmark run <W|all> [--seed N] [--seconds S] [--trace] [--quick]
//!                           [--repeat K] [--json SET.json]
//! xpl-benchmark compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, the sample counts,
//! and as the last line of standard output one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when an
//! output was wrong. `run all` starts one fresh process per workload, so
//! `peak_rss_mib` is each workload's own.

use std::process::{Command, ExitCode, Stdio};

use serde::Json;
use xpl_benchmark::compare;
use xpl_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use xpl_benchmark::workloads::{self, out_dir, RunConfig, RunOutput};

const USAGE: &str = "usage:
  xpl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  xpl-benchmark run <name|all> [--seed <n>] [--seconds <s>] [--trace] [--quick] \
[--repeat <k>] [--json <set.json>]
  xpl-benchmark compare <a.json> <b.json>
workloads: paper_lifecycle baseline_blobs churn_durable wire_serve";

/// `run_seconds` of BENCHMARK.json: what `run` uses when not told otherwise.
const DEFAULT_SECONDS: f64 = 18.0;
const QUICK_SECONDS: f64 = 0.3;

struct Args {
    workload: String,
    cfg: RunConfig,
    repeat: usize,
    json: Option<String>,
}

fn parse_run_args(workload: Option<String>, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: workload.unwrap_or_default(),
        cfg: RunConfig {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        repeat: 1,
        json: None,
    };
    let mut seconds_given = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--json" => args.json = Some(value("a file")?),
            "--quick" => args.cfg.quick = true,
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand it is a bare switch.
                args.cfg.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.cfg.quick && !seconds_given {
        args.cfg.seconds = QUICK_SECONDS;
    }
    if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.cfg.seconds));
    }
    if args.repeat == 0 {
        return Err("--repeat 0 runs nothing".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The result line the driver reads.
fn result_json(out: &RunOutput, trace: bool) -> Json {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics = out
        .metrics
        .in_order(list)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::UInt(out.attempted.max(1))),
        ("failed".into(), Json::UInt(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Run one workload in this process and print its report.
fn run_here(workload: &str, cfg: &RunConfig) -> ExitCode {
    let out = workloads::run(workload, cfg).expect("workload name was checked");
    println!(
        "workload {workload} seed {} seconds {} trace {} quick {} threads {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        u8::from(cfg.quick),
        workloads::client_threads()
    );
    println!("op-list sha256 {}", out.op_digest);
    for note in &out.notes {
        println!("{note}");
    }
    let list = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, value, unit) in out.metrics.in_order(list) {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "oracle: {} ops attempted, {} failed (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for v in out.violations.iter().take(10) {
        println!("violation: {v}");
    }
    if let Some(trace) = &out.trace {
        print!("{}", trace.render());
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::UInt(cfg.seed)),
            ("result".into(), result_json(&out, true)),
            ("trace".into(), trace.to_json()),
        ]);
        let path = out_dir().join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, serde_json::to_string(&doc).unwrap_or_default()));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result_json(&out, cfg.trace)).expect("result serializes")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run all`, or `--repeat`/`--json`: one fresh process per run, results
/// gathered from each child's last line.
fn run_children(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    let mut runs: Vec<(String, Json)> = Vec::new();
    for name in names {
        let mut of_workload = Vec::new();
        for _ in 0..args.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.cfg.seed.to_string()])
                .args(["--seconds", &args.cfg.seconds.to_string()])
                .args(["--trace", if args.cfg.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.cfg.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().expect("start a workload process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_ok &= output.status.success();
            let metrics = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str::<Json>(l).ok())
                .and_then(|r| r.get("metrics").cloned());
            if let Some(Json::Obj(metrics)) = metrics {
                // A set file keeps plain numbers: {"metric": value}.
                of_workload.push(Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(k, v)| (k, v.get("value").cloned().unwrap_or(Json::Null)))
                        .collect(),
                ));
            }
        }
        runs.push((name.to_string(), Json::Arr(of_workload)));
    }
    if let Some(path) = &args.json {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::UInt(args.cfg.seed)),
            ("seconds".into(), Json::Float(args.cfg.seconds)),
            ("trace".into(), Json::Bool(args.cfg.trace)),
            ("runs".into(), Json::Obj(runs)),
        ]);
        if let Err(e) = std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap_or_default())
        {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("set written to {path}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let [a, b] = rest else {
        return Err("compare takes two set files".into());
    };
    let benchmark = load_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?;
    let rows = compare::compare_sets(&benchmark, &load_json(a)?, &load_json(b)?)?;
    print!("{}", compare::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    println!("{} pairs, {worse} worse", rows.len());
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match argv.first().map(String::as_str) {
        Some("compare") => {
            return compare_cmd(&argv[1..]).unwrap_or_else(|e| {
                eprintln!("{e}");
                ExitCode::from(2)
            })
        }
        Some("run") => parse_run_args(argv.get(1).cloned(), argv.get(2..).unwrap_or_default()),
        Some(flag) if flag.starts_with("--") => parse_run_args(None, &argv),
        _ => Err("nothing to do".into()),
    };
    match parsed {
        Ok(args) if args.workload == "all" || args.repeat > 1 || args.json.is_some() => {
            run_children(&args)
        }
        Ok(args) => run_here(&args.workload, &args.cfg),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
