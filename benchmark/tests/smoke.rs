//! `--quick` smoke of the whole harness through its command line: every
//! workload, untraced and traced, oracle on, result line checked against
//! the benchmark's vocabulary. The whole file runs in a few seconds.

use std::process::Command;

use serde::Json;
use xpl_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

struct Run {
    op_digest: String,
    result: Json,
    stdout: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_xpl-benchmark"))
        .args(["--workload", workload, "--quick"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start the harness");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let op_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("op-list sha256 "))
        .expect("op-list digest line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    let result: Json = serde_json::from_str(last).expect("the last line is JSON");
    Run {
        op_digest,
        result,
        stdout,
    }
}

fn check_result(run: &Run, list: &[(&str, &str)], what: &str) {
    let keys: Vec<&str> = run
        .result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        run.result.get("correct").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(run.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = run.result.get("metrics").and_then(Json::as_obj).unwrap();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap()))
        .collect();
    assert_eq!(got, list, "{what}: metric names, order and units");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        // The same line a person reads names the metric with its unit.
        assert!(
            run.stdout.contains(&format!("metric {name} = ")),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_runs_clean_untraced_and_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let r = run(workload, 11, false);
        check_result(&r, END_TO_END, workload);
        let metrics = r.result.get("metrics").unwrap();
        for (name, _) in END_TO_END {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(v.unwrap() > 0.0, "{workload}: {name} must never read 0");
        }
        assert!(
            r.stdout.contains("samples: publish "),
            "{workload}: sample counts"
        );
    }
}

#[test]
fn every_workload_runs_clean_traced_and_reports_every_layer_metric() {
    for workload in WORKLOADS {
        let r = run(workload, 12, true);
        check_result(&r, PER_LAYER, workload);
        assert!(
            r.stdout.contains("trace written to "),
            "{workload}: trace file"
        );
    }
}

#[test]
fn op_lists_follow_the_seed() {
    for workload in WORKLOADS {
        let (a, b, c) = (
            run(workload, 21, false),
            run(workload, 21, false),
            run(workload, 22, false),
        );
        assert_eq!(a.op_digest, b.op_digest, "{workload}: same seed, same ops");
        assert_ne!(
            a.op_digest, c.op_digest,
            "{workload}: another seed, other ops"
        );
        assert_eq!(a.op_digest.len(), 64);
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec!["--workload", "no_such_workload"],
        vec!["--workload", "wire_serve", "--seconds", "0"],
        vec!["compare", "only-one.json"],
        vec![],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_xpl-benchmark"))
            .args(&args)
            .output()
            .expect("start the harness")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
