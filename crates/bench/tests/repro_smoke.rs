//! Smoke tests for the `repro` binary: the CLI surface and its JSON
//! output are executed inside `cargo test`, so neither can silently rot.
//!
//! Commands run at test-friendly scale (`--world small`, short churn
//! traces); the release-mode full runs stay in CI / EXPERIMENTS.md.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn table2_runs_on_the_small_world() {
    let out = repro()
        .args(["table2", "--world", "small"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TABLE II"), "unexpected output: {stdout}");
    // Small-world rows are measured (non-zero publish times).
    assert!(
        stdout.contains("mini"),
        "missing small-world rows: {stdout}"
    );
}

#[test]
fn churn_subcommand_emits_json_and_passes_oracle() {
    let path = std::env::temp_dir().join(format!("churn-smoke-{}.json", std::process::id()));
    let out = repro()
        .args(["churn", "--seed", "7", "--ops", "40"])
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "oracle must pass; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oracle: PASS"), "{stdout}");

    let json = std::fs::read_to_string(&path).expect("churn JSON written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"trace_sha256\"",
        "\"violations\"",
        "\"stores\"",
        "\"oracle_checks\"",
        "\"Expelliarmus\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    assert!(json.contains("\"violations\": []"), "violations not empty");
}

#[test]
fn churn_threads_flag_is_thread_count_invariant() {
    // The pool size through the CLI: --threads 1 and --threads 4 must
    // print the same report and write the same JSON.
    let path =
        |t: usize| std::env::temp_dir().join(format!("churn-mt-{}-{t}.json", std::process::id()));
    let run = |threads: usize| {
        let p = path(threads);
        let out = repro()
            .args(["churn", "--seed", "7", "--ops", "40"])
            .args(["--threads", &threads.to_string()])
            .args(["--json", p.to_str().unwrap()])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "oracle must pass at {threads} threads; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&p).expect("churn JSON written");
        std::fs::remove_file(&p).ok();
        (String::from_utf8_lossy(&out.stdout).into_owned(), json)
    };
    let (stdout1, json1) = run(1);
    let (stdout4, json4) = run(4);
    assert_eq!(json1, json4, "JSON must be byte-identical across pools");
    assert_eq!(stdout1, stdout4);
    assert!(stdout1.contains("oracle: PASS"), "{stdout1}");
}

#[test]
fn churn_durable_replays_with_crash_recovery() {
    let path = std::env::temp_dir().join(format!("churn-durable-{}.json", std::process::id()));
    let out = repro()
        .args(["churn", "--seed", "7", "--ops", "40", "--durable"])
        .args(["--crashes", "2", "--crash-seed", "42"])
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "oracle must pass; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oracle: PASS"), "{stdout}");
    assert!(
        stdout.contains("durable: 2 crash-recovery pairs injected"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("durable churn JSON written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"cas_fingerprints\"",
        "\"durable\"",
        "\"wal_records_replayed\"",
        "\"torn_tails\"",
        "\"crashes\": 2",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }

    // The durable replay's converged fingerprints must equal the
    // in-memory replay's (same base trace, no crash ops) — the diff CI
    // performs at standard scale.
    let mem = repro()
        .args(["churn", "--seed", "7", "--ops", "40"])
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(mem.status.success());
    let mem_json = std::fs::read_to_string(&path).expect("in-memory churn JSON written");
    std::fs::remove_file(&path).ok();
    let fingerprints = |j: &str| -> Vec<String> {
        j.lines()
            .filter(|l| l.contains("\"fingerprint\""))
            .map(|l| l.trim().to_string())
            .collect()
    };
    let (durable_fps, mem_fps) = (fingerprints(&json), fingerprints(&mem_json));
    assert!(!durable_fps.is_empty());
    assert_eq!(durable_fps, mem_fps, "converged fingerprints must match");
}

#[test]
fn audit_subcommand_passes_on_the_small_world() {
    let out = repro()
        .args(["audit", "--world", "small"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("AUDIT: PASS"), "{stdout}");
    for store in ["Qcow2", "Mirage", "Hemera", "Expelliarmus"] {
        assert!(stdout.contains(store), "missing {store}: {stdout}");
    }
}

#[test]
fn churn_is_deterministic_across_processes() {
    let run = || {
        let out = repro()
            .args(["churn", "--seed", "21", "--ops", "30"])
            .output()
            .expect("spawn repro");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run(), run(), "same seed must reproduce byte-identically");
}

#[test]
fn serve_subcommand_emits_json_and_passes_oracle() {
    let path = std::env::temp_dir().join(format!("serve-smoke-{}.json", std::process::id()));
    let out = repro()
        .args([
            "serve",
            "--seed",
            "9",
            "--requests",
            "100",
            "--tenants",
            "3",
        ])
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "serve oracle must pass; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oracle: PASS"), "{stdout}");
    assert!(stdout.contains("request-log sha256"), "{stdout}");

    let json = std::fs::read_to_string(&path).expect("serve JSON written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"schema_version\": 5",
        "\"request_log_sha256\"",
        "\"key_digests_sha256\"",
        "\"p50_latency_ms\"",
        "\"p99_latency_ms\"",
        "\"coalescing_hit_rate\"",
        "\"fairness_max_min_served\"",
        "\"sustained_ops_per_s\"",
        "\"per_tenant\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    assert!(json.contains("\"violations\": []"), "violations not empty");
}

#[test]
fn serve_fingerprints_are_thread_count_invariant() {
    // Everything virtual-time in the serve report — the request log,
    // the schedule, the payload-digest table, latency percentiles —
    // must be byte-identical between a 1-thread and a 4-thread replay
    // pool. Only wall-clock fields may differ.
    let run = |threads: &str| {
        let out = repro()
            .args([
                "serve",
                "--seed",
                "11",
                "--requests",
                "80",
                "--tenants",
                "3",
            ])
            .args(["--threads", threads])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "serve must pass at {threads} threads; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let grab = |label: &str| -> String {
            stdout
                .lines()
                .find(|l| l.contains(label))
                .unwrap_or_else(|| panic!("no {label} line in {stdout}"))
                .to_string()
        };
        (
            grab("request-log sha256"),
            grab("schedule sha256"),
            grab("key-digests sha256"),
            grab("latency p50"),
        )
    };
    assert_eq!(run("1"), run("4"));
}

#[test]
fn cli_validation_errors_are_one_line_and_exit_2() {
    // Each bad invocation: exit code 2 and a single clear line on
    // stderr — not a panic, not a silent fall-back onto defaults.
    for (args, needle) in [
        (
            vec!["churn", "--threads", "0"],
            "--threads must be at least 1",
        ),
        (
            vec!["serve", "--threads", "0"],
            "--threads must be at least 1",
        ),
        (vec!["churn", "--threads", "x"], "invalid --threads value"),
        (vec!["churn", "--ops", "0"], "--ops must be at least 1"),
        (vec!["churn", "--seed", "banana"], "invalid --seed value"),
        (vec!["churn", "--scale", "huge"], "invalid --scale value"),
        (vec!["serve", "--scale", "tiny"], "invalid --scale value"),
        (
            vec!["serve", "--requests", "0"],
            "--requests must be at least 1",
        ),
        (
            vec!["serve", "--tenants", "0"],
            "--tenants must be at least 1",
        ),
        (vec!["serve", "--store", "zfs"], "unknown --store"),
        (vec!["churn", "--codec", "zstd"], "unknown --codec"),
        (vec!["serve", "--codec", "zstd"], "unknown --codec"),
        // A value-taking flag with no value is not "absent", and the
        // next flag is not its value.
        (
            vec!["churn", "--ops", "20", "--json", "--threads", "2"],
            "--json needs a value",
        ),
        (
            vec!["churn", "--ops", "20", "--json"],
            "--json needs a value",
        ),
        (
            vec!["churn", "--ops", "10", "--durable", "--crashes", "40"],
            "--crashes 40 exceeds the trace's 10 ops",
        ),
    ] {
        let out = repro().args(&args).output().expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = stderr
            .lines()
            .find(|l| l.starts_with("repro: "))
            .unwrap_or_else(|| panic!("{args:?}: no `repro: …` line in {stderr:?}"));
        assert!(line.contains(needle), "{args:?}: {line:?} lacks {needle:?}");
    }
}

#[test]
fn churn_codec_tiers_replay_to_identical_fingerprints() {
    // The digest-preservation pin through the CLI: the same seeded
    // trace replayed under the mixed hot/cold tier and under the
    // all-DEFLATE tier must converge every CAS store to identical
    // content fingerprints (recompression never changes logical bytes).
    let path = std::env::temp_dir().join(format!("churn-codec-{}.json", std::process::id()));
    let run = |codec: &str| {
        let out = repro()
            .args(["churn", "--seed", "7", "--ops", "40", "--codec", codec])
            .args(["--json", path.to_str().unwrap()])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "oracle must pass under --codec {codec}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains(&format!("codec tier: {codec}")), "{stdout}");
        let json = std::fs::read_to_string(&path).expect("churn JSON written");
        std::fs::remove_file(&path).ok();
        json.lines()
            .filter(|l| l.contains("\"fingerprint\""))
            .map(|l| l.trim().to_string())
            .collect::<Vec<_>>()
    };
    let mixed = run("mixed");
    let dense = run("deflate");
    assert!(!mixed.is_empty(), "CAS fingerprints must be reported");
    assert_eq!(mixed, dense, "codec tiers must not change content identity");
}

#[test]
fn ablate_codec_emits_all_three_tiers() {
    let path = std::env::temp_dir().join(format!("ablate-codec-{}.json", std::process::id()));
    let out = repro()
        .args(["ablate-codec", "--payload-mib", "1"])
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CODEC ABLATION"), "{stdout}");
    for codec in ["raw", "blocked-deflate", "blocked-lz4"] {
        assert!(stdout.contains(codec), "missing {codec} row: {stdout}");
    }
    let json = std::fs::read_to_string(&path).expect("ablation JSON written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"codec\"",
        "\"ratio\"",
        "\"compress_mib_per_s\"",
        "\"decompress_mib_per_s\"",
        "\"range_read_mib_per_s\"",
        "\"blocked-lz4\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    // `bench` was a subcommand until benchmark/ became the only
    // measuring system; it must not fall through to an experiment.
    for cmd in ["fig9z", "bench"] {
        let out = repro().arg(cmd).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
