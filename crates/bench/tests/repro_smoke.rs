//! Smoke tests for the `repro` binary: the CLI surface and its JSON
//! output are executed inside `cargo test`, so neither can silently rot.
//!
//! Commands run at test-friendly scale (`--world small`, short churn
//! traces); the release-mode full runs stay in CI / EXPERIMENTS.md.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-smoke-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `repro diff A B --fields F`: its exit code and its output.
fn diff(a: &std::path::Path, b: &std::path::Path, fields: &str) -> (Option<i32>, String) {
    let out = repro()
        .arg("diff")
        .args([a, b])
        .args(["--fields", fields])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (
        out.status.code(),
        stdout + &String::from_utf8_lossy(&out.stderr),
    )
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
    let dir = scratch("durable");
    std::fs::write(dir.join("durable.json"), json).unwrap();
    let mem = repro()
        .args(["churn", "--seed", "7", "--ops", "40", "--json"])
        .arg(dir.join("mem.json"))
        .output()
        .expect("spawn repro");
    assert!(mem.status.success());
    let (code, out) = diff(
        &dir.join("durable.json"),
        &dir.join("mem.json"),
        "/cas_fingerprints",
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "converged fingerprints must match: {out}");
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
    assert!(stdout.contains("key-digests sha256 (wire)"), "{stdout}");

    let json = std::fs::read_to_string(&path).expect("serve JSON written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"schema_version\": 3",
        "\"transport\": \"tcp\"",
        "\"tier\": \"mixed\"",
        "\"maintain_promoted\"",
        "\"key_digests_sha256\"",
        "\"wire_key_digests_sha256\"",
        "\"served\": 100",
        "\"coalesce_primaries\"",
        "\"coalesce_waiters\"",
        "\"wire_ops_per_s\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    assert!(json.contains("\"violations\": []"), "violations not empty");
}

#[test]
fn serve_fingerprints_are_thread_count_invariant() {
    // The payload-digest table — computed in process and assembled
    // from wire replies — must not depend on the worker pool size.
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
        let digests: Vec<String> = stdout
            .lines()
            .filter(|l| l.contains("key-digests sha256"))
            .map(str::to_string)
            .collect();
        assert_eq!(digests.len(), 2, "{stdout}");
        digests
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
        (vec!["serve", "--store", "zfs"], "invalid --store value"),
        (vec!["churn", "--codec", "zstd"], "invalid --codec value"),
        (vec!["serve", "--codec", "zstd"], "invalid --codec value"),
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
    let dir = scratch("codec");
    for codec in ["mixed", "deflate"] {
        let out = repro()
            .args(["churn", "--seed", "7", "--ops", "40", "--codec", codec])
            .arg("--json")
            .arg(dir.join(format!("{codec}.json")))
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "oracle must pass under --codec {codec}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains(&format!("codec tier: {codec}")), "{stdout}");
    }
    let (code, out) = diff(
        &dir.join("mixed.json"),
        &dir.join("deflate.json"),
        "/cas_fingerprints",
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        code,
        Some(0),
        "codec tiers must not change content identity: {out}"
    );
}

#[test]
fn churn_det_metrics_are_identical_at_1_and_4_threads() {
    let dir = scratch("metrics");
    for threads in ["1", "4"] {
        let out = repro()
            .args(["churn", "--seed", "7", "--ops", "40", "--threads", threads])
            .arg("--metrics")
            .arg(dir.join(format!("m{threads}.json")))
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "{threads} threads");
    }
    let fields = "/det_fingerprint,/sections/det";
    let (code, out) = diff(&dir.join("m1.json"), &dir.join("m4.json"), fields);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "det section diverged across pools: {out}");
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
    let rows: serde::Json = serde_json::from_str(&json).expect("ablation JSON parses");
    let rows = rows.as_arr().expect("one row per codec");
    let codecs: Vec<_> = rows
        .iter()
        .map(|r| r.get("codec").and_then(|c| c.as_str()))
        .collect();
    assert_eq!(
        codecs,
        [Some("raw"), Some("blocked-deflate"), Some("blocked-lz4")]
    );
    for row in rows {
        for key in [
            "compress_mib_per_s",
            "decompress_mib_per_s",
            "range_read_mib_per_s",
        ] {
            let v = row.get(key).and_then(|v| v.as_f64());
            assert!(v.is_some_and(|v| v > 0.0), "{key} not above 0 in {row:?}");
        }
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

#[test]
fn input_repro_does_not_recognise_is_a_usage_error() {
    // Each was once dropped or fell back onto a default (or panicked):
    // now each exits 2 with a usage line before any work, and writes
    // nothing into the directory it runs in.
    for args in [
        vec!["churn", "--sed", "5", "--json", "out.json"],
        vec!["churn", "--thread", "4", "--json", "out.json"],
        vec!["churn", "--crashes", "2", "--json", "out.json"],
        vec!["audit", "--wrld", "small"],
        vec!["ablate-codec", "--payload-mb", "1", "--json", "out.json"],
        vec!["fig3a", "--world", "small"],
        vec!["all", "out", "--world", "small"],
        vec!["table2", "extra", "--world", "small"],
        vec!["churn", "--ops", "5", "--ops", "6", "--json", "out.json"],
    ] {
        let dir = scratch("usage");
        let out = repro()
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("repro: ") && l.contains("usage: repro")),
            "{args:?}: no usage line in {stderr:?}"
        );
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

#[test]
fn diff_fails_on_any_difference_or_vacancy() {
    let dir = scratch("diff");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let a = write(
        "a.json",
        r#"{"cas": [{"store": "Mirage", "fingerprint": "9f2c"}], "m": {"a/b": 1}, "e": []}"#,
    );
    let same = write(
        "same.json",
        r#"{"cas": [{"store": "Mirage", "fingerprint": "9f2c"}], "m": {"a/b": 1}, "e": []}"#,
    );
    let flipped = write(
        "flipped.json",
        r#"{"cas": [{"store": "Mirage", "fingerprint": "9f2d"}], "m": {"a/b": 1}, "e": []}"#,
    );
    let torn = write("torn.json", r#"{"cas": [{"store": "#);
    let cases = [
        (&same, "/cas,/m/a~1b,/cas/0/fingerprint", Some(0)),
        (&flipped, "/cas", Some(1)),
        (&flipped, "/cas/0/fingerprint", Some(1)),
        (&same, "/cas/1", Some(1)),
        (&same, "/missing", Some(1)),
        (&same, "/e", Some(1)),
        (&torn, "/cas", Some(2)),
        (&same, "cas", Some(2)),
    ];
    for (b, fields, want) in cases {
        let (code, out) = diff(&a, b, fields);
        assert_eq!(code, want, "{b:?} at {fields}: {out}");
    }
    let (code, out) = diff(&a, &dir.join("absent.json"), "/cas");
    assert_eq!(code, Some(2), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}
