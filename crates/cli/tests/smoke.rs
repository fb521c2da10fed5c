//! End-to-end smoke tests for the `predator` binary's observability
//! surface: `--metrics`, `--trace-events`, and the `stats` renderer.

use std::process::Command;

use predator_core::{ObsSnapshot, Report};

fn predator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predator"))
}

/// Fast, deterministic run arguments shared by the tests.
const RUN: &[&str] = &[
    "run",
    "histogram",
    "--sensitive",
    "--threads",
    "2",
    "--iters",
    "200",
];

#[test]
fn json_report_with_metrics_dash_is_one_json_doc_embedding_snapshot() {
    let out = predator()
        .args(RUN)
        .args(["--json", "--metrics", "-"])
        .output()
        .expect("spawn predator");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // One valid JSON document: the report, with the snapshot under `obs`.
    let report: Report =
        serde_json::from_str(&stdout).expect("stdout must be a single valid JSON report");
    if !predator_obs::disabled() {
        assert!(
            report.obs.counter("runtime_accesses_total").unwrap_or(0) > 0,
            "embedded snapshot should carry runtime counters"
        );
        assert!(
            !report.obs.phases().is_empty(),
            "embedded snapshot should carry span histograms"
        );
    }
}

#[test]
fn metrics_file_and_prometheus_text_are_written() {
    let dir = std::env::temp_dir().join(format!("predator-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("snap.json");
    let metrics_s = metrics.to_str().unwrap().to_string();

    let out = predator()
        .args(RUN)
        .args(["--metrics", &metrics_s])
        .output()
        .expect("spawn predator");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let snap: ObsSnapshot = serde_json::from_str(&text).expect("snapshot JSON parses");
    if !predator_obs::disabled() {
        assert!(snap.counter("track_sampled_accesses_total").unwrap_or(0) > 0);
    }

    let prom =
        std::fs::read_to_string(format!("{metrics_s}.prom")).expect("prometheus text written");
    if !predator_obs::disabled() {
        assert!(
            prom.contains("# TYPE"),
            "prometheus text has TYPE lines:\n{prom}"
        );
    }

    // The stats renderer accepts the bare snapshot file.
    let out = predator()
        .args(["stats", &metrics_s])
        .output()
        .expect("spawn stats");
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    if !predator_obs::disabled() {
        assert!(table.contains("COUNTERS"), "table:\n{table}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_events_stream_is_valid_jsonl() {
    let dir = std::env::temp_dir().join(format!("predator-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("events.jsonl");
    let trace_s = trace.to_str().unwrap().to_string();

    let out = predator()
        .args(RUN)
        .args(["--trace-events", &trace_s])
        .output()
        .expect("spawn predator");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every event line carries at least these envelope fields; extra
    // per-kind fields are ignored by the deserializer.
    #[derive(serde::Deserialize)]
    struct Envelope {
        seq: u64,
        kind: String,
    }

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    if !predator_obs::disabled() {
        assert!(!text.trim().is_empty(), "sensitive run should emit events");
        for line in text.lines() {
            let ev: Envelope = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
            assert!(!ev.kind.is_empty(), "line {} has a kind", ev.seq);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary and returns stdout, asserting success.
fn run_to_file(args: &[&str], path: &std::path::Path) {
    let out = predator().args(args).output().expect("spawn predator");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(path, &out.stdout).expect("write report");
}

#[test]
fn explain_renders_a_causal_timeline_from_a_json_report() {
    let dir = std::env::temp_dir().join(format!("predator-explain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("boost.json");
    run_to_file(
        &[
            "run",
            "boost",
            "--sensitive",
            "--threads",
            "4",
            "--iters",
            "300",
            "--json",
        ],
        &report,
    );
    let report_s = report.to_str().unwrap();

    let out = predator()
        .args(["explain", report_s])
        .output()
        .expect("spawn explain");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    if !predator_obs::disabled() {
        assert!(
            text.contains("Timeline for cache line"),
            "timeline header:\n{text}"
        );
        assert!(
            text.contains("invalidated t"),
            "victim attribution:\n{text}"
        );
        assert!(text.contains("Causal traces"), "trace section:\n{text}");
        assert!(text.contains("invalidating write"), "legend:\n{text}");

        // Asking for a line with no records degrades gracefully (exit 0).
        let out = predator()
            .args(["explain", report_s, "999999999"])
            .output()
            .expect("spawn explain");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("No flight-recorder records"), "{text}");
    } else {
        assert!(text.contains("No flight-recorder data"), "{text}");
    }

    // --no-recorder runs produce reports explain declines politely.
    let bare = dir.join("bare.json");
    run_to_file(
        &[
            "run",
            "boost",
            "--sensitive",
            "--threads",
            "2",
            "--iters",
            "200",
            "--json",
            "--no-recorder",
        ],
        &bare,
    );
    let out = predator()
        .args(["explain", bare.to_str().unwrap()])
        .output()
        .expect("spawn explain");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("No flight-recorder data"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_gate_passes_clean_and_fails_regressions_nonzero() {
    let dir = std::env::temp_dir().join(format!("predator-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.json");
    let bad = dir.join("bad.json");
    let base: &[&str] = &[
        "run",
        "boost",
        "--sensitive",
        "--threads",
        "4",
        "--iters",
        "300",
    ];
    run_to_file(&[base, &["--fixed", "--json"]].concat(), &clean);
    run_to_file(&[base, &["--json"]].concat(), &bad);
    let (clean_s, bad_s) = (clean.to_str().unwrap(), bad.to_str().unwrap());

    // Identical reports: the gate passes.
    let out = predator()
        .args(["diff", clean_s, clean_s])
        .output()
        .expect("spawn diff");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // New findings appeared: nonzero exit and an explicit gate verdict.
    let out = predator()
        .args(["diff", clean_s, bad_s])
        .output()
        .expect("spawn diff");
    assert!(!out.status.success(), "regression must fail the gate");
    assert!(String::from_utf8_lossy(&out.stderr).contains("GATE: FAIL"));

    // A huge tolerance only forgives severity drift, never new findings.
    let out = predator()
        .args(["diff", clean_s, bad_s, "--tolerance", "100"])
        .output()
        .expect("spawn diff");
    assert!(!out.status.success());

    // Nonsense tolerance is a usage error.
    let out = predator()
        .args(["diff", clean_s, bad_s, "--tolerance", "-1"])
        .output()
        .expect("spawn diff");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tolerance"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_threads_is_a_usage_error() {
    let out = predator()
        .args(["run", "histogram", "--threads", "0"])
        .output()
        .expect("spawn predator");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
}

#[test]
fn unknown_options_exit_1_naming_the_option() {
    // `--samplng 1.0` used to analyse at the default 1 % and exit 0.
    for extra in [&["--samplng", "1.0"][..], &["--no-such-switch"][..]] {
        let out = predator()
            .args(RUN)
            .args(extra)
            .output()
            .expect("spawn predator");
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty(), "no report from a mistyped run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown option '{}'", extra[0]);
        assert!(stderr.contains(&want), "stderr: {stderr}");
    }
}
