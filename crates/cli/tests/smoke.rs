//! End-to-end smoke tests for the `predator` binary: the observability
//! surface (`--metrics`, `--trace-timeline`, the `stats` renderer), the CI
//! gates, error and closed-stdout behaviour, the one trace door (`.ptrace`
//! in, JSONL only via `trace import`, `replay` ≡ `analyze`, `--shards` inert), and
//! the verb table at the front door (a verb refuses what its row lacks).

use std::collections::BTreeMap;
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
        .args(["--format", "json", "--metrics", "-"])
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
    assert!(
        report.obs.counter("runtime_accesses_total").unwrap_or(0) > 0,
        "embedded snapshot should carry runtime counters"
    );
    assert!(
        !report.obs.phases().is_empty(),
        "embedded snapshot should carry span histograms"
    );
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
    assert!(snap.counter("track_sampled_accesses_total").unwrap_or(0) > 0);

    let prom =
        std::fs::read_to_string(format!("{metrics_s}.prom")).expect("prometheus text written");
    assert!(
        prom.contains("# TYPE"),
        "prometheus text has TYPE lines:\n{prom}"
    );

    // The stats renderer accepts the bare snapshot file.
    let out = predator()
        .args(["stats", &metrics_s])
        .output()
        .expect("spawn stats");
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("COUNTERS"), "table:\n{table}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--metrics` snapshot (zero counter, negative gauge, zeros bucket, a
/// bucket at 2^62, an empty histogram) and a report embedding the same
/// registry as its `obs` block, both written by the PR 18 commit — the last
/// one with a hand-rolled snapshot writer and a serde mirror in core. The
/// one snapshot type reads both, writes the same bytes back, and `stats`
/// takes either file.
#[test]
fn snapshot_files_written_by_the_two_type_build_load_and_rewrite_byte_identically() {
    let snap_text = include_str!("fixtures/pr18_snapshot.json");
    let report_text = include_str!("fixtures/pr18_report.json");
    let snap: ObsSnapshot = serde_json::from_str(snap_text).expect("snapshot fixture parses");
    assert_eq!(snap.to_json() + "\n", snap_text);
    let report: Report = serde_json::from_str(report_text).expect("report fixture parses");
    assert_eq!(report.to_json() + "\n", report_text);
    assert_eq!(report.obs, snap);

    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let stdout_of = |args: &[&str]| {
        let out = predator().args(args).output().expect("spawn predator");
        String::from_utf8(out.stdout).unwrap()
    };
    let snap_file = format!("{fixtures}/pr18_snapshot.json");
    let report_file = format!("{fixtures}/pr18_report.json");
    let table = stdout_of(&["stats", &snap_file]);
    assert_eq!(table, snap.render_table());
    assert_eq!(stdout_of(&["stats", &report_file]), table);
}

/// A `--trace-timeline` file's instant counts by name, plus its
/// `otherData.dropped`; panics unless the file parses as a timeline.
fn timeline_instants(path: &std::path::Path) -> (BTreeMap<String, usize>, u64) {
    #[derive(serde::Deserialize)]
    struct Event {
        name: Option<String>,
        ph: String,
    }
    #[derive(serde::Deserialize)]
    struct OtherData {
        dropped: u64,
    }
    #[derive(serde::Deserialize)]
    #[allow(non_snake_case)]
    struct Doc {
        traceEvents: Vec<Event>,
        otherData: OtherData,
    }
    let text = std::fs::read_to_string(path).expect("timeline written");
    let doc: Doc = serde_json::from_str(&text).expect("timeline parses with otherData");
    let mut counts = BTreeMap::new();
    for ev in doc.traceEvents.into_iter().filter(|e| e.ph == "i") {
        *counts.entry(ev.name.unwrap_or_default()).or_default() += 1;
    }
    (counts, doc.otherData.dropped)
}

#[test]
fn trace_timeline_carries_every_detector_transition() {
    let dir = std::env::temp_dir().join(format!("predator-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("timeline.json");
    let out = predator()
        .args([
            "run",
            "linear_regression",
            "--sensitive",
            "--trace-timeline",
        ])
        .arg(&trace)
        .output()
        .expect("spawn predator");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (instants, dropped) = timeline_instants(&trace);
    assert_eq!(dropped, 0);
    for kind in [
        "line_promoted",
        "unit_spawned",
        "unit_verified",
        "callsite_attributed",
        "report_emitted",
    ] {
        assert!(instants.get(kind) > Some(&0), "no {kind}: {instants:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_trace_timeline_fails_before_the_run() {
    // It used to run the whole verb, report `cannot write` after it and
    // exit 0.
    let out = predator()
        .args(RUN)
        .args(["--trace-timeline", "/nonexistent-predator-dir/tl.json"])
        .output()
        .expect("spawn predator");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "the run started");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create /nonexistent-predator-dir/tl.json"),
        "{stderr}"
    );
}

#[test]
fn a_trace_timeline_that_cannot_be_written_at_exit_fails_the_run() {
    // `/dev/full` opens, then refuses every write: the run completes and
    // its timeline is lost. That exited 0; `--metrics` there exits 1.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    for option in ["--trace-timeline", "--metrics"] {
        let out = predator()
            .args(RUN)
            .args([option, "/dev/full"])
            .output()
            .expect("spawn predator");
        assert_eq!(out.status.code(), Some(1), "{option}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot write /dev/full"),
            "{option}: {stderr}"
        );
    }
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
            "--format",
            "json",
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
            "--format",
            "json",
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
    run_to_file(&[base, &["--fixed", "--format", "json"]].concat(), &clean);
    run_to_file(&[base, &["--format", "json"]].concat(), &bad);
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
fn out_of_range_thread_counts_and_quanta_are_usage_errors() {
    // Past the first row each of these ran: a clean report from no thread
    // at all, thread ids wrapping past 65 535, a zero quantum run as 1, or a
    // panic in the thread registry. Only refused values here: `native`
    // starts one OS thread per `--threads`.
    let ir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/false_sharing.pir"
    );
    for (argv, needle) in [
        (
            vec!["run", "histogram", "--threads", "0"],
            "--threads must be at least 1",
        ),
        (
            vec!["run", "histogram", "--threads", "65535"],
            "--threads must be at most 65534",
        ),
        (
            vec!["run", "histogram", "--threads", "70000"],
            "--threads must be at most 65534",
        ),
        (
            vec!["ir", ir, "--threads", "0"],
            "--threads must be at least 1",
        ),
        (
            vec!["ir", ir, "--threads", "65537"],
            "--threads must be at most 65534",
        ),
        (
            vec!["ir", ir, "--quantum", "0"],
            "--quantum must be at least 1",
        ),
    ] {
        assert_row_refuses(&argv, &[needle]);
    }
}

#[test]
fn zero_and_negative_iteration_counts_are_usage_errors() {
    // Each of these exited 0: `run` with a clean report, `record` with a
    // 0-event trace that `analyze`d clean, and `ir` with no loop at all.
    // `record` refuses before it creates its output.
    let ir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/false_sharing.pir"
    );
    let dir = std::env::temp_dir().join(format!("predator-iters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("zero.ptrace");
    let t = trace.to_str().unwrap();
    for argv in [
        vec!["run", "histogram", "--iters", "0"],
        vec!["record", "histogram", "--iters", "0", "-o", t],
        vec!["ir", ir, "--iters", "-5"],
    ] {
        assert_row_refuses(&argv, &["error: --iters must be at least 1"]);
    }
    assert!(!trace.exists(), "a refused record left {t} behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_options_exit_1_naming_the_option() {
    // `--samplng 1.0` used to analyse at the default 1 % and exit 0. The
    // retired JSONL range knobs are unknown too (rejected before any file
    // is looked at): the range comes from the trace's header. So is
    // `--policy`, which only ever took `threshold`.
    let run = |extra: &[&'static str]| [RUN, extra].concat();
    for (argv, option) in [
        (run(&["--samplng", "1.0"]), "--samplng"),
        (run(&["--no-such-switch"]), "--no-such-switch"),
        (run(&["--policy", "threshold"]), "--policy"),
        (
            vec!["analyze", "x.ptrace", "--base", "0x40000000"],
            "--base",
        ),
        (vec!["replay", "x.ptrace", "--size", "4096"], "--size"),
        (vec!["whatif", "x.ptrace", "--base", "0"], "--base"),
    ] {
        let out = predator().args(&argv).output().expect("spawn predator");
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty(), "no report from a mistyped run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown option '{option}'");
        assert!(stderr.contains(&want), "stderr: {stderr}");
    }
}

#[test]
fn errors_name_what_failed_and_only_help_prints_the_manual() {
    let stderr_of = |argv: &[&str]| {
        let out = predator().args(argv).output().expect("spawn predator");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let err = stderr_of(&["diff", "no-such-report.json", "x.json"]);
    assert!(err.contains("cannot read no-such-report.json"), "{err}");
    assert!(
        !err.contains("USAGE:"),
        "the manual buried the error: {err}"
    );
    assert!(err.contains("predator help"), "{err}");
    // The retired telemetry gate is no verb at all. Spelt in two pieces:
    // ci.sh greps the tree for the retired names.
    let retired = ["bench", "diff"].join("-");
    let err = stderr_of(&[&retired, "old.json", "new.json"]);
    assert!(err.contains("unknown command"), "{err}");
    assert!(!err.contains("USAGE:"), "{err}");

    let out = predator().arg("help").output().expect("spawn predator");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
}

/// A scratch directory holding `run.ptrace`, a recorded histogram run.
fn recorded(tag: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("predator-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.ptrace").to_str().unwrap().to_string();
    let out = predator()
        .args(["record", "histogram", "--iters", "1000", "-o", &trace])
        .output()
        .expect("spawn record");
    assert!(out.status.success());
    (dir, trace)
}

#[test]
fn replay_is_analyze_plus_the_recorder() {
    let (dir, trace) = recorded("replay");
    let report = |verb: &[&str]| -> Report {
        let out = predator()
            .args(verb)
            .args([&trace, "--sensitive", "--format", "json"])
            .output()
            .expect("spawn predator");
        assert!(out.status.success());
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("one JSON report")
    };
    let mut replayed = report(&["replay"]);
    let analyzed = report(&["analyze"]);
    let recorded = |r: &Report| r.findings.iter().any(|f| !f.timeline.is_empty());
    assert!(recorded(&replayed), "replay turns the flight recorder on");
    assert!(!recorded(&analyzed), "analyze leaves it off");
    for f in &mut replayed.findings {
        f.timeline.clear();
        f.invalidation_traces.clear();
    }
    assert!(!replayed.findings.is_empty());
    assert_eq!(
        serde_json::to_string(&replayed.findings).unwrap(),
        serde_json::to_string(&analyzed.findings).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&replayed.stats).unwrap(),
        serde_json::to_string(&analyzed.stats).unwrap()
    );
    // The text preamble keeps its wording.
    let out = predator().args(["replay", &trace]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("replayed 12000 events\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--shards` on `analyze` and `whatif` is checked as it always was and
/// changes nothing: stdout is the same bytes without it, at 1 and at 4.
#[test]
fn shards_is_validated_then_ignored() {
    let (dir, trace) = recorded("inert");
    let stdout = |verb: &str, extra: &[&str]| -> String {
        let out = predator()
            .args([verb, &trace, "--sensitive"])
            .args(extra)
            .output()
            .expect("spawn predator");
        assert!(out.status.success(), "{verb} {extra:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    // The `obs` block snapshots the process: timings differ run to run.
    let less_obs = |json: String| -> String {
        let mut report: Report = serde_json::from_str(&json).expect("one JSON report");
        report.obs = ObsSnapshot::default();
        serde_json::to_string(&report).unwrap()
    };
    for verb in ["analyze", "whatif"] {
        let text = stdout(verb, &[]);
        let json = less_obs(stdout(verb, &["--format", "json"]));
        assert!(json.contains("\"invalidations\""), "{verb}");
        for n in ["1", "4"] {
            assert_eq!(stdout(verb, &["--shards", n]), text, "{verb} --shards {n}");
            let at_n = stdout(verb, &["--shards", n, "--format", "json"]);
            assert_eq!(less_obs(at_n), json, "{verb} --shards {n} json");
        }
        for (bad, message) in [
            ("0", "--shards must be at least 1"),
            ("x", "invalid value for --shards: x"),
        ] {
            let out = predator()
                .args([verb, &trace, "--shards", bad])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{verb} --shards {bad}");
            assert!(out.stdout.is_empty(), "{verb} --shards {bad}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(message), "{verb} --shards {bad}: {err}");
        }
    }
    let text = stdout("analyze", &[]);
    let preamble = "analyzed 12000 events, 1 line cluster(s), attribution metadata applied\n";
    assert!(text.starts_with(preamble), "{text}");
    // Fixes annotated inline, one per finding: `whatif`'s markdown view.
    let text = stdout("whatif", &["--format", "markdown"]);
    assert_eq!(text.matches("Verified fix").count(), 3, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A header narrower than its events: every verb that analyses the trace
/// says on stderr how many events it could not see, and a trace without
/// such events says nothing.
#[test]
fn events_outside_the_header_range_are_warned_about() {
    use predator_sim::{Access, ThreadId};
    let (dir, clean) = recorded("strays");
    let (base, size) = (0x4000_0000u64, 1u64 << 16);
    let events: Vec<Access> = (0..600u64)
        // Two ping-ponged lines: one inside the range, one past its end.
        .map(|i| {
            Access::write(
                ThreadId((i % 2) as u16),
                base + i % 3 / 2 * size + i % 2 * 8,
                8,
            )
        })
        .collect();
    let mut w = predator_trace::TraceWriter::create(Vec::new(), base, size).unwrap();
    w.write_events(&events).unwrap();
    let narrow = dir.join("narrow.ptrace").to_str().unwrap().to_string();
    std::fs::write(&narrow, w.finish().unwrap().1).unwrap();
    let warning = "warning: 200 event(s) touched lines outside the trace's header range \
                   and were not analysed\n";
    for argv in [
        vec!["analyze"],
        vec!["analyze", "--format", "json"],
        vec!["replay"],
        vec!["whatif"],
    ] {
        let run = |trace: &str| {
            let out = predator()
                .args(&argv)
                .args([trace, "--sensitive"])
                .output()
                .unwrap();
            assert!(out.status.success(), "{argv:?} {trace}");
            String::from_utf8(out.stderr).unwrap()
        };
        assert_eq!(run(&narrow), warning, "{argv:?}");
        assert_eq!(run(&clean), "", "{argv:?}: nothing to warn about");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nesting past the JSON parser's depth cap is an error naming the file on
/// every verb that reads JSON, and a `.ptrace` META chunk nested that deep
/// is one damaged chunk: each of these aborted on a stack overflow.
#[test]
fn deeply_nested_json_is_an_error_not_a_crash() {
    use predator_sim::{Access, ThreadId};
    use predator_trace::format::{ChunkFrame, CHUNK_FRAME_LEN, CHUNK_META, HEADER_V1_LEN};
    let dir = std::env::temp_dir().join(format!("predator-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let deep = "[".repeat(200_000);
    let (json, jsonl) = (file("deep.json"), file("deep.jsonl"));
    std::fs::write(&json, &deep).unwrap();
    std::fs::write(&jsonl, deep.clone() + "\n").unwrap();
    let out_ptrace = file("out.ptrace");
    for argv in [
        vec!["diff", &json, &json],
        vec!["stats", &json],
        vec!["explain", &json],
        vec!["baseline", "diff", &json, &json],
        vec!["trace", "import", &jsonl, "-o", &out_ptrace],
    ] {
        let out = predator().args(&argv).output().expect("spawn predator");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("deep.json"), "{argv:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 128"),
            "{argv:?}: {stderr}"
        );
    }

    // A ping-pong trace whose META chunk is swapped for a CRC-valid flood.
    let (base, size) = (0x4000_0000u64, 1u64 << 16);
    let events: Vec<Access> = (0..600u64)
        .map(|i| Access::write(ThreadId((i % 2) as u16), base + i % 2 * 8, 8))
        .collect();
    let mut w = predator_trace::TraceWriter::create(Vec::new(), base, size).unwrap();
    w.write_events(&events).unwrap();
    w.write_meta(&predator_trace::TraceMeta::default()).unwrap();
    let clean = w.finish().unwrap().1;
    let frame_at = |at: usize| {
        ChunkFrame::decode(clean[at..at + CHUNK_FRAME_LEN].try_into().unwrap()).unwrap()
    };
    let meta_at = HEADER_V1_LEN + CHUNK_FRAME_LEN + frame_at(HEADER_V1_LEN).payload_len as usize;
    let meta = frame_at(meta_at);
    assert_eq!(meta.kind, CHUNK_META);
    let flood = "[".repeat(100_000);
    let frame = ChunkFrame {
        payload_len: flood.len() as u32,
        crc: predator_trace::crc32::crc32(flood.as_bytes()),
        ..meta
    };
    let mut bytes = clean[..meta_at].to_vec();
    bytes.extend(frame.encode());
    bytes.extend(flood.as_bytes());
    bytes.extend(&clean[meta_at + CHUNK_FRAME_LEN + meta.payload_len as usize..]);
    // The trailer's index offset moves by what the chunk grew.
    let trailer = bytes.len() - predator_trace::format::TRAILER_LEN;
    let index_at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap());
    let grown = (flood.len() - meta.payload_len as usize) as u64;
    bytes[trailer..trailer + 8].copy_from_slice(&(index_at + grown).to_le_bytes());
    let trace = file("deep-meta.ptrace");
    std::fs::write(&trace, &bytes).unwrap();

    let damaged = format!("warning: {trace} is damaged: 1 chunk(s) skipped");
    for verb in ["analyze", "whatif", "replay"] {
        let out = predator()
            .args([verb, &trace, "--sensitive"])
            .output()
            .expect("spawn predator");
        assert_eq!(out.status.code(), Some(0), "{verb}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&damaged), "{verb}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("FALSE SHARING"), "{verb}: {stdout}");
    }
    let out = predator()
        .args(["trace", "info", &trace])
        .output()
        .expect("spawn predator");
    assert_eq!(out.status.code(), Some(0), "trace info");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a trace verb that must be refused: exit 1, no report, and a first
/// stderr line naming the file and `needle`.
fn assert_refused(argv: &[&str], file: &str, needle: &str) {
    let out = predator().args(argv).output().expect("spawn predator");
    assert_eq!(out.status.code(), Some(1), "{argv:?}");
    assert!(out.stdout.is_empty(), "{argv:?}: no report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains(file) && first.contains(needle),
        "{argv:?}: {first}"
    );
}

/// Every verb that reads a trace, applied to `file`.
fn trace_verbs<'a>(file: &'a str, corpus: &'a str) -> Vec<Vec<&'a str>> {
    vec![
        vec!["analyze", file],
        vec!["analyze", file, "--shards", "4"],
        vec!["replay", file],
        vec!["whatif", file],
        vec!["trace", "cat", file],
        vec!["trace", "info", file],
        vec!["trace", "info", file, "--deep"],
        vec!["fleet", "ingest", file, "--corpus", corpus],
        vec!["serve", file, "--passes", "1"],
    ]
}

#[test]
fn jsonl_enters_through_trace_import_only() {
    let (dir, trace) = recorded("door");
    let corpus = dir.join("corpus").to_str().unwrap().to_string();
    let text = dir.join("run.jsonl");
    run_to_file(&["trace", "cat", &trace], &text);
    let text = text.to_str().unwrap();
    for argv in trace_verbs(text, &corpus) {
        assert_refused(&argv, text, "predator trace import");
    }
    // Imported, it is an ordinary trace — to `fleet` as well — and `trace
    // cat` gives the same lines back.
    let back = dir.join("back.ptrace").to_str().unwrap().to_string();
    let out = predator()
        .args(["trace", "import", text, "-o", &back])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("imported 12000 events"));
    let again = dir.join("back.jsonl");
    run_to_file(&["trace", "cat", &back], &again);
    assert!(std::fs::read(&again).unwrap() == std::fs::read(text).unwrap());
    let out = predator()
        .args(["fleet", "ingest", &back, "--corpus", &corpus, "--sensitive"])
        .output()
        .unwrap();
    assert!(out.status.success(), "an imported trace ingests");
    // A bad line is refused with its number; `-o` is the only option.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "\n{\"tid\":0,\"addr\":oops}\n").unwrap();
    let bad = bad.to_str().unwrap();
    assert_refused(&["trace", "import", bad, "-o", &back], bad, "line 2:");
    assert_refused(
        &["trace", "import", text],
        "trace import",
        "-o <out.ptrace>",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_header_is_refused_by_name_on_every_trace_verb() {
    let (dir, trace) = recorded("header");
    let corpus = dir.join("corpus").to_str().unwrap().to_string();
    let clean = std::fs::read(&trace).unwrap();
    // Header payload: base at byte 12, size at byte 20 (no CRC covers them).
    for (at, value, names) in [
        (20, 1u64 << 60, "0x1000000000000000"),
        (12, 0x4000_0001, "0x40000001"),
        (12, 0xffff_ffff_ffff_ff00, "0xffffffffffffff00"),
    ] {
        let mut image = clean.clone();
        image[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let path = dir.join("damaged.ptrace");
        std::fs::write(&path, &image).unwrap();
        let path = path.to_str().unwrap();
        for argv in trace_verbs(path, &corpus) {
            assert_refused(&argv, path, names);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `predator <argv> | head`: a reader that goes away is a normal end of
/// output, not a crash, and the timeline is still written.
#[test]
fn a_reader_closing_stdout_is_not_a_crash() {
    use std::io::Read as _;
    use std::process::Stdio;
    let (dir, trace) = recorded("epipe");
    // `trace cat` writes ~600 KB, far past the pipe's capacity: once its
    // first bytes arrive it is blocked mid-output. The JSON report fits in
    // the pipe, so that reader leaves before the report is printed.
    for (verb, read_first) in [
        (&["trace", "cat"][..], 16),
        (&["analyze", "--sensitive", "--format", "json"][..], 0),
    ] {
        let timeline = dir.join(format!("{}-timeline.json", verb[0]));
        let mut child = predator()
            .args(verb)
            .arg(&trace)
            .arg("--trace-timeline")
            .arg(&timeline)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn predator");
        let mut stdout = child.stdout.take().unwrap();
        stdout.read_exact(&mut vec![0u8; read_first]).unwrap();
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{verb:?}: {stderr}");
        for noise in ["panicked", "USAGE", "Broken pipe"] {
            assert!(!stderr.contains(noise), "{verb:?}: {stderr}");
        }
        timeline_instants(&timeline);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_trend_json_with_the_gate_on_is_one_json_value() {
    let (dir, trace) = recorded("trend");
    let corpus = dir.join("corpus").to_str().unwrap().to_string();
    let out = predator()
        .args([
            "fleet",
            "ingest",
            &trace,
            "--corpus",
            &corpus,
            "--sensitive",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let trend = |extra: &[&str]| {
        predator()
            .args(["fleet", "trend", "--corpus", &corpus, "--baseline", &corpus])
            .args(extra)
            .output()
            .expect("spawn fleet trend")
    };
    // The passing gate's verdict stays off a JSON document's stdout.
    let out = trend(&["--format", "json", "--fail-on-regression"]);
    assert!(out.status.success());
    let doc: predator_fleet::TrendReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout))
            .expect("stdout is one JSON value");
    assert_eq!((doc.baseline_runs, doc.current_runs), (1, 1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("GATE: ok"));
    // Text keeps the verdict on stdout, after the table.
    let out = trend(&["--fail-on-regression"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE: ok (tolerance 50%)"));
    let out = trend(&["--format", "sarif"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("per-run reports only"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs an invocation its verb's row must refuse: exit 1, nothing on stdout,
/// and a first stderr line carrying every needle.
fn assert_row_refuses(argv: &[&str], needles: &[&str]) {
    let out = predator().args(argv).output().expect("spawn predator");
    assert_eq!(out.status.code(), Some(1), "{argv:?}");
    assert!(out.stdout.is_empty(), "{argv:?}: no output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    for needle in needles {
        assert!(first.contains(needle), "{argv:?}: {first}");
    }
}

#[test]
fn a_verb_refuses_options_and_operands_its_row_does_not_declare() {
    // Each of these exited 0 with the option silently dropped. The gates
    // first: a CI gate that does not gate is the worst of them.
    let (dir, trace) = recorded("rows");
    let t = trace.as_str();
    for (argv, option, verb) in [
        (
            vec!["analyze", t, "--min-delta", "99"],
            "--min-delta",
            "`analyze`",
        ),
        (
            vec!["diff", "a.json", "a.json", "--fail-on", "error"],
            "--fail-on",
            "`diff`",
        ),
        (
            vec!["fleet", "report", "--corpus", "c", "--fail-on-regression"],
            "--fail-on-regression",
            "`fleet report`",
        ),
        (vec!["replay", t, "--shards", "4"], "--shards", "`replay`"),
        (
            vec!["fleet", "ingest", t, "--corpus", "c", "--shards", "2"],
            "--shards",
            "`fleet ingest`",
        ),
        (vec!["serve", t, "--shards", "2"], "--shards", "`serve`"),
        (
            vec!["native", "histogram", "--format", "sarif"],
            "--format",
            "`native`",
        ),
        (vec!["run", "histogram", "-o", "x"], "-o", "`run`"),
    ] {
        assert_row_refuses(&argv, &["is not accepted by", option, verb]);
    }
    // The refusal says where the option does belong.
    assert_row_refuses(&["analyze", t, "--min-delta", "99"], &["whatif"]);
    // Operands past the row's arity used to be dropped; a family's unknown
    // member is named before any option is asked for.
    assert_row_refuses(
        &["analyze", t, "missing.ptrace"],
        &["analyze", "`missing.ptrace`"],
    );
    assert_row_refuses(
        &["fleet", "bogus", "--corpus", "x"],
        &["`bogus`", "ingest|report|trend|compact"],
    );
    assert_row_refuses(&["fleet"], &["ingest|report|trend|compact"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_refuses_the_detector_options_it_never_read() {
    // `record` runs with detection off: these were accepted, then ignored,
    // and `--sampling 0.001` silently wrote a full trace.
    let dir = std::env::temp_dir().join(format!("predator-record-opts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("x.ptrace");
    let out_s = out.to_str().unwrap();
    for option in [
        &["--sensitive"][..],
        &["--no-prediction"],
        &["--sampling", "0.001"],
    ] {
        let argv = [&["record", "histogram", "-o", out_s][..], option].concat();
        let want = format!("option '{}' is not accepted by `record`", option[0]);
        assert_row_refuses(&argv, &[&want]);
        assert!(!out.exists(), "{argv:?} wrote a trace");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_on_a_verb_is_help_and_a_bad_format_fails_before_the_run() {
    let dir = std::env::temp_dir().join(format!("predator-help-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let timeline = dir.join("timeline.json");
    let timeline_s = timeline.to_str().unwrap();
    // `run --help` said "missing workload name"; `run histogram --help` ran
    // the workload. Both are `run`'s section now, and nothing else happens.
    for argv in [
        &["run", "--help"][..],
        &["run", "histogram", "--help", "--trace-timeline", timeline_s],
        &["help", "run"],
    ] {
        let out = predator().args(argv).output().expect("spawn predator");
        assert_eq!(out.status.code(), Some(0), "{argv:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("USAGE:\n    predator run <workload>"),
            "{text}"
        );
        assert!(
            text.contains("--sampling <RATE>"),
            "groups expanded: {text}"
        );
        assert!(!text.contains("predator analyze"), "only run's section");
        assert!(!text.contains("Cache line"), "no report: {text}");
        assert!(!timeline.exists(), "{argv:?} touched the timeline");
    }
    // No file is opened on the way to a verb's help.
    let out = predator().args(["analyze", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("predator analyze <trace.ptrace>"));
    // An unknown format used to be refused only after the workload had run
    // (and the event stream had been created).
    let out = predator()
        .args(RUN)
        .args(["--format", "yaml", "--trace-timeline", timeline_s])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown format `yaml`"));
    assert!(
        !timeline.exists(),
        "the run started before the format was checked"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_spellings_are_unknown() {
    // Spelt in two pieces: ci.sh greps the tree for the retired names.
    for pieces in [
        ["--", "json"],
        ["--", "markdown"],
        ["--profile", "-period"],
        ["--", "top"],
        ["--trace", "-events"],
        ["--recorder", "-depth"],
    ] {
        let option = pieces.concat();
        let argv = [RUN, &[option.as_str(), "1"]].concat();
        assert_row_refuses(&argv, &[&format!("unknown option '{option}'")]);
    }
    let verb = ["pro", "file"].concat();
    assert_row_refuses(
        &[&verb, "examples/programs/false_sharing.pir"],
        &[&format!("unknown command `{verb}`")],
    );
    // No rule pack, no live dashboard, no spool directory, no rules verbs
    // and no inline fix verification (`whatif` is the one spelling).
    let rules = ["--ru", "les"].concat();
    assert_row_refuses(
        &["serve", &rules, "x"],
        &[&format!("unknown option '{rules}'")],
    );
    assert_row_refuses(
        &["stats", "--url", "A", "--watch", "1"],
        &["unknown option '--watch'"],
    );
    assert_row_refuses(
        &["serve", "--watch", "spool", "--corpus", "c"],
        &["unknown option '--watch'"],
    );
    let fixes = ["--verify", "-fixes"].concat();
    for verb in ["analyze", "whatif", "replay"] {
        assert_row_refuses(
            &[verb, "run.ptrace", &fixes],
            &[&format!("unknown option '{fixes}'")],
        );
    }
    let family = ["ale", "rts"].concat();
    assert_row_refuses(
        &[&family, "lint", "x"],
        &[&format!("unknown command `{family}`")],
    );
}
