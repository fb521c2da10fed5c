//! The verdict corpus: what the CLI prints for every Table-1 workload,
//! pinned to a length and a CRC-32 per output in `tests/golden/verdicts.tsv`.
//!
//! Each workload is recorded in process at seed 42 (Broken, 4 and 3
//! threads), the way `predator record` writes a `.ptrace`, and then put
//! through the verbs the way their handlers do it:
//!
//! - `analyze`, default and `--sensitive`, as text (with the preamble line)
//!   and as JSON;
//! - `whatif --sensitive` in all five formats;
//! - `run --sensitive` and `replay --sensitive` with the flight recorder on
//!   at its CLI depth, as JSON, at 4 and at 3 threads: these reports embed
//!   the per-line rings' timelines and invalidation traces, and the
//!   two-victim events of 3 and 4 threads wrap the rings.
//!
//! Synthetic feeds add what the workloads never embed in a finding: a write
//! that invalidates two threads at once. In `bookends tN`, the first and the
//! last of N threads write their own word of one line and the ones between
//! read theirs, round robin: every last write knocks out a writer and a
//! reader, and N + 1 records a round (5, 6, 7) wrap a 64-record ring with
//! those pairs at every phase. A seeded `RandomMix` adds irregular ones. All
//! go through a detector with the recorder on.
//!
//! JSON is compared without its `obs` block (process-global telemetry that
//! accumulates across the tests of a binary). A moved output names its case
//! and is written to `target/verdicts/`; `GOLDEN_BLESS=1` rewrites the file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use predator::core::{build_report, DetectorConfig, ObsSnapshot, Predator, Report, Session};
use predator::obs::recorder::{recorder, DEFAULT_DEPTH};
use predator::policy::{evaluate_report, to_html, to_sarif_string, PolicyConfig};
use predator::sim::interleave::{interleave, Schedule, Script};
use predator::sim::patterns::{generate, Pattern};
use predator::sim::{Access, ThreadId};
use predator::trace::crc32::crc32;
use predator::trace::{
    analyze_file, whatif_events, AnalyzeConfig, TraceMeta, TraceReader, TraceSink, WhatIfFix,
};
use predator::workloads::{all, run_and_report, Variant, WorkloadConfig};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Iterations per workload: the sizes `recorded_bytes_are_pinned` records.
fn iters(name: &str) -> u64 {
    match name {
        "histogram" => 1_000,
        "kmeans" | "blackscholes" | "aget" | "pbzip2" => 1_024,
        "linear_regression" | "string_match" => 500,
        "matrix_multiply" | "ferret" | "fluidanimate" => 128,
        "pca" => 100,
        "reverse_index" | "word_count" | "dedup" | "swaptions" | "boost" | "memcached" => 300,
        "bodytrack" => 512,
        "streamcluster" | "mysql" => 200,
        "pfscan" => 640,
        other => panic!("no pinned size for workload {other}"),
    }
}

/// `--sensitive` or the default, as `args::detector_config` builds them.
fn detector(sensitive: bool) -> DetectorConfig {
    let det = if sensitive {
        DetectorConfig::sensitive()
    } else {
        DetectorConfig::paper()
    };
    det.with_sampling_rate(det.sampling_rate())
}

/// `predator record`: detection off, the pre-filter stream tapped.
fn record(name: &str, threads: usize, path: &Path) {
    let session = Session::with_config(DetectorConfig::disabled());
    let file = std::fs::File::create(path).unwrap();
    let sink = Arc::new(
        TraceSink::create(
            std::io::BufWriter::new(file),
            session.space().base(),
            session.space().size(),
        )
        .unwrap(),
    );
    session.runtime().install_tap(sink.clone()).unwrap();
    let w = predator::workloads::by_name(name).unwrap();
    w.run_tracked(&session, &config(name, threads));
    let meta = TraceMeta::capture(session.runtime(), session.heap());
    sink.finish(&meta).unwrap();
}

fn config(name: &str, threads: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        iters: iters(name),
        seed: 42,
        variant: Variant::Broken,
    }
}

/// The report as the verbs hand it to a renderer, `obs` left out.
fn normalized(mut report: Report) -> Report {
    report.obs = ObsSnapshot::default();
    report
}

/// `Format::render` plus `println!`, for one format name.
fn render(format: &str, report: &Report, det: &DetectorConfig) -> String {
    let eval = evaluate_report(report, &PolicyConfig::default());
    let body = match format {
        "json" => report.to_json(),
        "markdown" => report.to_markdown(),
        "sarif" => to_sarif_string(report, &eval, det.geometry),
        "html" => to_html(report, &eval, det.geometry),
        "text" => report.to_string(),
        other => panic!("unknown format {other}"),
    };
    body + "\n"
}

/// Runs `f` with the flight recorder on at the CLI's depth: the detector
/// `f` builds records.
fn with_recorder<T>(f: impl FnOnce() -> T) -> T {
    recorder().enable(DEFAULT_DEPTH);
    let out = f();
    recorder().disable();
    out
}

/// Every case of one workload, in a fixed order: `(case, output)`.
fn cases(name: &str, dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let traces: Vec<(usize, PathBuf)> = [4usize, 3]
        .into_iter()
        .map(|threads| {
            let path = dir.join(format!("{name}-{threads}.ptrace"));
            record(name, threads, &path);
            (threads, path)
        })
        .collect();
    let four = &traces[0].1;

    for (label, sensitive) in [("default", false), ("sensitive", true)] {
        let det = detector(sensitive);
        let a = analyze_file(four, &AnalyzeConfig { det }, 0, 0).unwrap();
        let mut text = format!(
            "analyzed {} events, {} line cluster(s)",
            a.events, a.clusters
        );
        if a.meta_applied {
            text.push_str(", attribution metadata applied");
        }
        text.push('\n');
        let report = normalized(a.report);
        text += &render("text", &report, &det);
        out.push((format!("{name}\tanalyze {label}\ttext"), text));
        out.push((
            format!("{name}\tanalyze {label}\tjson"),
            render("json", &report, &det),
        ));
    }

    let det = detector(true);
    let mut r = TraceReader::open(four).unwrap();
    let (base, size) = (r.base(), r.size());
    let events = r.collect_events();
    let meta = r.take_meta();
    let w = whatif_events(
        &events,
        base,
        size,
        meta.as_ref(),
        &AnalyzeConfig { det },
        &WhatIfFix::Suggested,
    );
    let report = normalized(w.report.clone());
    for format in ["text", "json", "markdown", "sarif", "html"] {
        let printed = match format {
            "text" => w.to_text(),
            _ => render(format, &report, &det),
        };
        out.push((format!("{name}\twhatif sensitive\t{format}"), printed));
    }

    let workload = predator::workloads::by_name(name).unwrap();
    for (threads, path) in &traces {
        let live =
            with_recorder(|| run_and_report(workload.as_ref(), det, &config(name, *threads)));
        out.push((
            format!("{name}\trun sensitive t{threads}\tjson"),
            render("json", &normalized(live), &det),
        ));
        let replay = with_recorder(|| analyze_file(path, &AnalyzeConfig { det }, 0, 0).unwrap());
        out.push((
            format!("{name}\treplay sensitive t{threads}\tjson"),
            render("json", &normalized(replay.report), &det),
        ));
    }
    for (_, path) in traces {
        std::fs::remove_file(path).ok();
    }
    out
}

/// The synthetic feeds: `(case, report JSON)` each, recorder on.
fn pattern_cases() -> Vec<(String, String)> {
    const BASE: u64 = 0x4000_0000;
    let det = detector(true);
    let mut feeds: Vec<(String, Script, Schedule)> = (4..=6)
        .map(|threads| {
            let mut script = Script::new(threads);
            for t in 0..threads {
                let (tid, addr) = (ThreadId(t as u16), BASE + t as u64 * 8);
                for _ in 0..400 {
                    let a = match t {
                        0 => Access::write(tid, addr, 8),
                        t if t == threads - 1 => Access::write(tid, addr, 8),
                        _ => Access::read(tid, addr, 8),
                    };
                    script.push(t, a);
                }
            }
            (
                format!("bookends t{threads}"),
                script,
                Schedule::RoundRobin { quantum: 1 },
            )
        })
        .collect();
    let mix = Pattern::RandomMix {
        threads: 4,
        base: BASE,
        lines: 2,
        write_pct: 30,
        seed: 7,
    };
    let mix = generate(mix, 400);
    feeds.push(("random_mix t4".into(), mix, Schedule::Seeded(42)));
    feeds
        .into_iter()
        .map(|(label, script, schedule)| {
            let report = with_recorder(|| {
                let rt = Predator::new(det, BASE, 1 << 20);
                for a in interleave(&script, schedule) {
                    rt.handle_access(a.tid, a.addr, a.size, a.kind);
                }
                build_report(&rt, None)
            });
            let case = format!("pattern\t{label} sensitive\tjson");
            (case, render("json", &normalized(report), &det))
        })
        .collect()
}

#[test]
fn verdicts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("predator-verdicts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut got = String::new();
    let mut outputs = Vec::new();
    let workloads = all().into_iter().flat_map(|w| cases(w.name(), &dir));
    for (case, text) in workloads.chain(pattern_cases()) {
        let crc = crc32(text.as_bytes());
        writeln!(got, "{case}\t{}\t{crc:#010x}", text.len()).unwrap();
        outputs.push((case, text));
    }
    std::fs::remove_dir_all(&dir).ok();

    let tsv = repo_path("tests/golden/verdicts.tsv");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&tsv, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&tsv).expect("tests/golden/verdicts.tsv exists");
    let want: Vec<&str> = want.lines().collect();
    let mut moved = Vec::new();
    for (line, (case, text)) in got.lines().zip(&outputs) {
        if !want.contains(&line) {
            let file = case.replace(['\t', ' '], "_");
            let dump = repo_path("target/verdicts").join(file);
            std::fs::create_dir_all(dump.parent().unwrap()).ok();
            std::fs::write(&dump, text).ok();
            moved.push(format!("{line}   (output in {})", dump.display()));
        }
    }
    assert!(moved.is_empty(), "verdicts moved:\n{}", moved.join("\n"));
    assert_eq!(
        got.lines().count(),
        want.len(),
        "the corpus gained or lost a case"
    );
}
