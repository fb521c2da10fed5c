//! Golden-report corpus: full reports for the `examples/programs` IR
//! workloads and the canonical synthetic patterns, pinned byte-for-byte.
//!
//! Every case runs the detector over a fully deterministic feed
//! (round-robin IR scheduling / seeded interleavings), normalises the
//! process-global observability snapshot out of the report, and compares
//! the pretty-printed JSON against `tests/golden/<case>.json` exactly. Any
//! change to classification, ranking, attribution, counters, or
//! serialisation shows up as a diff — intentional changes are blessed with
//! `scripts/golden.sh --bless`.

use std::path::{Path, PathBuf};

use predator::core::{build_report, DetectorConfig, Predator};
use predator::core::{ObsSnapshot, Report};
use predator::instrument::{
    instrument_module, parse_module, InstrumentOptions, Machine, StepSchedule, ThreadSpec,
};
use predator::sim::interleave::{interleave, Schedule};
use predator::sim::patterns::{generate, Pattern};
use predator::sim::ThreadId;
use predator_shadow::SimSpace;

const BASE: u64 = 0x4000_0000;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `predator ir examples/programs/false_sharing.pir` with a fixed
/// round-robin quantum: 2 worker threads, `stride` bytes apart.
fn ir_report(stride: u64) -> Report {
    let text = std::fs::read_to_string(repo_path("examples/programs/false_sharing.pir"))
        .expect("example program exists");
    let mut module = parse_module(&text).expect("example parses");
    instrument_module(&mut module, &InstrumentOptions::default());

    let det = DetectorConfig::sensitive();
    let space = SimSpace::new(1 << 20);
    let rt = Predator::for_space(det, &space);
    let machine = Machine::new(&module, &space, &rt).expect("machine builds");
    let specs: Vec<ThreadSpec> = (0..2)
        .map(|t| ThreadSpec {
            tid: ThreadId(t as u16),
            function: "worker".into(),
            args: vec![(space.base() + t as u64 * stride) as i64, 2_000],
        })
        .collect();
    machine
        .run(&specs, StepSchedule::RoundRobin { quantum: 7 }, 1 << 32)
        .expect("program terminates");
    normalized(build_report(&rt, None))
}

fn pattern_report(pattern: Pattern, schedule: &Schedule) -> Report {
    let det = DetectorConfig::sensitive();
    let rt = Predator::new(det, BASE, 1 << 20);
    for a in interleave(&generate(pattern, 400), schedule) {
        rt.handle_access(a.tid, a.addr, a.size, a.kind);
    }
    normalized(build_report(&rt, None))
}

/// Golden bytes must not depend on process-global observability counters,
/// which accumulate across the tests sharing this binary.
fn normalized(mut report: Report) -> Report {
    report.obs = ObsSnapshot::default();
    report
}

/// Byte-for-byte check against `tests/golden/<name>.json`, or refresh it
/// when `GOLDEN_BLESS` is set (`scripts/golden.sh --bless`).
fn check_golden(name: &str, report: &Report) {
    let dir = repo_path("tests/golden");
    let path = dir.join(format!("{name}.json"));
    let mut got = serde_json::to_string_pretty(report).expect("reports serialise");
    got.push('\n');
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run scripts/golden.sh --bless",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "[{name}] report drifted from {}; if intended, run scripts/golden.sh --bless",
        path.display()
    );
}

#[test]
fn ir_false_sharing_stride8_observed() {
    check_golden("ir_false_sharing_stride8", &ir_report(8));
}

#[test]
fn ir_false_sharing_stride64_latent() {
    check_golden("ir_false_sharing_stride64", &ir_report(64));
}

#[test]
fn ir_false_sharing_stride0_true_sharing() {
    check_golden("ir_false_sharing_stride0", &ir_report(0));
}

#[test]
fn pattern_ping_pong_round_robin() {
    check_golden(
        "pattern_ping_pong",
        &pattern_report(
            Pattern::PingPong {
                threads: 4,
                base: BASE,
            },
            &Schedule::RoundRobin,
        ),
    );
}

#[test]
fn pattern_reader_writer_seeded() {
    check_golden(
        "pattern_reader_writer",
        &pattern_report(
            Pattern::ReaderWriter {
                threads: 3,
                base: BASE,
            },
            &Schedule::Seeded(229),
        ),
    );
}

#[test]
fn pattern_striped_predicted_only() {
    check_golden(
        "pattern_striped64",
        &pattern_report(
            Pattern::Striped {
                threads: 4,
                base: BASE,
                stride: 64,
            },
            &Schedule::RoundRobin,
        ),
    );
}
