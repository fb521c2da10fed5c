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

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::RwLock;

use predator::core::{build_report, DetectorConfig, Predator, Session, UnitKind};
use predator::core::{Finding, FindingKind, ObsSnapshot, Report, SharingClass, SiteKind};
use predator::instrument::{
    instrument_module, parse_module, InstrumentOptions, Machine, ThreadSpec,
};
use predator::sim::interleave::{interleave, Schedule};
use predator::sim::patterns::{generate, Pattern};
use predator::sim::{Access, ThreadId};
use predator::trace::{analyze_file, AnalyzeConfig, TraceMeta, TraceWriter};
use predator::{Callsite, Frame};
use predator_obs::recorder::recorder;
use predator_shadow::SimSpace;

const BASE: u64 = 0x4000_0000;

/// The recorder switch is process-global and a detector reads it when it
/// is built: the recorder-on cases hold this exclusively while they build
/// theirs, every other case shares it.
static RECORDER: RwLock<()> = RwLock::new(());

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `predator ir examples/programs/false_sharing.pir` with a fixed
/// round-robin quantum: 2 worker threads, `stride` bytes apart.
fn ir_report(stride: u64) -> Report {
    let _recorder_off = RECORDER.read().unwrap_or_else(|e| e.into_inner());
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
        .run(&specs, Schedule::RoundRobin { quantum: 7 }, 1 << 32)
        .expect("program terminates");
    normalized(build_report(&rt, None))
}

fn pattern_report(pattern: Pattern, schedule: Schedule) -> Report {
    let _recorder_off = RECORDER.read().unwrap_or_else(|e| e.into_inner());
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
            Schedule::RoundRobin { quantum: 1 },
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
            Schedule::Seeded(229),
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
            Schedule::RoundRobin { quantum: 1 },
        ),
    );
}

/// What no pattern or IR case reaches: every attribution source (two heap
/// callsites, an empty callsite, a global backed by heap storage, memory
/// nothing owns), an object whose lines classify differently, multi-line
/// and multi-unit objects, 4x-line prediction and an object with remap
/// units at several deltas. Returns the session (whose heap and globals attribute the live
/// report and become the trace's META) and the scripted event stream.
fn attribution_fixture() -> (Session, Vec<Access>) {
    let det = DetectorConfig {
        max_scale_log2: 2,
        ..DetectorConfig::sensitive()
    };
    let s = Session::new(det, 1 << 20);
    let t: Vec<ThreadId> = (0..4).map(|_| s.register_thread()).collect();
    let site = |file: &str, line| {
        Callsite::from_frames(vec![Frame::new(file, line), Frame::new("main.c", 1)])
    };
    let alloc = |size, callsite| s.malloc(t[0], size, callsite).unwrap().start;
    let wide = alloc(256, site("gamma.c", 30));
    let multi = alloc(256, site("alpha.c", 10));
    let mixed = alloc(128, site("beta.c", 20));
    let anon = alloc(64, Callsite::from_frames(vec![]));
    let global = s.global("g_counters", 64);
    let latent = alloc(192, site("delta.c", 40));
    let nobody = s.space().base() + (1 << 19);
    assert!(s.heap().object_at(nobody).is_none());

    let w = Access::write;
    let round = [
        // Latent pairs across two line boundaries of one object: two
        // units per predicted scenario, one finding each.
        w(t[2], wide + 56, 8),
        w(t[3], wide + 64, 8),
        w(t[2], wide + 184, 8),
        w(t[3], wide + 192, 8),
        // Two reportable lines of one object, false sharing on both.
        w(t[0], multi, 8),
        w(t[1], multi + 8, 8),
        w(t[0], multi + 128, 8),
        w(t[1], multi + 136, 8),
        // False sharing on one line, true sharing on the next: Mixed.
        w(t[0], mixed, 8),
        w(t[1], mixed + 8, 8),
        w(t[0], mixed + 64, 8),
        w(t[1], mixed + 64, 8),
        w(t[2], anon, 8),
        Access::read(t[3], anon + 8, 8),
        w(t[0], global, 8),
        w(t[1], global + 8, 8),
        // Three writers around a line boundary: observed on the first
        // line, and hot pairs across the boundary at two distances.
        w(t[1], latent + 40, 8),
        w(t[2], latent + 56, 8),
        w(t[3], latent + 72, 8),
        w(t[2], nobody, 8),
        w(t[3], nobody + 8, 8),
    ];
    let events = (0..150).flat_map(|_| round).collect();
    (s, events)
}

fn site_names(report: &Report) -> Vec<String> {
    let mut names: Vec<String> = report
        .findings
        .iter()
        .flat_map(|f| f.invalidation_traces.iter().map(|t| t.site.clone()))
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Live `Session` (its `TrackedHeap` attributes) with the recorder on.
#[test]
fn attribution_live_session() {
    let _recorder_on = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    recorder().enable(4);
    let (s, events) = attribution_fixture();
    recorder().disable();
    for a in &events {
        s.runtime().handle_access(a.tid, a.addr, a.size, a.kind);
    }
    let report = normalized(s.report());

    // The fixture must keep reaching what it exists to pin.
    let mut deltas_by_object = BTreeMap::<u64, BTreeSet<u64>>::new();
    for u in s.runtime().unit_snapshots() {
        if let (UnitKind::Remap { delta }, Some(o)) =
            (u.key.kind, s.heap().object_at(u.origin.x.addr))
        {
            deltas_by_object.entry(o.start).or_default().insert(delta);
        }
    }
    assert!(
        deltas_by_object.values().any(|deltas| deltas.len() >= 2),
        "no object has remap units at two deltas: {deltas_by_object:?}"
    );
    let has = |p: fn(&Finding) -> bool| report.findings.iter().any(p);
    assert!(has(|f| f.class == SharingClass::Mixed));
    assert!(has(|f| matches!(
        f.kind,
        FindingKind::PredictedScaled { .. }
    )));
    assert!(has(|f| f.object.label() == "g_counters"));
    assert!(has(
        |f| matches!(&f.object.site, SiteKind::Heap { callsite, .. } if callsite.frames.is_empty())
    ));
    assert!(has(|f| f.object.site == SiteKind::Unknown));
    let sites = site_names(&report);
    for want in ["alpha.c:10", "beta.c:20", "delta.c:40", "g_counters", "0x"] {
        assert!(
            sites.iter().any(|s| s.starts_with(want)),
            "{want}: {sites:?}"
        );
    }
    check_golden("attribution", &report);
}

/// The same events through a `.ptrace` whose META chunk carries the
/// session's heap and globals (`Attribution::Directory`): the
/// recorder-on replay differs from the plain analysis only by the flight
/// data it embeds, and it is the live session's report to the byte
/// (both cases read `attribution.json`).
#[test]
fn attribution_ptrace_directory() {
    let _recorder_on = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    let (s, events) = attribution_fixture();
    let mut w = TraceWriter::create(Vec::new(), s.space().base(), s.space().size()).unwrap();
    for chunk in events.chunks(500) {
        w.write_events(chunk).unwrap();
    }
    w.write_meta(&TraceMeta::capture(s.runtime(), s.heap()))
        .unwrap();
    let path = std::env::temp_dir().join(format!("predator-golden-{}.ptrace", std::process::id()));
    std::fs::write(&path, w.finish().unwrap().1).unwrap();
    let cfg = AnalyzeConfig::new(*s.runtime().config(), 1);
    let analyze = || {
        let out = analyze_file(&path, &cfg, 0, 0).expect("a clean trace analyses");
        assert!(out.meta_applied && !out.loss.any());
        normalized(out.report)
    };
    let plain = analyze();
    recorder().enable(4);
    let recorded = analyze();
    recorder().disable();
    std::fs::remove_file(&path).ok();

    let mut stripped = recorded.clone();
    for f in &mut stripped.findings {
        f.timeline.clear();
        f.invalidation_traces.clear();
    }
    assert_eq!(
        stripped, plain,
        "the recorder changed more than the flight data"
    );
    assert!(
        site_names(&recorded).len() >= 5,
        "{:?}",
        site_names(&recorded)
    );
    check_golden("attribution", &recorded);
}
