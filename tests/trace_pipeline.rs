//! End-to-end tests of the `.ptrace` record → analyze pipeline: a recorded
//! Table-1 workload must reproduce the live detector's findings exactly, the
//! binary format must beat JSONL on size, every entry point must report what
//! a plain sequential replay reports (events, clusters, strays, loss,
//! findings, stats — in memory, from `.ptrace` and from JSONL through
//! `trace import`) whatever shard count it is handed, and damaged files must
//! degrade into counted loss or, when the header itself is unusable, a clean
//! error — never panics, never short reports.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use predator::core::{build_report, DetectorConfig, Predator, Report, Session};
use predator::sim::{Access, ThreadId};
use predator::trace::crc32::crc32;
use predator::trace::format::{
    ChunkFrame, CHUNK_FRAME_LEN, CHUNK_META, HEADER_V1_LEN, TRAILER_LEN,
};
use predator::trace::{
    analyze_events, analyze_file, import_jsonl, save_jsonl, AnalyzeConfig, AnalyzeOutcome,
    LossStats, MetaFrame, MetaGlobal, MetaObject, TraceMeta, TraceReader, TraceSink, TraceWriter,
};
use predator::workloads::{by_name, run_and_report, Variant, WorkloadConfig};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "predator-trace-it-{}-{name}.ptrace",
        std::process::id()
    ))
}

/// Findings + run stats, serialised. The `obs` section is excluded: it
/// snapshots process-global telemetry that accumulates across tests.
fn essence(r: &Report) -> String {
    format!(
        "{}\n{}",
        serde_json::to_string(&r.findings).unwrap(),
        serde_json::to_string(&r.stats).unwrap()
    )
}

/// Records a workload run to `path` the way `predator record` does:
/// detection off, the raw pre-filter stream tapped into a [`TraceSink`],
/// attribution metadata captured at the end.
fn record_workload(name: &str, cfg: &WorkloadConfig, path: &std::path::Path) -> u64 {
    let mut det = DetectorConfig::sensitive();
    det.enabled = false;
    let session = Session::with_config(det);
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
    by_name(name).unwrap().run_tracked(&session, cfg);
    let meta = TraceMeta::capture(session.runtime(), session.heap());
    sink.finish(&meta).unwrap().events
}

#[test]
fn record_then_analyze_reproduces_live_findings() {
    // histogram is one of the two Table-1 bugs the paper was first to
    // report, and its tracked run is deterministic — live and recorded
    // executions see the identical access stream.
    let cfg = WorkloadConfig {
        threads: 4,
        iters: 2_000,
        seed: 42,
        variant: Variant::Broken,
    };
    let det = DetectorConfig::sensitive();
    let live = run_and_report(by_name("histogram").unwrap().as_ref(), det, &cfg);
    assert!(
        live.has_observed_false_sharing(),
        "live run must find the bug:\n{live}"
    );
    assert!(
        live.findings
            .iter()
            .any(|f| f.to_string().contains("histogram-pthread.c:213")),
        "live attribution names the paper's callsite"
    );

    let path = tmp("histogram");
    let recorded = record_workload("histogram", &cfg, &path);
    assert!(recorded > 0);
    let out = analyze_file(&path, &AnalyzeConfig::new(det, 1), 0, 0).unwrap();
    assert!(!out.loss.any(), "clean file, clean read");
    assert!(out.meta_applied, "attribution metadata travels in the file");
    assert_eq!((out.events, out.stray_events), (recorded, 0));
    assert_eq!(
        essence(&out.report),
        essence(&live),
        "offline analysis must reproduce the live report"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn ptrace_is_at_least_5x_smaller_than_jsonl() {
    let cfg = WorkloadConfig {
        threads: 4,
        iters: 4_000,
        seed: 42,
        variant: Variant::Broken,
    };
    let path = tmp("size");
    let recorded = record_workload("histogram", &cfg, &path);
    let ptrace_bytes = std::fs::metadata(&path).unwrap().len();

    let events: Vec<Access> = TraceReader::open(&path).unwrap().collect();
    assert_eq!(events.len() as u64, recorded, "decode must be lossless");
    let mut jsonl = Vec::new();
    save_jsonl(&events, &mut jsonl).unwrap();

    assert!(
        jsonl.len() as u64 >= 5 * ptrace_bytes,
        "expected ≥5x: .ptrace {} bytes vs JSONL {} bytes ({:.1}x)",
        ptrace_bytes,
        jsonl.len(),
        jsonl.len() as f64 / ptrace_bytes as f64
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn recorded_bytes_are_pinned() {
    // Every Table-1 program's recording at seed 42, held to its file length
    // and the CRC-32 of the whole file: (program, iters, [Broken at 4
    // threads, Fixed at 4, Broken at 3]). The file carries the access
    // stream, the thread ids and the allocation metadata (callsites
    // included), so a workload whose tracked run issues one access more,
    // less or in another order moves its row. `iters` is small but gives
    // every round-based program at least two rounds; 3 threads gives the
    // split schedules an uneven share.
    type Pin = (usize, u32);
    #[rustfmt::skip]
    const PINNED: [(&str, u64, [Pin; 3]); 21] = [
        ("histogram", 1_000, [(44_406, 0xecc8_33a8), (44_415, 0x32a7_724d), (33_406, 0x889e_89c2)]),
        ("kmeans", 1_024, [(81_250, 0xd3fe_8450), (81_250, 0xd3fe_8450), (80_817, 0x9e5d_4ac6)]),
        ("linear_regression", 500, [(87_132, 0x71ba_e375), (88_635, 0xea60_c821), (65_571, 0x54f8_e621)]),
        ("matrix_multiply", 128, [(254_370, 0xb7a1_04fb), (254_370, 0xb7a1_04fb), (254_370, 0x8f27_bf05)]),
        ("pca", 100, [(84_534, 0x6a5c_73d6), (84_534, 0x6a5c_73d6), (63_518, 0x343b_1c19)]),
        ("reverse_index", 300, [(16_347, 0x002b_2e55), (16_348, 0x4dde_689c), (12_326, 0xfee7_78b8)]),
        ("string_match", 500, [(8_404, 0xbcc8_7d1d), (8_404, 0xbcc8_7d1d), (6_404, 0x346c_7841)]),
        ("word_count", 300, [(19_959, 0xe287_b81b), (19_960, 0xda1b_6763), (15_015, 0x8d71_0631)]),
        ("blackscholes", 2_048, [(131_662, 0xe127_754a), (131_662, 0xe127_754a), (98_842, 0x6eba_d9e2)]),
        ("bodytrack", 512, [(33_424, 0x35b2_6fd8), (33_424, 0x35b2_6fd8), (25_115, 0x9eb6_112f)]),
        ("dedup", 300, [(12_260, 0xd4a6_81f2), (12_260, 0xd4a6_81f2), (9_265, 0xc5f3_019b)]),
        ("ferret", 128, [(4_177, 0xcc4d_8deb), (4_177, 0xcc4d_8deb), (3_174, 0x84fe_7062)]),
        ("fluidanimate", 128, [(14_087, 0xcb28_884b), (14_087, 0xcb28_884b), (10_680, 0x6b36_55fb)]),
        ("streamcluster", 200, [(18_179, 0xbff8_d688), (18_382, 0x96c9_f827), (13_777, 0x5749_a3d9)]),
        ("swaptions", 300, [(10_220, 0x2cae_c0b9), (10_220, 0x2cae_c0b9), (7_706, 0x31b3_cf77)]),
        ("aget", 1_024, [(17_690, 0xcaf2_1f8d), (17_690, 0xcaf2_1f8d), (12_571, 0x7e1a_5582)]),
        ("boost", 300, [(20_313, 0xd31c_cbf9), (21_216, 0xbe91_a103), (15_364, 0xab54_ed89)]),
        ("memcached", 300, [(15_500, 0xffcc_1c5a), (15_500, 0xffcc_1c5a), (11_668, 0x901f_38f0)]),
        ("mysql", 200, [(32_298, 0xe5f0_e318), (32_328, 0x25a8_fb60), (24_146, 0xfe90_624d)]),
        ("pbzip2", 1_024, [(62_545, 0x8f30_def6), (62_545, 0x8f30_def6), (46_944, 0x0c65_82e5)]),
        ("pfscan", 640, [(2_988, 0x4673_7db3), (2_988, 0x4673_7db3), (2_874, 0xb284_b277)]),
    ];
    let runs = [
        (4, Variant::Broken),
        (4, Variant::Fixed),
        (3, Variant::Broken),
    ];
    let mut moved = Vec::new();
    for (name, iters, pinned) in PINNED {
        for ((threads, variant), want) in runs.into_iter().zip(pinned) {
            let cfg = WorkloadConfig {
                threads,
                iters,
                seed: 42,
                variant,
            };
            let path = tmp(&format!("pinned-{name}-{threads}-{variant:?}"));
            record_workload(name, &cfg, &path);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let got = (bytes.len(), crc32(&bytes));
            if got != want {
                moved.push(format!(
                    "{name} threads={threads} {variant:?}: got ({}, {:#010x}), pinned ({}, {:#010x})",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
    }
    assert!(moved.is_empty(), "recordings moved:\n{}", moved.join("\n"));
}

/// Two threads ping-pong on adjacent words in several well-separated
/// regions — multiple independent clusters, false sharing in each.
fn multi_cluster_trace(regions: u64, per_region: u64, base: u64) -> Vec<Access> {
    let mut out = Vec::with_capacity((regions * per_region) as usize);
    for i in 0..per_region {
        for r in 0..regions {
            let rbase = base + r * 0x10000;
            out.push(Access::write(
                ThreadId((i % 2) as u16),
                rbase + (i % 2) * 8,
                8,
            ));
        }
    }
    out
}

#[test]
fn truncated_trace_analyzes_with_counted_loss() {
    let cfg = WorkloadConfig {
        threads: 4,
        iters: 1_000,
        seed: 42,
        variant: Variant::Broken,
    };
    let path = tmp("trunc");
    record_workload("histogram", &cfg, &path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cut = tmp("trunc-cut");
    std::fs::write(&cut, &bytes[..bytes.len() * 3 / 5]).unwrap();
    let out = analyze_file(
        &cut,
        &AnalyzeConfig::new(DetectorConfig::sensitive(), 4),
        0,
        0,
    )
    .expect("truncation is loss, not an error");
    assert!(out.loss.truncated, "must notice the missing trailer");
    assert!(out.events > 0, "intact prefix still analysed");
    std::fs::remove_file(&cut).ok();
}

#[test]
fn flipped_byte_loses_one_chunk_not_the_file() {
    let cfg = WorkloadConfig {
        threads: 4,
        iters: 1_000,
        seed: 42,
        variant: Variant::Broken,
    };
    let path = tmp("flip");
    let recorded = record_workload("histogram", &cfg, &path);
    let mut bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Flip a byte in the middle of the file — lands in some chunk payload.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let damaged = tmp("flip-damaged");
    std::fs::write(&damaged, &bytes).unwrap();
    let out = analyze_file(
        &damaged,
        &AnalyzeConfig::new(DetectorConfig::sensitive(), 2),
        0,
        0,
    )
    .expect("a flipped byte is loss, not an error");
    assert!(out.loss.chunks_skipped >= 1, "the damaged chunk is skipped");
    assert_eq!(
        out.events + out.loss.records_lost,
        recorded,
        "every record is either delivered or counted lost"
    );
    std::fs::remove_file(&damaged).ok();
}

#[test]
fn unknown_schema_version_is_a_clean_error() {
    let cfg = WorkloadConfig {
        threads: 2,
        iters: 200,
        seed: 42,
        variant: Variant::Broken,
    };
    let path = tmp("version");
    record_workload("histogram", &cfg, &path);
    let mut bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    bytes[6] = 0x2a; // version word (LE) right after the 6-byte magic
    let future = tmp("version-future");
    std::fs::write(&future, &bytes).unwrap();
    let err = analyze_file(
        &future,
        &AnalyzeConfig::new(DetectorConfig::sensitive(), 1),
        0,
        0,
    )
    .expect_err("an unknown version must not be guessed at");
    assert!(err.contains("version"), "error names the problem: {err}");
    std::fs::remove_file(&future).ok();
}

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 22;
/// What `AnalyzeConfig::new` is handed second: once the shard count, now
/// ignored — 4 is there to pin that.
const SHARDS_ARG: [usize; 2] = [1, 4];

/// The oracle every entry point is held to: one `Predator`, fed in stream
/// order, with no pipeline around it.
fn sequential(events: &[Access], base: u64, size: u64, det: DetectorConfig) -> Report {
    let rt = Predator::new(det, base, size);
    for a in events {
        rt.handle_access(a.tid, a.addr, a.size, a.kind);
    }
    build_report(&rt, None)
}

/// Cluster count by the book: every touched line, in or out of the traced
/// range, sorted; a gap above `2r` (2 for the stock configs) cuts.
fn reference_clusters(events: &[Access], det: &DetectorConfig) -> usize {
    let link = 2 * ((1u64 << det.max_scale_log2) - 1);
    let lines: BTreeSet<u64> = events
        .iter()
        .flat_map(|a| det.geometry.lines_touched(a.addr, a.size))
        .collect();
    let mut prev = None;
    lines
        .into_iter()
        .filter(|&l| prev.replace(l).is_none_or(|p| l - p > link))
        .count()
}

fn write_ptrace(path: &Path, events: &[Access], chunk: usize, meta: Option<&TraceMeta>) -> Vec<u8> {
    let mut w = TraceWriter::create(Vec::new(), BASE, SIZE).unwrap();
    for c in events.chunks(chunk) {
        w.write_events(c).unwrap();
    }
    if let Some(m) = meta {
        w.write_meta(m).unwrap();
    }
    let (_, bytes) = w.finish().unwrap();
    std::fs::write(path, &bytes).unwrap();
    bytes
}

/// Events with a line outside `[base, base + size)`, by the book.
fn reference_strays(events: &[Access], base: u64, size: u64, det: &DetectorConfig) -> u64 {
    let inside = |line: u64| (base..base + size).contains(&det.geometry.line_start(line));
    let stray = |a: &&Access| !det.geometry.lines_touched(a.addr, a.size).all(inside);
    events.iter().filter(stray).count() as u64
}

/// Holds one outcome to the oracle and to the counts beside the report:
/// `(events, clusters, stray events)` and the loss.
fn assert_outcome(
    out: &AnalyzeOutcome,
    what: &str,
    want: &Report,
    counts: (u64, usize, u64),
    loss: LossStats,
) {
    assert_eq!(essence(&out.report), essence(want), "{what}: report");
    let got = (out.events, out.clusters, out.stray_events);
    assert_eq!(got, counts, "{what}: events, clusters, strays");
    assert_eq!(out.loss, loss, "{what}: loss");
    assert_eq!(out.shards_used, 1, "{what}");
}

/// Writes `events` as JSONL (`trace cat`'s format) and imports that to a
/// `.ptrace` beside it; returns the trace's path and its derived range.
fn import_events(events: &[Access], tag: &str) -> (PathBuf, (u64, u64)) {
    let text = tmp(&format!("{tag}-jsonl"));
    save_jsonl(events, std::fs::File::create(&text).unwrap()).unwrap();
    let out = tmp(&format!("{tag}-imported"));
    let (summary, range) = import_jsonl(&text, &out).unwrap();
    assert_eq!(summary.events, events.len() as u64, "{tag}: imported");
    std::fs::remove_file(&text).ok();
    (out, range)
}

/// `events` through every entry point (`analyze_events`, `.ptrace` file,
/// JSONL imported to a `.ptrace`).
fn check_all_paths(events: &[Access], det: DetectorConfig, tag: &str) {
    let clusters = reference_clusters(events, &det);
    let n = events.len() as u64;
    let strays = reference_strays(events, BASE, SIZE, &det);
    let none = LossStats::default();
    let ptrace = tmp(&format!("{tag}-all"));
    write_ptrace(&ptrace, events, 97, None);
    let in_range = sequential(events, BASE, SIZE, det);
    // The importer derives the range from the events: nothing is a stray.
    let (imported, (ibase, isize)) = import_events(events, tag);
    let in_hull = sequential(events, ibase, isize, det);
    for shards in SHARDS_ARG {
        let cfg = AnalyzeConfig::new(det, shards);
        let out = analyze_events(events, BASE, SIZE, None, &cfg);
        let what = format!("{tag} analyze_events shards={shards}");
        assert_outcome(&out, &what, &in_range, (n, clusters, strays), none);
        let out = analyze_file(&ptrace, &cfg, 0, 0).unwrap();
        let what = format!("{tag} .ptrace shards={shards}");
        assert_outcome(&out, &what, &in_range, (n, clusters, strays), none);
        assert!(!out.meta_applied, "{what}: no META chunk was written");
        let out = analyze_file(&imported, &cfg, 0, 0).unwrap();
        let what = format!("{tag} imported JSONL shards={shards}");
        assert_outcome(&out, &what, &in_hull, (n, clusters, 0), none);
    }
    std::fs::remove_file(&ptrace).ok();
    std::fs::remove_file(&imported).ok();
}

#[test]
fn every_shard_count_and_entry_point_matches_a_sequential_replay() {
    let w = |t: u16, addr: u64, size: u8| Access::write(ThreadId(t), addr, size);
    let mut events = multi_cluster_trace(5, 300, BASE);
    for i in 0..300u64 {
        let t = (i % 2) as u16;
        // Straddles two in-range lines; false sharing across the boundary.
        events.push(w(t, BASE + 0x60000 + 60 + t as u64 * 64, 8));
        // Straddles out of the range's last line, and a stray just past it
        // that must stay linked to that cluster.
        events.push(w(t, BASE + SIZE - 4, 8));
        events.push(w(t, BASE + SIZE + 128, 8));
        // Strays far outside on both sides, one of them read-only.
        events.push(w(t, BASE - 0x9000 + t as u64 * 8, 8));
        events.push(Access::read(ThreadId(t), BASE + SIZE + 0x20000, 4));
    }
    assert!(
        sequential(&events, BASE, SIZE, DetectorConfig::sensitive())
            .findings
            .len()
            >= 6,
        "the matrix trace must exercise the detector in every cluster"
    );
    check_all_paths(&events, DetectorConfig::sensitive(), "matrix-sensitive");
    // Sampling and prediction on.
    check_all_paths(&events, DetectorConfig::paper(), "matrix-paper");
    check_all_paths(&[], DetectorConfig::sensitive(), "matrix-empty");
}

#[test]
fn single_cluster_trace_needs_one_shard_whatever_was_asked() {
    let events = multi_cluster_trace(1, 2_000, BASE);
    let det = DetectorConfig::sensitive();
    let path = tmp("one-cluster");
    write_ptrace(&path, &events, 500, None);
    for shards in [1, 2, 4, 8] {
        let out = analyze_file(&path, &AnalyzeConfig::new(det, shards), 0, 0).unwrap();
        assert_eq!((out.clusters, out.shards_used), (1, 1), "shards={shards}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn jsonl_bad_line_fails_the_run_and_names_the_file() {
    let events = multi_cluster_trace(3, 50, BASE);
    let mut text = Vec::new();
    save_jsonl(&events[..100], &mut text).unwrap();
    text.extend_from_slice(b"{\"tid\": 1, \"addr\": oops}\n");
    save_jsonl(&events[100..], &mut text).unwrap();
    let path = tmp("bad-jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = tmp("bad-jsonl-out");
    let err = import_jsonl(&path, &out)
        .expect_err("a trace of the first 100 lines would be silently short");
    let at = format!("{}: line 101:", path.display());
    assert!(err.starts_with(&at), "error must name file and line: {err}");
    // And no analysis reads the text itself: the door names the conversion.
    let cfg = AnalyzeConfig::new(DetectorConfig::sensitive(), 1);
    let err = analyze_file(&path, &cfg, BASE, SIZE).expect_err("JSONL is not an input");
    assert!(
        err.contains(path.to_str().unwrap()) && err.contains("predator trace import"),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&out).ok();
}

/// The blind report this door closed: a two-thread ping-pong at native
/// addresses, "generated by another tool", used to analyse against the
/// default range, match no shadow line and report a clean run.
#[test]
fn native_address_jsonl_is_seen_once_imported() {
    let events: Vec<Access> = (0..4_000u64)
        .map(|i| Access::write(ThreadId((i % 2) as u16), 0x7f00_0000_1000 + (i % 2) * 8, 8))
        .collect();
    let (path, range) = import_events(&events, "native");
    assert_eq!(range, (0x7f00_0000_1000, 4096));
    let cfg = AnalyzeConfig::new(DetectorConfig::sensitive(), 1);
    let report = analyze_file(&path, &cfg, 0, 0).unwrap().report;
    assert!(report.has_observed_false_sharing());
    assert!(
        report.findings.iter().any(|f| f.invalidations >= 3_990),
        "{report}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_jsonl_imports_to_a_valid_zero_event_trace() {
    let (path, range) = import_events(&[], "empty");
    assert_eq!(range, (0, 0));
    let mut r = TraceReader::open(&path).unwrap();
    assert_eq!(r.by_ref().count(), 0);
    assert!(!r.stats().any() && r.saw_trailer(), "sealed, nothing lost");
    std::fs::remove_file(&path).ok();
}

/// Byte offset of the n-th (0-based) chunk frame of a `.ptrace` image.
fn nth_chunk(bytes: &[u8], n: usize) -> (usize, ChunkFrame) {
    let mut off = HEADER_V1_LEN;
    for _ in 0..n {
        off += CHUNK_FRAME_LEN + frame_at(bytes, off).payload_len as usize;
    }
    (off, frame_at(bytes, off))
}

fn frame_at(bytes: &[u8], off: usize) -> ChunkFrame {
    ChunkFrame::decode(&bytes[off..off + CHUNK_FRAME_LEN].try_into().unwrap()).unwrap()
}

#[test]
fn corruption_matrix_accounts_for_every_record_at_every_shard_count() {
    const CHUNK: usize = 250;
    let events = multi_cluster_trace(4, 500, BASE); // 2000 events, 8 chunks
    let recorded = events.len() as u64;
    let meta = TraceMeta {
        app_live_bytes: 7,
        ..TraceMeta::default()
    };
    let det = DetectorConfig::sensitive();
    let path = tmp("corrupt");
    let clean = write_ptrace(&path, &events, CHUNK, Some(&meta));
    let no_meta = write_ptrace(&path, &events, CHUNK, None);
    let (third, third_frame) = nth_chunk(&clean, 2);
    let (meta_at, meta_frame) = nth_chunk(&clean, 8);
    assert_eq!(meta_frame.kind, CHUNK_META);

    let flip = |at: usize| {
        let mut b = clean.clone();
        b[at] ^= 0xff;
        b
    };
    // The META payload swapped for one nested past the JSON parser's cap,
    // with a valid CRC: the parse fails, which must cost the chunk and not
    // the stack. The trailer's index offset moves by what the chunk grew.
    let deep_meta = {
        let flood = "[".repeat(100_000);
        let frame = ChunkFrame {
            payload_len: flood.len() as u32,
            crc: crc32(flood.as_bytes()),
            ..meta_frame
        };
        let mut b = clean[..meta_at].to_vec();
        b.extend(frame.encode());
        b.extend(flood.as_bytes());
        b.extend(&clean[meta_at + CHUNK_FRAME_LEN + meta_frame.payload_len as usize..]);
        let trailer = b.len() - TRAILER_LEN;
        let index_at = u64::from_le_bytes(b[trailer..trailer + 8].try_into().unwrap());
        let grown = (flood.len() - meta_frame.payload_len as usize) as u64;
        b[trailer..trailer + 8].copy_from_slice(&(index_at + grown).to_le_bytes());
        b
    };
    // (name, image, every record is delivered or counted lost, META survives)
    let cases: Vec<(&str, Vec<u8>, bool, bool)> = vec![
        ("intact", clean.clone(), true, true),
        ("no meta chunk", no_meta, true, false),
        (
            "no footer",
            clean[..clean.len() - TRAILER_LEN].to_vec(),
            true,
            true,
        ),
        (
            "payload byte flipped",
            flip(third + CHUNK_FRAME_LEN + 9),
            true,
            true,
        ),
        ("frame length flipped", flip(third + 10), false, true),
        (
            "meta byte flipped",
            flip(meta_at + CHUNK_FRAME_LEN + 3),
            true,
            false,
        ),
        ("meta nested too deep", deep_meta, true, false),
        // Cut inside the third chunk: its frame says how many are gone, but
        // the five chunks after it were never seen.
        (
            "cut mid-chunk",
            clean[..third + CHUNK_FRAME_LEN + 20].to_vec(),
            false,
            false,
        ),
        (
            "cut at a chunk boundary",
            clean[..third].to_vec(),
            false,
            false,
        ),
        (
            "cut inside a frame",
            clean[..third + 5].to_vec(),
            false,
            false,
        ),
        ("header only", clean[..HEADER_V1_LEN].to_vec(), false, false),
    ];
    assert_eq!(third_frame.record_count as usize, CHUNK);
    // The header has no CRC: a range no shadow could be laid over must be
    // refused by name before anything is sized by it — not an abort on a
    // 2 PiB allocation, not an alignment panic, not a wrapped-around range
    // that matches no line and reports a clean run.
    let header_field = |at: usize, v: u64| {
        let mut b = clean.clone();
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        b
    };
    let (base_at, size_at) = (HEADER_V1_LEN - 16, HEADER_V1_LEN - 8);
    for (name, image, value) in [
        (
            "size 1<<60",
            header_field(size_at, 1 << 60),
            "0x1000000000000000",
        ),
        (
            "base unaligned",
            header_field(base_at, 0x4000_0001),
            "0x40000001",
        ),
        (
            "base + size wraps",
            header_field(base_at, 0xffff_ffff_ffff_ff00),
            "0xffffffffffffff00",
        ),
    ] {
        std::fs::write(&path, &image).unwrap();
        let err = analyze_file(&path, &AnalyzeConfig::new(det, 1), 0, 0)
            .expect_err("a damaged header is an error, never a report");
        assert!(
            err.contains(path.to_str().unwrap()) && err.contains(value),
            "{name}: {err}"
        );
    }
    for (name, image, accounted, has_meta) in cases {
        // What one plain pass of the reader delivers is the oracle.
        let mut r = TraceReader::new(&image[..]).unwrap();
        let survivors: Vec<Access> = (&mut r).collect();
        let (loss, meta_seen) = (r.stats(), r.meta().is_some());
        assert_eq!(meta_seen, has_meta, "{name}: META");
        assert_eq!(
            loss.any(),
            name != "intact" && name != "no meta chunk",
            "{name}"
        );
        if accounted {
            let total = survivors.len() as u64 + loss.records_lost;
            assert_eq!(total, recorded, "{name}: delivered + lost == recorded");
        }
        let mut want = sequential(&survivors, BASE, SIZE, det);
        want.stats.app_live_bytes = if has_meta { meta.app_live_bytes } else { 0 };
        let clusters = reference_clusters(&survivors, &det);
        std::fs::write(&path, &image).unwrap();
        for shards in SHARDS_ARG {
            let out = analyze_file(&path, &AnalyzeConfig::new(det, shards), 0, 0)
                .unwrap_or_else(|e| panic!("{name}: damage past the header is loss: {e}"));
            let what = format!("{name} shards={shards}");
            let n = survivors.len() as u64;
            assert_outcome(&out, &what, &want, (n, clusters, 0), loss);
            assert_eq!(out.meta_applied, has_meta, "{what}: meta");
        }
    }
    // A META chunk that is intact but hostile: sizes no address space
    // holds. `start + size` wraps — a trap in a debug build, and in release
    // a containment test that fails, printing "(unattributed memory)" for
    // an object the file names. The range is the whole space past `start`.
    let object = MetaObject {
        start: BASE,
        size: u64::MAX,
        owner: 1,
        frames: vec![MetaFrame {
            file: "evil.c".into(),
            line: 1,
        }],
    };
    let global = MetaGlobal {
        name: "endless".into(),
        start: BASE,
        size: u64::MAX,
    };
    let mut with_object = meta.clone();
    with_object.objects.push(object);
    let mut with_global = meta;
    with_global.globals.push(global);
    for (label, hostile) in [("evil.c:1", with_object), ("endless", with_global)] {
        write_ptrace(&path, &events, CHUNK, Some(&hostile));
        let out = analyze_file(&path, &AnalyzeConfig::new(det, 1), 0, 0)
            .unwrap_or_else(|e| panic!("{label}: a wide object is not damage: {e}"));
        let what = format!("hostile META {label}");
        assert!(out.meta_applied && !out.loss.any(), "{what}");
        assert!(!out.report.findings.is_empty(), "{what}");
        for f in &out.report.findings {
            assert_eq!(f.object.label(), label, "{what}");
            assert_eq!((f.object.start, f.object.end), (BASE, u64::MAX), "{what}");
        }
        assert!(!out.report.to_string().contains("unattributed"), "{what}");
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary multi-region access patterns — straddling accesses and
    /// addresses outside the traced range included — analysis in memory,
    /// from a `.ptrace` and from imported JSONL reproduces a plain
    /// `Predator` loop's findings and stats exactly and agrees on events,
    /// clusters, strays and loss.
    #[test]
    fn prop_offline_entry_points_equal_a_sequential_replay(
        ops in proptest::collection::vec(
            // (region, word, is_write, straddles) per op; threads alternate
            // per op. Regions 4 and 5 lie below and above the traced range.
            (0u64..6, 0u64..16, prop::bool::ANY, prop::bool::ANY), 60..400),
        threads in 2u16..4,
    ) {
        let events: Vec<Access> = ops
            .iter()
            .enumerate()
            .map(|(i, &(region, word, is_write, straddles))| {
                let tid = ThreadId((i as u64 % threads as u64) as u16);
                let region_base = match region {
                    4 => BASE - 0x8000,
                    5 => BASE + SIZE + 0x8000,
                    r => BASE + r * 0x8000,
                };
                let addr = region_base + if straddles { word / 8 * 64 + 60 } else { word * 8 };
                if is_write {
                    Access::write(tid, addr, 8)
                } else {
                    Access::read(tid, addr, 8)
                }
            })
            .collect();
        check_all_paths(&events, DetectorConfig::sensitive(), "prop");
    }

    /// `trace cat` output, imported, is the same event sequence under a
    /// header range that covers every touched byte — straddlers' far ends
    /// included — and passes the door's own validation.
    #[test]
    fn prop_cat_then_import_round_trips(
        ops in proptest::collection::vec(
            (0u64..1 << 28, 0u8..=64, prop::bool::ANY, 0u16..8), 1..300),
        origin in 0u64..1 << 46,
    ) {
        let events: Vec<Access> = ops
            .iter()
            .map(|&(off, size, is_write, tid)| {
                let (tid, addr) = (ThreadId(tid), origin + off);
                if is_write {
                    Access::write(tid, addr, size)
                } else {
                    Access::read(tid, addr, size)
                }
            })
            .collect();
        let (path, (base, size)) = import_events(&events, "prop-cat");
        let mut r = TraceReader::open(&path).unwrap();
        prop_assert_eq!((r.base(), r.size()), (base, size));
        let back: Vec<Access> = r.by_ref().collect();
        prop_assert!(!r.stats().any());
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&back, &events);
        for a in &events {
            let last = a.addr + (a.size.max(1) as u64 - 1);
            prop_assert!(base <= a.addr && last < base + size, "{a:?} outside {base:#x}+{size:#x}");
        }
    }
}
