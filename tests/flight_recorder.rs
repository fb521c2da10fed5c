//! Properties of the flight recorder (crates/obs/src/recorder.rs) and of
//! the invalidation traces embedded in findings.
//!
//! Two claims are checked against randomized inputs:
//!
//! 1. **Retention**: each per-line ring keeps *exactly* the `depth`
//!    most-recent records by logical timestamp, regardless of arrival
//!    order or batching (thread-local segments flush out of order).
//! 2. **Ground truth**: every invalidation the detector's hot path records
//!    (and therefore every trace embedded in a finding) corresponds to an
//!    invalidation the MESI simulator actually reported — same writer,
//!    same word, victims contained in the MESI event's victim set — with
//!    only the detector's known two-access startup window missing.
//!
//! The detector feeds the process-global recorder, so tests touching it
//! serialize on a lock and reset it around each case; the MESI simulator
//! always writes to its own injected instance.

use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;

use predator::core::{DetectorConfig, Predator};
use predator::sim::interleave::{interleave, Schedule, Script};
use predator::sim::mesi::MesiSim;
use predator::sim::{Access, AccessKind, CacheGeometry, ThreadId};
use predator::{Callsite, Session};
use predator_obs::recorder::{self, FlightRecorder, Rec, RecKind};

const BASE: u64 = 0x4000_0000;

/// Serializes tests that enable/reset the process-global recorder.
static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

fn global_lock() -> MutexGuard<'static, ()> {
    // A failed case poisons the lock; later tests should still run.
    GLOBAL_RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

fn exact_config() -> DetectorConfig {
    DetectorConfig {
        tracking_threshold: 1,
        report_threshold: 1,
        sampling: false,
        prediction: false,
        ..DetectorConfig::paper()
    }
}

/// Collapses a seq-sorted record list into invalidation *events*:
/// `(writer_tid, writer_word, sorted victim tids)`, one per shared seq.
fn inv_events(recs: &[Rec]) -> Vec<(u16, u8, Vec<u16>)> {
    let mut events: Vec<(u64, u16, u8, Vec<u16>)> = Vec::new();
    for r in recs {
        if let RecKind::Invalidation { victim_tid, .. } = r.kind {
            match events.last_mut() {
                Some(e) if e.0 == r.seq => e.3.push(victim_tid),
                _ => events.push((r.seq, r.tid, r.word, vec![victim_tid])),
            }
        }
    }
    events
        .into_iter()
        .map(|(_, writer, word, mut victims)| {
            victims.sort_unstable();
            (writer, word, victims)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Retention: for arbitrary per-line traffic arriving in arbitrary
    /// order and batch sizes, `line_records` returns exactly the
    /// `min(depth, n)` records with the highest timestamps, ascending,
    /// and the appended/evicted counters account for every record.
    #[test]
    fn prop_ring_retains_exactly_the_newest_k_per_line(
        ops in proptest::collection::vec(
            (0u8..3, proptest::arbitrary::any::<u64>()), 1..120),
        depth in 1usize..8,
    ) {
        let r = FlightRecorder::new();
        r.enable(depth);
        // seq is program order; the sort key scrambles *arrival* order the
        // way interleaved thread-local segment flushes would.
        let mut arrivals: Vec<(u64, Rec)> = ops
            .iter()
            .enumerate()
            .map(|(i, &(line, key))| {
                let rec = Rec {
                    line_start: u64::from(line) * 64,
                    seq: i as u64,
                    tid: 0,
                    word: (i % 8) as u8,
                    kind: RecKind::Write,
                };
                (key, rec)
            })
            .collect();
        arrivals.sort_by_key(|&(key, _)| key);
        for chunk in arrivals.chunks(3) {
            let batch: Vec<Rec> = chunk.iter().map(|&(_, rec)| rec).collect();
            r.offer(&batch);
        }
        let mut kept_total = 0usize;
        for line in 0u64..3 {
            let mut expect: Vec<u64> = ops
                .iter()
                .enumerate()
                .filter(|&(_, &(l, _))| u64::from(l) == line)
                .map(|(i, _)| i as u64)
                .collect();
            expect.sort_unstable();
            let expect = expect.split_off(expect.len().saturating_sub(depth));
            kept_total += expect.len();
            let got: Vec<u64> = r.line_records(line * 64).iter().map(|x| x.seq).collect();
            prop_assert_eq!(got, expect, "line {} depth {}", line, depth);
        }
        prop_assert_eq!(r.appended(), ops.len() as u64);
        prop_assert_eq!(r.evicted(), (ops.len() - kept_total) as u64);
    }

    /// Ground truth: drive the detector (global recorder) and a MESI
    /// simulator (own recorder) through the same single-line script. The
    /// detector's invalidation events must be an ordered sub-sequence of
    /// MESI's — same writer and word, victims ⊆ the MESI victim set — and
    /// may only miss the ≤2 events of its startup window (§2.4.1: reads
    /// below the threshold are invisible, plus the one bootstrap write).
    #[test]
    fn prop_recorded_invalidations_match_mesi_ground_truth(
        per_thread in proptest::collection::vec(
            proptest::collection::vec((0u64..8, prop::bool::ANY), 1..60), 2..4),
        seed in 0u64..200,
    ) {
        let n = per_thread.len();
        let mut script = Script::new(n);
        for (t, thread_ops) in per_thread.iter().enumerate() {
            for &(word, w) in thread_ops {
                let a = if w {
                    Access::write(ThreadId(t as u16), BASE + word * 8, 8)
                } else {
                    Access::read(ThreadId(t as u16), BASE + word * 8, 8)
                };
                script.push(t, a);
            }
        }
        let merged = interleave(&script, &Schedule::Seeded(seed));

        let _g = global_lock();
        let flight = recorder::recorder();
        flight.reset();
        flight.enable(8192);

        let rt = Predator::new(exact_config(), BASE, 1 << 20);
        let mut mesi = MesiSim::new(n, CacheGeometry::new(64));
        let truth = Arc::new(FlightRecorder::new());
        truth.enable(8192);
        mesi.set_recorder(Arc::clone(&truth));
        for a in &merged {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
            mesi.access(a.tid, a.addr, a.size, a.kind);
        }

        let det = inv_events(&flight.line_records(BASE));
        let mesi_ev = inv_events(&truth.line_records(BASE));
        flight.disable();
        flight.reset();
        drop(_g);

        prop_assert!(det.len() <= mesi_ev.len(),
            "detector recorded {} invalidation events, MESI only {}",
            det.len(), mesi_ev.len());
        prop_assert!(mesi_ev.len() - det.len() <= 2,
            "detector {} vs MESI {} events — more than the startup window",
            det.len(), mesi_ev.len());
        let mut j = 0;
        for (writer, word, victims) in &det {
            let mut matched = false;
            while j < mesi_ev.len() {
                let (mw, mword, mv) = &mesi_ev[j];
                j += 1;
                if mw == writer && mword == word && victims.iter().all(|v| mv.contains(v)) {
                    matched = true;
                    break;
                }
            }
            prop_assert!(matched,
                "detector event (writer t{}, word {}, victims {:?}) \
                 has no matching MESI event", writer, word, victims);
        }
    }
}

/// End-to-end: the traces *embedded in a finding* (the ones `predator
/// explain` renders) each name a writer/victim/word combination the MESI
/// simulator reported for the same line.
#[test]
fn embedded_traces_match_mesi_reported_invalidations() {
    let _g = global_lock();
    let flight = recorder::recorder();
    flight.reset();
    flight.enable(1024);

    let session = Session::new(DetectorConfig::sensitive(), 1 << 20);
    let t0 = session.register_thread();
    let t1 = session.register_thread();
    let obj = session.malloc(t0, 64, Callsite::here()).unwrap();

    let geom = CacheGeometry::new(64);
    let mut mesi = MesiSim::new(2, geom);
    let truth = Arc::new(FlightRecorder::new());
    truth.enable(1024);
    mesi.set_recorder(Arc::clone(&truth));

    for _ in 0..300 {
        session.write::<u64>(t0, obj.start, 1);
        mesi.access(t0, obj.start, 8, AccessKind::Write);
        session.write::<u64>(t1, obj.start + 8, 2);
        mesi.access(t1, obj.start + 8, 8, AccessKind::Write);
    }
    let report = session.report();
    flight.disable();

    let line = geom.line_index(obj.start);
    let mesi_ev = inv_events(&truth.line_records(geom.line_start(line)));
    flight.reset();
    drop(_g);

    assert!(!mesi_ev.is_empty(), "ping-pong must invalidate under MESI");
    let traced: Vec<_> = report
        .findings
        .iter()
        .filter(|f| !f.invalidation_traces.is_empty())
        .collect();
    assert!(!traced.is_empty(), "ping-pong finding should embed traces");
    for finding in traced {
        assert!(!finding.timeline.is_empty(), "traces imply a timeline");
        for trace in &finding.invalidation_traces {
            assert_eq!(trace.line, line, "traces stay on the object's line");
            let writer = trace.writer.index() as u16;
            let victim = trace.victim.index() as u16;
            assert_ne!(writer, victim, "a thread cannot invalidate itself");
            assert!(
                mesi_ev.iter().any(|(w, word, victims)| *w == writer
                    && *word == trace.writer_word
                    && victims.contains(&victim)),
                "embedded trace {trace} matches no MESI event",
            );
        }
    }
}
