//! Properties of the flight recorder (crates/obs/src/recorder.rs) and of
//! the invalidation traces embedded in findings.
//!
//! Two claims are checked against randomized inputs:
//!
//! 1. **Retention**: a ring fed events in clock order — multi-victim ones
//!    included — keeps and reads out exactly what a reference model of the
//!    `(seq, slot)` rule does, and counts every record it did not keep.
//! 2. **Ground truth**: every invalidation the detector's hot path records
//!    (and therefore every trace embedded in a finding) corresponds to an
//!    invalidation the MESI simulator actually reported — same writer,
//!    same word, victims contained in the MESI event's victim set — with
//!    only the detector's known two-access startup window missing.
//!
//! Each detector and each simulator owns its records, so the cases share
//! nothing but the switch, which every case that builds a detector turns on.

use proptest::prelude::*;

use predator::core::{DetectorConfig, Predator};
use predator::sim::interleave::{interleave, Schedule, Script};
use predator::sim::mesi::MesiSim;
use predator::sim::{Access, AccessKind, CacheGeometry, ThreadId};
use predator::{Callsite, Session};
use predator_obs::mode::Exclusive;
use predator_obs::recorder::{self, FlightRecorder, Rec, RecKind, Ring};

const BASE: u64 = 0x4000_0000;

fn exact_config() -> DetectorConfig {
    DetectorConfig {
        tracking_threshold: 1,
        report_threshold: 1,
        sampling: false,
        prediction: false,
        ..DetectorConfig::paper()
    }
}

/// The `(seq, slot)` rule as a sorted list: the newest `depth` records by
/// timestamp; the slot is the cell a record would occupy in a ring that
/// overwrites its oldest entry in place — a newcomer inherits the slot of
/// the record it evicts — and orders the records of one event. A record
/// meeting a full ring of its own siblings is dropped. Returns whether the
/// ring was full (the record was evicted or evicted another).
fn model_push(ring: &mut Vec<(Rec, usize)>, depth: usize, rec: Rec) -> bool {
    let mut entry = (rec, ring.len());
    let full = ring.len() >= depth;
    if full {
        if rec.seq == ring[0].0.seq {
            return true;
        }
        entry.1 = ring.remove(0).1;
    }
    let key = |&(r, slot): &(Rec, usize)| (r.seq, slot);
    let at = ring.partition_point(|e| key(e) < key(&entry));
    ring.insert(at, entry);
    full
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

    /// Retention: events of 1–3 records (writes, reads, invalidations
    /// with one to three victims) pushed in clock order into one ring of
    /// depth 1–8 or 64 read out as the reference model's list, record for
    /// record, and the ring's counts account for every record:
    /// appended = kept + evicted.
    #[test]
    fn prop_ring_matches_the_seq_slot_reference_model(
        events in proptest::collection::vec((0u16..4, 0u8..8, 0usize..4), 1..200),
        pick in 0usize..9,
    ) {
        let depth = if pick == 8 { 64 } else { pick + 1 };
        let recorder = FlightRecorder::new(depth);
        let ring: Ring = Ring::new(BASE, depth);
        let (mut model, mut evicted, mut appended) = (Vec::new(), 0u64, 0u64);
        for (tid, word, victims) in events {
            let kinds: Vec<RecKind> = match victims {
                0 => vec![if word % 2 == 0 { RecKind::Read } else { RecKind::Write }],
                n => (0..n as u16)
                    .map(|v| RecKind::Invalidation { victim_tid: v + 4, victim_word: word ^ 1 })
                    .collect(),
            };
            let seq = recorder.push(Exclusive, &ring, tid, word, &kinds);
            for kind in kinds {
                let rec = Rec { line_start: BASE, seq, tid, word, kind };
                evicted += model_push(&mut model, depth, rec) as u64;
                appended += 1;
            }
        }
        let want: Vec<Rec> = model.iter().map(|&(rec, _)| rec).collect();
        let kept = ring.records(Exclusive);
        prop_assert_eq!(&kept, &want, "depth {}", depth);
        let (ring_appended, ring_evicted) = ring.counts(Exclusive);
        prop_assert_eq!((ring_appended, ring_evicted), (appended, evicted));
        prop_assert_eq!(ring_appended, kept.len() as u64 + ring_evicted);
    }

    /// Ground truth: drive the detector and a MESI simulator, each with
    /// its own recorder, through the same single-line script. The
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
        let merged = interleave(&script, Schedule::Seeded(seed));

        recorder::recorder().enable(8192);
        let rt = Predator::new(exact_config(), BASE, 1 << 20);
        let mut mesi = MesiSim::new(n, CacheGeometry::new(64));
        mesi.set_recorder(8192);
        for a in &merged {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
            mesi.access(a.tid, a.addr, a.size, a.kind);
        }

        let det = inv_events(&rt.flight_records(BASE));
        let mesi_ev = inv_events(&mesi.recording().unwrap().line_records(BASE));

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
    recorder::recorder().enable(1024);
    let session = Session::new(DetectorConfig::sensitive(), 1 << 20);
    let t0 = session.register_thread();
    let t1 = session.register_thread();
    let obj = session.malloc(t0, 64, Callsite::here()).unwrap();

    let geom = CacheGeometry::new(64);
    let mut mesi = MesiSim::new(2, geom);
    mesi.set_recorder(1024);

    for _ in 0..300 {
        session.write::<u64>(t0, obj.start, 1);
        mesi.access(t0, obj.start, 8, AccessKind::Write);
        session.write::<u64>(t1, obj.start + 8, 2);
        mesi.access(t1, obj.start + 8, 8, AccessKind::Write);
    }
    let report = session.report();

    let line = geom.line_index(obj.start);
    let mesi_ev = inv_events(
        &mesi
            .recording()
            .unwrap()
            .line_records(geom.line_start(line)),
    );

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
