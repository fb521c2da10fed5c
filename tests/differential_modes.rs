//! Differential oracle for the lock-free tracked line: on any deterministic
//! (serialized) feed, a `CacheTrack` with its attached `PredictionUnit`s
//! must answer every access with the same `TrackOutcome`, and end in the
//! same `TrackSnapshot` / `UnitSnapshot`s, as the paper's sequential rules.
//! The sequential side is composed below from the spec types
//! `predator_sim::{HistoryTable, WordTracker}` — the executable
//! specification; the packed-atomic, batched implementation must never be
//! *observably* different when there is no concurrency to blur the order of
//! accesses. (What real concurrency may blur is bounded separately:
//! `tests/loom_model.rs` and the conservation tests in `predator-core`.)
//!
//! The line is fed under both update modes — `Shared` (hardware
//! read-modify-writes; the instantiation loom interleaves) and `Exclusive`
//! (load and store; what a detector's owner thread runs, which nothing ever
//! interleaves) — and each must match the sequential model. One level up,
//! the same feeds go to an owned and a shared [`Predator`], with an object
//! freed mid-run, and both must end in the same snapshots, event count and
//! report. The last section pins what makes the owned mode safe: a second
//! thread cannot drive an owned detector, and a moved one is claimed.
//!
//! Two layers:
//!
//! * a deterministic matrix — every canonical sharing pattern, plus a
//!   script of word- and line-straddling accesses, under round-robin and
//!   seeded schedules, across configs that exercise promotion edges,
//!   sampling windows, wider lines and the scaled virtual lines;
//! * a property test over arbitrary byte-granular scripts and schedules.
//!   The vendored proptest shim does not shrink, so any divergence is
//!   reduced here with a ddmin pass over the flattened feed before
//!   reporting — the panic message carries a locally 1-minimal reproducing
//!   interleaving.
//!
//! Prediction units are attached *mid-feed*, at the moments the runtime
//! would: whenever a line reports `analysis_due`, every virtual-line
//! scenario around it that is not yet verified gets a unit on both sides.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use predator::core::lockfree::{Exclusive, Mode, Shared};
use predator::core::predict::{HotPair, HotWord, PredictionUnit, UnitKey, UnitKind, UnitSnapshot};
use predator::core::track::{CacheTrack, TrackOutcome, TrackSnapshot};
use predator::core::{build_report, DetectorConfig, Predator};
use predator::sim::interleave::{interleave, Schedule, Script};
use predator::sim::patterns::{generate, Pattern};
use predator::sim::{
    Access, AccessKind, CacheGeometry, HistoryTable, ThreadId, VirtualGeometry, VirtualRange,
    WordState, WordTracker,
};

const BASE: u64 = 0x4000_0000;

// ---- the sequential model (§2.3.1, §2.4.3, §3.4) ----

/// One candidate virtual line: a history table fed by every in-range access.
struct SeqUnit {
    key: UnitKey,
    range: VirtualRange,
    origin: HotPair,
    history: HistoryTable,
    invalidations: u64,
    accesses: u64,
}

/// One tracked line: sampling window, history table, word counters, and the
/// indices (into the rig's unit list) of the units overlapping it.
struct SeqLine {
    line_start: u64,
    history: HistoryTable,
    words: WordTracker,
    invalidations: u64,
    reads: u64,
    writes: u64,
    offered: u64,
    units: Vec<usize>,
}

impl SeqLine {
    fn new(line_start: u64, geom: CacheGeometry) -> Self {
        SeqLine {
            line_start,
            history: HistoryTable::new(),
            words: WordTracker::new(line_start, geom),
            invalidations: 0,
            reads: 0,
            writes: 0,
            offered: 0,
            units: Vec::new(),
        }
    }

    fn handle(&mut self, a: &Access, cfg: &DetectorConfig, units: &mut [SeqUnit]) -> TrackOutcome {
        let n = self.offered;
        self.offered += 1;
        if cfg.sampling && n % cfg.sample_interval >= cfg.sample_burst {
            return TrackOutcome::default();
        }
        let invalidated = self.history.record(a.tid, a.kind);
        self.invalidations += invalidated as u64;
        self.words.record(a.tid, a.addr, a.size, a.kind);
        let analysis_due = match a.kind {
            AccessKind::Read => {
                self.reads += 1;
                false
            }
            AccessKind::Write => {
                self.writes += 1;
                cfg.prediction && self.writes.is_multiple_of(cfg.prediction_threshold)
            }
        };
        for &u in &self.units {
            let unit = &mut units[u];
            if unit.range.contains(a.addr) {
                unit.accesses += 1;
                unit.invalidations += unit.history.record(a.tid, a.kind) as u64;
            }
        }
        TrackOutcome {
            sampled: true,
            invalidated,
            analysis_due,
        }
    }

    fn snapshot(&self) -> TrackSnapshot {
        TrackSnapshot {
            line_start: self.line_start,
            invalidations: self.invalidations,
            reads: self.reads,
            writes: self.writes,
            offered: self.offered,
            words: self.words.clone(),
        }
    }
}

// ---- both sides, fed in lock step ----

/// Lines are created on first touch (or first unit overlap), as tracks are
/// in the runtime; units are shared by every line their range overlaps.
#[derive(Default)]
struct Rig {
    lines: BTreeMap<u64, (CacheTrack, SeqLine)>,
    units: Vec<Arc<PredictionUnit>>,
    seq_units: Vec<SeqUnit>,
}

fn new_line(index: u64, geom: CacheGeometry) -> (CacheTrack, SeqLine) {
    let start = geom.line_start(index);
    (CacheTrack::new(start, geom), SeqLine::new(start, geom))
}

impl Rig {
    /// The virtual lines around physical line `index` the runtime could
    /// spawn a unit for: doubled, shifted by half a line, and every scaled
    /// factor the config enables. Already-verified keys are skipped.
    fn attach_scenarios(&mut self, index: u64, cfg: &DetectorConfig) {
        let geom = cfg.geometry;
        let start = geom.line_start(index);
        let delta = geom.line_size() / 2;
        let mut scenarios = vec![
            (UnitKind::Doubled, VirtualGeometry::Doubled(geom)),
            (
                UnitKind::Remap { delta },
                VirtualGeometry::Offset { geom, delta },
            ),
        ];
        for factor_log2 in 2..=cfg.max_scale_log2 {
            scenarios.push((
                UnitKind::Scaled { factor_log2 },
                VirtualGeometry::Scaled { geom, factor_log2 },
            ));
        }
        for (kind, vg) in scenarios {
            let key = UnitKey {
                kind,
                vline: vg.index(start),
            };
            if self.units.iter().any(|u| u.key == key) {
                continue;
            }
            let range = vg.range(key.vline);
            let hot = |addr| HotWord {
                addr,
                state: WordState::default(),
            };
            let origin = HotPair {
                x: hot(range.start),
                y: hot(range.start + range.size - 8),
                estimate: 0,
            };
            let unit = Arc::new(PredictionUnit::new(key, vg, origin));
            self.seq_units.push(SeqUnit {
                key,
                range: unit.range,
                origin,
                history: HistoryTable::new(),
                invalidations: 0,
                accesses: 0,
            });
            let u = self.units.len();
            for l in geom.line_index(range.start)..=geom.line_index(range.end()) {
                let (track, seq) = self.lines.entry(l).or_insert_with(|| new_line(l, geom));
                track.attach_unit(unit.clone());
                seq.units.push(u);
            }
            self.units.push(unit);
        }
    }
}

/// Feeds both sides and describes the first point where they part, if any:
/// an access answered differently, or the state left behind.
fn divergence<M: Mode>(m: M, feed: &[Access], cfg: DetectorConfig) -> Option<String> {
    let geom = cfg.geometry;
    let mut rig = Rig::default();
    for (i, a) in feed.iter().enumerate() {
        // A straddling access is offered, whole, to each line it touches.
        for index in geom.lines_touched(a.addr, a.size) {
            let (track, seq) = rig
                .lines
                .entry(index)
                .or_insert_with(|| new_line(index, geom));
            let got = track.handle(m, a.tid, a.addr, a.size, a.kind, &cfg);
            let want = seq.handle(a, &cfg, &mut rig.seq_units);
            if got != want {
                return Some(format!(
                    "access #{i} {a:?} on line {index}: lock-free {got:?}, sequential {want:?}"
                ));
            }
            if want.analysis_due {
                rig.attach_scenarios(index, &cfg);
            }
        }
    }
    for (index, (track, seq)) in &rig.lines {
        let (got, want) = (track.snapshot(m), seq.snapshot());
        if got != want {
            return Some(format!(
                "line {index} ends as\nlock-free  {got:?}\nsequential {want:?}"
            ));
        }
    }
    for (unit, seq) in rig.units.iter().zip(&rig.seq_units) {
        let want = UnitSnapshot {
            key: seq.key,
            range: seq.range,
            origin: seq.origin,
            invalidations: seq.invalidations,
            accesses: seq.accesses,
        };
        let got = unit.snapshot();
        if got != want {
            return Some(format!(
                "unit ends as\nlock-free  {got:?}\nsequential {want:?}"
            ));
        }
    }
    None
}

/// ddmin over the access feed: repeatedly delete chunks (halving the chunk
/// size whenever a whole pass removes nothing) while the divergence
/// persists. Ends at a feed where no single access can be removed.
fn ddmin<M: Mode>(m: M, feed: &[Access], cfg: DetectorConfig) -> Vec<Access> {
    let mut cur: Vec<Access> = feed.to_vec();
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.drain(i..(i + chunk).min(cand.len()));
            if !cand.is_empty() && divergence(m, &cand, cfg).is_some() {
                cur = cand;
                removed = true;
            } else {
                i += chunk;
            }
        }
        if !removed {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        } else {
            chunk = chunk.min(cur.len().max(1));
        }
    }
    cur
}

/// Asserts equivalence under `m`; on divergence, shrinks first so the
/// failure message is a minimal interleaving rather than a thousand-access
/// feed.
fn assert_mode_equivalent<M: Mode + std::fmt::Debug>(
    m: M,
    feed: &[Access],
    cfg: DetectorConfig,
    ctx: &str,
) {
    if divergence(m, feed, cfg).is_none() {
        return;
    }
    let min = ddmin(m, feed, cfg);
    panic!(
        "lock-free line ({m:?}) diverges from the sequential spec [{ctx}]\n\
         minimal feed ({} accesses): {:#?}\n{}",
        min.len(),
        min,
        divergence(m, &min, cfg).expect("ddmin keeps the divergence")
    );
}

/// The whole property: the line under either mode matches the sequential
/// model, and an owned and a shared detector cannot be told apart.
fn assert_equivalent(feed: &[Access], cfg: DetectorConfig, ctx: &str) {
    assert_mode_equivalent(Shared, feed, cfg, ctx);
    assert_mode_equivalent(Exclusive, feed, cfg, ctx);
    assert_same_detector(feed, cfg, ctx);
}

// ---- one level up: an owned and a shared detector ----

/// Everything a detector has to show for a feed.
fn detector_state(rt: &Predator) -> impl PartialEq + std::fmt::Debug {
    let report = build_report(rt, None);
    (
        rt.events(),
        rt.tracked_snapshots(),
        rt.unit_snapshots(),
        serde_json::to_string(&report.findings).unwrap(),
        serde_json::to_string(&report.stats).unwrap(),
    )
}

/// Feeds an owned (exclusive updates) and a shared (atomic updates)
/// `Predator` in lock step, frees the first two lines' object half-way, and
/// requires the same answer from `object_freed` and the same end state.
fn assert_same_detector(feed: &[Access], cfg: DetectorConfig, ctx: &str) {
    let owned = Predator::new(cfg, BASE, 1 << 16);
    let shared = Predator::new(cfg, BASE, 1 << 16).into_shared();
    let object_bytes = 2 * cfg.geometry.line_size();
    for (i, a) in feed.iter().enumerate() {
        if i == feed.len() / 2 {
            assert_eq!(
                owned.object_freed(BASE, object_bytes),
                shared.object_freed(BASE, object_bytes),
                "object_freed half-way [{ctx}]"
            );
        }
        owned.handle_access(a.tid, a.addr, a.size, a.kind);
        shared.handle_access(a.tid, a.addr, a.size, a.kind);
    }
    assert_eq!(
        detector_state(&owned),
        detector_state(&shared),
        "owned and shared detectors part ways [{ctx}]"
    );
}

fn configs() -> Vec<(DetectorConfig, &'static str)> {
    let sensitive = DetectorConfig::sensitive(); // prediction_threshold 16
    vec![
        (sensitive, "sensitive"),
        (
            DetectorConfig {
                max_scale_log2: 2,
                ..sensitive
            },
            "sensitive+4x-lines",
        ),
        (
            DetectorConfig {
                prediction_threshold: 1,
                ..sensitive
            },
            "analysis on every write",
        ),
        (
            DetectorConfig {
                sampling: true,
                sample_interval: 7,
                sample_burst: 3,
                prediction_threshold: 5,
                ..sensitive
            },
            "sampled 3 of 7",
        ),
        (
            DetectorConfig {
                geometry: CacheGeometry::new(128),
                ..sensitive
            },
            "128-byte lines",
        ),
        (DetectorConfig::no_prediction(), "no prediction"),
    ]
}

/// Accesses of 1–8 bytes at byte granularity over two lines and the first
/// words of a third: they straddle words, straddle lines, and start below
/// the line that also records them.
fn straddling_script() -> Script {
    let mut script = Script::new(3);
    for i in 0..1200u64 {
        let t = (i % 3) as usize;
        let addr = BASE + (i * 13) % 126;
        let size = 1u8 << (i % 4);
        let a = if i % 5 < 3 {
            Access::write(ThreadId(t as u16), addr, size)
        } else {
            Access::read(ThreadId(t as u16), addr, size)
        };
        script.push(t, a);
    }
    script
}

#[test]
fn matrix_of_patterns_and_schedules_agrees() {
    let patterns = [
        Pattern::PingPong {
            threads: 4,
            base: BASE,
        },
        Pattern::TrueShare {
            threads: 4,
            addr: BASE,
        },
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 8,
        },
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 64,
        },
        Pattern::ReaderWriter {
            threads: 3,
            base: BASE,
        },
        Pattern::RandomMix {
            threads: 4,
            base: BASE,
            lines: 8,
            write_pct: 60,
            seed: 42,
        },
    ];
    let mut scripts: Vec<(String, Script)> = patterns
        .iter()
        .map(|&p| (format!("{p:?}"), generate(p, 400)))
        .collect();
    scripts.push(("straddling".into(), straddling_script()));
    let schedules = [
        Schedule::RoundRobin { quantum: 1 },
        Schedule::Seeded(7),
        Schedule::Seeded(229),
        Schedule::Seeded(9001),
    ];
    for (script_name, script) in &scripts {
        for &schedule in &schedules {
            let feed = interleave(script, schedule);
            for (cfg, name) in configs() {
                assert_equivalent(
                    &feed,
                    cfg,
                    &format!("{script_name} / {schedule:?} / {name}"),
                );
            }
        }
    }
}

/// The exact threshold edge: writes landing precisely on multiples of the
/// prediction threshold are where counter batching could legally defer an
/// analysis pass — it must not.
#[test]
fn threshold_multiples_agree() {
    let cfg = DetectorConfig::sensitive(); // prediction_threshold 16
    for extra in 0..=2u64 {
        let n = 16 * 3 + extra; // land just on / just past the promotion edge
        let feed: Vec<Access> = (0..n * 2)
            .map(|i| Access::write(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8))
            .collect();
        assert_equivalent(&feed, cfg, &format!("edge feed, {extra} past multiple"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary byte-granular scripts spanning two adjacent lines (and
    /// spilling into a third) under arbitrary seeded schedules: two lines
    /// means units get attached and fed, not just per-line counting.
    /// ("Precise" is the sequential spec; "relaxed" the lock-free line.)
    #[test]
    fn prop_relaxed_equals_precise_on_serialized_feeds(
        per_thread in proptest::collection::vec(
            proptest::collection::vec((0u64..126, 0u32..4, prop::bool::ANY), 1..60), 2..4),
        seed in 0u64..1000,
    ) {
        let n = per_thread.len();
        let mut script = Script::new(n);
        for (t, ops) in per_thread.iter().enumerate() {
            for &(off, size_log2, w) in ops {
                let (tid, addr, size) = (ThreadId(t as u16), BASE + off, 1u8 << size_log2);
                let a = if w {
                    Access::write(tid, addr, size)
                } else {
                    Access::read(tid, addr, size)
                };
                script.push(t, a);
            }
        }
        let feed = interleave(&script, Schedule::Seeded(seed));
        for (cfg, name) in configs() {
            assert_equivalent(&feed, cfg, &format!("seed {seed} / {name}"));
        }
    }
}

// ---- ownership: what keeps the exclusive mode safe ----

/// Ping-pong on the first line: promotes it and invalidates on every write.
fn hammer(rt: &Predator, rounds: u64) {
    for i in 0..rounds {
        rt.handle_access(
            ThreadId((i % 2) as u16),
            BASE + (i % 2) * 8,
            8,
            AccessKind::Write,
        );
    }
}

#[test]
#[should_panic(expected = "owned by one thread was driven from another")]
fn a_second_thread_cannot_drive_an_owned_detector() {
    let rt = Predator::new(DetectorConfig::sensitive(), BASE, 1 << 16);
    hammer(&rt, 100);
    let trespass = std::thread::scope(|s| s.spawn(|| hammer(&rt, 1)).join());
    std::panic::resume_unwind(trespass.expect_err("the second driver must panic"));
}

#[test]
fn a_refused_driver_leaves_the_owners_counts_untouched() {
    let rt = Predator::new(DetectorConfig::sensitive(), BASE, 1 << 16);
    hammer(&rt, 100);
    let before = detector_state(&rt);
    std::thread::scope(|s| {
        // Neither an access, nor a snapshot (it drains), nor a free.
        for act in [
            (|rt| hammer(rt, 50)) as fn(&Predator),
            |rt| assert!(rt.tracked_snapshots().is_empty()),
            |rt| assert!(rt.object_freed(BASE, 64)),
        ] {
            let rt = &rt;
            assert!(s.spawn(move || act(rt)).join().is_err());
        }
        // Reading is anyone's.
        assert_eq!(s.spawn(|| rt.events()).join().unwrap(), 100);
    });
    assert_eq!(detector_state(&rt), before);
    hammer(&rt, 100);
    assert_eq!(rt.events(), 200, "and the owner carries on");
}

#[test]
fn a_moved_detector_is_claimed_by_its_new_thread() {
    let mut rt = Predator::new(DetectorConfig::sensitive(), BASE, 1 << 16);
    hammer(&rt, 100);
    let mut rt = std::thread::spawn(move || {
        rt.claim();
        hammer(&rt, 100);
        rt
    })
    .join()
    .expect("the claiming thread drives it");
    assert_eq!(rt.events(), 200);
    rt.claim();
    let control = Predator::new(DetectorConfig::sensitive(), BASE, 1 << 16);
    hammer(&control, 200);
    assert_eq!(detector_state(&rt), detector_state(&control));
}
