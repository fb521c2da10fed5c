//! The report builder: resolve → group → finish → rank → publish
//! (DESIGN.md, "Report pipeline"). The stages before `publish` are pure
//! functions of the runtimes' snapshots; every event, gauge and timeline
//! instant of a build happens in that one step.

use std::collections::BTreeMap;

use predator_alloc::{Callsite, TrackedHeap};
use predator_sim::{CacheGeometry, ThreadId};

use crate::detect::{classify, SharingClass};
use crate::predict::{UnitKind, UnitSnapshot};
use crate::report::{
    Finding, FindingKind, InvalidationTrace, ObjectReport, Report, SiteKind, TimelineOp,
    TimelineRecord, WordReport, MAX_TIMELINE_RECORDS, MAX_TRACES_PER_FINDING,
};
use crate::runtime::Predator;
use crate::stats::RunStats;
use crate::track::TrackSnapshot;
use crate::ObsSnapshot;

/// Objects by address. Outside this module: the heap objects a trace
/// recorded (start, size, allocation callsite and owning thread of each) —
/// the offline stand-in for a live [`TrackedHeap`].
#[derive(Debug, Clone, Default)]
pub struct ObjectDirectory {
    objects: BTreeMap<u64, ObjectReport>,
    live_bytes: u64,
}

impl ObjectDirectory {
    /// A directory of `objects` (of two with one start the later stays),
    /// captured with `live_bytes` application bytes live ([`RunStats`]).
    pub fn new(objects: impl IntoIterator<Item = ObjectReport>, live_bytes: u64) -> Self {
        let objects = objects.into_iter().map(|o| (o.start, o)).collect();
        ObjectDirectory {
            objects,
            live_bytes,
        }
    }

    /// Object containing `addr`, if any — the one place a range is tested.
    /// Sizes arrive from a trace's META chunk: subtracting cannot wrap.
    pub fn object_at(&self, addr: u64) -> Option<&ObjectReport> {
        let (_, obj) = self.objects.range(..=addr).next_back()?;
        (addr - obj.start < obj.size).then_some(obj)
    }
}

/// Where object-level attribution comes from when building a report.
#[derive(Clone, Copy)]
pub enum Attribution<'a> {
    /// No object attribution: unmatched addresses fall back to their line.
    None,
    /// The run's own live heap (the `Session` path).
    Heap(&'a TrackedHeap),
    /// A directory captured at trace-recording time (the offline path).
    Directory(&'a ObjectDirectory),
}

impl Attribution<'_> {
    /// The heap object containing `addr`, with its callsite and owner.
    pub fn object_at(&self, addr: u64) -> Option<ObjectReport> {
        match self {
            Attribution::None => None,
            Attribution::Heap(heap) => {
                let obj = heap.object_at(addr)?;
                let callsite = heap.resolve_callsite(obj.callsite);
                let site = SiteKind::Heap {
                    callsite: callsite.unwrap_or_else(Callsite::unknown),
                    owner: obj.owner,
                };
                Some(ObjectReport::new(obj.start, obj.size, site))
            }
            Attribution::Directory(dir) => dir.object_at(addr).cloned(),
        }
    }
}

/// The one attribution resolver. Precedence: a registered global
/// (`Session::global` backs globals with heap storage, but they must be
/// reported by name), then the heap or directory object, then — in
/// [`Resolver::resolve`] only — the cache line itself.
struct Resolver<'a> {
    /// The run's registered globals, snapshotted once per build.
    globals: ObjectDirectory,
    attr: Attribution<'a>,
    geom: CacheGeometry,
}

impl<'a> Resolver<'a> {
    fn new(rt: &Predator, attr: Attribution<'a>) -> Self {
        let globals = rt.globals_snapshot().into_iter().map(|g| {
            let site = SiteKind::Global { name: g.name };
            ObjectReport::new(g.start, g.size, site)
        });
        Resolver {
            globals: ObjectDirectory::new(globals, 0),
            attr,
            geom: rt.config().geometry,
        }
    }

    /// The named object (global or heap) containing `addr`.
    fn object_at(&self, addr: u64) -> Option<ObjectReport> {
        let global = self.globals.object_at(addr).cloned();
        global.or_else(|| self.attr.object_at(addr))
    }

    /// The object a finding at `addr` is about: the named one, or the line.
    fn resolve(&self, addr: u64) -> ObjectReport {
        self.object_at(addr).unwrap_or_else(|| {
            let start = self.geom.align_down(addr);
            ObjectReport::new(start, self.geom.line_size(), SiteKind::Unknown)
        })
    }
}

/// Which object an aggregate is about: one finding per (object, scenario).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Heap(u64),
    Global(String),
    Line(u64),
}

/// Family rank of remap aggregates; observed, doubled and scaled are 0–2.
const REMAP: u8 = 3;

/// One finding under construction, observed or predicted.
struct Agg {
    finding: Finding,
    /// Physical line starts involved — the flight recorder keys by those.
    lines: Vec<u64>,
}

impl Agg {
    fn into_finding(mut self, resolver: &Resolver<'_>) -> Finding {
        self.lines.sort_unstable();
        self.lines.dedup();
        (self.finding.timeline, self.finding.invalidation_traces) =
            flight_data(resolver, &self.lines);
        self.finding
    }
}

/// The grouping stage.
struct Groups<'a> {
    resolver: Resolver<'a>,
    report_threshold: u64,
    /// Keyed (family rank, object, scenario parameter) — the order findings
    /// are pushed in, which the stable ranking sort keeps for equal counts.
    aggs: BTreeMap<(u8, GroupKey, u64), Agg>,
    /// Object start and first callsite frame of every resolution the live
    /// heap answered, in order — `publish` turns them into timeline instants.
    heap_hits: Vec<(u64, String)>,
}

impl Groups<'_> {
    /// The aggregate the object at `addr` accumulates into under `kind`; a
    /// contribution of another class makes it `Mixed`.
    fn slot(&mut self, kind: FindingKind, class: SharingClass, addr: u64) -> &mut Agg {
        let (family, param) = match kind {
            FindingKind::Observed => (0, 0),
            FindingKind::PredictedDoubled => (1, 0),
            FindingKind::PredictedScaled { factor_log2 } => (2, factor_log2.into()),
            FindingKind::PredictedRemap { delta } => (REMAP, delta),
        };
        let object = self.resolver.resolve(addr);
        let key = match &object.site {
            SiteKind::Heap { callsite, .. } => {
                if let Attribution::Heap(_) = self.resolver.attr {
                    let frame = callsite.frames.first().map(|f| f.to_string());
                    self.heap_hits
                        .push((object.start, frame.unwrap_or_default()));
                }
                GroupKey::Heap(object.start)
            }
            SiteKind::Global { name } => GroupKey::Global(name.clone()),
            SiteKind::Unknown => GroupKey::Line(object.start),
        };
        let fresh = || Agg {
            finding: Finding {
                kind,
                class,
                object,
                invalidations: 0,
                accesses: 0,
                writes: 0,
                words: Vec::new(),
                virtual_lines: Vec::new(),
                timeline: Vec::new(),
                invalidation_traces: Vec::new(),
                verified: None,
            },
            lines: Vec::new(),
        };
        let agg = self.aggs.entry((family, key, param)).or_insert_with(fresh);
        if agg.finding.class != class {
            agg.finding.class = SharingClass::Mixed;
        }
        agg
    }

    /// Observed findings: reportable physical lines, each attributed by its
    /// hottest active word.
    fn lines(&mut self, tracked: Vec<(usize, TrackSnapshot)>) {
        let geom = self.resolver.geom;
        for (_, snap) in tracked {
            if snap.invalidations < self.report_threshold {
                continue;
            }
            let Some(class) = classify(&snap.words) else {
                continue;
            };
            let words = snap.words.words().iter().enumerate();
            let hottest = words.clone().max_by_key(|(_, w)| w.total());
            let hottest = hottest.map_or(snap.line_start, |(i, _)| snap.words.word_addr(i));
            let Agg { finding, lines } = self.slot(FindingKind::Observed, class, hottest);
            finding.invalidations += snap.invalidations;
            finding.accesses += snap.reads + snap.writes;
            finding.writes += snap.writes;
            let active = words.filter(|(_, w)| w.total() > 0);
            finding
                .words
                .extend(active.map(|(i, w)| WordReport::new(geom, snap.words.word_addr(i), w)));
            lines.push(snap.line_start);
        }
    }

    /// Predicted findings: verified units, each attributed by its hot
    /// pair's word on the analysed line. Units group per scenario parameter:
    /// different remap deltas are *alternative* what-if worlds.
    fn units(&mut self, units: &[UnitSnapshot]) {
        let geom = self.resolver.geom;
        for unit in units {
            if unit.invalidations < self.report_threshold {
                continue;
            }
            let kind = match unit.key.kind {
                UnitKind::Doubled => FindingKind::PredictedDoubled,
                UnitKind::Scaled { factor_log2 } => FindingKind::PredictedScaled { factor_log2 },
                UnitKind::Remap { delta } => FindingKind::PredictedRemap { delta },
            };
            let pair = [unit.origin.x, unit.origin.y];
            let class = SharingClass::FalseSharing;
            let Agg { finding, lines } = self.slot(kind, class, pair[0].addr);
            finding.invalidations += unit.invalidations;
            finding.accesses += unit.accesses;
            finding.virtual_lines.push(unit.range);
            for word in pair {
                finding.writes += word.state.writes;
                finding
                    .words
                    .push(WordReport::new(geom, word.addr, &word.state));
                lines.push(geom.align_down(word.addr));
            }
        }
    }

    /// Turns the aggregates into findings, in map order. Of one object's
    /// remap aggregates only the worst delta survives (the smaller delta on
    /// a tie: it comes first and only strictly more invalidations replace it).
    fn finish(&mut self) -> Vec<Finding> {
        let mut kept: Vec<(u8, GroupKey, Agg)> = Vec::new();
        for ((family, key, _), agg) in std::mem::take(&mut self.aggs) {
            match kept.last_mut() {
                Some((REMAP, last, worst)) if family == REMAP && *last == key => {
                    if worst.finding.invalidations < agg.finding.invalidations {
                        *worst = agg;
                    }
                }
                _ => kept.push((family, key, agg)),
            }
        }
        let finding = |(_, _, agg): (u8, GroupKey, Agg)| agg.into_finding(&self.resolver);
        kept.into_iter().map(finding).collect()
    }
}

/// Replays the flight recorder's rings for a finding's physical lines into
/// an embedded timeline plus the last K invalidation traces.
fn flight_data(
    resolver: &Resolver<'_>,
    line_starts: &[u64],
) -> (Vec<TimelineRecord>, Vec<InvalidationTrace>) {
    let flight = predator_obs::recorder::recorder();
    let records = line_starts.iter().flat_map(|&ls| flight.line_records(ls));
    let mut recs: Vec<_> = records.collect();
    recs.sort_by_key(|r| r.seq);
    let mut timeline: Vec<TimelineRecord> = recs
        .iter()
        .map(|r| TimelineRecord {
            seq: r.seq,
            line: resolver.geom.line_index(r.line_start),
            tid: ThreadId(r.tid),
            word: r.word,
            op: match r.kind {
                predator_obs::RecKind::Read => TimelineOp::Read,
                predator_obs::RecKind::Write => TimelineOp::Write,
                predator_obs::RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                } => TimelineOp::Invalidation {
                    victim: ThreadId(victim_tid),
                    victim_word,
                },
            },
        })
        .collect();
    // The written word's source label: the named object's, or its address.
    let site_at = |addr: u64| {
        let object = resolver.object_at(addr);
        object.map_or_else(|| format!("{addr:#x}"), |o| o.label())
    };
    let trace = |t: &TimelineRecord| match t.op {
        TimelineOp::Invalidation {
            victim,
            victim_word,
        } => Some(InvalidationTrace {
            seq: t.seq,
            line: t.line,
            writer: t.tid,
            writer_word: t.word,
            victim,
            victim_word,
            site: site_at(resolver.geom.line_start(t.line) + u64::from(t.word) * 8),
        }),
        _ => None,
    };
    let newest = timeline.iter().rev().filter_map(trace);
    let mut traces: Vec<InvalidationTrace> = newest.take(MAX_TRACES_PER_FINDING).collect();
    traces.reverse();
    let older = timeline.len().saturating_sub(MAX_TIMELINE_RECORDS);
    (timeline.split_off(older), traces)
}

fn run_stats(rt: &Predator, units: usize, attr: Attribution<'_>) -> RunStats {
    RunStats {
        events: rt.events(),
        observed_invalidations: rt.total_invalidations(),
        tracked_lines: rt.tracked_lines(),
        total_lines: rt.layout().lines(),
        prediction_units: units,
        metadata_bytes: rt.metadata_bytes(),
        app_live_bytes: match attr {
            Attribution::Heap(h) => h.live_bytes(),
            Attribution::Directory(d) => d.live_bytes,
            Attribution::None => 0,
        },
    }
}

/// Every side effect of a report build, after the report is decided: the
/// `callsite_attributed` instants, each prediction unit's fate now that the
/// run is over (verified = reached the report threshold, else discarded) as
/// gauges and instants, the `report_emitted` instant and the findings gauge.
fn publish(report: &Report, units: &[UnitSnapshot], groups: &Groups<'_>) {
    use predator_obs::ArgVal::{Str, U64};
    let is_verified = |u: &&UnitSnapshot| u.invalidations >= groups.report_threshold;
    let verified = units.iter().filter(is_verified).count();
    let gauge = |name, value: usize| predator_obs::global().gauge(name).set(value as i64);
    gauge("predict_units_verified", verified);
    gauge("predict_units_discarded", units.len() - verified);
    let tl = predator_obs::timeline();
    if tl.enabled() {
        let lane = predator_obs::host_lane();
        for (start, frame) in &groups.heap_hits {
            let args = vec![
                ("object_start", U64(*start)),
                ("callsite", Str(frame.clone())),
            ];
            tl.instant("callsite_attributed", "detector", lane, args);
        }
        for unit in units {
            let fate = match is_verified(&unit) {
                true => "unit_verified",
                false => "unit_discarded",
            };
            let args = vec![
                ("start", U64(unit.range.start)),
                ("invalidations", U64(unit.invalidations)),
            ];
            tl.instant(fate, "detector", lane, args);
        }
        let count = |n: usize| U64(n as u64);
        let args = vec![
            ("findings", count(report.findings.len())),
            ("false_sharing", count(report.false_sharing().count())),
        ];
        tl.instant("report_emitted", "detector", lane, args);
    }
    // Level, not counter: a rule over serve's `/metrics` watches this for
    // findings appearing (or regressing away) between report builds.
    gauge("predator_report_findings", report.findings.len());
}

/// Builds the ranked report from the runtime's current state.
///
/// `heap` enables heap-object attribution and live-byte statistics; pass
/// `None` for trace-replay sessions without a managed heap.
pub fn build_report(rt: &Predator, heap: Option<&TrackedHeap>) -> Report {
    build_report_with(rt, heap.map_or(Attribution::None, Attribution::Heap))
}

/// [`build_report`] with the attribution source spelled out: the offline
/// path hands in the directory its trace recorded (DESIGN.md, "Report
/// pipeline").
pub fn build_report_with(rt: &Predator, attr: Attribution<'_>) -> Report {
    let detect_span = predator_obs::span("detect");
    let mut groups = Groups {
        resolver: Resolver::new(rt, attr),
        report_threshold: rt.config().report_threshold,
        aggs: BTreeMap::new(),
        heap_hits: Vec::new(),
    };
    // Both snapshots arrive ordered: lines by index, units by key.
    groups.lines(rt.tracked_snapshots());

    let predict_span = predator_obs::span("predict");
    let units = rt.unit_snapshots();
    groups.units(&units);
    drop(predict_span);

    let mut findings = groups.finish();
    // Rank by projected impact; the sort is stable, so equal counts stay in
    // aggregate-map order.
    findings.sort_by_key(|f| std::cmp::Reverse(f.invalidations));
    let mut report = Report {
        findings,
        stats: run_stats(rt, units.len(), attr),
        ..Report::default()
    };
    publish(&report, &units, &groups);

    drop(detect_span); // record the detect phase before capturing the snapshot
    report.obs = ObsSnapshot::capture();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use predator_sim::AccessKind::{Read, Write};
    use predator_sim::Owner;

    const BASE: u64 = 0x4000_0000;

    fn rt() -> Predator {
        Predator::new(DetectorConfig::sensitive(), BASE, 1 << 20)
    }

    #[test]
    fn empty_runtime_produces_empty_report() {
        let rt = rt();
        let r = build_report(&rt, None);
        assert!(r.findings.is_empty());
        assert!(!r.has_false_sharing());
        assert_eq!(r.stats.total_lines, (1 << 20) / 64);
        assert!(r.to_string().contains("No sharing problems"));
    }

    #[test]
    fn observed_false_sharing_is_reported_and_ranked() {
        let rt = rt();
        // Severe ping-pong on line 0, milder on line 10.
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        for i in 0..60u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + 640 + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        assert!(r.has_observed_false_sharing());
        assert!(r.findings.len() >= 2);
        assert!(r.findings[0].invalidations >= r.findings[1].invalidations);
        assert_eq!(r.findings[0].kind, FindingKind::Observed);
        assert_eq!(r.findings[0].class, SharingClass::FalseSharing);
        assert!(!r.findings[0].words.is_empty());
    }

    #[test]
    fn true_sharing_is_not_reported_as_false_sharing() {
        let rt = rt();
        // All threads hammer the SAME word.
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 4) as u16), BASE, 8, Write);
        }
        let r = build_report(&rt, None);
        assert!(
            !r.has_false_sharing(),
            "true sharing must not be a false positive"
        );
        assert!(r
            .findings
            .iter()
            .any(|f| f.class == SharingClass::TrueSharing));
    }

    #[test]
    fn predicted_finding_reports_virtual_lines() {
        let rt = rt();
        for _ in 0..600 {
            rt.handle_access(ThreadId(0), BASE + 56, 8, Write);
            rt.handle_access(ThreadId(1), BASE + 64, 8, Write);
        }
        let r = build_report(&rt, None);
        assert!(r.has_predicted_false_sharing());
        assert!(!r.has_observed_false_sharing());
        let pred = r
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::PredictedDoubled)
            .expect("doubled prediction");
        assert!(!pred.virtual_lines.is_empty());
        assert!(pred.invalidations > 100);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f.kind, FindingKind::PredictedRemap { .. })));
    }

    /// The conservation properties `lockfree::concurrent_counts_conserved`
    /// checks on one line, end to end under real threads: no recorded access
    /// is lost or misattributed on the way to the report, invalidations
    /// stay within what the writes could have caused, and analysis ran.
    #[test]
    fn real_threads_conserve_counts_end_to_end() {
        const PER_WORD: u64 = 5_000;
        let rt = rt().into_shared(); // sampling off, prediction on, tracking threshold 4
        rt.register_global("pair", BASE, 128);
        // Promote before the threads start: crossing the threshold on line
        // 0 publishes it and its neighbour, so no thread's access falls in
        // the unrecorded publish window (Figure 1's `if (track)`).
        for _ in 0..4 {
            rt.handle_access(ThreadId(0), BASE, 8, Write);
        }
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let rt = &rt;
                s.spawn(move || {
                    for i in 0..PER_WORD {
                        let kind = if i % 4 == 0 { Read } else { Write };
                        for line in 0..2u64 {
                            rt.handle_access(ThreadId(t), BASE + line * 64 + t as u64 * 8, 8, kind);
                        }
                    }
                });
            }
        });
        let r = build_report(&rt, None);
        assert_eq!(r.stats.events, 4 + 4 * 2 * PER_WORD);
        assert!(r.stats.prediction_units >= 1, "hot-pair analysis ran");
        let observed = r
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::Observed)
            .expect("four writers per line are observed");
        assert_eq!(observed.accesses, 4 * 2 * PER_WORD);
        assert_eq!(observed.words.len(), 8);
        for w in &observed.words {
            let t = (w.addr % 64 / 8) as u16;
            assert_eq!(w.owner, Owner::Exclusive(ThreadId(t)), "{w:?}");
            assert_eq!((w.reads, w.writes), (PER_WORD / 4, PER_WORD - PER_WORD / 4));
        }
        for line in 0..2 {
            let snap = rt.line_snapshot(line).expect("tracked");
            assert_eq!(snap.reads + snap.writes, 4 * PER_WORD);
            assert!(
                (1..=snap.writes).contains(&snap.invalidations),
                "line {line}: {} invalidations",
                snap.invalidations
            );
        }
    }

    #[test]
    fn global_attribution_appears_in_report() {
        let rt = rt();
        rt.register_global("stats_array", BASE, 64);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        let f = &r.findings[0];
        assert_eq!(
            f.object.site,
            SiteKind::Global {
                name: "stats_array".into()
            }
        );
        let text = r.to_string();
        assert!(text.contains("GLOBAL VARIABLE"), "{text}");
        assert!(text.contains("stats_array"), "{text}");
    }

    #[test]
    fn heap_attribution_uses_callsite() {
        use predator_alloc::{Callsite, Frame};
        let heap = TrackedHeap::new(BASE, 1 << 20, 64, 64 << 10);
        let rt = rt();
        let obj = heap
            .malloc(
                ThreadId(0),
                200,
                Callsite::from_frames(vec![Frame::new("./linear_regression-pthread.c", 133)]),
            )
            .unwrap();
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), obj.start + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, Some(&heap));
        let f = &r.findings[0];
        assert_eq!(f.object.start, obj.start);
        assert_eq!(f.object.size, 200);
        let text = f.to_string();
        assert!(text.contains("HEAP OBJECT"), "{text}");
        assert!(text.contains("./linear_regression-pthread.c:133"), "{text}");
        assert!(r.stats.app_live_bytes > 0);
    }

    #[test]
    fn word_reports_carry_global_line_numbers() {
        let rt = rt();
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + 64 + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        let f = &r.findings[0];
        // Line 0x4000_0040 >> 6 = 16777217 — the paper's Figure 5 number.
        assert!(f.words.iter().all(|w| w.line == 16_777_217));
        assert!(f.to_string().contains("(line 16777217)"));
    }

    #[test]
    fn below_threshold_lines_are_not_reported() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.report_threshold = 1_000_000;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        assert!(r.findings.is_empty());
    }

    /// The resolver's precedence and its range tests, including sizes no
    /// address space holds (a hostile META chunk can carry them).
    #[test]
    fn resolver_prefers_globals_then_objects_then_the_line() {
        let rt = rt();
        rt.register_global("counter_array", BASE + 128, 64);
        rt.register_global("endless", BASE + 4096, u64::MAX);
        let object = |start, size| {
            let callsite = Callsite::from_frames(vec![predator_alloc::Frame::new("a.c", 7)]);
            let owner = ThreadId(1);
            ObjectReport::new(start, size, SiteKind::Heap { callsite, owner })
        };
        let dir = ObjectDirectory::new([object(BASE + 64, 256), object(BASE + 1024, u64::MAX)], 0);
        let resolver = Resolver::new(&rt, Attribution::Directory(&dir));
        let label = |addr| resolver.object_at(addr).map(|o| o.label());
        assert_eq!(label(BASE), None);
        assert_eq!(resolver.resolve(BASE + 8).site, SiteKind::Unknown);
        assert_eq!(resolver.resolve(BASE + 8).start, BASE);
        assert_eq!(label(BASE + 64).as_deref(), Some("a.c:7"));
        assert_eq!(label(BASE + 128).as_deref(), Some("counter_array"));
        assert_eq!(label(BASE + 191).as_deref(), Some("counter_array"));
        assert_eq!(label(BASE + 192).as_deref(), Some("a.c:7"));
        assert_eq!(label(BASE + 320), None);
        let endless = resolver.object_at(BASE + 2048).expect("no wrapped end");
        assert_eq!((endless.start, endless.end), (BASE + 1024, u64::MAX));
        assert_eq!(label(u64::MAX).as_deref(), Some("endless"));
    }
}
