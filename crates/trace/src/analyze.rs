//! Offline analysis: one pass. The trace is decoded once; every event marks
//! its cache line in a bitmap and goes to one detector, and the report is
//! built from that detector — what a plain loop over the events feeding a
//! [`Predator`] produces, plus the line-cluster count, the stray-event count
//! and the trace's own loss and attribution metadata.
//!
//! Sequential on purpose: DESIGN.md, "Why there is no sharding". Its "Line
//! independence" — line clusters further apart than [`link_gap`] share no
//! detector state — is held by `prop_clusters_are_independent` below, and
//! [`crate::whatif`]'s tight range rests on it.

use std::collections::BTreeSet;
use std::path::Path;

use predator_core::{build_report_with, Attribution, DetectorConfig, Predator, Report};
use predator_sim::{Access, CacheGeometry};

use crate::format::TraceMeta;
use crate::reader::{LossStats, TraceReader};

/// Knobs for one offline analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Detector configuration the run uses.
    pub det: DetectorConfig,
}

impl AnalyzeConfig {
    /// The second parameter was a shard count; it is ignored and stays only
    /// because `benchmark/` passes it (ROADMAP 1(f)).
    pub fn new(det: DetectorConfig, _shards: usize) -> Self {
        AnalyzeConfig { det }
    }
}

/// Result of an offline analysis run.
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// The report — identical to what a sequential replay produces.
    pub report: Report,
    /// Events delivered to the detector.
    pub events: u64,
    /// Always 1; `benchmark/` reads it (ROADMAP 1(f)).
    pub shards_used: usize,
    /// Line clusters found in the trace.
    pub clusters: usize,
    /// Events that touched a line outside the traced range. The detector
    /// holds no state for such a line: that part of the event — all of it,
    /// unless it straddles the range's edge — was analysed by nothing.
    pub stray_events: u64,
    /// Trace damage encountered while reading (zeros for in-memory events).
    pub loss: LossStats,
    /// Attribution metadata was present and applied.
    pub meta_applied: bool,
}

/// Cluster link distance for a detector config: `max(2r, 1)` with
/// `r = (1 << max_scale_log2) − 1` (DESIGN.md, "Line independence").
fn link_gap(det: &DetectorConfig) -> u64 {
    let r = (1u64 << det.max_scale_log2) - 1;
    (2 * r).max(1)
}

/// Which cache lines a trace touches: a bit per line over the `lines` lines
/// of the traced range, from global line `first`, and an ordered set for
/// strays outside it.
struct LineTally {
    geom: CacheGeometry,
    first: u64,
    lines: u64,
    bits: Vec<u64>,
    /// The in-range line whose bit the last event set: a run of events on
    /// one line marks it once.
    marked: u64,
    strays: BTreeSet<u64>,
    /// Events that touched at least one stray line.
    stray_events: u64,
}

impl LineTally {
    fn new(geom: CacheGeometry, (base, size): (u64, u64)) -> Self {
        let first = geom.line_index(base);
        let lines = base.saturating_add(size).div_ceil(geom.line_size()) - first;
        LineTally {
            geom,
            first,
            lines,
            bits: vec![0; lines.div_ceil(64) as usize],
            marked: u64::MAX,
            strays: BTreeSet::new(),
            stray_events: 0,
        }
    }

    #[inline]
    fn add(&mut self, a: &Access) {
        let lines = self.geom.lines_touched(a.addr, a.size);
        let i = lines.start().wrapping_sub(self.first);
        if lines.start() == lines.end() && i < self.lines {
            // What nearly every event is: one line of the traced range.
            if i != self.marked {
                self.bits[(i / 64) as usize] |= 1 << (i % 64);
                self.marked = i;
            }
            return;
        }
        let mut stray = false;
        for line in lines {
            let i = line.wrapping_sub(self.first);
            if i < self.lines {
                self.bits[(i / 64) as usize] |= 1 << (i % 64);
            } else {
                self.strays.insert(line);
                stray = true;
            }
        }
        self.stray_events += u64::from(stray);
    }

    /// Cuts the touched lines into clusters `(first line, last line)`,
    /// ascending: a line joins the cluster before it when their gap is
    /// ≤ `link`.
    fn clusters(&self, link: u64) -> Vec<(u64, u64)> {
        let cells = self.bits.iter().enumerate().filter(|(_, &c)| c != 0);
        let marked = cells.flat_map(|(i, &c)| {
            let set = (0..64).filter(move |bit| c >> bit & 1 == 1);
            set.map(move |bit| self.first + i as u64 * 64 + bit)
        });
        let below = self.strays.range(..self.first).copied();
        let above = self.strays.range(self.first..).copied();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for line in below.chain(marked).chain(above) {
            match out.last_mut() {
                Some(c) if line - c.1 <= link => c.1 = line,
                _ => out.push((line, line)),
            }
        }
        out
    }
}

/// One analysis under way: the detector, the lines its events have touched
/// and the span the pass is timed under.
pub(crate) struct Pass {
    rt: Predator,
    seen: LineTally,
    events: u64,
    span: predator_obs::Span,
}

impl Pass {
    pub(crate) fn new(cfg: &AnalyzeConfig, base: u64, size: u64) -> Self {
        Pass {
            rt: Predator::new(cfg.det, base, size),
            seen: LineTally::new(cfg.det.geometry, (base, size)),
            events: 0,
            span: predator_obs::span("shard_analyze"),
        }
    }

    /// The next run of events, in stream order: a slice loop, whether the
    /// slice is a chunk the reader just decoded, a chunk what-if just
    /// remapped or a whole resident trace.
    pub(crate) fn feed(&mut self, chunk: &[Access]) {
        self.events += chunk.len() as u64;
        for a in chunk {
            self.seen.add(a);
            self.rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
    }

    /// Builds the report. `meta` and `loss` are what a `.ptrace` knows only
    /// once it has been read dry: its META chunk sits at the end.
    pub(crate) fn finish(self, meta: Option<&TraceMeta>, loss: LossStats) -> AnalyzeOutcome {
        drop(self.span);
        if let Some(m) = meta {
            m.apply_globals(&self.rt);
        }
        let dir = meta.map(TraceMeta::directory);
        let attr = dir
            .as_ref()
            .map_or(Attribution::None, Attribution::Directory);
        let link = link_gap(self.rt.config());
        AnalyzeOutcome {
            report: build_report_with(&self.rt, attr),
            events: self.events,
            shards_used: 1,
            clusters: self.seen.clusters(link).len(),
            stray_events: self.seen.stray_events,
            loss,
            meta_applied: meta.is_some(),
        }
    }
}

/// Analyses an in-memory event slice.
pub fn analyze_events(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
) -> AnalyzeOutcome {
    let mut pass = Pass::new(cfg, base, size);
    pass.feed(events);
    pass.finish(meta, LossStats::default())
}

/// Offline analysis of a `.ptrace` file, opened through the one door
/// ([`TraceReader::open`]; JSONL goes through `predator trace import` first).
///
/// The traced address range and attribution metadata come from the file
/// itself, which streams in bounded memory and turns damage past the header
/// into counted loss. The two trailing parameters are unused — they were
/// the range for header-less JSONL input — and stay for the callers' sake.
pub fn analyze_file(
    path: &Path,
    cfg: &AnalyzeConfig,
    _fallback_base: u64,
    _fallback_size: u64,
) -> Result<AnalyzeOutcome, String> {
    let mut r = TraceReader::open(path)?;
    let mut pass = Pass::new(cfg, r.base(), r.size());
    while let Some(chunk) = r.next_chunk() {
        pass.feed(chunk);
    }
    Ok(pass.finish(r.take_meta().as_ref(), r.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::build_report;
    use predator_sim::ThreadId;
    use proptest::prelude::*;

    /// Two threads ping-pong on adjacent words in several well-separated
    /// regions — multiple clusters, real false sharing in each.
    fn multi_cluster_trace(regions: u64, per_region: u64, base: u64) -> Vec<Access> {
        let mut out = Vec::new();
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

    /// One `Predator` over `[base, base + size)`, fed `events` in order.
    fn fed(events: &[Access], base: u64, size: u64, det: &DetectorConfig) -> Predator {
        let rt = Predator::new(*det, base, size);
        for a in events {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
        rt
    }

    /// Findings + run stats, serialised. The `obs` section is excluded: it
    /// snapshots process-global telemetry, which accumulates across runs.
    fn essence(r: &Report) -> String {
        format!(
            "{}\n{}",
            serde_json::to_string(&r.findings).unwrap(),
            serde_json::to_string(&r.stats).unwrap()
        )
    }

    fn tally(events: &[Access], range: (u64, u64)) -> LineTally {
        let mut seen = LineTally::new(DetectorConfig::sensitive().geometry, range);
        events.iter().for_each(|a| seen.add(a));
        seen
    }

    /// Clusters by the book: a `BTreeSet` insert per touched line, cut at
    /// gaps > link. Returns `(first, last)`.
    fn reference_clusters(events: &[Access], link: u64) -> Vec<(u64, u64)> {
        let geom = DetectorConfig::sensitive().geometry;
        let touched = events
            .iter()
            .flat_map(|a| geom.lines_touched(a.addr, a.size));
        let mut out: Vec<(u64, u64)> = Vec::new();
        for line in touched.collect::<BTreeSet<u64>>() {
            match out.last_mut() {
                Some(c) if line - c.1 <= link => c.1 = line,
                _ => out.push((line, line)),
            }
        }
        out
    }

    #[test]
    fn tally_matches_the_btreeset_clusters_in_and_out_of_range() {
        // A range with room below it for the low stray.
        let (base, size) = (0x10_0000u64, 1u64 << 20);
        let end = base + size;
        let w = |addr, size| Access::write(ThreadId(1), addr, size);
        let events = vec![
            w(base - 0x4000, 8), // stray far below
            w(base - 4, 8),      // straddles into the first in-range line
            w(base + 64, 8),
            w(base + 64, 8),
            w(base + 63 * 64, 8),      // last bit of the first bitmap cell...
            w(base + 64 * 64 + 60, 8), // ...links to the next cell, straddling
            w(base + 0x8000, 1),
            w(end - 4, 8),      // straddles out of the range
            w(end + 0x100, 8),  // stray just above: still linked (gap 2)
            w(end + 0x9000, 8), // stray far above
            w(u64::MAX - 7, 8),
        ];
        // In an empty range every line is a stray.
        for (range, strays, label) in [((base, size), 6, "header range"), ((0, 0), 11, "empty")] {
            let seen = tally(&events, range);
            assert_eq!(seen.clusters(2), reference_clusters(&events, 2), "{label}");
            assert_eq!(seen.stray_events, strays, "{label}: stray events");
        }
    }

    /// A header narrower than its events: what falls outside is counted, the
    /// rest is analysed as if the strays were not there.
    #[test]
    fn events_outside_the_range_are_counted_as_strays() {
        let (base, size) = (0x4000_0000u64, 1u64 << 16);
        let inside = multi_cluster_trace(1, 400, base);
        let mut events = inside.clone();
        // The second region lies wholly past the range's end.
        events.extend(multi_cluster_trace(1, 300, base + size));
        events.push(Access::write(ThreadId(0), base + size - 4, 8)); // half in
        let det = DetectorConfig::sensitive();
        let out = analyze_events(&events, base, size, None, &AnalyzeConfig::new(det, 1));
        assert_eq!((out.events, out.stray_events), (701, 301));
        assert_eq!(out.clusters, 2, "strays still count as touched lines");
        let kept = analyze_events(&inside, base, size, None, &AnalyzeConfig::new(det, 1));
        assert_eq!(kept.stray_events, 0);
        assert_eq!(out.report.findings, kept.report.findings);
    }

    #[test]
    fn one_pass_matches_a_plain_replay() {
        let base = 0x4000_0000u64;
        let size = 1u64 << 20;
        // Sensitive thresholds, then sampling + prediction on.
        for (det, per_region) in [
            (DetectorConfig::sensitive(), 400),
            (DetectorConfig::paper(), 2000),
        ] {
            let events = multi_cluster_trace(6, per_region, base);
            let seq = build_report(&fed(&events, base, size, &det), None);
            assert!(!seq.findings.is_empty(), "workload must produce findings");
            // The second argument is ignored.
            for shards in [1usize, 4] {
                let cfg = AnalyzeConfig::new(det, shards);
                let out = analyze_events(&events, base, size, None, &cfg);
                assert_eq!(out.events, events.len() as u64);
                assert_eq!((out.clusters, out.shards_used), (6, 1));
                assert_eq!(essence(&out.report), essence(&seq));
            }
        }
    }

    /// DESIGN.md's "Line independence", held: cut `events` by the clusters
    /// the tally finds, give each cluster's events a detector of its own, and
    /// together they hold exactly what one detector fed everything holds.
    fn assert_clusters_independent(events: &[Access], range: (u64, u64), det: &DetectorConfig) {
        let clusters = tally(events, range).clusters(link_gap(det));
        let mut parts = vec![Vec::new(); clusters.len()];
        for a in events {
            // Every line an event touches is in one cluster (the link is ≥ 1).
            let line = det.geometry.line_index(a.addr);
            parts[clusters.partition_point(|c| c.1 < line)].push(*a);
        }
        let alone: Vec<Predator> = parts
            .iter()
            .map(|part| fed(part, range.0, range.1, det))
            .collect();
        let mut tracked: Vec<_> = alone.iter().flat_map(|rt| rt.tracked_snapshots()).collect();
        tracked.sort_by_key(|(idx, _)| *idx);
        let mut units: Vec<_> = alone.iter().flat_map(|rt| rt.unit_snapshots()).collect();
        units.sort_by_key(|u| u.key);
        let whole = fed(events, range.0, range.1, det);
        assert_eq!(
            alone.iter().map(Predator::events).sum::<u64>(),
            whole.events()
        );
        assert_eq!(tracked, whole.tracked_snapshots());
        assert_eq!(units, whole.unit_snapshots());
    }

    #[test]
    fn clusters_are_independent_under_sampling_and_prediction() {
        let base = 0x4000_0000u64;
        let events = multi_cluster_trace(4, 2000, base);
        assert_clusters_independent(&events, (base, 1 << 20), &DetectorConfig::paper());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_clusters_are_independent(
            ops in proptest::collection::vec(
                // (region, word, is_write, straddles) per op; threads
                // alternate per op. Regions 4 and 5 lie below and above the
                // traced range. Region 0 ends 3 lines short of region 1, one
                // line too far to interact; region 2 ends 2 short of region
                // 3, and cutting between those (a link of 1) fails this test.
                (0u64..6, 0u64..16, prop::bool::ANY, prop::bool::ANY), 60..400),
            threads in 2u16..4,
        ) {
            let (base, size) = (0x4000_0000u64, 1u64 << 22);
            let events: Vec<Access> = ops
                .iter()
                .enumerate()
                .map(|(i, &(region, word, is_write, straddles))| {
                    let tid = ThreadId((i as u64 % threads as u64) as u16);
                    let region_base = match region {
                        0 => base + 0x8000 - 5 * 64,
                        2 => base + 3 * 0x8000 - 4 * 64,
                        4 => base - 0x8000,
                        5 => base + size + 0x8000,
                        r => base + r * 0x8000,
                    };
                    let addr = region_base + if straddles { word / 8 * 64 + 60 } else { word * 8 };
                    match is_write {
                        true => Access::write(tid, addr, 8),
                        false => Access::read(tid, addr, 8),
                    }
                })
                .collect();
            assert_clusters_independent(&events, (base, size), &DetectorConfig::sensitive());
        }
    }
}
