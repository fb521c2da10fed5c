//! What-if layout replay: verified fix suggestions over a geometry
//! portfolio.
//!
//! The paper predicts false sharing for doubled line sizes and shifted
//! start addresses (§3). The `.ptrace` format enables the generalisation:
//! take the recorded trace, apply a proposed layout fix as a pure address
//! remap ([`crate::remap::AddressRemap`] — injective, order-preserving),
//! stream the remapped trace back through the offline analyzer,
//! and report the *measured* invalidation delta instead of untested
//! advice. Every delta is computed at all four portfolio line sizes
//! ([`CacheGeometry::PORTFOLIO_LINE_SIZES`]) and cross-checked against the
//! MESI ground-truth simulator, so a "this padding removes 97% of
//! invalidations" claim is backed by replay numbers at every geometry.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::RangeInclusive;

use predator_core::{
    lower_fix, suggest_fixes, CacheGeometry, DetectorConfig, GeometryDelta, LayoutEdit, Report,
    VerifiedFix,
};
use predator_sim::mesi::MesiSim;
use predator_sim::Access;

use crate::analyze::{analyze_events, AnalyzeConfig, Pass};
use crate::format::{touched_hull, TraceMeta, BASE_ALIGN, PAGE};
use crate::reader::LossStats;
use crate::remap::AddressRemap;
use crate::writer::CHUNK_CAPACITY;

/// What the replay applies to the recorded layout.
#[derive(Debug, Clone)]
pub enum WhatIfFix {
    /// Verify each finding's own first [`predator_core::FixSuggestion`]
    /// (lowered per finding via [`predator_core::lower_fix`]).
    Suggested,
    /// Apply one user-supplied edit list to the whole trace and measure its
    /// effect on every finding.
    Edits(Vec<LayoutEdit>),
}

/// Result of a what-if replay: the baseline report with per-finding
/// [`VerifiedFix`] annotations filled in.
#[derive(Debug)]
pub struct WhatIfOutcome {
    /// Baseline report (analysis geometry), findings annotated.
    pub report: Report,
    /// Events replayed.
    pub events: u64,
    /// Of those, events that touched a line outside `[base, base + size)`
    /// ([`AnalyzeOutcome::stray_events`] of the baseline walk).
    pub stray_events: u64,
    /// Findings that received a verification.
    pub verified: usize,
}

impl WhatIfOutcome {
    /// Headline improvement: the best finding's worst-geometry percentage
    /// removed, over findings that had anything to remove. `None` when
    /// nothing was verifiable.
    pub fn best_pct(&self) -> Option<u64> {
        self.report
            .findings
            .iter()
            .filter_map(|f| f.verified.as_ref())
            .filter(|v| v.deltas.iter().any(|d| d.before > 0))
            .map(VerifiedFix::min_pct_removed)
            .max()
    }

    /// Deterministic text rendering (the `predator whatif` default and the
    /// golden-fixture format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "WHAT-IF REPLAY: {} events; {}/{} findings verified; portfolio {:?}",
            self.events,
            self.verified,
            self.report.findings.len(),
            CacheGeometry::PORTFOLIO_LINE_SIZES
        );
        for (i, f) in self.report.findings.iter().enumerate() {
            let Some(v) = &f.verified else { continue };
            let _ = writeln!(
                out,
                "finding {i} ({} / {}): object {:#x} size {}",
                f.class,
                f.kind.family(),
                f.object.start,
                f.object.size
            );
            let _ = write!(out, "{v}");
        }
        match self.best_pct() {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "best fix removes {p}% of invalidations (worst geometry)"
                );
            }
            None => {
                let _ = writeln!(out, "nothing to verify (no invalidations to remove)");
            }
        }
        out
    }
}

/// Replays `events` under `fix` and returns the annotated baseline report.
pub fn whatif_events(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> WhatIfOutcome {
    predator_obs::static_counter!("whatif_detector_walks_total").inc();
    let outcome = analyze_events(events, base, size, meta, cfg);
    let mut report = outcome.report;
    let verified = annotate_fixes(events, base, size, meta, &mut report, cfg, fix);
    WhatIfOutcome {
        report,
        events: outcome.events,
        stray_events: outcome.stray_events,
        verified,
    }
}

/// One detector analysis + MESI ground truth at one portfolio geometry. Of
/// the report, deltas read each finding's `object` and `invalidations` only.
struct GeometryBaseline {
    geom: CacheGeometry,
    report: Report,
    mesi: MesiSim,
}

fn cores_for(events: &[Access]) -> usize {
    events.iter().map(|a| a.tid.index() + 1).max().unwrap_or(1)
}

/// The bytes of `[base, base + size)` a tight range is the hull of: a line
/// that starts inside the range is shadowed whole. `None` when it is empty.
fn hull_window(base: u64, size: u64) -> Option<RangeInclusive<u64>> {
    (size > 0).then(|| base..=last_byte(base, size) | (BASE_ALIGN - 1))
}

/// The last byte of a non-empty `[base, base + size)`, saturating.
fn last_byte(base: u64, size: u64) -> u64 {
    base.saturating_add(size) - 1
}

/// Widens `hull`, the bytes the events put inside [`hull_window`], to the
/// tight range of `[base, base + size)` (see [`tight_range`]).
fn widen(hull: Option<(u64, u64)>, base: u64, size: u64, det: &DetectorConfig) -> (u64, u64) {
    let Some((lo, hi)) = hull else {
        return (base, 0);
    };
    let last = last_byte(base, size);
    let r = (1u64 << det.max_scale_log2) - 1;
    let reach = (2 * r + 2) * BASE_ALIGN;
    let lo = (lo & !(PAGE - 1)).saturating_sub(reach).max(base);
    let hi = (hi | (PAGE - 1)).saturating_add(reach).min(last);
    (lo, hi - lo + 1)
}

/// The range what-if's own walks shadow instead of the header range
/// `[base, base + size)`: the page-aligned hull of the bytes `events` put
/// inside it, widened by the detector's reach at the widest portfolio line —
/// `2r + 2` lines, `r` as in DESIGN.md's "Line independence" — and
/// clamped back to the header range. Strays stay strays and every line that
/// can hold state is inside, so the walk's findings are the header range's
/// (DESIGN.md, "why the tight range is sound"); its shadow is a few pages.
pub fn tight_range(events: &[Access], base: u64, size: u64, det: &DetectorConfig) -> (u64, u64) {
    let hull = hull_window(base, size).and_then(|w| touched_hull(events, w));
    widen(hull, base, size, det)
}

/// Hands `f` the events as `remap` moves them, in stream order, one
/// [`CHUNK_CAPACITY`] chunk at a time. The identity hands out the recorded
/// chunks themselves; any other remap refills `buf`, so no remapped copy
/// of the trace is ever resident.
fn remapped_chunks(
    events: &[Access],
    remap: &AddressRemap,
    buf: &mut Vec<Access>,
    mut f: impl FnMut(&[Access]),
) {
    for chunk in events.chunks(CHUNK_CAPACITY) {
        if remap.is_identity() {
            f(chunk);
        } else {
            buf.clear();
            buf.extend(chunk.iter().map(|&a| remap.apply_access(a)));
            f(buf);
        }
    }
}

/// The portfolio over `events` as `remap` moves them into `(base, size)`:
/// per geometry, a detector walk over the moved events' tight range and a
/// MESI walk. Every walker is fed the same chunk before the next one is
/// remapped, so one chunk buffer is all the replay holds besides the
/// recorded events. `known` is an analysis of exactly these events, unmoved,
/// that already exists; it stands in for its own geometry's walk.
fn portfolio(
    events: &[Access],
    remap: &AddressRemap,
    (base, size): (u64, u64),
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
    known: Option<&Report>,
) -> Vec<GeometryBaseline> {
    let mut buf = Vec::new();
    let (lo, len) = {
        let _span = (!remap.is_identity()).then(|| predator_obs::span("whatif_remap"));
        let mut hull = None;
        if let Some(window) = hull_window(base, size) {
            remapped_chunks(events, remap, &mut buf, |chunk| {
                let h = touched_hull(chunk, window.clone());
                hull = hull
                    .into_iter()
                    .chain(h)
                    .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)));
            });
        }
        widen(hull, base, size, &cfg.det)
    };
    let n_cores = cores_for(events);
    let mut walkers: Vec<_> = CacheGeometry::portfolio()
        .into_iter()
        .map(|geom| {
            let pass = (known.is_none() || geom != cfg.det.geometry).then(|| {
                predator_obs::static_counter!("whatif_detector_walks_total").inc();
                let mut det = cfg.det;
                det.geometry = geom;
                Pass::new(&AnalyzeConfig { det }, lo, len)
            });
            predator_obs::static_counter!("whatif_mesi_walks_total").inc();
            let span = predator_obs::span("whatif_mesi");
            (geom, pass, span, MesiSim::new(n_cores, geom))
        })
        .collect();
    remapped_chunks(events, remap, &mut buf, |chunk| {
        for (_, pass, _, mesi) in &mut walkers {
            if let Some(pass) = pass {
                pass.feed(chunk);
            }
            mesi.walk(chunk);
        }
    });
    let meta = meta.map(|m| remap.apply_meta(m));
    // Spans close in the reverse of the order they opened.
    let mut out: Vec<GeometryBaseline> = walkers
        .into_iter()
        .rev()
        .map(|(geom, pass, span, mesi)| {
            drop(span);
            let report = match (pass, known) {
                (Some(pass), _) => pass.finish(meta.as_ref(), LossStats::default()).report,
                (None, known) => known.expect("only a known report skips a walk").clone(),
            };
            GeometryBaseline { geom, report, mesi }
        })
        .collect();
    out.reverse();
    out
}

/// Detector invalidations attributed to any finding whose object overlaps
/// `[start, end)`.
fn range_invalidations(report: &Report, start: u64, end: u64) -> u64 {
    report
        .findings
        .iter()
        .filter(|f| f.object.start < end && f.object.end > start)
        .map(|f| f.invalidations)
        .sum()
}

/// One past the last byte of the range and of `events`, whichever is higher
/// (saturating): everything a remap moves.
fn moved_end(events: &[Access], base: u64, size: u64) -> u64 {
    let ends = events.iter().map(|a| a.addr.saturating_add(a.size as u64));
    ends.fold(base.saturating_add(size), u64::max)
}

/// Whether `remap` leaves every moved byte, and the widest portfolio line
/// above it, inside the address space. Past that, `apply` saturates — the
/// remap stops being injective — and the grown range wraps, so a replay
/// would measure a layout that does not exist. The identity moves nothing.
fn remap_fits(remap: &AddressRemap, end: u64) -> bool {
    let grown = end.checked_add(remap.total_pad());
    remap.is_identity() || grown.and_then(|e| e.checked_add(BASE_ALIGN)).is_some()
}

/// MESI invalidation events on the lines covering `[start, end)`.
fn mesi_range_invalidations(sim: &MesiSim, geom: CacheGeometry, start: u64, end: u64) -> u64 {
    if end <= start {
        return 0;
    }
    (geom.line_index(start)..=geom.line_index(end - 1))
        .map(|l| sim.line_invalidations(l))
        .sum()
}

fn annotate_fixes(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    report: &mut Report,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> usize {
    // Decide which finding gets which fix before touching anything.
    let targets: Vec<(usize, String, Vec<LayoutEdit>)> = match fix {
        WhatIfFix::Suggested => {
            let mut seen = std::collections::HashSet::new();
            suggest_fixes(report, cfg.det.geometry)
                .into_iter()
                .filter(|(i, _)| seen.insert(*i)) // first suggestion per finding
                .map(|(i, s)| {
                    let edits = lower_fix(&report.findings[i], &s);
                    (i, s.to_string(), edits)
                })
                .collect()
        }
        WhatIfFix::Edits(edits) => {
            let desc = if edits.is_empty() {
                "no-op layout edit".to_string()
            } else {
                let parts: Vec<String> = edits
                    .iter()
                    .map(|e| format!("+{}B@{:#x}", e.pad, e.at))
                    .collect();
                format!("user layout edit: {}", parts.join(", "))
            };
            (0..report.findings.len())
                .map(|i| (i, desc.clone(), edits.clone()))
                .collect()
        }
    };
    if targets.is_empty() {
        return 0;
    }

    let end = moved_end(events, base, size);
    let identity = AddressRemap::identity();
    let baselines = portfolio(events, &identity, (base, size), meta, cfg, Some(report));

    // One replay per distinct edit list, shared across findings.
    let mut replays: HashMap<Vec<(u64, u64)>, Vec<GeometryBaseline>> = HashMap::new();

    let mut annotated = 0usize;
    for (idx, desc, edits) in targets {
        let remap = AddressRemap::from_edits(&edits);
        if !remap_fits(&remap, end) {
            continue; // not replayable: the finding stays unverified
        }
        let (obj_start, obj_end) = {
            let f = &report.findings[idx];
            (f.object.start, f.object.end)
        };
        let deltas: Vec<GeometryDelta> = if remap.is_identity() {
            // A no-op replay is the baseline replayed against itself.
            baselines
                .iter()
                .map(|b| {
                    let before = range_invalidations(&b.report, obj_start, obj_end);
                    let mesi_before = mesi_range_invalidations(&b.mesi, b.geom, obj_start, obj_end);
                    GeometryDelta {
                        line_size: b.geom.line_size(),
                        before,
                        after: before,
                        mesi_before,
                        mesi_after: mesi_before,
                    }
                })
                .collect()
        } else {
            let key: Vec<(u64, u64)> = {
                let mut k: Vec<(u64, u64)> = edits.iter().map(|e| (e.at, e.pad)).collect();
                k.sort_unstable();
                k
            };
            let afters = replays.entry(key).or_insert_with(|| {
                let range = (base, size.saturating_add(remap.total_pad()));
                portfolio(events, &remap, range, meta, cfg, None)
            });
            let new_start = remap.apply(obj_start);
            let new_end = if obj_end > obj_start {
                remap.apply(obj_end - 1) + 1
            } else {
                new_start
            };
            baselines
                .iter()
                .zip(afters.iter())
                .map(|(b, a)| GeometryDelta {
                    line_size: b.geom.line_size(),
                    before: range_invalidations(&b.report, obj_start, obj_end),
                    after: range_invalidations(&a.report, new_start, new_end),
                    mesi_before: mesi_range_invalidations(&b.mesi, b.geom, obj_start, obj_end),
                    mesi_after: mesi_range_invalidations(&a.mesi, a.geom, new_start, new_end),
                })
                .collect()
        };
        let verdict = VerifiedFix::classify(&deltas);
        report.findings[idx].verified = Some(VerifiedFix {
            fix: desc,
            pad_bytes: remap.total_pad(),
            deltas,
            verdict,
        });
        annotated += 1;
    }
    annotated
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::{DetectorConfig, FixVerdict};
    use predator_sim::ThreadId;

    const BASE: u64 = 0x4000_0000;
    const SIZE: u64 = 1 << 20;

    fn cfg() -> AnalyzeConfig {
        AnalyzeConfig::new(DetectorConfig::sensitive(), 2)
    }

    /// Two threads ping-pong adjacent words: classic false sharing.
    fn false_sharing_trace(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::write(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8))
            .collect()
    }

    /// Two threads hammer the same word: true sharing, padding can't help.
    fn true_sharing_trace(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::write(ThreadId((i % 2) as u16), BASE, 8))
            .collect()
    }

    #[test]
    fn suggested_padding_fix_removes_over_90_pct_at_every_geometry() {
        let events = false_sharing_trace(800);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        assert!(out.verified >= 1, "{}", out.to_text());
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Fixes, "{}", out.to_text());
        assert_eq!(v.deltas.len(), 4);
        for d in &v.deltas {
            assert!(d.before > 0, "{d:?}");
            assert_eq!(d.after, 0, "exact min_separation must zero {d:?}");
            assert!(d.mesi_before > 0, "{d:?}");
            // MESI keeps the two cold installs but no sharing traffic:
            // padding must eliminate (almost) all ground-truth events too.
            assert!(
                d.mesi_after * 100 <= d.mesi_before * 10,
                "MESI cross-check failed at {}B: {} -> {}",
                d.line_size,
                d.mesi_before,
                d.mesi_after
            );
            assert!(d.pct_removed() >= 90, "{d:?}");
        }
        assert!(out.best_pct().unwrap() >= 90);
    }

    #[test]
    fn true_sharing_fix_is_ineffective() {
        let events = true_sharing_trace(800);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        assert!(out.verified >= 1);
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Ineffective, "{}", out.to_text());
        assert_eq!(v.pad_bytes, 0, "true-sharing advice lowers to no edits");
        for d in &v.deltas {
            assert_eq!(d.before, d.after, "{d:?}");
        }
        assert_eq!(out.best_pct(), Some(0));
    }

    #[test]
    fn exactly_min_separation_yields_zero_predicted_false_sharing_everywhere() {
        // The satellite check for fixes.rs::min_separation: padding by
        // exactly that amount must leave zero false-sharing findings at
        // every portfolio geometry — including predicted (doubled /
        // scaled / remap) ones.
        let events = false_sharing_trace(800);
        let sep = CacheGeometry::portfolio_separation();
        let edits = vec![LayoutEdit {
            at: BASE + 8,
            pad: sep,
        }];
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        for geom in CacheGeometry::portfolio() {
            let mut det = DetectorConfig::sensitive();
            det.geometry = geom;
            let out = analyze_events(&mapped, BASE, SIZE + sep, None, &AnalyzeConfig::new(det, 2));
            assert!(
                !out.report.has_false_sharing(),
                "predicted false sharing survives at {}B lines:\n{}",
                geom.line_size(),
                out.report
            );
        }
    }

    #[test]
    fn user_edit_annotates_every_finding() {
        let events = false_sharing_trace(600);
        let edits = vec![LayoutEdit {
            at: BASE + 8,
            pad: 512,
        }];
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Edits(edits));
        assert_eq!(out.verified, out.report.findings.len());
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.pad_bytes, 512);
        assert!(v.fix.contains("user layout edit"), "{}", v.fix);
        assert_eq!(v.verdict, FixVerdict::Fixes);
    }

    #[test]
    fn non_portfolio_analysis_geometry_agrees_with_64b_delta_for_delta() {
        // At 512 B the handed report is no portfolio baseline: all four are
        // walked, over the tight range. At 64 B the report stands in for one.
        let events = false_sharing_trace(600);
        let deltas = |line_size| {
            let mut det = DetectorConfig::sensitive();
            det.geometry = CacheGeometry::new(line_size);
            let edits = vec![LayoutEdit {
                at: BASE + 8,
                pad: 512,
            }];
            let cfg = AnalyzeConfig::new(det, 2);
            let out = whatif_events(&events, BASE, SIZE, None, &cfg, &WhatIfFix::Edits(edits));
            let verified = out.report.findings[0].verified.clone();
            verified
                .expect("a user edit annotates every finding")
                .deltas
        };
        assert!(deltas(64).iter().all(|d| d.before > 0 && d.after == 0));
        assert_eq!(deltas(512), deltas(64));
    }

    #[test]
    fn tight_range_hugs_the_touched_pages_and_stays_inside_the_header() {
        let det = DetectorConfig::sensitive(); // r = 1: reach 4 × 256 B
        let w = |addr, size| Access::write(ThreadId(0), addr, size);
        let tight = |events: &[Access], size| tight_range(events, BASE, size, &det);
        assert_eq!(tight(&[], SIZE), (BASE, 0));
        assert_eq!(tight(&[w(BASE + 0x8010, 8)], 0), (BASE, 0));
        // Strays on both sides are nobody's hull.
        assert_eq!(
            tight(&[w(BASE - 64, 8), w(BASE + SIZE, 8)], SIZE),
            (BASE, 0)
        );
        assert_eq!(
            tight(&[w(BASE + 0x8010, 8), w(BASE + 0x9ffc, 8)], SIZE),
            (BASE + 0x8000 - 1024, 0x3000 + 2048),
            "two pages and the straddler's third, widened by the reach"
        );
        // Clamped to the header at both ends, odd size included: a straddler
        // counts for the part inside, and the line the range ends in is
        // shadowed whole at every portfolio size.
        assert_eq!(tight(&[w(BASE - 4, 8)], SIZE), (BASE, 4096 + 1024));
        assert_eq!(tight(&[w(BASE + SIZE - 4, 8)], SIZE).1, 4096 + 1024);
        assert_eq!(tight(&[w(BASE + 200, 8)], 100), (BASE, 100));
        assert_eq!(tight(&[w(BASE + 256, 8)], 100), (BASE, 0));
    }

    /// An edit list the address space cannot hold past the recorded range
    /// is not replayed: a saturated remap is no longer injective, so its
    /// verdict would be made up. Those findings stay unverified.
    #[test]
    fn edits_past_the_top_of_the_address_space_are_not_replayed() {
        let base = 0xFFFF_FFFF_FFFF_0000;
        let trace = |size: u64| {
            let last_line = base + size - 64;
            let events: Vec<Access> = (0..4000u64)
                .map(|i| Access::write(ThreadId((i % 2) as u16), last_line + (i % 2) * 8, 8))
                .collect();
            (events, last_line + 8)
        };
        let pad = |at| WhatIfFix::Edits(vec![LayoutEdit { at, pad: 0x2000 }]);
        let (events, field) = trace(0xF000);
        let (top, top_field) = trace(0xFE00);
        // The suggested 512-byte pad still ends below 2^64 at 0xF000 only.
        let cases = [
            (&events, 0xF000, pad(field)),
            (&top, 0xFE00, pad(top_field)),
            (&top, 0xFE00, WhatIfFix::Suggested),
        ];
        for (events, size, fix) in cases {
            let out = whatif_events(events, base, size, None, &cfg(), &fix);
            assert!(out.report.has_false_sharing(), "{}", out.report);
            assert_eq!(out.verified, 0, "{fix:?}: {}", out.to_text());
            assert!(out.report.findings.iter().all(|f| f.verified.is_none()));
            assert!(out.to_text().contains(" 0/1 findings verified"));
        }
        let out = whatif_events(&events, base, 0xF000, None, &cfg(), &WhatIfFix::Suggested);
        assert_eq!(out.verified, 1, "{}", out.to_text());
    }

    /// A seeded multi-thread trace of `n` events: 2–4 threads on the words
    /// of eight 64-byte lines, a few of them in a far region that widens
    /// the hull.
    fn seeded_trace(seed: u64, n: usize) -> Vec<Access> {
        let mut x = seed | 1;
        let threads = 2 + seed % 3;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tid = ThreadId((x % threads) as u16);
                let region = if x >> 60 == 0 { 0x2_0000 } else { 0 };
                let addr = BASE + region + (x >> 8) % 64 * 8;
                match x >> 20 & 3 {
                    0 => Access::read(tid, addr, 8),
                    _ => Access::write(tid, addr, 8),
                }
            })
            .collect()
    }

    /// Attribution for the seeded traces: one object over the first four
    /// lines, so a pad at `BASE + 8` lands inside it.
    fn object_meta() -> TraceMeta {
        TraceMeta {
            globals: Vec::new(),
            objects: vec![crate::format::MetaObject {
                start: BASE,
                size: 256,
                owner: 0,
                frames: Vec::new(),
            }],
            app_live_bytes: 256,
        }
    }

    /// What a portfolio walk holds that a delta can read: the report as
    /// JSON less `obs`, and the MESI invalidations of every line `moved`
    /// touches.
    fn essence(geom: CacheGeometry, report: &Report, mesi: &MesiSim, moved: &[Access]) -> String {
        let mut report = report.clone();
        report.obs = Default::default();
        let lines: std::collections::BTreeSet<u64> = moved
            .iter()
            .flat_map(|a| geom.lines_touched(a.addr, a.size))
            .collect();
        let inv: Vec<(u64, u64)> = lines
            .into_iter()
            .map(|l| (l, mesi.line_invalidations(l)))
            .collect();
        let json = serde_json::to_string(&report).unwrap();
        format!("{}B {json}\n{inv:?}\n{:?}", geom.line_size(), mesi.stats())
    }

    /// The oracle: the moved trace materialised whole, each geometry's
    /// detector and MESI walk run over it on its own.
    fn materialised(
        events: &[Access],
        remap: &AddressRemap,
        (base, size): (u64, u64),
        meta: Option<&TraceMeta>,
    ) -> Vec<String> {
        let mapped = remap.apply_events(events);
        let mapped_meta = meta.map(|m| remap.apply_meta(m));
        let (lo, len) = tight_range(&mapped, base, size, &cfg().det);
        CacheGeometry::portfolio()
            .into_iter()
            .map(|geom| {
                let mut det = cfg().det;
                det.geometry = geom;
                let gcfg = AnalyzeConfig { det };
                let report = analyze_events(&mapped, lo, len, mapped_meta.as_ref(), &gcfg).report;
                let mut mesi = MesiSim::new(cores_for(&mapped), geom);
                mesi.walk(&mapped);
                essence(geom, &report, &mesi, &mapped)
            })
            .collect()
    }

    fn streamed(
        events: &[Access],
        remap: &AddressRemap,
        range: (u64, u64),
        meta: Option<&TraceMeta>,
    ) -> Vec<String> {
        let mapped = remap.apply_events(events);
        portfolio(events, remap, range, meta, &cfg(), None)
            .iter()
            .map(|b| essence(b.geom, &b.report, &b.mesi, &mapped))
            .collect()
    }

    /// The streamed portfolio is the materialised one, whatever the edit
    /// list and wherever the trace ends relative to a chunk boundary.
    #[test]
    fn streamed_portfolio_equals_the_materialised_oracle() {
        let edit = |at, pad| LayoutEdit { at, pad };
        let meta = object_meta();
        for (seed, n) in [(1, 1), (2, 4095), (3, 4096), (4, 4097), (5, 3 * 4096 + 1)] {
            let events = seeded_trace(seed, n);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut random = Vec::new();
            for _ in 0..1 + seed % 3 {
                x = x.rotate_left(17).wrapping_add(seed);
                random.push(edit(BASE + x % 64 * 8, 8 * (1 + x % 40)));
            }
            let lists = [
                Vec::new(),
                random,
                vec![edit(BASE + 24, 64), edit(BASE + 24, 192)],
                vec![edit(BASE + 8, 512)], // inside the object
            ];
            for edits in lists {
                let remap = AddressRemap::from_edits(&edits);
                let range = (BASE, SIZE + remap.total_pad());
                assert_eq!(
                    streamed(&events, &remap, range, Some(&meta)),
                    materialised(&events, &remap, range, Some(&meta)),
                    "{n} events, {edits:?}"
                );
            }
        }
    }

    /// Through `whatif_events`: every finding's deltas are the ones the
    /// materialised oracle's walks give, and a list `remap_fits` refuses
    /// verifies nothing.
    #[test]
    fn streamed_deltas_equal_the_materialised_oracle() {
        let events = seeded_trace(7, 2 * 4096 + 5);
        let meta = object_meta();
        let known = analyze_events(&events, BASE, SIZE, Some(&meta), &cfg()).report;
        assert!(!known.findings.is_empty());
        let walks = |remap: &AddressRemap| -> Vec<(CacheGeometry, Report, MesiSim)> {
            let mapped = remap.apply_events(&events);
            let meta = remap.apply_meta(&meta);
            let size = SIZE + remap.total_pad();
            let (lo, len) = tight_range(&mapped, BASE, size, &cfg().det);
            let walk = |geom| {
                let mut det = cfg().det;
                det.geometry = geom;
                let report = match remap.is_identity() && geom == cfg().det.geometry {
                    true => known.clone(),
                    false => {
                        let gcfg = AnalyzeConfig { det };
                        analyze_events(&mapped, lo, len, Some(&meta), &gcfg).report
                    }
                };
                let mut mesi = MesiSim::new(cores_for(&mapped), geom);
                mesi.walk(&mapped);
                (geom, report, mesi)
            };
            CacheGeometry::portfolio().into_iter().map(walk).collect()
        };
        let refused = vec![LayoutEdit {
            at: BASE + 8,
            pad: u64::MAX - BASE,
        }];
        let fits = vec![
            LayoutEdit {
                at: BASE + 16,
                pad: 8,
            },
            LayoutEdit {
                at: BASE + 8,
                pad: 256,
            },
        ];
        for edits in [refused, fits] {
            let fix = WhatIfFix::Edits(edits.clone());
            let out = whatif_events(&events, BASE, SIZE, Some(&meta), &cfg(), &fix);
            let remap = AddressRemap::from_edits(&edits);
            if !remap_fits(&remap, moved_end(&events, BASE, SIZE)) {
                assert_eq!(out.verified, 0, "{edits:?}");
                continue;
            }
            assert_eq!(out.verified, known.findings.len());
            let (before, after) = (walks(&AddressRemap::identity()), walks(&remap));
            for f in &out.report.findings {
                let (s, e) = (f.object.start, f.object.end);
                let (ns, ne) = (remap.apply(s), remap.apply(e - 1) + 1);
                let oracle: Vec<GeometryDelta> = before
                    .iter()
                    .zip(&after)
                    .map(|((g, b, bm), (_, a, am))| GeometryDelta {
                        line_size: g.line_size(),
                        before: range_invalidations(b, s, e),
                        after: range_invalidations(a, ns, ne),
                        mesi_before: mesi_range_invalidations(bm, *g, s, e),
                        mesi_after: mesi_range_invalidations(am, *g, ns, ne),
                    })
                    .collect();
                assert_eq!(f.verified.as_ref().unwrap().deltas, oracle, "{edits:?}");
            }
        }
    }

    #[test]
    fn noop_edit_reports_zero_delta() {
        let events = false_sharing_trace(600);
        let out = whatif_events(
            &events,
            BASE,
            SIZE,
            None,
            &cfg(),
            &WhatIfFix::Edits(Vec::new()),
        );
        assert!(out.verified >= 1);
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Ineffective);
        assert_eq!(v.pad_bytes, 0);
        for d in &v.deltas {
            assert_eq!(d.before, d.after);
            assert_eq!(d.mesi_before, d.mesi_after);
        }
        assert!(v.fix.contains("no-op"), "{}", v.fix);
    }

    #[test]
    fn text_rendering_is_stable_and_informative() {
        let events = false_sharing_trace(600);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        let text = out.to_text();
        assert!(text.contains("WHAT-IF REPLAY"), "{text}");
        assert!(text.contains("portfolio [32, 64, 128, 256]"), "{text}");
        assert!(text.contains("Verified fix (fixes"), "{text}");
        assert!(text.contains("% removed"), "{text}");
        // Rendering twice gives identical bytes.
        assert_eq!(text, out.to_text());
    }
}
