//! Report generation: ranked, source-attributed findings (§2.3, Figure 5).
//!
//! For each problem PREDATOR reports the victim object (heap callsite stack,
//! or global name/address/size), aggregate access and invalidation counts,
//! and word-granularity access information — "which threads accessed which
//! words" — so the developer can see exactly where and how the sharing
//! happens. Findings are ranked by invalidation count, the paper's proxy for
//! projected performance impact.
//!
//! Observed (physical-line) and predicted (virtual-line) problems become
//! separate [`Finding`]s with distinct [`FindingKind`]s; predicted findings
//! carry the verified virtual-line invalidation counts of §3.4, never the
//! raw estimates of §3.3.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use predator_alloc::{Callsite, TrackedHeap};
use predator_sim::{Owner, ThreadId, VirtualRange};

use crate::detect::{classify, SharingClass};
use crate::predict::UnitKind;
use crate::runtime::Predator;
use crate::stats::RunStats;
use crate::ObsSnapshot;

/// What the finding is anchored to in the source program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteKind {
    /// A heap object, attributed by allocation callsite.
    Heap {
        /// Allocation call stack.
        callsite: Callsite,
        /// Allocating thread.
        owner: ThreadId,
    },
    /// A registered global variable.
    Global {
        /// Variable name.
        name: String,
    },
    /// Memory the runtime could not attribute (e.g. already freed).
    Unknown,
}

/// The memory object a finding concerns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectReport {
    /// First byte address.
    pub start: u64,
    /// One-past-the-end address.
    pub end: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Source attribution.
    pub site: SiteKind,
}

/// Word-granularity access information (Figure 5's
/// `Address 0x… (line N): reads R writes W by thread T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordReport {
    /// Word start address.
    pub addr: u64,
    /// Global cache-line index of the word (the paper prints these raw:
    /// `0x4000_0040 >> 6 = 16777217`).
    pub line: u64,
    /// Sampled reads.
    pub reads: u64,
    /// Sampled writes.
    pub writes: u64,
    /// Exclusive owner / shared marker.
    pub owner: Owner,
}

/// Most recent invalidation traces embedded per finding.
pub const MAX_TRACES_PER_FINDING: usize = 8;

/// Most recent flight-recorder records embedded per finding.
pub const MAX_TIMELINE_RECORDS: usize = 256;

/// What one timeline record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimelineOp {
    /// A sampled read.
    Read,
    /// A sampled, non-invalidating write.
    Write,
    /// A write that invalidated a remote copy.
    Invalidation {
        /// Thread whose cached copy was knocked out.
        victim: ThreadId,
        /// Last word the victim touched (255 = never observed).
        victim_word: u8,
    },
}

/// One flight-recorder record replayed into a finding — the raw material
/// for `predator explain` timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineRecord {
    /// Logical timestamp (shared by multi-victim invalidation records).
    pub seq: u64,
    /// Global cache-line index.
    pub line: u64,
    /// Issuing thread (the writer, for invalidations).
    pub tid: ThreadId,
    /// Word offset inside the line (8-byte words).
    pub word: u8,
    /// What happened.
    pub op: TimelineOp,
}

/// The causal chain of one invalidation, with source attribution: *who*
/// wrote *where* and *whose* copy of *which word* it destroyed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationTrace {
    /// Logical timestamp.
    pub seq: u64,
    /// Global cache-line index.
    pub line: u64,
    /// Invalidating writer.
    pub writer: ThreadId,
    /// Word the writer hit.
    pub writer_word: u8,
    /// Thread whose copy was invalidated.
    pub victim: ThreadId,
    /// Last word the victim touched (255 = never observed).
    pub victim_word: u8,
    /// Source attribution of the written word (global name, allocation
    /// frame, or hex address).
    pub site: String,
}

impl SiteKind {
    /// Stable cross-run identity of this site: heap objects key on their
    /// full allocation stack, globals on their name. Unattributed memory has
    /// no identity that survives re-runs, so callers supply the object start
    /// as a last-resort discriminator (workloads run at fixed bases, which
    /// keeps even that stable in practice).
    pub fn stable_key(&self, fallback_addr: u64) -> String {
        match self {
            SiteKind::Heap { callsite, .. } if !callsite.frames.is_empty() => {
                let frames: Vec<String> = callsite.frames.iter().map(|f| f.to_string()).collect();
                format!("heap:{}", frames.join("<"))
            }
            SiteKind::Heap { .. } => format!("heap:{fallback_addr:#x}"),
            SiteKind::Global { name } => format!("global:{name}"),
            SiteKind::Unknown => format!("addr:{fallback_addr:#x}"),
        }
    }
}

/// How the problem was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// Invalidations observed on physical cache lines in this run.
    Observed,
    /// Predicted for hardware with doubled cache-line size, verified on
    /// doubled virtual lines (§3.3 scenario 1).
    PredictedDoubled,
    /// Extension: predicted for hardware with `2^factor_log2`-times larger
    /// lines (beyond the paper's single doubling).
    PredictedScaled {
        /// log2 of the line-size multiple (≥ 2).
        factor_log2: u32,
    },
    /// Predicted for a different object starting address, verified on
    /// remapped virtual lines shifted by `delta` bytes (§3.3 scenario 2).
    PredictedRemap {
        /// Partition shift that exposes the sharing.
        delta: u64,
    },
}

impl FindingKind {
    /// Scenario-family tag used in cross-run aggregation keys. Remap
    /// findings deliberately drop their `delta`: each run keeps only its
    /// worst partition shift, and two runs may settle on different shifts
    /// for the same underlying problem.
    pub fn family(&self) -> String {
        match self {
            FindingKind::Observed => "observed".to_string(),
            FindingKind::PredictedDoubled => "doubled".to_string(),
            FindingKind::PredictedScaled { factor_log2 } => {
                format!("scaled{}", 1u64 << factor_log2)
            }
            FindingKind::PredictedRemap { .. } => "remap".to_string(),
        }
    }
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindingKind::Observed => f.write_str("observed"),
            FindingKind::PredictedDoubled => f.write_str("predicted (doubled cache line size)"),
            FindingKind::PredictedScaled { factor_log2 } => {
                write!(f, "predicted ({}x cache line size)", 1u64 << factor_log2)
            }
            FindingKind::PredictedRemap { delta } => {
                write!(
                    f,
                    "predicted (object start shifted, partition offset {delta} bytes)"
                )
            }
        }
    }
}

/// Invalidation counts for one portfolio geometry, before and after a
/// proposed layout fix was replayed over the recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeometryDelta {
    /// Cache-line size of this portfolio entry, in bytes.
    pub line_size: u64,
    /// Detector invalidations attributed to the finding before the fix.
    pub before: u64,
    /// Detector invalidations after replaying the remapped trace.
    pub after: u64,
    /// MESI ground-truth invalidation events on the object's lines, before.
    pub mesi_before: u64,
    /// MESI ground-truth invalidation events, after.
    pub mesi_after: u64,
}

impl GeometryDelta {
    /// Percentage of invalidations the fix removed at this geometry
    /// (integer, 0 when there was nothing to remove).
    pub fn pct_removed(&self) -> u64 {
        (self.before.saturating_sub(self.after) * 100)
            .checked_div(self.before)
            .unwrap_or(0)
    }
}

/// Overall judgement of a replayed fix across the geometry portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FixVerdict {
    /// ≥ 90% of invalidations removed at every geometry that had any.
    Fixes,
    /// Helps somewhere but misses the 90% bar at some geometry.
    Partial,
    /// No measurable improvement anywhere (e.g. true sharing, or a no-op
    /// edit list).
    Ineffective,
}

impl std::fmt::Display for FixVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FixVerdict::Fixes => "fixes",
            FixVerdict::Partial => "partial",
            FixVerdict::Ineffective => "ineffective",
        })
    }
}

/// The measured outcome of replaying one [`crate::fixes::FixSuggestion`]
/// through the what-if pipeline: the recorded trace is re-analyzed with the
/// fix applied as an address remap, at every portfolio geometry, and the
/// suggestion ships with these numbers instead of untested advice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedFix {
    /// Human-readable description of what was replayed — a rendered
    /// [`crate::fixes::FixSuggestion`], or the user-supplied layout edit.
    pub fix: String,
    /// Total dead-space bytes the lowered edit list inserts (0 = the
    /// suggestion has no mechanical lowering, e.g. true-sharing advice).
    pub pad_bytes: u64,
    /// Before/after counts, one entry per portfolio line size, ascending.
    pub deltas: Vec<GeometryDelta>,
    /// Judgement across the portfolio.
    pub verdict: FixVerdict,
}

impl VerifiedFix {
    /// Derives the verdict from a measured delta set: ineffective when no
    /// geometry improved, fixes when every geometry with invalidations shed
    /// at least 90% of them, partial otherwise.
    pub fn classify(deltas: &[GeometryDelta]) -> FixVerdict {
        let active: Vec<&GeometryDelta> = deltas.iter().filter(|d| d.before > 0).collect();
        if active.is_empty() {
            return FixVerdict::Ineffective;
        }
        let max = active.iter().map(|d| d.pct_removed()).max().unwrap_or(0);
        let min = active.iter().map(|d| d.pct_removed()).min().unwrap_or(0);
        if max == 0 {
            FixVerdict::Ineffective
        } else if min >= 90 {
            FixVerdict::Fixes
        } else {
            FixVerdict::Partial
        }
    }

    /// Worst-case percentage removed across geometries that had anything to
    /// remove (100 when none did — a vacuous fix).
    pub fn min_pct_removed(&self) -> u64 {
        self.deltas
            .iter()
            .filter(|d| d.before > 0)
            .map(|d| d.pct_removed())
            .min()
            .unwrap_or(100)
    }
}

impl std::fmt::Display for VerifiedFix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Verified fix ({}, {} pad bytes): {}",
            self.verdict, self.pad_bytes, self.fix
        )?;
        for d in &self.deltas {
            writeln!(
                f,
                "  line {:>3}B: {} -> {} invalidations ({}% removed; MESI {} -> {})",
                d.line_size,
                d.before,
                d.after,
                d.pct_removed(),
                d.mesi_before,
                d.mesi_after
            )?;
        }
        Ok(())
    }
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Observed or predicted (and under which scenario).
    pub kind: FindingKind,
    /// False, true, or mixed sharing.
    pub class: SharingClass,
    /// The victim object.
    pub object: ObjectReport,
    /// Invalidations: observed on physical lines, or verified on virtual
    /// lines for predictions. The ranking key.
    pub invalidations: u64,
    /// Sampled accesses on the involved lines.
    pub accesses: u64,
    /// Sampled writes on the involved lines.
    pub writes: u64,
    /// Word-granularity detail for the involved lines (only active words).
    pub words: Vec<WordReport>,
    /// Virtual-line ranges verified (empty for observed findings).
    pub virtual_lines: Vec<VirtualRange>,
    /// Recent flight-recorder records for the involved lines, oldest first
    /// (empty when the recorder was off). Capped at
    /// [`MAX_TIMELINE_RECORDS`].
    pub timeline: Vec<TimelineRecord>,
    /// The last [`MAX_TRACES_PER_FINDING`] invalidation traces, oldest
    /// first — the causal evidence behind `invalidations`.
    pub invalidation_traces: Vec<InvalidationTrace>,
    /// What-if replay result for the finding's primary fix suggestion
    /// (`analyze --verify-fixes` / `predator whatif`); `None` when
    /// verification was not requested. `Option` keeps reports from older
    /// versions decoding (a missing key reads as null).
    pub verified: Option<VerifiedFix>,
}

impl Finding {
    /// Stable cross-run aggregation key: scenario family + site identity.
    /// Findings from different runs with equal keys describe the same
    /// problem at the same source location and may be merged.
    pub fn callsite_key(&self) -> String {
        format!(
            "{}|{}",
            self.kind.family(),
            self.object.site.stable_key(self.object.start)
        )
    }
}

/// A complete detector report: ranked findings plus run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Findings ranked by invalidation count, most severe first.
    pub findings: Vec<Finding>,
    /// Aggregate run statistics.
    pub stats: RunStats,
    /// Observability snapshot (process-global metric registry) captured
    /// when the report was built.
    pub obs: ObsSnapshot,
}

impl Report {
    /// Findings classified as false sharing (including mixed).
    pub fn false_sharing(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| matches!(f.class, SharingClass::FalseSharing | SharingClass::Mixed))
    }

    /// True iff any false-sharing finding exists.
    pub fn has_false_sharing(&self) -> bool {
        self.false_sharing().next().is_some()
    }

    /// True iff any false-sharing finding was *observed* (no prediction
    /// needed) — the paper's "Without Prediction" column.
    pub fn has_observed_false_sharing(&self) -> bool {
        self.false_sharing()
            .any(|f| f.kind == FindingKind::Observed)
    }

    /// True iff any false-sharing finding is predicted-only (the
    /// linear_regression case: caught only "With Prediction").
    pub fn has_predicted_false_sharing(&self) -> bool {
        self.false_sharing()
            .any(|f| f.kind != FindingKind::Observed)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Renders a GitHub-flavoured-markdown report (for CI artifacts and
    /// issue filing).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# PREDATOR report\n\n");
        if self.findings.is_empty() {
            out.push_str("No sharing problems found above the reporting threshold.\n\n");
        } else {
            out.push_str("| # | class | detection | object | size | invalidations | accesses |\n");
            out.push_str("|---|---|---|---|---|---|---|\n");
            for (i, f) in self.findings.iter().enumerate() {
                let site = match &f.object.site {
                    SiteKind::Heap { callsite, .. } => callsite
                        .frames
                        .first()
                        .map(|fr| fr.to_string())
                        .unwrap_or_else(|| format!("{:#x}", f.object.start)),
                    SiteKind::Global { name } => name.clone(),
                    SiteKind::Unknown => format!("{:#x}", f.object.start),
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | `{}` | {} | {} | {} |",
                    i, f.class, f.kind, site, f.object.size, f.invalidations, f.accesses
                );
            }
            out.push('\n');
            for (i, f) in self.findings.iter().enumerate() {
                let _ = writeln!(out, "## Finding {i}\n\n```text\n{f}```\n");
            }
        }
        let _ = writeln!(
            out,
            "_{} events; {}/{} lines tracked; {} prediction units; {} bytes metadata._",
            self.stats.events,
            self.stats.tracked_lines,
            self.stats.total_lines,
            self.stats.prediction_units,
            self.stats.metadata_bytes
        );
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.findings.is_empty() {
            writeln!(
                f,
                "No sharing problems found above the reporting threshold."
            )?;
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        writeln!(
            f,
            "\n[stats] events: {}; tracked lines: {}/{}; prediction units: {}; metadata: {} bytes",
            self.stats.events,
            self.stats.tracked_lines,
            self.stats.total_lines,
            self.stats.prediction_units,
            self.stats.metadata_bytes
        )
    }
}

impl std::fmt::Display for Finding {
    /// Renders in the shape of the paper's Figure 5.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.object.site {
            SiteKind::Heap { .. } => "HEAP OBJECT",
            SiteKind::Global { .. } => "GLOBAL VARIABLE",
            SiteKind::Unknown => "MEMORY REGION",
        };
        writeln!(
            f,
            "{} {}: start {:#x} end {:#x} (with size {}).",
            self.class, what, self.object.start, self.object.end, self.object.size
        )?;
        writeln!(
            f,
            "Number of accesses: {}; Number of invalidations: {}; Number of writes: {}.",
            self.accesses, self.invalidations, self.writes
        )?;
        writeln!(f, "Detection: {}.", self.kind)?;
        for vr in &self.virtual_lines {
            writeln!(f, "Verified virtual line: {vr}")?;
        }
        if let Some(v) = &self.verified {
            write!(f, "{v}")?;
        }
        match &self.object.site {
            SiteKind::Heap { callsite, owner } => {
                writeln!(f, "Allocated by {owner}. Callsite stack:")?;
                write!(f, "{callsite}")?;
            }
            SiteKind::Global { name } => writeln!(f, "Global variable: {name}")?,
            SiteKind::Unknown => writeln!(f, "(unattributed memory)")?,
        }
        writeln!(f, "\nWord level information:")?;
        for w in &self.words {
            let by = match w.owner {
                Owner::Exclusive(t) => format!(" by {t}"),
                Owner::Shared => " by multiple threads".to_string(),
                Owner::Untouched => String::new(),
            };
            writeln!(
                f,
                "Address {:#x} (line {}): reads {} writes {}{}",
                w.addr, w.line, w.reads, w.writes, by
            )?;
        }
        if !self.invalidation_traces.is_empty() {
            writeln!(f, "\nRecent invalidations (flight recorder):")?;
            for t in &self.invalidation_traces {
                writeln!(f, "{t}")?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for InvalidationTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let victim_word = if self.victim_word == u8::MAX {
            "?".to_string()
        } else {
            format!("{}", self.victim_word)
        };
        write!(
            f,
            "[seq {}] {} wrote word {} of line {}, invalidating {}'s copy (last word {}) — {}",
            self.seq, self.writer, self.writer_word, self.line, self.victim, victim_word, self.site
        )
    }
}

/// Internal grouping key: one finding per (object, scenario family).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Heap(u64),
    Global(String),
    Line(u64),
}

/// One heap object as captured at trace-recording time: enough to rebuild
/// the exact `SiteKind::Heap` attribution (callsite stack + owning thread)
/// of a live run during offline analysis, when no [`TrackedHeap`] exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedObject {
    /// First byte address.
    pub start: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Allocating thread.
    pub owner: ThreadId,
    /// Allocation call stack.
    pub callsite: Callsite,
}

/// An address-ordered directory of [`RecordedObject`]s — the offline stand-in
/// for a live [`TrackedHeap`] when attributing findings from a trace.
#[derive(Debug, Clone, Default)]
pub struct ObjectDirectory {
    objects: BTreeMap<u64, RecordedObject>,
    live_bytes: u64,
}

impl ObjectDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) an object keyed by its start address.
    pub fn insert(&mut self, obj: RecordedObject) {
        self.objects.insert(obj.start, obj);
    }

    /// Object containing `addr`, if any.
    pub fn object_at(&self, addr: u64) -> Option<&RecordedObject> {
        let (_, obj) = self.objects.range(..=addr).next_back()?;
        (addr < obj.start + obj.size).then_some(obj)
    }

    /// Application live bytes at capture time (reported in [`RunStats`]).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Sets the captured live-byte figure.
    pub fn set_live_bytes(&mut self, bytes: u64) {
        self.live_bytes = bytes;
    }

    /// Number of recorded objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are recorded.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
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

/// Builds the ranked report from the runtime's current state.
///
/// `heap` enables heap-object attribution and live-byte statistics; pass
/// `None` for trace-replay sessions without a managed heap.
pub fn build_report(rt: &Predator, heap: Option<&TrackedHeap>) -> Report {
    build_report_merged(&[rt], heap.map_or(Attribution::None, Attribution::Heap))
}

/// Builds one ranked report from *several* detector runtimes — the merge
/// step of sharded offline analysis.
///
/// The caller must guarantee the runtimes share one configuration and
/// shadow layout, and that every access event was delivered to exactly one
/// of them, with the touched-line partition keeping any two lines within
/// `2 * analysis_radius` of each other in the same runtime. Under that
/// invariant each runtime's tracked lines and prediction units are disjoint
/// from every other's, so chaining their snapshots through the single
/// grouping pass below reproduces exactly the report a lone runtime fed the
/// full stream would produce (snapshots are re-sorted into global line/key
/// order first, making aggregation order — and therefore word lists and
/// stable-sorted findings — identical).
pub fn build_report_merged(rts: &[&Predator], attr: Attribution<'_>) -> Report {
    let detect_span = predator_obs::span("detect");
    let rt0 = rts
        .first()
        .expect("build_report_merged needs at least one runtime");
    let cfg = *rt0.config();
    let geom = cfg.geometry;

    let heap = match attr {
        Attribution::Heap(h) => Some(h),
        _ => None,
    };
    let directory = match attr {
        Attribution::Directory(d) => Some(d),
        _ => None,
    };

    let attribute = |addr: u64| -> (GroupKey, ObjectReport) {
        // Explicitly registered globals take precedence: `Session::global`
        // backs globals with heap storage, but they must be reported by name.
        if let Some(g) = rt0.global_at(addr) {
            return (
                GroupKey::Global(g.name.clone()),
                ObjectReport {
                    start: g.start,
                    end: g.start + g.size,
                    size: g.size,
                    site: SiteKind::Global { name: g.name },
                },
            );
        }
        if let Some(obj) = heap.and_then(|h| h.object_at(addr)) {
            let callsite = heap
                .and_then(|h| h.resolve_callsite(obj.callsite))
                .unwrap_or_else(Callsite::unknown);
            let sink = predator_obs::events();
            if sink.enabled() {
                let frame = callsite
                    .frames
                    .first()
                    .map(|f| f.to_string())
                    .unwrap_or_default();
                sink.emit(
                    "callsite_attributed",
                    &[
                        ("object_start", predator_obs::FieldVal::U64(obj.start)),
                        ("callsite", predator_obs::FieldVal::Str(&frame)),
                    ],
                );
            }
            return (
                GroupKey::Heap(obj.start),
                ObjectReport {
                    start: obj.start,
                    end: obj.start + obj.size,
                    size: obj.size,
                    site: SiteKind::Heap {
                        callsite,
                        owner: obj.owner,
                    },
                },
            );
        }
        if let Some(obj) = directory.and_then(|d| d.object_at(addr)) {
            return (
                GroupKey::Heap(obj.start),
                ObjectReport {
                    start: obj.start,
                    end: obj.start + obj.size,
                    size: obj.size,
                    site: SiteKind::Heap {
                        callsite: obj.callsite.clone(),
                        owner: obj.owner,
                    },
                },
            );
        }
        let line = geom.line_index(addr);
        (
            GroupKey::Line(line),
            ObjectReport {
                start: geom.line_start(line),
                end: geom.line_start(line) + geom.line_size(),
                size: geom.line_size(),
                site: SiteKind::Unknown,
            },
        )
    };

    // Source attribution for flight-recorder traces — same precedence as
    // `attribute` but label-only, and without re-emitting callsite events.
    let site_of = |addr: u64| -> String {
        if let Some(g) = rt0.global_at(addr) {
            return g.name;
        }
        if let Some(obj) = heap.and_then(|h| h.object_at(addr)) {
            if let Some(frame) = heap
                .and_then(|h| h.resolve_callsite(obj.callsite))
                .and_then(|cs| cs.frames.first().map(|f| f.to_string()))
            {
                return frame;
            }
            return format!("{:#x}", obj.start);
        }
        if let Some(obj) = directory.and_then(|d| d.object_at(addr)) {
            if let Some(frame) = obj.callsite.frames.first() {
                return frame.to_string();
            }
            return format!("{:#x}", obj.start);
        }
        format!("{addr:#x}")
    };

    // Replays the flight recorder's rings for a finding's physical lines
    // into an embedded timeline plus the last K invalidation traces.
    let flight = predator_obs::recorder::recorder();
    let flight_data = |line_starts: &[u64]| -> (Vec<TimelineRecord>, Vec<InvalidationTrace>) {
        let mut recs = Vec::new();
        for &ls in line_starts {
            recs.extend(flight.line_records(ls));
        }
        if recs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        recs.sort_by_key(|r| r.seq);
        let timeline: Vec<TimelineRecord> = recs
            .iter()
            .rev()
            .take(MAX_TIMELINE_RECORDS)
            .rev()
            .map(|r| TimelineRecord {
                seq: r.seq,
                line: geom.line_index(r.line_start),
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
        let traces: Vec<InvalidationTrace> = recs
            .iter()
            .rev()
            .filter_map(|r| match r.kind {
                predator_obs::RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                } => {
                    let word_addr = r.line_start + (r.word as u64) * 8;
                    Some(InvalidationTrace {
                        seq: r.seq,
                        line: geom.line_index(r.line_start),
                        writer: ThreadId(r.tid),
                        writer_word: r.word,
                        victim: ThreadId(victim_tid),
                        victim_word,
                        site: site_of(word_addr),
                    })
                }
                _ => None,
            })
            .take(MAX_TRACES_PER_FINDING)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        (timeline, traces)
    };

    // ---- Observed findings: group reportable physical lines by object. ----
    struct ObsAgg {
        object: ObjectReport,
        class: SharingClass,
        invalidations: u64,
        accesses: u64,
        writes: u64,
        words: Vec<WordReport>,
        lines: Vec<u64>,
    }
    let mut observed: BTreeMap<GroupKey, ObsAgg> = BTreeMap::new();

    // Chain snapshots from every runtime, restoring global dense-index
    // order (shards own disjoint line sets, so this is a strict merge —
    // and it makes per-group aggregation order shard-count independent).
    let mut tracked: Vec<(usize, crate::track::TrackSnapshot)> =
        rts.iter().flat_map(|rt| rt.tracked_snapshots()).collect();
    tracked.sort_by_key(|(idx, _)| *idx);

    for (_, snap) in tracked {
        if snap.invalidations < cfg.report_threshold {
            continue;
        }
        let Some(class) = classify(&snap.words) else {
            continue;
        };
        // Attribute by the line's hottest active word.
        let hottest = snap
            .words
            .words()
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.total())
            .map(|(i, _)| snap.words.word_addr(i))
            .unwrap_or(snap.line_start);
        let (key, object) = attribute(hottest);
        let words: Vec<WordReport> = snap
            .words
            .words()
            .iter()
            .enumerate()
            .filter(|(_, w)| w.total() > 0)
            .map(|(i, w)| WordReport {
                addr: snap.words.word_addr(i),
                line: geom.line_index(snap.words.word_addr(i)),
                reads: w.reads,
                writes: w.writes,
                owner: w.owner,
            })
            .collect();
        let agg = observed.entry(key).or_insert_with(|| ObsAgg {
            object,
            class,
            invalidations: 0,
            accesses: 0,
            writes: 0,
            words: Vec::new(),
            lines: Vec::new(),
        });
        agg.invalidations += snap.invalidations;
        agg.accesses += snap.reads + snap.writes;
        agg.writes += snap.writes;
        agg.words.extend(words);
        agg.lines.push(snap.line_start);
        // Escalate classification: Mixed dominates.
        agg.class = match (agg.class, class) {
            (a, b) if a == b => a,
            _ => SharingClass::Mixed,
        };
    }

    let mut findings: Vec<Finding> = observed
        .into_values()
        .map(|a| {
            let (timeline, invalidation_traces) = flight_data(&a.lines);
            Finding {
                kind: FindingKind::Observed,
                class: a.class,
                object: a.object,
                invalidations: a.invalidations,
                accesses: a.accesses,
                writes: a.writes,
                words: a.words,
                virtual_lines: Vec::new(),
                timeline,
                invalidation_traces,
                verified: None,
            }
        })
        .collect();

    // ---- Predicted findings: group verified units by (object, scenario). --
    let predict_span = predator_obs::span("predict");
    struct PredAgg {
        object: ObjectReport,
        invalidations: u64,
        accesses: u64,
        words: Vec<WordReport>,
        vlines: Vec<VirtualRange>,
        lines: Vec<u64>,
    }
    // Remap units are grouped per delta (different deltas are *alternative*
    // what-if worlds); the per-object finding keeps the worst delta. Scaled
    // units group per factor.
    let mut doubled: BTreeMap<GroupKey, PredAgg> = BTreeMap::new();
    let mut scaled: BTreeMap<(GroupKey, u32), PredAgg> = BTreeMap::new();
    let mut remap: BTreeMap<(GroupKey, u64), PredAgg> = BTreeMap::new();

    let mut unit_snaps: Vec<crate::predict::UnitSnapshot> =
        rts.iter().flat_map(|rt| rt.unit_snapshots()).collect();
    unit_snaps.sort_by_key(|s| s.key);
    for unit in &unit_snaps {
        if unit.invalidations < cfg.report_threshold {
            continue;
        }
        let (key, object) = attribute(unit.origin.x.addr);
        let words = vec![
            WordReport {
                addr: unit.origin.x.addr,
                line: geom.line_index(unit.origin.x.addr),
                reads: unit.origin.x.state.reads,
                writes: unit.origin.x.state.writes,
                owner: unit.origin.x.state.owner,
            },
            WordReport {
                addr: unit.origin.y.addr,
                line: geom.line_index(unit.origin.y.addr),
                reads: unit.origin.y.state.reads,
                writes: unit.origin.y.state.writes,
                owner: unit.origin.y.state.owner,
            },
        ];
        let fresh = || PredAgg {
            object,
            invalidations: 0,
            accesses: 0,
            words: Vec::new(),
            vlines: Vec::new(),
            lines: Vec::new(),
        };
        let slot = match unit.key.kind {
            UnitKind::Doubled => doubled.entry(key).or_insert_with(fresh),
            UnitKind::Scaled { factor_log2 } => {
                scaled.entry((key, factor_log2)).or_insert_with(fresh)
            }
            UnitKind::Remap { delta } => remap.entry((key, delta)).or_insert_with(fresh),
        };
        slot.invalidations += unit.invalidations;
        slot.accesses += unit.accesses;
        slot.words.extend(words);
        slot.vlines.push(unit.range);
        // Physical lines backing the hot pair — the recorder keys by those.
        slot.lines.push(geom.align_down(unit.origin.x.addr));
        slot.lines.push(geom.align_down(unit.origin.y.addr));
        slot.lines.sort_unstable();
        slot.lines.dedup();
    }

    findings.extend(doubled.into_values().map(|a| {
        let (timeline, invalidation_traces) = flight_data(&a.lines);
        Finding {
            kind: FindingKind::PredictedDoubled,
            class: SharingClass::FalseSharing,
            object: a.object,
            invalidations: a.invalidations,
            accesses: a.accesses,
            writes: a.words.iter().map(|w| w.writes).sum(),
            words: a.words,
            virtual_lines: a.vlines,
            timeline,
            invalidation_traces,
            verified: None,
        }
    }));

    findings.extend(scaled.into_iter().map(|((_, factor_log2), a)| {
        let (timeline, invalidation_traces) = flight_data(&a.lines);
        Finding {
            kind: FindingKind::PredictedScaled { factor_log2 },
            class: SharingClass::FalseSharing,
            object: a.object,
            invalidations: a.invalidations,
            accesses: a.accesses,
            writes: a.words.iter().map(|w| w.writes).sum(),
            words: a.words,
            virtual_lines: a.vlines,
            timeline,
            invalidation_traces,
            verified: None,
        }
    }));

    // Worst delta per object.
    let mut best_remap: BTreeMap<GroupKey, (u64, PredAgg)> = BTreeMap::new();
    for ((key, delta), agg) in remap {
        match best_remap.get(&key) {
            Some((_, existing)) if existing.invalidations >= agg.invalidations => {}
            _ => {
                best_remap.insert(key, (delta, agg));
            }
        }
    }
    findings.extend(best_remap.into_values().map(|(delta, a)| {
        let (timeline, invalidation_traces) = flight_data(&a.lines);
        Finding {
            kind: FindingKind::PredictedRemap { delta },
            class: SharingClass::FalseSharing,
            object: a.object,
            invalidations: a.invalidations,
            accesses: a.accesses,
            writes: a.words.iter().map(|w| w.writes).sum(),
            words: a.words,
            virtual_lines: a.vlines,
            timeline,
            invalidation_traces,
            verified: None,
        }
    }));
    drop(predict_span);

    // ---- Rank by projected impact. ----
    findings.sort_by_key(|f| std::cmp::Reverse(f.invalidations));

    let stats = RunStats {
        events: rts.iter().map(|rt| rt.events()).sum(),
        observed_invalidations: rts.iter().map(|rt| rt.total_invalidations()).sum(),
        tracked_lines: rts.iter().map(|rt| rt.tracked_lines()).sum(),
        total_lines: rt0.layout().lines(),
        prediction_units: unit_snaps.len(),
        // The fixed shadow arrays are per-layout and identical across
        // shards: count them once, then add every shard's dynamic metadata.
        metadata_bytes: rt0.metadata_fixed_bytes()
            + rts
                .iter()
                .map(|rt| rt.metadata_dynamic_bytes())
                .sum::<usize>()
            + rts[1..]
                .iter()
                .map(|rt| rt.metadata_published_bytes())
                .sum::<usize>(),
        app_live_bytes: match attr {
            Attribution::Heap(h) => h.live_bytes(),
            Attribution::Directory(d) => d.live_bytes(),
            Attribution::None => 0,
        },
    };

    // Settle each prediction unit's fate now that the run is over: verified
    // (invalidations reached the report threshold) or discarded.
    let verified = unit_snaps
        .iter()
        .filter(|u| u.invalidations >= cfg.report_threshold)
        .count();
    predator_obs::global()
        .gauge("predict_units_verified")
        .set(verified as i64);
    predator_obs::global()
        .gauge("predict_units_discarded")
        .set((unit_snaps.len() - verified) as i64);
    let sink = predator_obs::events();
    if sink.enabled() {
        for unit in &unit_snaps {
            let fate = if unit.invalidations >= cfg.report_threshold {
                "unit_verified"
            } else {
                "unit_discarded"
            };
            sink.emit(
                fate,
                &[
                    ("start", predator_obs::FieldVal::U64(unit.range.start)),
                    (
                        "invalidations",
                        predator_obs::FieldVal::U64(unit.invalidations),
                    ),
                ],
            );
        }
    }

    let tl = predator_obs::timeline();
    if tl.enabled() {
        tl.instant(
            "report_emitted",
            "detector",
            predator_obs::host_lane(),
            vec![
                ("findings", predator_obs::ArgVal::U64(findings.len() as u64)),
                (
                    "false_sharing",
                    predator_obs::ArgVal::U64(
                        findings
                            .iter()
                            .filter(|f| {
                                matches!(f.class, SharingClass::FalseSharing | SharingClass::Mixed)
                            })
                            .count() as u64,
                    ),
                ),
            ],
        );
    }
    // Level, not counter: serve-mode alert rules watch this for findings
    // appearing (or regressing away) between report builds.
    predator_obs::global()
        .gauge("predator_report_findings")
        .set(findings.len() as i64);

    drop(detect_span); // record the detect phase before capturing the snapshot
    Report {
        findings,
        stats,
        obs: ObsSnapshot::capture(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use predator_sim::AccessKind::{Read, Write};

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
        let rt = rt(); // sampling off, prediction on, tracking threshold 4
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
    fn markdown_rendering_includes_table_and_details() {
        let rt = rt();
        rt.register_global("victim", BASE, 64);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        let md = r.to_markdown();
        assert!(md.starts_with("# PREDATOR report"), "{md}");
        assert!(md.contains("| # | class | detection |"), "{md}");
        assert!(md.contains("`victim`"), "{md}");
        assert!(md.contains("## Finding 0"), "{md}");
        assert!(md.contains("FALSE SHARING GLOBAL VARIABLE"), "{md}");
        assert!(md.contains("events;"), "{md}");
    }

    #[test]
    fn markdown_for_empty_report() {
        let rt = rt();
        let md = build_report(&rt, None).to_markdown();
        assert!(md.contains("No sharing problems"), "{md}");
    }

    #[test]
    fn json_roundtrip() {
        let rt = rt();
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn callsite_keys_identify_sites_across_runs() {
        use predator_alloc::Frame;
        let heap_site = SiteKind::Heap {
            callsite: Callsite::from_frames(vec![Frame::new("a.c", 10), Frame::new("b.c", 20)]),
            owner: ThreadId(3),
        };
        // Owner thread must not leak into the key: the same allocation site
        // may be reached from different threads in different runs.
        let heap_site_other_owner = SiteKind::Heap {
            callsite: Callsite::from_frames(vec![Frame::new("a.c", 10), Frame::new("b.c", 20)]),
            owner: ThreadId(7),
        };
        assert_eq!(heap_site.stable_key(0x40), "heap:a.c:10<b.c:20");
        assert_eq!(
            heap_site.stable_key(0x40),
            heap_site_other_owner.stable_key(0x80)
        );
        assert_eq!(
            SiteKind::Global {
                name: "hist".into()
            }
            .stable_key(0x40),
            "global:hist"
        );
        assert_eq!(SiteKind::Unknown.stable_key(0x40), "addr:0x40");

        // Scenario families: remap drops its delta, scaled keeps its factor.
        assert_eq!(FindingKind::Observed.family(), "observed");
        assert_eq!(
            FindingKind::PredictedRemap { delta: 8 }.family(),
            FindingKind::PredictedRemap { delta: 24 }.family()
        );
        assert_ne!(
            FindingKind::PredictedScaled { factor_log2: 2 }.family(),
            FindingKind::PredictedScaled { factor_log2: 3 }.family()
        );
    }

    #[test]
    fn finding_callsite_key_combines_family_and_site() {
        let rt = rt();
        rt.register_global("victim", BASE, 64);
        for i in 0..400u64 {
            rt.handle_access(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8, Write);
        }
        let r = build_report(&rt, None);
        assert_eq!(r.findings[0].callsite_key(), "observed|global:victim");
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
}
