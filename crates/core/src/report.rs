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

use serde::{Deserialize, Serialize};

use predator_alloc::Callsite;
use predator_sim::{CacheGeometry, Owner, ThreadId, VirtualRange, WordState};

use crate::detect::SharingClass;
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

impl ObjectReport {
    /// The object at `start`; a `size` that would wrap the address space
    /// (sizes arrive from trace metadata) clamps the printed `end`.
    pub fn new(start: u64, size: u64, site: SiteKind) -> Self {
        ObjectReport {
            start,
            end: start.saturating_add(size),
            size,
            site,
        }
    }

    /// Short source label: first allocation frame, global name, or the hex
    /// start address when there is neither.
    pub fn label(&self) -> String {
        match &self.site {
            SiteKind::Heap { callsite, .. } if !callsite.frames.is_empty() => {
                callsite.frames[0].to_string()
            }
            SiteKind::Global { name } => name.clone(),
            _ => format!("{:#x}", self.start),
        }
    }
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

impl WordReport {
    /// The word at `addr` with its counters, on its `geom` line.
    pub fn new(geom: CacheGeometry, addr: u64, state: &WordState) -> Self {
        WordReport {
            addr,
            line: geom.line_index(addr),
            reads: state.reads,
            writes: state.writes,
            owner: state.owner,
        }
    }
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
    /// (`predator whatif`); `None` when
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_report;
    use crate::config::DetectorConfig;
    use crate::runtime::Predator;
    use predator_sim::AccessKind::Write;

    const BASE: u64 = 0x4000_0000;

    fn rt() -> Predator {
        Predator::new(DetectorConfig::sensitive(), BASE, 1 << 20)
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
    fn labels_name_the_first_frame_the_global_or_the_start() {
        use predator_alloc::Frame;
        let heap = |frames| SiteKind::Heap {
            callsite: Callsite::from_frames(frames),
            owner: ThreadId(0),
        };
        let frames = vec![Frame::new("a.c", 10), Frame::new("b.c", 20)];
        assert_eq!(ObjectReport::new(0x40, 8, heap(frames)).label(), "a.c:10");
        assert_eq!(ObjectReport::new(0x40, 8, heap(vec![])).label(), "0x40");
        let global = SiteKind::Global {
            name: "hist".into(),
        };
        assert_eq!(ObjectReport::new(0x40, 8, global).label(), "hist");
        assert_eq!(
            ObjectReport::new(0x40, 8, SiteKind::Unknown).label(),
            "0x40"
        );
    }
}
