//! Report diffing: compare two detector reports across code or layout
//! changes.
//!
//! A detector is most useful wired into CI: run the suite before and after a
//! change and ask *what appeared, what disappeared, what got worse*.
//! Findings are matched by identity — the object's source attribution (or
//! address when unattributed) plus the detection scenario — so reordering
//! and count jitter don't produce spurious churn; severity changes beyond a
//! tolerance are reported separately.
//!
//! Classification routes through [`crate::compare`], the same fold that
//! powers fleet trends and bench gates; this module keeps the
//! finding-identity keying and the historical output format.

use serde::{Deserialize, Serialize};

use predator_core::{Finding, FindingKind, Report};

use crate::compare::{compare_maps, Delta};

/// Stable identity of a finding across runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FindingId {
    /// Source attribution: first callsite frame, global name, or hex start
    /// address for unattributed memory.
    pub site: String,
    /// Detection scenario (observed / predicted variant), flattened to a
    /// stable string.
    pub kind: String,
}

impl FindingId {
    /// Derives the identity of `f`.
    pub fn of(f: &Finding) -> Self {
        let site = f.object.label();
        let kind = match f.kind {
            FindingKind::Observed => "observed".to_string(),
            FindingKind::PredictedDoubled => "predicted-2x".to_string(),
            FindingKind::PredictedScaled { factor_log2 } => {
                format!("predicted-{}x", 1u64 << factor_log2)
            }
            // Deltas are placement details, not identity: the same latent
            // bug can verify at a different shift after an unrelated change.
            FindingKind::PredictedRemap { .. } => "predicted-remap".to_string(),
        };
        FindingId { site, kind }
    }
}

/// A finding present in both runs whose severity moved beyond tolerance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeverityChange {
    /// Identity.
    pub id: FindingId,
    /// Invalidations in the old run.
    pub before: u64,
    /// Invalidations in the new run.
    pub after: u64,
}

/// The difference between two reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportDiff {
    /// Findings only in the new report (regressions).
    pub appeared: Vec<FindingId>,
    /// Findings only in the old report (fixed).
    pub resolved: Vec<FindingId>,
    /// Matched findings whose invalidation count changed by more than the
    /// tolerance factor.
    pub severity_changes: Vec<SeverityChange>,
}

impl ReportDiff {
    /// True when nothing appeared, resolved, or materially changed.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.resolved.is_empty() && self.severity_changes.is_empty()
    }

    /// True when the new report contains findings the old one lacked.
    pub fn has_regressions(&self) -> bool {
        !self.appeared.is_empty()
    }
}

impl std::fmt::Display for ReportDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return writeln!(f, "No finding changes.");
        }
        for id in &self.appeared {
            writeln!(f, "+ NEW      {} [{}]", id.site, id.kind)?;
        }
        for id in &self.resolved {
            writeln!(f, "- RESOLVED {} [{}]", id.site, id.kind)?;
        }
        for c in &self.severity_changes {
            writeln!(
                f,
                "~ CHANGED  {} [{}]: {} -> {} invalidations",
                c.id.site, c.id.kind, c.before, c.after
            )?;
        }
        Ok(())
    }
}

/// Diffs `new` against `old`.
///
/// `tolerance` is the relative invalidation-count change below which a
/// matched finding is considered unchanged (sampling and scheduling jitter
/// move counts run to run; 0.5 = flag only >50% swings).
pub fn diff_reports(old: &Report, new: &Report, tolerance: f64) -> ReportDiff {
    use std::collections::BTreeMap;
    let index = |r: &Report| -> BTreeMap<FindingId, u64> {
        let mut m = BTreeMap::new();
        for f in &r.findings {
            let e = m.entry(FindingId::of(f)).or_insert(0u64);
            *e += f.invalidations;
        }
        m
    };
    let old_idx = index(old);
    let new_idx = index(new);
    let as_f64 = |m: &BTreeMap<FindingId, u64>| -> BTreeMap<FindingId, f64> {
        m.iter().map(|(k, &v)| (k.clone(), v as f64)).collect()
    };

    let mut out = ReportDiff::default();
    for entry in compare_maps(&as_f64(&old_idx), &as_f64(&new_idx), tolerance) {
        match entry.delta {
            Delta::Added => out.appeared.push(entry.key),
            Delta::Removed => out.resolved.push(entry.key),
            Delta::Increased | Delta::Decreased => out.severity_changes.push(SeverityChange {
                before: old_idx[&entry.key],
                after: new_idx[&entry.key],
                id: entry.key,
            }),
            Delta::Steady => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::{Callsite, DetectorConfig, Frame, Session};

    fn run(broken: bool, intensity: u64) -> Report {
        let s = Session::new(DetectorConfig::sensitive(), 1 << 20);
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s
            .malloc(
                t0,
                192,
                Callsite::from_frames(vec![Frame::new("app.rs", 10)]),
            )
            .unwrap();
        let stride = if broken { 8 } else { 128 };
        for i in 0..intensity {
            s.write::<u64>(t0, obj.start, i);
            s.write::<u64>(t1, obj.start + stride, i);
        }
        s.report()
    }

    #[test]
    fn identical_runs_diff_empty() {
        let a = run(true, 500);
        let b = run(true, 500);
        let d = diff_reports(&a, &b, 0.5);
        assert!(d.is_empty(), "{d}");
        assert!(!d.has_regressions());
    }

    #[test]
    fn fixing_the_bug_shows_as_resolved() {
        let broken = run(true, 500);
        let fixed = run(false, 500);
        let d = diff_reports(&broken, &fixed, 0.5);
        assert!(!d.resolved.is_empty(), "{d}");
        assert!(d.appeared.is_empty());
        assert!(d.to_string().contains("- RESOLVED app.rs:10"));
    }

    #[test]
    fn introducing_the_bug_is_a_regression() {
        let fixed = run(false, 500);
        let broken = run(true, 500);
        let d = diff_reports(&fixed, &broken, 0.5);
        assert!(d.has_regressions(), "{d}");
        assert!(d.to_string().contains("+ NEW      app.rs:10"));
    }

    #[test]
    fn severity_growth_beyond_tolerance_is_flagged() {
        let mild = run(true, 500);
        let severe = run(true, 5_000);
        let d = diff_reports(&mild, &severe, 0.5);
        assert!(d.appeared.is_empty(), "{d}");
        assert_eq!(d.severity_changes.len(), 1, "{d}");
        let c = &d.severity_changes[0];
        assert!(c.after > c.before * 5);
        // Small jitter stays quiet.
        let jitter = run(true, 510);
        let d = diff_reports(&mild, &jitter, 0.5);
        assert!(d.severity_changes.is_empty(), "{d}");
    }

    #[test]
    fn remap_delta_is_not_part_of_identity() {
        let a = FindingId {
            site: "x".into(),
            kind: "predicted-remap".into(),
        };
        // Two findings with different deltas map to the same id.
        let s = Session::new(DetectorConfig::sensitive(), 1 << 20);
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s.malloc(t0, 128, Callsite::here()).unwrap();
        for _ in 0..600 {
            s.write::<u64>(t0, obj.start + 56, 1);
            s.write::<u64>(t1, obj.start + 64, 2);
        }
        let r = s.report();
        let remap = r
            .findings
            .iter()
            .find(|f| matches!(f.kind, predator_core::FindingKind::PredictedRemap { .. }))
            .unwrap();
        assert_eq!(FindingId::of(remap).kind, a.kind);
    }
}
