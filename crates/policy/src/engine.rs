//! The evaluation engine: classify → suppress → baseline → gate.
//!
//! [`evaluate_report`] runs every finding of a report through that fixed
//! pipeline and returns one [`FindingDecision`] per finding plus the gate
//! verdict. The stages are ordered so each narrows what the next sees:
//!
//! 1. **classify** — the [`ThresholdPolicy`] assigns a [`Severity`] from
//!    the finding's measurements; every finding gets one, always.
//! 2. **suppress** — if the callsite key matches a suppression rule, the
//!    finding is marked suppressed and can never gate (but still appears
//!    in reports, flagged, so reviewers see what the list hides).
//! 3. **baseline** — if the key exists in the loaded baseline, the finding
//!    is known debt: reported, never gating.
//! 4. **gate** — a surviving finding gates iff `--fail-on` is set and its
//!    severity is at or above the threshold.

use predator_core::Report;
use predator_obs::static_counter;

use crate::baseline::Baseline;
use crate::rules::{FindingView, ThresholdPolicy};
use crate::severity::Severity;
use crate::suppress::Suppressions;

/// Everything the engine needs to evaluate a report.
#[derive(Debug, Clone, Default)]
pub struct PolicyConfig {
    /// Per-site suppressions (default: none).
    pub suppressions: Suppressions,
    /// Known-findings baseline (default: none).
    pub baseline: Option<Baseline>,
    /// Gate threshold; `None` disables gating entirely.
    pub fail_on: Option<Severity>,
}

/// The engine's verdict on one finding.
#[derive(Debug, Clone, PartialEq)]
pub struct FindingDecision {
    /// Index into `report.findings`.
    pub index: usize,
    /// The finding's callsite key.
    pub key: String,
    /// Classified severity.
    pub severity: Severity,
    /// Matched a suppression rule.
    pub suppressed: bool,
    /// Present in the baseline.
    pub baselined: bool,
    /// Counts toward the `--fail-on` gate (neither suppressed nor
    /// baselined, severity at or above the threshold).
    pub gating: bool,
}

/// The evaluated report: one decision per finding plus the gate verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evaluation {
    /// Decisions, in `report.findings` order.
    pub decisions: Vec<FindingDecision>,
    /// The gate threshold this evaluation ran under.
    pub fail_on: Option<Severity>,
    /// The policy name that classified the findings.
    pub policy_name: String,
}

impl Evaluation {
    /// Findings that count toward the gate.
    pub fn gating(&self) -> impl Iterator<Item = &FindingDecision> {
        self.decisions.iter().filter(|d| d.gating)
    }

    /// True when gating is enabled and at least one finding gates.
    pub fn gate_failed(&self) -> bool {
        self.fail_on.is_some() && self.decisions.iter().any(|d| d.gating)
    }

    /// One-line gate summary for stderr, e.g.
    /// `2 finding(s) at or above warning (1 suppressed, 3 baselined)`.
    pub fn gate_summary(&self) -> String {
        let threshold = self
            .fail_on
            .map(|s| s.as_str())
            .unwrap_or("(gate disabled)");
        let gating = self.decisions.iter().filter(|d| d.gating).count();
        let suppressed = self.decisions.iter().filter(|d| d.suppressed).count();
        let baselined = self.decisions.iter().filter(|d| d.baselined).count();
        format!(
            "{gating} finding(s) at or above {threshold} ({suppressed} suppressed, {baselined} baselined)"
        )
    }
}

/// Evaluates a sequence of [`FindingView`]s under `config` — the shared
/// pipeline body behind [`evaluate_report`] (live findings) and the fleet
/// report gate (callsite aggregates). Decisions come back in input order.
pub fn evaluate_views<'a>(
    views: impl IntoIterator<Item = FindingView<'a>>,
    config: &PolicyConfig,
) -> Evaluation {
    let policy = ThresholdPolicy::default();
    let mut decisions = Vec::new();
    for (index, view) in views.into_iter().enumerate() {
        let severity = policy.classify(&view);
        static_counter!("policy_findings_classified_total").inc();
        let suppressed = config.suppressions.is_suppressed(view.key);
        if suppressed {
            static_counter!("policy_suppressed_total").inc();
        }
        let baselined = config
            .baseline
            .as_ref()
            .is_some_and(|b| b.contains(view.key));
        if baselined {
            static_counter!("policy_baselined_total").inc();
        }
        let gating = !suppressed
            && !baselined
            && config
                .fail_on
                .is_some_and(|threshold| severity >= threshold);
        if gating {
            static_counter!("policy_gate_failures_total").inc();
        }
        decisions.push(FindingDecision {
            index,
            key: view.key.to_string(),
            severity,
            suppressed,
            baselined,
            gating,
        });
    }
    Evaluation {
        decisions,
        fail_on: config.fail_on,
        policy_name: ThresholdPolicy::NAME.to_string(),
    }
}

/// Evaluates every finding of `report` under `config`. Decisions come back
/// in finding order, so `decisions[i]` describes `report.findings[i]`.
pub fn evaluate_report(report: &Report, config: &PolicyConfig) -> Evaluation {
    let keys: Vec<String> = report.findings.iter().map(|f| f.callsite_key()).collect();
    evaluate_views(
        report
            .findings
            .iter()
            .zip(&keys)
            .map(|(f, key)| FindingView::of(f, key)),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::{Callsite, DetectorConfig, Frame, Session};

    fn report() -> Report {
        let s = Session::new(DetectorConfig::sensitive(), 1 << 20);
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s
            .malloc(
                t0,
                64,
                Callsite::from_frames(vec![Frame::new("gate.rs", 7)]),
            )
            .unwrap();
        for i in 0..500u64 {
            s.write::<u64>(t0, obj.start, i);
            s.write::<u64>(t1, obj.start + 8, i);
        }
        s.report()
    }

    #[test]
    fn default_config_reports_but_never_gates() {
        let r = report();
        assert!(!r.findings.is_empty());
        let eval = evaluate_report(&r, &PolicyConfig::default());
        assert_eq!(eval.decisions.len(), r.findings.len());
        assert!(!eval.gate_failed());
        assert!(eval.decisions.iter().all(|d| !d.gating));
    }

    #[test]
    fn fail_on_warning_gates_unsuppressed_findings() {
        let r = report();
        let cfg = PolicyConfig {
            fail_on: Some(Severity::Warning),
            ..Default::default()
        };
        let eval = evaluate_report(&r, &cfg);
        assert!(eval.gate_failed(), "{}", eval.gate_summary());
        assert!(eval.gating().count() > 0);
    }

    #[test]
    fn suppression_disarms_the_gate() {
        let r = report();
        let key = r.findings[0].callsite_key();
        let cfg = PolicyConfig {
            suppressions: Suppressions::parse(&format!("{key}\n")),
            fail_on: Some(Severity::Info),
            ..Default::default()
        };
        let eval = evaluate_report(&r, &cfg);
        let d = &eval.decisions[0];
        assert!(d.suppressed);
        assert!(!d.gating);
        // Other findings may still gate; the suppressed one never does.
        assert!(eval.gating().all(|g| g.key != key));
    }

    #[test]
    fn baseline_silences_known_findings_only() {
        let r = report();
        let cfg = PolicyConfig {
            baseline: Some(Baseline::from_report(&r)),
            fail_on: Some(Severity::Info),
            ..Default::default()
        };
        let eval = evaluate_report(&r, &cfg);
        assert!(!eval.gate_failed(), "{}", eval.gate_summary());
        assert!(eval.decisions.iter().all(|d| d.baselined));

        // An empty baseline silences nothing.
        let cfg = PolicyConfig {
            baseline: Some(Baseline::default()),
            fail_on: Some(Severity::Info),
            ..Default::default()
        };
        assert!(evaluate_report(&r, &cfg).gate_failed());
    }

    #[test]
    fn fail_on_error_passes_a_warning_only_report() {
        let r = report();
        let cfg = PolicyConfig {
            fail_on: Some(Severity::Error),
            ..Default::default()
        };
        let eval = evaluate_report(&r, &cfg);
        // The synthetic workload produces warning-tier findings (500
        // invalidations, low rate); an error gate must not trip on them.
        if eval.decisions.iter().all(|d| d.severity < Severity::Error) {
            assert!(!eval.gate_failed(), "{}", eval.gate_summary());
        }
    }
}
