//! The rule layer: the classification policy.
//!
//! [`ThresholdPolicy`] turns one finding's measurements into a
//! [`Severity`], the paper-faithful way — invalidation counts and rates are
//! *the* ranking signal (§4).

use predator_core::{Finding, FindingKind, SharingClass};

use crate::severity::Severity;

/// A classification policy's view of one finding: the measurements shared
/// by live [`Finding`]s and fleet callsite aggregates, so one policy
/// classifies both.
#[derive(Debug, Clone)]
pub struct FindingView<'a> {
    /// Stable callsite key (`Finding::callsite_key` form).
    pub key: &'a str,
    /// Detection scenario.
    pub kind: &'a FindingKind,
    /// False, true, or mixed sharing.
    pub class: SharingClass,
    /// Invalidations (per-run mean for aggregates).
    pub invalidations: u64,
    /// Sampled accesses on the involved lines.
    pub accesses: u64,
    /// Victim object size in bytes.
    pub object_size: u64,
}

impl<'a> FindingView<'a> {
    /// Borrows a live finding's measurements. The key must be the
    /// finding's `callsite_key()`, computed by the caller (it allocates).
    pub fn of(f: &'a Finding, key: &'a str) -> Self {
        FindingView {
            key,
            kind: &f.kind,
            class: f.class,
            invalidations: f.invalidations,
            accesses: f.accesses,
            object_size: f.object.size,
        }
    }
}

/// The threshold policy.
///
/// True sharing is [`Severity::Info`]: padding cannot fix it, so it should
/// not gate a merge by default. False and mixed sharing start at
/// [`Severity::Warning`] (the detector's own report threshold already
/// filtered noise) and escalate to [`Severity::Error`] when either the
/// absolute invalidation count or the invalidation *rate* (invalidations
/// per sampled access — scale-free across run lengths) crosses its
/// threshold.
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    /// Invalidations at or above this are at least a warning.
    pub warn_invalidations: u64,
    /// Invalidations at or above this are an error.
    pub error_invalidations: u64,
    /// Invalidations per sampled access at or above this are an error
    /// (guarded: rates only count once `accesses > 0`).
    pub error_rate: f64,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            warn_invalidations: 1,
            error_invalidations: 10_000,
            error_rate: 0.5,
        }
    }
}

impl ThresholdPolicy {
    /// The name reports carry for the policy that classified them.
    pub const NAME: &'static str = "threshold";

    /// Classifies one finding.
    pub fn classify(&self, view: &FindingView<'_>) -> Severity {
        if view.class == SharingClass::TrueSharing {
            return Severity::Info;
        }
        let rate = if view.accesses > 0 {
            view.invalidations as f64 / view.accesses as f64
        } else {
            0.0
        };
        if view.invalidations >= self.error_invalidations || rate >= self.error_rate {
            Severity::Error
        } else if view.invalidations >= self.warn_invalidations {
            Severity::Warning
        } else {
            Severity::Info
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(class: SharingClass, invalidations: u64, accesses: u64) -> FindingView<'static> {
        FindingView {
            key: "observed|global:x",
            kind: &FindingKind::Observed,
            class,
            invalidations,
            accesses,
            object_size: 64,
        }
    }

    #[test]
    fn threshold_policy_tiers() {
        let p = ThresholdPolicy::default();
        assert_eq!(
            p.classify(&view(SharingClass::TrueSharing, 1_000_000, 1_000_000)),
            Severity::Info
        );
        assert_eq!(
            p.classify(&view(SharingClass::FalseSharing, 100, 10_000)),
            Severity::Warning
        );
        assert_eq!(
            p.classify(&view(SharingClass::FalseSharing, 20_000, 1_000_000)),
            Severity::Error
        );
        // Rate escalation: few invalidations but nearly every access pays.
        assert_eq!(
            p.classify(&view(SharingClass::Mixed, 90, 100)),
            Severity::Error
        );
        // Zero accesses cannot divide; count thresholds still apply.
        assert_eq!(
            p.classify(&view(SharingClass::FalseSharing, 5, 0)),
            Severity::Warning
        );
    }
}
