//! # predator-policy
//!
//! The policy engine that sits between PREDATOR's detection layer and its
//! output: it decides *what a finding means for this team* — how severe it
//! is, whether it is already known, and whether it should fail the build —
//! and renders the verdict in CI-native formats.
//!
//! The paper (§6) frames findings as prescriptions to the programmer; this
//! crate makes them enforceable. The layers:
//!
//! * [`severity`] — the `info < warning < error` scale and `--fail-on`
//!   parsing;
//! * [`rules`] — the threshold classification policy;
//! * [`suppress`] — per-site suppressions keyed by callsite key;
//! * [`baseline`] — known-findings snapshots (`predator baseline
//!   write|diff`) so only *new* findings gate;
//! * [`engine`] — the classify → suppress → baseline → gate pipeline;
//! * [`compare`] — the shared comparison engine behind report diffs,
//!   fleet trends, and baseline diffs;
//! * [`diff`] — report-vs-report diffing (`predator diff`);
//! * [`sarif`], [`html`] — the SARIF 2.1.0 and self-contained HTML
//!   reporters, both embedding fix suggestions.

pub mod baseline;
pub mod compare;
pub mod diff;
pub mod engine;
pub mod html;
pub mod rules;
pub mod sarif;
pub mod severity;
pub mod suppress;

pub use baseline::{Baseline, BASELINE_SCHEMA};
pub use compare::{classify, compare_maps, Delta, DeltaEntry};
pub use diff::{diff_reports, FindingId, ReportDiff, SeverityChange};
pub use engine::{evaluate_report, evaluate_views, Evaluation, FindingDecision, PolicyConfig};
pub use html::to_html;
pub use rules::{FindingView, ThresholdPolicy};
pub use sarif::{to_sarif, to_sarif_string, SARIF_SCHEMA, SARIF_VERSION};
pub use severity::Severity;
pub use suppress::{SuppressRule, Suppressions};
