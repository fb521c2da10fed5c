//! The part of a `--format json` report the benchmark holds the program to.
//!
//! Essence, not bytes: a later report addition (a new block, a new field)
//! does not break the gate, while a changed count or a lost finding does.

use predator_core::{FindingKind, FixVerdict, Report};
use predator_workloads::Expectation;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindingEssence {
    pub kind: FindingKind,
    pub start: u64,
    pub end: u64,
    pub invalidations: u64,
    pub accesses: u64,
    pub writes: u64,
    /// What-if verdict; `None` on verbs that verify nothing.
    pub verdict: Option<FixVerdict>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Essence {
    pub events: u64,
    pub findings: Vec<FindingEssence>,
}

impl Essence {
    pub fn of(report: &Report) -> Essence {
        Essence {
            events: report.stats.events,
            findings: report
                .findings
                .iter()
                .map(|f| FindingEssence {
                    kind: f.kind,
                    start: f.object.start,
                    end: f.object.end,
                    invalidations: f.invalidations,
                    accesses: f.accesses,
                    writes: f.writes,
                    verdict: f.verified.as_ref().map(|v| v.verdict),
                })
                .collect(),
        }
    }
}

/// Parses what a `--format json` invocation printed.
pub fn parse_report(stdout: &str) -> Result<Report, String> {
    serde_json::from_str(stdout).map_err(|e| format!("not a JSON report: {e}"))
}

/// Holds a report against the ground truth its workload declares
/// (`Workload::expectation()`), which is the check that works for any seed.
pub fn check_expectation(report: &Report, expectation: Expectation) -> Result<(), String> {
    let (observed, predicted) = (
        report.has_observed_false_sharing(),
        report.has_predicted_false_sharing(),
    );
    let ok = match expectation {
        Expectation::Clean => !observed && !predicted,
        Expectation::Observed => observed,
        Expectation::PredictedOnly => !observed && predicted,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "expected {expectation:?}, report has observed={observed} predicted={predicted}"
        ))
    }
}

/// Why `got` is not what the benchmark expects, or `Ok` if it is.
pub fn check_essence(got: &Essence, want: &Essence, against: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.events != want.events {
        return Err(format!(
            "stats.events {} differs from {against} ({})",
            got.events, want.events
        ));
    }
    if got.findings.len() != want.findings.len() {
        return Err(format!(
            "{} findings, {against} has {}",
            got.findings.len(),
            want.findings.len()
        ));
    }
    let i = (0..got.findings.len())
        .find(|&i| got.findings[i] != want.findings[i])
        .expect("unequal essences with equal events and lengths differ in a finding");
    Err(format!(
        "finding {i} is {:?}, {against} has {:?}",
        got.findings[i], want.findings[i]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::DetectorConfig;
    use predator_workloads::{by_name, run_and_report, WorkloadConfig};

    fn histogram_report() -> Report {
        let w = by_name("histogram").unwrap();
        run_and_report(
            w.as_ref(),
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        )
    }

    #[test]
    fn essence_survives_the_json_round_trip_the_cli_output_takes() {
        let report = histogram_report();
        let parsed = parse_report(&report.to_json()).unwrap();
        assert!(!report.findings.is_empty());
        assert_eq!(Essence::of(&parsed), Essence::of(&report));
        check_expectation(&parsed, Expectation::Observed).unwrap();
        assert!(check_expectation(&parsed, Expectation::Clean).is_err());
    }

    #[test]
    fn garbage_is_not_a_report() {
        assert!(parse_report("recorded 3 events").is_err());
    }
}
