//! `predator diff` and `predator baseline write|diff`: one JSON report
//! against another, or against the callsite keys a baseline file pins.

use std::path::Path;
use std::process::ExitCode;

use predator_core::Report;
use predator_policy::{diff_reports, Baseline};

use crate::args::{tolerance, Args};

/// Reads a JSON report (from `run`/`analyze --format json`).
pub(crate) fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: not a JSON report: {e}"))
}

pub(crate) fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let old = load_report(&args.operands[0])?;
    let new = load_report(&args.operands[1])?;
    let tolerance = tolerance(args)?;
    let diff = diff_reports(&old, &new, tolerance);
    print!("{diff}");
    if diff.has_regressions() {
        // Gate failure, not an error: the exit code travels back through
        // main so Drop guards (event sink, timeline) still flush.
        eprintln!("GATE: FAIL — {} new finding(s)", diff.appeared.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_baseline_write(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let out = args
        .get("--out")
        .ok_or("baseline write: missing output path (-o <baseline.json>)")?;
    let b = Baseline::from_report(&load_report(path)?);
    b.save(Path::new(out))?;
    println!(
        "baseline {out}: {} callsite key(s) from {path}",
        b.entries.len()
    );
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_baseline_diff(args: &Args) -> Result<ExitCode, String> {
    let (bpath, rpath) = (&args.operands[0], &args.operands[1]);
    let tolerance = tolerance(args)?;
    let b = Baseline::load(Path::new(bpath))?;
    let entries = b.diff(&load_report(rpath)?, tolerance);
    use predator_policy::Delta;
    let mut new_keys = 0usize;
    for e in &entries {
        let label = match e.delta {
            Delta::Added => {
                new_keys += 1;
                "NEW"
            }
            Delta::Removed => "FIXED",
            Delta::Increased => "WORSE",
            Delta::Decreased => "BETTER",
            Delta::Steady => "steady",
        };
        println!(
            "  {label:<7} {:>12} -> {:>12}  {}",
            e.before as u64, e.after as u64, e.key
        );
    }
    if entries.is_empty() {
        println!("  (baseline and report agree: no findings either side)");
    }
    if new_keys > 0 {
        eprintln!("GATE: FAIL — {new_keys} callsite(s) not in baseline");
        return Ok(ExitCode::FAILURE);
    }
    println!("GATE: ok (tolerance {:.0}%)", tolerance * 100.0);
    Ok(ExitCode::SUCCESS)
}
