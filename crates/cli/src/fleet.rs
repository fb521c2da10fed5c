//! `predator fleet ingest|report|trend|compact`: many recordings as one
//! corpus.

use std::path::Path;
use std::process::ExitCode;

use predator_core::{ObsSnapshot, Report};
use predator_policy::{evaluate_views, FindingView};
use predator_trace::AnalyzeConfig;

use crate::args::{detector_config, policy_config, tolerance, Args};
use crate::detect::{emit_report, gate_exit, Format};
use crate::trace::warn_loss;

/// `--corpus <dir>`, which every fleet verb needs.
fn corpus(args: &Args) -> Result<&Path, String> {
    let dir = args.get("--corpus");
    dir.map(Path::new)
        .ok_or_else(|| format!("{}: missing --corpus <dir>", args.verb.name()))
}

pub(crate) fn cmd_fleet_ingest(args: &Args) -> Result<ExitCode, String> {
    let dir = corpus(args)?;
    let paths: Vec<std::path::PathBuf> =
        args.operands.iter().map(std::path::PathBuf::from).collect();
    let cfg = AnalyzeConfig {
        det: detector_config(args)?,
    };
    let outcomes = predator_fleet::ingest(dir, &paths, &cfg)?;
    for o in &outcomes {
        if o.added {
            println!(
                "ingested {}: {} event(s), {} finding(s), {} bytes",
                o.id, o.events, o.findings, o.bytes
            );
        } else {
            println!("skipped {}: already in corpus", o.id);
        }
    }
    let m = predator_fleet::Manifest::load_required(dir)?;
    println!(
        "corpus {}: {} run(s), {} event(s)",
        dir.display(),
        m.runs(),
        m.events()
    );
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_fleet_report(args: &Args) -> Result<ExitCode, String> {
    let dir = corpus(args)?;
    let m = predator_fleet::Manifest::load_required(dir)?;
    // --run <id>: one member's stored per-run report, in the same formats
    // `analyze` emits (the corpus keeps findings+stats verbatim; the obs
    // section is process-global and freshly captured, as everywhere else).
    if let Some(id) = args.get("--run") {
        let t = m.find(id).ok_or_else(|| {
            format!(
                "fleet report: no run `{id}` in {} (see `fleet report` for member ids)",
                dir.display()
            )
        })?;
        warn_loss(&dir.join(&t.file).display().to_string(), &t.loss);
        let report = Report {
            findings: t.findings.clone(),
            stats: t.stats,
            obs: ObsSnapshot::capture(),
        };
        return emit_report(args, &m.config, &report);
    }
    let r = predator_fleet::build_fleet_report(&m);
    match Format::of(args)? {
        Format::Json => println!("{}", r.to_json()),
        Format::Text | Format::Markdown => print!("{r}"),
        Format::Sarif | Format::Html => {
            return Err(
                "fleet report: --format sarif|html renders per-run reports only \
                 (add --run <id>)"
                    .into(),
            )
        }
    }
    // The merged aggregates gate through the same classify → suppress →
    // baseline → gate pipeline as live findings; per-run *mean*
    // invalidations keep the policy thresholds scale-free in corpus size.
    let pcfg = policy_config(args)?;
    let eval = evaluate_views(
        r.aggregates.iter().map(|a| {
            let runs = a.runs.max(1);
            FindingView {
                key: &a.key,
                kind: &a.kind,
                class: a.class,
                invalidations: a.total_invalidations / runs,
                accesses: a.total_accesses / runs,
                object_size: a.object_size,
            }
        }),
        &pcfg,
    );
    Ok(gate_exit(&eval))
}

pub(crate) fn cmd_fleet_trend(args: &Args) -> Result<ExitCode, String> {
    let dir = corpus(args)?;
    let baseline = args
        .get("--baseline")
        .ok_or("fleet trend: missing --baseline <corpus dir or corpus.json>")?;
    // Accept the corpus directory or its manifest file interchangeably.
    let bpath = Path::new(baseline);
    let bdir = if bpath.is_file() {
        bpath
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
    } else {
        bpath
    };
    let tolerance = tolerance(args)?;
    let base = predator_fleet::build_fleet_report(&predator_fleet::Manifest::load_required(bdir)?);
    let cur = predator_fleet::build_fleet_report(&predator_fleet::Manifest::load_required(dir)?);
    let t = predator_fleet::trend(&base, &cur, tolerance);
    let format = Format::of(args)?;
    match format {
        Format::Json => println!("{}", t.to_json()),
        Format::Text | Format::Markdown => print!("{t}"),
        Format::Sarif | Format::Html => {
            return Err(
                "fleet trend: --format sarif|html renders per-run reports only \
                 (see `fleet report --run <id>`)"
                    .into(),
            )
        }
    }
    if args.has("--fail-on-regression") {
        if t.has_regressions() {
            // Gate failure, not an error: the code travels back through
            // main so Drop guards still flush (same contract as `diff`).
            eprintln!(
                "GATE: FAIL — {} new, {} regressed callsite(s)",
                t.count(predator_fleet::TrendStatus::New),
                t.count(predator_fleet::TrendStatus::Regressed)
            );
            return Ok(ExitCode::FAILURE);
        }
        // A JSON document owns stdout; the verdict goes where `gate_exit`'s do.
        let verdict = format!("GATE: ok (tolerance {:.0}%)", tolerance * 100.0);
        match format {
            Format::Json => eprintln!("{verdict}"),
            _ => println!("{verdict}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_fleet_compact(args: &Args) -> Result<ExitCode, String> {
    let dir = corpus(args)?;
    let keep: usize = args
        .get("--keep")
        .ok_or("fleet compact: missing --keep <N>")?
        .parse()
        .map_err(|_| "invalid value for --keep".to_string())?;
    let out = predator_fleet::compact(dir, keep)?;
    println!(
        "compacted {}: dropped {} raw trace(s), kept {}, reclaimed {} bytes",
        dir.display(),
        out.dropped,
        out.kept,
        out.bytes_reclaimed
    );
    Ok(ExitCode::SUCCESS)
}
