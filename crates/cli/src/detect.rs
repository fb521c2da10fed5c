//! The verbs that run the detector — live (`run`, `ir`, `native`, `record`)
//! and over a recording (`analyze`, `replay`, `whatif`) — and the one way a
//! report leaves the process: [`emit_report`] through [`Format::render`].

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use predator_core::{
    build_report, suggest_fixes, DetectorConfig, LayoutEdit, Predator, Report, Session,
};
use predator_instrument::{
    instrument_module, parse_module, InstrumentOptions, Machine, ThreadSpec,
};
use predator_policy::{evaluate_report, to_html, to_sarif_string, Evaluation};
use predator_shadow::SimSpace;
use predator_sim::{Access, CacheGeometry, Schedule, ThreadId};
use predator_trace::{
    analyze_file, whatif_events, AnalyzeConfig, TraceMeta, TraceReader, TraceSink, WhatIfFix,
};
use predator_workloads::{all, by_name, run_and_report};

use crate::args::{detector_config, ignored_shards, policy_config, workload_config, Args};
use crate::trace::{warn_loss, warn_strays};

/// Report output format, `--format <F>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    Text,
    Json,
    Markdown,
    Sarif,
    Html,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "markdown" => Ok(Format::Markdown),
            "sarif" => Ok(Format::Sarif),
            "html" => Ok(Format::Html),
            other => Err(format!(
                "unknown format `{other}` (text|json|markdown|sarif|html)"
            )),
        }
    }
}

impl Format {
    /// Machine formats own stdout: no preamble lines, no duplicate metrics
    /// JSON on the same stream.
    pub fn is_machine(self) -> bool {
        matches!(self, Format::Json | Format::Sarif | Format::Html)
    }

    /// The invocation's `--format`; text for a verb whose row has none.
    /// `main` calls this before dispatch, so a misspelt format fails before
    /// any workload runs.
    pub fn of(args: &Args) -> Result<Format, String> {
        match args.verb.opt("--format").and_then(|_| args.get("--format")) {
            Some(f) => f.parse(),
            None => Ok(Format::Text),
        }
    }

    /// The one renderer behind `emit_report`, `whatif` and serve's `/report`.
    pub fn render(self, report: &Report, eval: &Evaluation, geom: CacheGeometry) -> String {
        match self {
            Format::Json => report.to_json(),
            Format::Markdown => report.to_markdown(),
            Format::Sarif => to_sarif_string(report, eval, geom),
            Format::Html => to_html(report, eval, geom),
            Format::Text => report.to_string(),
        }
    }
}

/// Applies the `--fail-on` gate verdict: the summary goes to stderr (so
/// `--format sarif > out.sarif` redirects stay clean) and a failed gate
/// travels back through main as a nonzero exit code, same contract as
/// `diff` and `fleet trend`.
pub(crate) fn gate_exit(eval: &Evaluation) -> ExitCode {
    if eval.fail_on.is_none() {
        return ExitCode::SUCCESS;
    }
    if eval.gate_failed() {
        eprintln!("GATE: FAIL — {}", eval.gate_summary());
        return ExitCode::FAILURE;
    }
    eprintln!("GATE: ok — {}", eval.gate_summary());
    ExitCode::SUCCESS
}

pub(crate) fn emit_report(
    args: &Args,
    det: &DetectorConfig,
    report: &Report,
) -> Result<ExitCode, String> {
    let _span = predator_obs::span("report");
    let format = Format::of(args)?;
    let pcfg = policy_config(args)?;
    let eval = evaluate_report(report, &pcfg);
    println!("{}", format.render(report, &eval, det.geometry));
    if args.has("--fixes") {
        let fixes = suggest_fixes(report, det.geometry);
        if fixes.is_empty() {
            println!("\nNo fixes to suggest.");
        } else {
            println!("\nSuggested fixes:");
            for (idx, fix) in fixes {
                println!("  [finding {idx}] {fix}");
            }
        }
    }
    Ok(gate_exit(&eval))
}

pub(crate) fn cmd_list(_: &Args) -> Result<ExitCode, String> {
    println!(
        "{:<20} {:<18} EXPECTED (broken variant)",
        "WORKLOAD", "SUITE"
    );
    for w in all() {
        let exp = match w.expectation() {
            predator_workloads::Expectation::Clean => "clean",
            predator_workloads::Expectation::Observed => "false sharing (observed)",
            predator_workloads::Expectation::PredictedOnly => "false sharing (prediction only)",
        };
        println!("{:<20} {:<18} {}", w.name(), w.suite().to_string(), exp);
    }
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = &args.operands[0];
    let w = by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;
    let det = detector_config(args)?;
    let cfg = workload_config(args)?;
    let report = run_and_report(w.as_ref(), det, &cfg);
    emit_report(args, &det, &report)
}

pub(crate) fn cmd_ir(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let threads = args.threads(2)?;
    let iters = args.num_in("--iters", 10_000i64, 1, i64::MAX)?;
    let stride: u64 = args.num("--stride", 8u64)?;
    let quantum = args.num_in("--quantum", 7, 1, u64::MAX)?;
    let det = detector_config(args)?;

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut module = parse_module(&text).map_err(|e| format!("parse error: {e}"))?;
    let stats = instrument_module(&mut module, &InstrumentOptions::default());
    eprintln!(
        "instrumented: {} probes ({} accesses, {} deduped)",
        stats.probes_inserted, stats.accesses_seen, stats.deduped
    );

    let space = SimSpace::new(1 << 20);
    let rt = Predator::for_space(det, &space);
    let machine = Machine::new(&module, &space, &rt).map_err(|e| e.to_string())?;
    let specs: Vec<ThreadSpec> = (0..threads)
        .map(|t| ThreadSpec {
            tid: ThreadId(t as u16),
            function: "worker".into(),
            args: vec![(space.base() + t as u64 * stride) as i64, iters],
        })
        .collect();
    machine
        .run(&specs, Schedule::RoundRobin { quantum }, 1 << 32)
        .map_err(|e| e.to_string())?;
    let report = build_report(&rt, None);
    emit_report(args, &det, &report)
}

pub(crate) fn cmd_native(args: &Args) -> Result<ExitCode, String> {
    let name = &args.operands[0];
    let w = by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;
    let cfg = workload_config(args)?;
    let d = w.run_native(&cfg);
    println!(
        "{name} ({:?}, {} threads, {} iters): {:.3} ms",
        cfg.variant,
        cfg.threads,
        cfg.iters,
        d.as_secs_f64() * 1e3
    );
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_record(args: &Args) -> Result<ExitCode, String> {
    let name = &args.operands[0];
    let w = by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;
    let out = args
        .get("--out")
        .ok_or("record: missing output path (-o <trace.ptrace>)")?;
    let cfg = workload_config(args)?;
    // Detection off, tap on: the file gets the raw pre-filter access
    // stream, so offline analysis can apply *any* detector configuration.
    let session = Session::with_config(DetectorConfig::disabled());
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let sink = Arc::new(
        TraceSink::create(
            std::io::BufWriter::new(file),
            session.space().base(),
            session.space().size(),
        )
        .map_err(|e| format!("cannot start {out}: {e}"))?,
    );
    session.runtime().install_tap(sink.clone())?;
    {
        let _span = predator_obs::span("interpret");
        w.run_tracked(&session, &cfg);
    }
    let meta = TraceMeta::capture(session.runtime(), session.heap());
    let summary = sink
        .finish(&meta)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "recorded {} events in {} chunks to {out} ({} bytes, {:.2} bytes/event)",
        summary.events,
        summary.chunks,
        summary.bytes,
        summary.bytes as f64 / summary.events.max(1) as f64
    );
    Ok(ExitCode::SUCCESS)
}

/// `analyze`, and `replay`: the same analysis from the row that has the
/// flight recorder on (no `--shards` on that row), which keeps its own
/// preamble.
pub(crate) fn cmd_analyze(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let det = detector_config(args)?;
    let replay = args.verb.recorder;
    if !replay {
        ignored_shards(args)?;
    }
    let cfg = AnalyzeConfig { det };
    // A machine format owns stdout: no preamble line.
    let preamble = !Format::of(args)?.is_machine();
    let out = analyze_file(Path::new(path), &cfg, 0, 0)?;
    warn_loss(path, &out.loss);
    warn_strays(out.stray_events);
    if preamble && replay {
        println!("replayed {} events", out.events);
    } else if preamble {
        let (events, clusters) = (out.events, out.clusters);
        print!("analyzed {events} events, {clusters} line cluster(s)");
        if out.meta_applied {
            print!(", attribution metadata applied");
        }
        println!();
    }
    emit_report(args, &det, &out.report)
}

/// Loads a whole trace into memory for `whatif`: the replay re-analyzes the
/// event list several times, so streaming buys nothing. The vector is sized
/// once, from the trailer's record count
/// ([`TraceReader::collect_events`]), not grown by doubling.
fn load_trace_events(path: &str) -> Result<(Vec<Access>, u64, u64, Option<TraceMeta>), String> {
    let mut r = TraceReader::open(path)?;
    let (base, size) = (r.base(), r.size());
    let events = r.collect_events();
    warn_loss(path, &r.stats());
    Ok((events, base, size, r.take_meta()))
}

/// Parses `--pad AT:BYTES[,AT:BYTES...]` into layout edits. `AT` accepts a
/// `0x` prefix for hex (addresses usually are); `BYTES` is decimal.
fn parse_pad_edits(spec: &str) -> Result<Vec<LayoutEdit>, String> {
    spec.split(',')
        .map(|part| {
            let (at, pad) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --pad entry `{part}` (want AT:BYTES)"))?;
            let at = if let Some(hex) = at.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                at.parse()
            }
            .map_err(|e| format!("bad --pad address `{at}`: {e}"))?;
            let pad: u64 = pad
                .parse()
                .map_err(|e| format!("bad --pad byte count `{pad}`: {e}"))?;
            Ok(LayoutEdit { at, pad })
        })
        .collect()
}

pub(crate) fn cmd_whatif(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let det = detector_config(args)?;
    ignored_shards(args)?;
    let (events, base, size, meta) = load_trace_events(path)?;
    let cfg = AnalyzeConfig { det };
    let fix = match args.get("--pad") {
        Some(spec) => WhatIfFix::Edits(parse_pad_edits(spec)?),
        None => WhatIfFix::Suggested,
    };
    let out = whatif_events(&events, base, size, meta.as_ref(), &cfg, &fix);
    warn_strays(out.stray_events);
    let pcfg = policy_config(args)?;
    let eval = evaluate_report(&out.report, &pcfg);
    match Format::of(args)? {
        Format::Text => print!("{}", out.to_text()),
        format => println!("{}", format.render(&out.report, &eval, det.geometry)),
    }
    if let Some(min) = args.get("--min-delta") {
        let min: u64 = min
            .parse()
            .map_err(|_| format!("invalid value for --min-delta: {min}"))?;
        let best = out.best_pct().unwrap_or(0);
        if best < min {
            eprintln!("WHATIF GATE: FAIL — best fix removes {best}% (< {min}%)");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("WHATIF GATE: ok — best fix removes {best}% (>= {min}%)");
    }
    Ok(gate_exit(&eval))
}
