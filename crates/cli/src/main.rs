//! `predator` — run the evaluation workloads under the PREDATOR detector
//! and print ranked false-sharing reports (the paper's Figure 5 format).
//!
//! ```text
//! predator list
//! predator run linear_regression
//! predator run histogram --fixed --threads 8 --iters 50000
//! predator run mysql --no-prediction --json
//! predator native linear_regression --iters 2000000
//! predator replay trace.ptrace
//! ```

/// Every `print!`/`println!` in this crate is one of these, not std's:
/// std's panic when stdout is gone (exit 101 and a backtrace for
/// `predator analyze ... | head`), and a reader closing the pipe is a normal
/// end of output. See [`print_stdout`].
macro_rules! print {
    ($($arg:tt)*) => { $crate::print_stdout(format_args!($($arg)*)) };
}
macro_rules! println {
    () => { $crate::print_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { $crate::print_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

mod serve;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use predator_core::{
    build_report, suggest_fixes, DetectorConfig, LayoutEdit, ObsSnapshot, Predator, Report,
    Session, SiteKind, TimelineOp, TimelineRecord,
};
use predator_instrument::{
    instrument_module, parse_module, InstrumentOptions, Machine, StepSchedule, ThreadSpec,
};
use predator_policy::{
    diff_reports, evaluate_report, evaluate_views, to_html, to_sarif_string, Baseline, Evaluation,
    FindingView, PolicyConfig, Suppressions,
};
use predator_shadow::SimSpace;
use predator_sim::{Access, ThreadId};
use predator_trace::{
    analyze_events, analyze_file, import_jsonl, read_info, read_info_scan, verify_fixes,
    whatif_events, AnalyzeConfig, LossStats, TraceMeta, TraceReader, TraceSink, WhatIfFix,
};
use predator_workloads::{all, by_name, run_and_report, Variant, WorkloadConfig};

const USAGE: &str = "\
predator — predictive false sharing detection (PPoPP 2014 reproduction)

USAGE:
    predator list
        List the evaluation workloads.

    predator run <workload> [OPTIONS]
        Run a workload under the detector and print the report.
        --fixed             run the fixed (padded) variant
        --no-prediction     disable virtual-line prediction (PREDATOR-NP)
        --threads <N>       worker threads              [default: 4]
        --iters <N>         per-thread work items       [default: 20000]
        --seed <N>          input seed                  [default: 42]
        --sampling <RATE>   sampling rate in (0,1]      [default: 0.01]
        --sensitive         tiny thresholds (small runs / demos)
        --json              machine-readable report

    predator native <workload> [OPTIONS]
        Run the uninstrumented native workload and print wall time.
        (same --fixed/--threads/--iters/--seed options)

    predator record <workload> -o <trace.ptrace> [OPTIONS]
        Run a workload with detection off, streaming the raw pre-filter
        access trace to a compact binary .ptrace file (attribution
        metadata — globals, live heap objects, callsites — rides along).
        (same --fixed/--threads/--iters/--seed options as `run`)

    predator analyze <trace.ptrace> [OPTIONS]
        Sharded offline analysis of a recorded trace. Cache-line clusters
        are partitioned across worker shards, each runs an independent
        detector, and the merged report is identical to a sequential
        replay's. The address range comes from the trace's header.
        --shards <N>        worker shards               [default: CPU count]
        --verify-fixes      annotate each finding with its suggested fix's
                            measured replay delta (see `whatif`)
        --sensitive / --no-prediction / --sampling / --json as above

    predator whatif <trace.ptrace> [OPTIONS]
        What-if layout replay: prove (or refute) fix suggestions against
        the recorded trace instead of printing untested advice. Each
        finding's suggested fix — or one user-supplied edit list — is
        applied as a pure address remap (injective, order-preserving, so
        the recorded interleaving is preserved verbatim), the remapped
        trace is re-analyzed at every portfolio line size (32/64/128/256
        bytes) and cross-checked against the MESI ground-truth simulator,
        and every finding is annotated with its measured before/after
        invalidation delta and a verdict (fixes/partial/ineffective).
        --pad <AT:BYTES[,AT:BYTES...]>  replay a user layout edit (insert
                            BYTES of padding before address AT; AT takes a
                            0x prefix for hex) instead of the per-finding
                            suggested fixes
        --min-delta <PCT>   exit nonzero unless the best verified fix
                            removes at least PCT% of invalidations at its
                            worst portfolio geometry (a CI gate)
        --shards <N> as `analyze`
        --sensitive / --no-prediction / --sampling / --json as above

    predator trace info <trace.ptrace> [--deep]
        Summarise a trace file: header, event/chunk counts, attribution
        metadata, corruption accounting (chunks skipped, records lost,
        bytes skipped, truncation — always printed). O(1) via the footer
        index when the file is intact; falls back to a full scan when
        damaged. The index cannot see mid-file payload corruption, so
        --deep forces the CRC-checking full scan regardless.

    predator trace cat <trace.ptrace> [OPTIONS]
        Decode a trace to JSON lines on stdout, one access per line.
        --limit <N>         stop after N events

    predator trace import <in.jsonl> -o <out.ptrace>
        Convert a JSON-lines access trace (`trace cat`'s output, or another
        tool's) into a .ptrace every other verb reads. The header's address
        range is worked out from the events: the page-aligned hull of every
        touched byte. A malformed line is an error naming its line number;
        a hull wider than 1 GiB is refused (split the input by region).

    predator fleet ingest <trace.ptrace>... --corpus <dir> [OPTIONS]
        Ingest recorded traces into a corpus: each file is streamed through
        the sharded analyzer and its findings recorded in the corpus
        manifest (corpus.json). Traces are content-addressed, so
        re-ingesting a file is a no-op; corrupted traces degrade to loss
        accounting, never errors. The corpus pins the detector
        configuration of its first ingest and refuses mismatches.
        --corpus <DIR>      corpus directory (created on first ingest)
        --shards <N>        worker shards               [default: CPU count]
        --sensitive / --no-prediction / --sampling as `analyze`

    predator fleet report --corpus <dir> [OPTIONS]
        Merged cross-run report: findings deduped by stable callsite key
        across every run in the corpus, ranked by aggregate invalidation
        impact, with per-run provenance (run count, hit rate, worst run,
        first/last seen) and corpus-wide loss accounting.
        --run <ID>          print one member run's report instead
        --json              machine-readable report
        (--fail-on gates the merged aggregates by per-run mean
        invalidations; with --run, the full policy pipeline applies)

    predator fleet trend --corpus <dir> --baseline <corpus> [OPTIONS]
        Delta the corpus against a baseline corpus (a directory or its
        corpus.json): callsites classified as new / fixed / regressed /
        improved / steady by per-run mean invalidations.
        --tolerance <F>     relative mean-shift tolerance [default: 0.5]
        --fail-on-regression  exit nonzero when any callsite is new or
                            regressed (the CI gate)
        --json              machine-readable report

    predator fleet compact --corpus <dir> --keep <N>
        Retention: keep the N newest raw traces (by ingest order), fold
        older runs into merged aggregates in the manifest, delete their
        raw files. Merged totals are preserved exactly; per-run provenance
        of dropped runs is not.

    predator replay <trace.ptrace> [OPTIONS]
        `analyze --shards 1` with the flight recorder on: stream the trace
        through a single sequential detector, embedding `explain` timelines
        in the report.
        --sensitive / --no-prediction / --json as above

    predator ir <program.pir> [OPTIONS]
        Instrument a textual-IR program and execute it under the detector.
        Runs the function named `worker` on each logical thread with
        arguments (base + thread*stride, iters).
        --threads <N>       logical threads             [default: 2]
        --iters <N>         loop bound argument         [default: 10000]
        --stride <N>        per-thread base offset      [default: 8]
        --quantum <N>       instructions per turn       [default: 7]
        --sensitive / --no-prediction / --json / --fixes as above

    predator explain <report.json> [line]
        Render a flight-recorder timeline for one cache line of a JSON
        report: interleaved per-thread lanes at word granularity, with
        invalidating writes highlighted and causally attributed. `line` is
        a decimal global line index or a 0x-prefixed byte address; omitted,
        the top finding's hottest line is used.

    predator diff <old.json> <new.json> [OPTIONS]
        Compare two JSON reports (from `run --json`); exits nonzero when the
        new report introduces findings the old one lacked (a CI gate).
        --tolerance <F>     severity-change ratio threshold [default: 0.5]

    predator baseline write <report.json> -o <baseline.json>
        Snapshot every finding's callsite key from a JSON report into a
        baseline file. Commit it next to the code: a later
        `analyze --baseline <file> --fail-on <sev>` reports everything but
        gates only on findings at keys the baseline has never seen.

    predator baseline diff <baseline.json> <report.json> [OPTIONS]
        Compare a report against a baseline: each callsite key classifies
        as NEW / FIXED / WORSE / BETTER / steady. Exits nonzero when any
        NEW key appears (the CI gate; drift alone never fails).
        --tolerance <F>     relative drift tolerance      [default: 0.5]

    predator profile <program.pir> [OPTIONS]
        Execute a textual-IR program under the instruction-sampling
        self-profiler and print where interpreted instructions went: a
        top-N table over IR functions/basic blocks and runtime cost centers
        (rt::handle_access, rt::track, rt::recorder, rt::mesi), plus
        collapsed stacks for flamegraph tooling.
        --profile-period <N>  sample every N-th instruction [default: 64]
        --top <N>           rows in the table             [default: 20]
        --out <PATH>        write collapsed stacks (folded format) to PATH
        (also accepts ir's --threads/--iters/--stride/--quantum options)

    predator serve [<workload>|<trace.ptrace>] [OPTIONS]
        Live monitoring: run the source continuously and expose telemetry
        over HTTP. With a workload name (default: histogram), tracked
        passes repeat over one long-lived session; with a .ptrace path,
        the trace is looped through a detector; with --watch, a fleet
        spool directory is polled and complete traces auto-ingested.
        Endpoints: /metrics (Prometheus text), /health (liveness JSON),
        /report (findings, same schema as `analyze`; ?format=json|sarif|
        html, HTTP 412 when the --fail-on policy gate fails), /snapshot
        (delta since previous scrape, epoch-tagged), /query (recent
        metric history from the embedded time-series store: bounded
        per-series rings with 10s/60s downsampling tiers), /alerts
        (rule states, 404 until --rules is given). A watchdog thread
        estimates the detector's own overhead from calibrated per-access
        costs and sheds sampling through a tiered backoff controller when
        the budget is violated; new allocation sites re-arm it. SIGINT or
        SIGTERM shuts the loop down gracefully (observability streams are
        flushed on the way out).
        --listen <ADDR>     bind address            [default: 127.0.0.1:0]
        --overhead-budget <F>  self-overhead budget fraction [default: 0.05]
        --watchdog-interval-ms <N>  watchdog/poll period [default: 500]
        --passes <N>        stop driving after N passes (0 = forever);
                            the server keeps serving until a signal
        --ready-file <PATH> write the bound address to PATH once listening
        --watch <DIR>       fleet spool directory to poll (needs --corpus)
        --corpus <DIR>      fleet corpus directory for --watch
        --rules <FILE>      alert rules evaluated each watchdog tick
                            (see docs/alerts.rules); state behind /alerts,
                            transitions stream to --trace-events
        --auth-token <TOK>  require `Authorization: Bearer <TOK>` on every
                            endpoint except /health
        (plus `run`'s workload and detector options)

    predator alerts lint <rules>
        Parse and validate an alert-rules file; print the normalized
        rules, or every error with its line number (exit nonzero).

    predator alerts eval <rules> <report.json|snapshot.json|ADDR>
        One-shot rule evaluation against a JSON report, a bare metrics
        snapshot, or a live serve instance's /snapshot. `for:` hysteresis
        is ignored (there is no history to hold against); rate() needs a
        live ADDR (two scrapes, 1s apart). Exits nonzero when any
        condition holds — a CI gate over recorded reports.
        --auth-token <TOK>  bearer token for a live ADDR

    predator stats <snapshot.json>
        Render an observability snapshot (from `--metrics`, or the `obs`
        field of a `--json` report) as a human-readable table. `-` reads
        from stdin.
        --url <ADDR>        scrape a live `predator serve` instance's
                            /snapshot instead of reading a file
        --watch <SECS>      with --url: redraw a live dashboard every SECS
                            seconds — firing alerts from /alerts plus
                            sparkline history from /query (0 = render one
                            frame and exit, for scripts)
        --auth-token <TOK>  bearer token for --url scrapes

    Common flags:
        --fixes             also print prescriptive fix suggestions
        --markdown          render the report as GitHub-flavoured markdown
        --format <F>        report output format: text|json|markdown|
                            sarif|html (--json/--markdown stay as aliases).
                            SARIF 2.1.0 and self-contained HTML embed fix
                            suggestions and the policy verdicts; both own
                            stdout, so redirect to a file
        --fail-on <SEV>     gate: exit nonzero when any finding classifies
                            at or above SEV (info|warning|error) after
                            suppressions and the baseline are applied.
                            Applies to run/ir/replay/analyze/fleet report;
                            under serve, a failed gate turns /report into
                            HTTP 412. The verdict prints to stderr
        --suppressions <FILE>  suppression list: one callsite key per
                            line (trailing `*` = prefix match, `#` starts
                            a comment); suppressed findings are reported
                            but never gate
        --baseline <FILE>   known-findings baseline (from `baseline
                            write`); baselined keys never gate
        --metrics <PATH>    write the metrics snapshot as JSON to PATH and
                            Prometheus text to PATH.prom after the run;
                            `-` prints the JSON to stdout (skipped under
                            --json, whose report already embeds it)
        --trace-events <PATH>  stream structured JSONL events (line
                            promotions, invalidations, prediction units,
                            callsite attribution) to PATH during the run
        --trace-timeline <PATH>  write a Chrome trace-event JSON timeline
                            (pipeline phase spans, per-thread interpreter
                            lanes, invalidation instants with flow arrows
                            to their victim threads) to PATH; open it in
                            Perfetto or chrome://tracing
        --no-recorder       disable the flight recorder (on by default for
                            run/ir/replay; powers `explain` timelines)
        --recorder-depth <N>  records kept per cache line [default: 64]
";

/// Set by the first write to stdout that fails with EPIPE.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout until its reader goes away; from then on output is
/// dropped and the verb runs to its normal end — the gate verdict still
/// goes to stderr and the exit code, `FlushGuard` still closes
/// `--trace-events` and `--trace-timeline`. Any other write error is as
/// fatal as it is under std's `println!`.
fn print_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed)
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<String>,
    options: std::collections::HashMap<String, String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    const VALUED: &[&str] = &[
        "--threads",
        "--iters",
        "--seed",
        "--sampling",
        "--stride",
        "--quantum",
        "--metrics",
        "--trace-events",
        "--trace-timeline",
        "--recorder-depth",
        "--tolerance",
        "--profile-period",
        "--top",
        "--out",
        "--shards",
        "--limit",
        "--corpus",
        "--baseline",
        "--keep",
        "--run",
        "--listen",
        "--overhead-budget",
        "--watchdog-interval-ms",
        "--passes",
        "--ready-file",
        "--watch",
        "--url",
        "--rules",
        "--auth-token",
        "--format",
        "--fail-on",
        "--suppressions",
        "--pad",
        "--min-delta",
    ];
    /// Every boolean switch some verb tests, plus `--help` (no verb: print
    /// the usage). Anything else starting with `--` is a typo: rejected,
    /// never silently analysed at the defaults.
    const SWITCHES: &[&str] = &[
        "--sensitive",
        "--no-prediction",
        "--fixed",
        "--no-recorder",
        "--json",
        "--markdown",
        "--fixes",
        "--verify-fixes",
        "--deep",
        "--fail-on-regression",
        "--help",
    ];
    let mut args = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        options: Default::default(),
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            args.options.insert(a.clone(), v.clone());
        } else if a == "-o" {
            // The short output flag (`record`, `trace import`), aliased onto --out.
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            args.options.insert("--out".to_string(), v.clone());
        } else if SWITCHES.contains(&a.as_str()) {
            args.flags.push(a.clone());
        } else if a.starts_with("--") {
            return Err(format!("unknown option '{a}'"));
        } else {
            args.positional.push(a.clone());
        }
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String> {
    match args.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {key}: {v}")),
    }
}

/// `--tolerance <F>`: the relative band `diff`, `baseline diff` and
/// `fleet trend` classify movement against (all three default to 0.5).
fn tolerance(args: &Args) -> Result<f64, String> {
    let tolerance: f64 = num(args, "--tolerance", predator_fleet::DEFAULT_TOLERANCE)?;
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(format!("--tolerance must be >= 0, got {tolerance}"));
    }
    Ok(tolerance)
}

fn detector_config(args: &Args) -> Result<DetectorConfig, String> {
    let mut det = if args.flags.iter().any(|f| f == "--sensitive") {
        DetectorConfig::sensitive()
    } else {
        DetectorConfig::paper()
    };
    if args.flags.iter().any(|f| f == "--no-prediction") {
        det.prediction = false;
    }
    let rate: f64 = num(args, "--sampling", det.sampling_rate())?;
    if !(0.0..=1.0).contains(&rate) || rate == 0.0 {
        return Err(format!("--sampling must be in (0, 1], got {rate}"));
    }
    Ok(det.with_sampling_rate(rate))
}

fn workload_config(args: &Args) -> Result<WorkloadConfig, String> {
    let threads: usize = num(args, "--threads", 4usize)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(WorkloadConfig {
        threads,
        iters: num(args, "--iters", 20_000u64)?,
        seed: num(args, "--seed", 42u64)?,
        variant: if args.flags.iter().any(|f| f == "--fixed") {
            Variant::Fixed
        } else {
            Variant::Broken
        },
    })
}

fn cmd_list() {
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
}

/// Routes structured events to `--trace-events <PATH>` for the rest of the
/// process. Installed before the run so hot-path emitters see an enabled
/// sink.
fn install_trace_sink(args: &Args) -> Result<(), String> {
    let Some(path) = args.options.get("--trace-events") else {
        return Ok(());
    };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    predator_obs::events().install(
        Box::new(std::io::BufWriter::new(file)),
        TRACE_CAPACITY,
        /* sample_every = */ 1,
    );
    Ok(())
}

/// Upper bound on JSONL event lines per run; past it, events are counted as
/// dropped rather than written (keeps trace files bounded on huge runs).
const TRACE_CAPACITY: u64 = 1_000_000;

/// Arms the Chrome-trace timeline buffer when `--trace-timeline <PATH>` is
/// present; the file itself is written by [`FlushGuard`] at exit so
/// panicking or early-exiting runs still leave a valid trace.
fn install_timeline(args: &Args) -> Option<String> {
    let path = args.options.get("--trace-timeline")?;
    predator_obs::timeline().install(predator_obs::timeline::DEFAULT_CAPACITY);
    Some(path.clone())
}

/// Flushes every buffered observability stream when dropped — on the normal
/// exit path, on gate failures, and during panic unwinding alike — so
/// truncated runs still leave valid, loss-accounted files behind.
struct FlushGuard {
    timeline_path: Option<String>,
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        predator_obs::events().flush();
        if let Some(path) = self.timeline_path.take() {
            write_timeline(&path);
        }
    }
}

fn write_timeline(path: &str) {
    let write = || -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        predator_obs::timeline().write_json(&mut out)
    };
    match write() {
        Ok(()) => eprintln!("trace timeline written to {path}"),
        Err(e) => eprintln!("error: cannot write {path}: {e}"),
    }
}

/// Registers SIGINT/SIGTERM handlers that set the process-wide graceful
/// shutdown flag ([`predator_core::shutdown`]). The handler body is a
/// relaxed store to a static atomic — async-signal-safe; everything else
/// happens on normal threads that notice the flag.
#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_sig: i32) {
        predator_core::shutdown::request();
    }
    // std links libc; declaring `signal` here keeps the CLI dependency-free.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// For commands whose main loop does not poll the shutdown flag (`run`,
/// `analyze`, ... — everything except `serve`), a detached watcher turns an
/// interrupt into a flush-then-exit: the event sink gets its `sink_summary`
/// line and the `--trace-timeline` file is written before the process dies,
/// exactly as [`FlushGuard`] would have done on a normal exit.
fn arm_interrupt_watcher(timeline_path: Option<String>) {
    let _ = std::thread::Builder::new()
        .name("predator-sigwatch".into())
        .spawn(move || loop {
            if predator_core::shutdown::requested() {
                eprintln!("interrupted — flushing observability streams");
                predator_obs::events().flush();
                if let Some(path) = &timeline_path {
                    write_timeline(path);
                }
                // 130 = 128 + SIGINT, the conventional interrupt exit code.
                std::process::exit(130);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
}

/// Default flight-recorder ring depth (records kept per cache line).
const RECORDER_DEPTH: usize = 64;

/// Turns the flight recorder on for detector-running commands (so reports
/// embed timelines for `explain`) unless `--no-recorder` opts out.
fn install_recorder(args: &Args) -> Result<(), String> {
    if !matches!(
        args.positional.first().map(String::as_str),
        Some("run" | "ir" | "replay")
    ) {
        return Ok(());
    }
    if args.flags.iter().any(|f| f == "--no-recorder") {
        return Ok(());
    }
    let depth: usize = num(args, "--recorder-depth", RECORDER_DEPTH)?;
    if depth == 0 {
        return Err("--recorder-depth must be at least 1".into());
    }
    predator_obs::recorder::recorder().enable(depth);
    Ok(())
}

/// Writes the end-of-run metrics snapshot where `--metrics` asked for it.
fn emit_metrics(args: &Args) -> Result<(), String> {
    let Some(path) = args.options.get("--metrics") else {
        return Ok(());
    };
    let snap = predator_obs::global().snapshot();
    if path == "-" {
        // Machine formats own stdout (a --json report already embeds the
        // snapshot; SARIF/HTML documents must not be followed by stray
        // JSON), so the inline dump only renders for human formats.
        if !output_format(args).is_ok_and(Format::is_machine) {
            println!("{}", snap.to_json());
        }
    } else {
        std::fs::write(path, snap.to_json() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let prom = format!("{path}.prom");
        std::fs::write(&prom, snap.to_prometheus())
            .map_err(|e| format!("cannot write {prom}: {e}"))?;
    }
    Ok(())
}

/// Report output format: `--format <F>` wins; the legacy `--json` and
/// `--markdown` flags keep working as aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Markdown,
    Sarif,
    Html,
}

impl Format {
    /// Machine formats own stdout: no preamble lines, no duplicate metrics
    /// JSON on the same stream.
    fn is_machine(self) -> bool {
        matches!(self, Format::Json | Format::Sarif | Format::Html)
    }
}

fn output_format(args: &Args) -> Result<Format, String> {
    if let Some(f) = args.options.get("--format") {
        return match f.as_str() {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "markdown" => Ok(Format::Markdown),
            "sarif" => Ok(Format::Sarif),
            "html" => Ok(Format::Html),
            other => Err(format!(
                "unknown format `{other}` (text|json|markdown|sarif|html)"
            )),
        };
    }
    if args.flags.iter().any(|f| f == "--json") {
        Ok(Format::Json)
    } else if args.flags.iter().any(|f| f == "--markdown") {
        Ok(Format::Markdown)
    } else {
        Ok(Format::Text)
    }
}

/// Builds the policy configuration shared by every report-emitting command
/// (`run`, `ir`, `replay`, `analyze`, `fleet report`, `serve`): the
/// suppressions file, baseline file, and the `--fail-on` gate threshold.
fn policy_config(args: &Args) -> Result<PolicyConfig, String> {
    let mut cfg = PolicyConfig::default();
    if let Some(path) = args.options.get("--suppressions") {
        cfg.suppressions = Suppressions::load(Path::new(path))?;
    }
    if let Some(path) = args.options.get("--baseline") {
        cfg.baseline = Some(Baseline::load(Path::new(path))?);
    }
    if let Some(sev) = args.options.get("--fail-on") {
        cfg.fail_on = Some(sev.parse()?);
    }
    Ok(cfg)
}

/// Applies the `--fail-on` gate verdict: the summary goes to stderr (so
/// `--format sarif > out.sarif` redirects stay clean) and a failed gate
/// travels back through main as a nonzero exit code, same contract as
/// `diff` and `fleet trend`.
fn gate_exit(eval: &Evaluation) -> ExitCode {
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

/// Reads a JSON report (from `run --json` / `analyze --json`).
fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: not a JSON report: {e}"))
}

fn emit_report(args: &Args, det: &DetectorConfig, report: &Report) -> Result<ExitCode, String> {
    let _span = predator_obs::span("report");
    let format = output_format(args)?;
    let pcfg = policy_config(args)?;
    let eval = evaluate_report(report, &pcfg);
    match format {
        Format::Json => println!("{}", report.to_json()),
        Format::Markdown => println!("{}", report.to_markdown()),
        Format::Sarif => println!("{}", to_sarif_string(report, &eval, det.geometry)),
        Format::Html => println!("{}", to_html(report, &eval, det.geometry)),
        Format::Text => println!("{report}"),
    }
    if args.flags.iter().any(|f| f == "--fixes") {
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

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.positional.get(1).ok_or("run: missing workload name")?;
    let w = by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;
    let det = detector_config(args)?;
    let cfg = workload_config(args)?;
    let report = run_and_report(w.as_ref(), det, &cfg);
    emit_report(args, &det, &report)
}

fn cmd_ir(args: &Args) -> Result<ExitCode, String> {
    let path = args.positional.get(1).ok_or("ir: missing program path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut module = parse_module(&text).map_err(|e| format!("parse error: {e}"))?;
    let stats = instrument_module(&mut module, &InstrumentOptions::default());
    eprintln!(
        "instrumented: {} probes ({} accesses, {} deduped)",
        stats.probes_inserted, stats.accesses_seen, stats.deduped
    );

    let threads: usize = num(args, "--threads", 2usize)?;
    let iters: i64 = num(args, "--iters", 10_000i64)?;
    let stride: u64 = num(args, "--stride", 8u64)?;
    let quantum: u64 = num(args, "--quantum", 7u64)?;
    let det = detector_config(args)?;

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
        .run(&specs, StepSchedule::RoundRobin { quantum }, 1 << 32)
        .map_err(|e| e.to_string())?;
    let report = build_report(&rt, None);
    emit_report(args, &det, &report)
}

fn cmd_native(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("native: missing workload name")?;
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
    Ok(())
}

fn warn_loss(path: &str, loss: &LossStats) {
    if loss.any() {
        eprintln!(
            "warning: {path} is damaged: {} chunk(s) skipped, {} record(s) lost, \
             {} byte(s) skipped{}",
            loss.chunks_skipped,
            loss.records_lost,
            loss.bytes_skipped,
            if loss.truncated {
                ", file truncated"
            } else {
                ""
            }
        );
    }
}

/// `analyze --shards 1` under another name: what sets `replay` apart is the
/// flight recorder, which `install_recorder` turned on before dispatch.
fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let path = args.positional.get(1).ok_or("replay: missing trace path")?;
    let det = detector_config(args)?;
    let out = analyze_file(Path::new(path), &AnalyzeConfig::new(det, 1), 0, 0)?;
    warn_loss(path, &out.loss);
    if !output_format(args)?.is_machine() {
        println!("replayed {} events", out.events);
    }
    emit_report(args, &det, &out.report)
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("record: missing workload name")?;
    let w = by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;
    let out = args
        .options
        .get("--out")
        .ok_or("record: missing output path (-o <trace.ptrace>)")?;
    let cfg = workload_config(args)?;
    // Detection off, tap on: the file gets the raw pre-filter access
    // stream, so offline analysis can apply *any* detector configuration.
    let mut det = detector_config(args)?;
    det.enabled = false;
    let session = Session::with_config(det);
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
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<ExitCode, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("analyze: missing trace path")?;
    let det = detector_config(args)?;
    let shards = shard_count(args)?;
    let cfg = AnalyzeConfig::new(det, shards);
    if args.flags.iter().any(|f| f == "--verify-fixes") {
        // Verification replays the trace under each suggested fix, so the
        // events must be resident; the streaming path won't do.
        let (events, base, size, meta) = load_trace_events(path)?;
        let out = analyze_events(&events, base, size, meta.as_ref(), &cfg);
        let mut report = out.report;
        let verified = verify_fixes(&events, base, size, meta.as_ref(), &mut report, &cfg);
        if !output_format(args)?.is_machine() {
            println!(
                "analyzed {} events on {} of {} shard(s), {} line cluster(s); \
                 {verified} fix(es) verified by replay",
                out.events, out.shards_used, shards, out.clusters,
            );
        }
        return emit_report(args, &det, &report);
    }
    let out = analyze_file(Path::new(path), &cfg, 0, 0)?;
    warn_loss(path, &out.loss);
    if !output_format(args)?.is_machine() {
        println!(
            "analyzed {} events on {} of {} shard(s), {} line cluster(s){}",
            out.events,
            out.shards_used,
            shards,
            out.clusters,
            if out.meta_applied {
                ", attribution metadata applied"
            } else {
                ""
            }
        );
    }
    emit_report(args, &det, &out.report)
}

/// Loads a whole trace into memory: the what-if replay re-analyzes the
/// event list several times, so streaming buys nothing.
fn load_trace_events(path: &str) -> Result<(Vec<Access>, u64, u64, Option<TraceMeta>), String> {
    let mut r = TraceReader::open(path)?;
    let (base, size) = (r.base(), r.size());
    let events: Vec<Access> = r.by_ref().collect();
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

fn cmd_whatif(args: &Args) -> Result<ExitCode, String> {
    let path = args.positional.get(1).ok_or("whatif: missing trace path")?;
    let det = detector_config(args)?;
    let shards = shard_count(args)?;
    let (events, base, size, meta) = load_trace_events(path)?;
    let cfg = AnalyzeConfig::new(det, shards);
    let fix = match args.options.get("--pad") {
        Some(spec) => WhatIfFix::Edits(parse_pad_edits(spec)?),
        None => WhatIfFix::Suggested,
    };
    let out = whatif_events(&events, base, size, meta.as_ref(), &cfg, &fix);
    let format = output_format(args)?;
    let pcfg = policy_config(args)?;
    let eval = evaluate_report(&out.report, &pcfg);
    match format {
        Format::Json => println!("{}", out.report.to_json()),
        Format::Markdown => println!("{}", out.report.to_markdown()),
        Format::Sarif => println!("{}", to_sarif_string(&out.report, &eval, det.geometry)),
        Format::Html => println!("{}", to_html(&out.report, &eval, det.geometry)),
        Format::Text => print!("{}", out.to_text()),
    }
    if let Some(min) = args.options.get("--min-delta") {
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

fn cmd_trace(args: &Args) -> Result<(), String> {
    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("trace: missing subcommand (info|cat|import)")?;
    let path = args
        .positional
        .get(2)
        .ok_or_else(|| format!("trace {sub}: missing trace path"))?;
    match sub {
        "info" => cmd_trace_info(args, path),
        "cat" => cmd_trace_cat(args, path),
        "import" => cmd_trace_import(args, path),
        other => Err(format!(
            "unknown trace subcommand `{other}` (info|cat|import)"
        )),
    }
}

fn cmd_trace_info(args: &Args, path: &str) -> Result<(), String> {
    // The footer index summarises without CRC-checking event payloads, so
    // --deep forces the full scan: the only way to surface mid-file
    // corruption in an otherwise intact-looking file.
    let info = if args.flags.iter().any(|f| f == "--deep") {
        read_info_scan(Path::new(path))?
    } else {
        read_info(Path::new(path))?
    };
    println!("{path}: .ptrace v{}", info.header.version);
    println!(
        "  range:   {:#x} .. {:#x} ({} bytes)",
        info.header.base,
        info.header.base + info.header.size,
        info.header.size
    );
    println!(
        "  events:  {} in {} event chunk(s) ({} chunk(s) total)",
        info.events, info.event_chunks, info.total_chunks
    );
    println!(
        "  size:    {} bytes ({:.2} bytes/event)",
        info.file_bytes,
        info.file_bytes as f64 / info.events.max(1) as f64
    );
    println!(
        "  footer:  {}",
        match (info.has_footer, info.via_index) {
            (true, true) => "intact (summarised via index, no scan)",
            (true, false) => "intact (index unusable, full scan)",
            (false, _) => "missing (file truncated; full scan)",
        }
    );
    match &info.meta {
        Some(m) => println!(
            "  meta:    {} global(s), {} heap object(s), {} app bytes live",
            m.globals.len(),
            m.objects.len(),
            m.app_live_bytes
        ),
        None => println!("  meta:    absent"),
    }
    // Corruption accounting is always printed in full — a zero is a
    // statement ("this scan saw no damage"), not an omission. Via the
    // index, zeros only cover what the index can see.
    println!(
        "  loss:    {} chunk(s) skipped, {} record(s) lost, {} byte(s) skipped, truncated: {}{}",
        info.loss.chunks_skipped,
        info.loss.records_lost,
        info.loss.bytes_skipped,
        if info.loss.truncated { "yes" } else { "no" },
        if info.via_index {
            " (index-derived; --deep CRC-checks every chunk)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_trace_cat(args: &Args, path: &str) -> Result<(), String> {
    use std::io::Write as _;
    let limit: u64 = num(args, "--limit", u64::MAX)?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut r = TraceReader::open(path)?;
    let mut cat = || -> std::io::Result<()> {
        let mut n = 0u64;
        while n < limit {
            let Some(a) = r.next() else {
                warn_loss(path, &r.stats());
                break;
            };
            serde_json::to_writer(&mut out, &a)?;
            out.write_all(b"\n")?;
            n += 1;
        }
        out.flush()
    };
    match cat() {
        // `trace cat big.ptrace | head`: the reader has what it wanted.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

fn cmd_trace_import(args: &Args, input: &str) -> Result<(), String> {
    let out = args
        .options
        .get("--out")
        .ok_or("trace import: missing output path (-o <out.ptrace>)")?;
    let (summary, (base, size)) = import_jsonl(Path::new(input), Path::new(out))?;
    println!(
        "imported {} events from {input} to {out} (range {base:#x} .. {:#x}, {} bytes)",
        summary.events,
        base + size,
        summary.bytes
    );
    Ok(())
}

/// Short source label for a finding's object (first allocation frame,
/// global name, or hex address) — the `explain` header form.
fn site_label(site: &SiteKind, start: u64) -> String {
    match site {
        SiteKind::Heap { callsite, .. } => callsite
            .frames
            .first()
            .map(|fr| fr.to_string())
            .unwrap_or_else(|| format!("{start:#x}")),
        SiteKind::Global { name } => name.clone(),
        SiteKind::Unknown => format!("{start:#x}"),
    }
}

/// `explain`'s line operand: a decimal global line index, or a 0x-prefixed
/// byte address mapped to its 64-byte line.
fn parse_line_arg(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
            .map(|addr| addr >> 6)
            .map_err(|e| format!("bad address {s}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad line index {s}: {e}"))
    }
}

fn fmt_word(w: u8) -> String {
    if w == u8::MAX {
        "?".to_string()
    } else {
        w.to_string()
    }
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("explain: missing report path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report: Report =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a JSON report: {e}"))?;

    let line = match args.positional.get(2) {
        Some(s) => parse_line_arg(s)?,
        // Default to the top finding's hottest line: the one its most
        // recent invalidation trace names, else its first timeline record.
        None => match report.findings.iter().find_map(|f| {
            f.invalidation_traces
                .last()
                .map(|t| t.line)
                .or_else(|| f.timeline.first().map(|r| r.line))
        }) {
            Some(l) => l,
            None => {
                println!("No flight-recorder data embedded in {path}.");
                println!(
                    "Re-run the workload with the recorder on (the default unless \
                     --no-recorder; unavailable in obs-off builds)."
                );
                return Ok(());
            }
        },
    };

    // Gather the line's records across all findings (a line can back both an
    // observed and a predicted finding), deduplicating shared records.
    let mut recs: Vec<&TimelineRecord> = report
        .findings
        .iter()
        .flat_map(|f| f.timeline.iter())
        .filter(|r| r.line == line)
        .collect();
    recs.sort_by_key(|r| (r.seq, r.tid.index(), r.word));
    recs.dedup_by(|a, b| a == b);
    if recs.is_empty() {
        println!("No flight-recorder records for line {line}.");
        let mut avail: Vec<u64> = report
            .findings
            .iter()
            .flat_map(|f| f.timeline.iter().map(|r| r.line))
            .collect();
        avail.sort_unstable();
        avail.dedup();
        if !avail.is_empty() {
            let lines: Vec<String> = avail.iter().map(u64::to_string).collect();
            println!("Lines with recorded data: {}", lines.join(", "));
        }
        return Ok(());
    }

    // Header: prefer the observed finding for the line (directly witnessed)
    // over predicted findings sharing its records.
    let covers = |f: &&predator_core::Finding| f.timeline.iter().any(|r| r.line == line);
    let owner = report
        .findings
        .iter()
        .filter(covers)
        .find(|f| f.kind == predator_core::FindingKind::Observed)
        .or_else(|| report.findings.iter().find(covers));
    println!(
        "Timeline for cache line {} (bytes {:#x}..{:#x}):",
        line,
        line * 64,
        line * 64 + 64
    );
    if let Some(f) = owner {
        println!(
            "  object: {} — {}, {} ({} invalidations total)",
            site_label(&f.object.site, f.object.start),
            f.class,
            f.kind,
            f.invalidations
        );
    }
    println!();

    // Lanes: every thread that issued a record or was invalidated.
    let mut tids: Vec<usize> = recs
        .iter()
        .flat_map(|r| {
            let victim = match r.op {
                TimelineOp::Invalidation { victim, .. } => Some(victim.index()),
                _ => None,
            };
            std::iter::once(r.tid.index()).chain(victim)
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();

    // One row per (seq, issuer); multi-victim invalidations share a row.
    struct Row {
        seq: u64,
        tid: usize,
        cell: String,
        notes: Vec<String>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for r in &recs {
        let tid = r.tid.index();
        match r.op {
            TimelineOp::Read => {
                rows.push(Row {
                    seq: r.seq,
                    tid,
                    cell: format!("r{}", r.word),
                    notes: vec![],
                });
            }
            TimelineOp::Write => {
                rows.push(Row {
                    seq: r.seq,
                    tid,
                    cell: format!("W{}", r.word),
                    notes: vec![],
                });
            }
            TimelineOp::Invalidation {
                victim,
                victim_word,
            } => {
                let note = format!(
                    "invalidated t{}'s copy (last word {})",
                    victim.index(),
                    fmt_word(victim_word)
                );
                match rows.last_mut() {
                    Some(last) if last.seq == r.seq && last.tid == tid => {
                        last.notes.push(note);
                    }
                    _ => {
                        rows.push(Row {
                            seq: r.seq,
                            tid,
                            cell: format!("W{}!", r.word),
                            notes: vec![note],
                        });
                    }
                }
            }
        }
    }

    const LANE: usize = 6;
    let mut hdr = format!("  {:>8}", "seq");
    for t in &tids {
        hdr.push_str(&format!("  {:<LANE$}", format!("t{t}")));
    }
    println!("{hdr}");
    println!("  {}", "-".repeat(hdr.len()));
    for row in rows {
        let mut out = format!("  {:>8}", row.seq);
        for t in &tids {
            let cell = if *t == row.tid { row.cell.as_str() } else { "" };
            out.push_str(&format!("  {cell:<LANE$}"));
        }
        if !row.notes.is_empty() {
            out.push_str(&format!("  {}", row.notes.join("; ")));
        }
        println!("{}", out.trim_end());
    }
    println!("\n  (rN = read, WN = write, WN! = invalidating write; N = word offset)");

    if let Some(f) = owner {
        let traces: Vec<_> = f
            .invalidation_traces
            .iter()
            .filter(|t| t.line == line)
            .collect();
        if !traces.is_empty() {
            println!("\nCausal traces (last {}):", traces.len());
            for t in traces {
                println!("  {t}");
            }
        }
    }
    Ok(())
}

/// `fleet`'s shard count: same default and validation as `analyze`.
fn shard_count(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let shards: usize = num(args, "--shards", default)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(shards)
}

fn cmd_fleet(args: &Args) -> Result<ExitCode, String> {
    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("fleet: missing subcommand (ingest|report|trend|compact)")?;
    let corpus = args
        .options
        .get("--corpus")
        .ok_or_else(|| format!("fleet {sub}: missing --corpus <dir>"))?;
    let dir = Path::new(corpus);
    match sub {
        "ingest" => cmd_fleet_ingest(args, dir).map(|()| ExitCode::SUCCESS),
        "report" => cmd_fleet_report(args, dir),
        "trend" => cmd_fleet_trend(args, dir),
        "compact" => cmd_fleet_compact(args, dir).map(|()| ExitCode::SUCCESS),
        other => Err(format!(
            "unknown fleet subcommand `{other}` (ingest|report|trend|compact)"
        )),
    }
}

fn cmd_fleet_ingest(args: &Args, dir: &Path) -> Result<(), String> {
    let paths: Vec<std::path::PathBuf> = args.positional[2..]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err("fleet ingest: no trace files given".into());
    }
    let cfg = AnalyzeConfig::new(detector_config(args)?, shard_count(args)?);
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
    Ok(())
}

fn cmd_fleet_report(args: &Args, dir: &Path) -> Result<ExitCode, String> {
    let m = predator_fleet::Manifest::load_required(dir)?;
    // --run <id>: one member's stored per-run report, in the same formats
    // `analyze` emits (the corpus keeps findings+stats verbatim; the obs
    // section is process-global and freshly captured, as everywhere else).
    if let Some(id) = args.options.get("--run") {
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
    match output_format(args)? {
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

fn cmd_fleet_trend(args: &Args, dir: &Path) -> Result<ExitCode, String> {
    let baseline = args
        .options
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
    let format = output_format(args)?;
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
    if args.flags.iter().any(|f| f == "--fail-on-regression") {
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

fn cmd_fleet_compact(args: &Args, dir: &Path) -> Result<(), String> {
    let keep: usize = args
        .options
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
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let load = |idx: usize, what: &str| -> Result<Report, String> {
        let path = args
            .positional
            .get(idx)
            .ok_or_else(|| format!("diff: missing {what} report path"))?;
        load_report(path)
    };
    let old = load(1, "old")?;
    let new = load(2, "new")?;
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

fn cmd_baseline(args: &Args) -> Result<ExitCode, String> {
    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("baseline: missing subcommand (write|diff)")?;
    match sub {
        "write" => {
            let path = args
                .positional
                .get(2)
                .ok_or("baseline write: missing <report.json>")?;
            let out = args
                .options
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
        "diff" => {
            let bpath = args
                .positional
                .get(2)
                .ok_or("baseline diff: missing <baseline.json>")?;
            let rpath = args
                .positional
                .get(3)
                .ok_or("baseline diff: missing <report.json>")?;
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
        other => Err(format!(
            "unknown baseline subcommand `{other}` (write|diff)"
        )),
    }
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("profile: missing program path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut module = parse_module(&text).map_err(|e| format!("parse error: {e}"))?;
    instrument_module(&mut module, &InstrumentOptions::default());

    let threads: usize = num(args, "--threads", 2usize)?;
    let iters: i64 = num(args, "--iters", 10_000i64)?;
    let stride: u64 = num(args, "--stride", 8u64)?;
    let quantum: u64 = num(args, "--quantum", 7u64)?;
    let period: u64 = num(args, "--profile-period", 64u64)?;
    if period == 0 {
        return Err("--profile-period must be at least 1".into());
    }
    let top: usize = num(args, "--top", 20usize)?;
    let det = detector_config(args)?;

    if predator_obs::disabled() {
        return Err("this binary was built with obs-off: the profiler is compiled out".into());
    }
    predator_obs::profiler().install(period);

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
        .run(&specs, StepSchedule::RoundRobin { quantum }, 1 << 32)
        .map_err(|e| e.to_string())?;

    let prof = predator_obs::profiler();
    let attributed = prof.attributed();
    let stacks = prof.take();
    let total = predator_obs::global()
        .counter("interp_instructions_total")
        .get();

    println!(
        "PROFILE {path} — {threads} threads x {iters} iters, sampling every {period} instructions"
    );
    println!();
    println!("  {:>6}  {:>12}  FRAME (self)", "%", "INSTS");
    for (frame, weight) in predator_obs::profile::top_leaves(&stacks, top) {
        println!(
            "  {:>5.1}%  {weight:>12}  {frame}",
            weight as f64 / total.max(1) as f64 * 100.0
        );
    }
    println!();
    let report = build_report(&rt, None);
    println!(
        "attributed {attributed} of {total} interpreted instructions ({:.1}%); \
         {} finding(s) — run `predator ir` for the full report",
        attributed as f64 / total.max(1) as f64 * 100.0,
        report.findings.len()
    );

    if let Some(out) = args.options.get("--out") {
        let folded = predator_obs::profile::collapsed(&stacks);
        std::fs::write(out, folded).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("collapsed stacks written to {out} (feed to flamegraph tooling)");
    }
    Ok(())
}

/// Normalizes a `--url`/ADDR operand to the bare `host:port` the obs HTTP
/// client expects.
fn norm_addr(url: &str) -> String {
    url.trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

/// HTTP client timeout for live scrapes (`stats --url`, `alerts eval`).
const SCRAPE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Scrapes a live serve instance's /snapshot and returns the scrape epoch
/// plus the embedded cumulative [`ObsSnapshot`].
fn scrape_snapshot(addr: &str, token: Option<&str>) -> Result<(u64, ObsSnapshot), String> {
    use serde::{Deserialize as _, Value};
    let (status, body) = predator_obs::http_get_auth(addr, "/snapshot", SCRAPE_TIMEOUT, token)
        .map_err(|e| format!("cannot scrape {addr}/snapshot: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}/snapshot returned HTTP {status}"));
    }
    let v: Value =
        serde_json::from_str(&body).map_err(|e| format!("{addr}/snapshot: not JSON: {e}"))?;
    let epoch = match v.field("epoch") {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        _ => 0,
    };
    let cum = v.field("cumulative");
    if matches!(cum, Value::Null) {
        return Err(format!("{addr}/snapshot: no `cumulative` section"));
    }
    let snap = ObsSnapshot::from_value(cum)
        .map_err(|e| format!("{addr}/snapshot: bad cumulative snapshot: {e}"))?;
    Ok((epoch, snap))
}

/// Re-types a report's embedded [`ObsSnapshot`] as the obs crate's raw
/// snapshot so it can be fed through the tsdb/alerting machinery.
fn raw_snapshot(s: &ObsSnapshot) -> predator_obs::Snapshot {
    predator_obs::Snapshot {
        counters: s
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
        gauges: s.gauges.iter().map(|g| (g.name.clone(), g.value)).collect(),
        histograms: s
            .histograms
            .iter()
            .map(|h| predator_obs::HistogramSnapshot {
                name: h.name.clone(),
                count: h.count,
                sum: h.sum,
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| predator_obs::Bucket {
                        lo: b.lo,
                        count: b.count,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Reads an [`ObsSnapshot`] from a file (`-` = stdin): either a bare
/// snapshot (from `--metrics`) or a full `--json` report (whose `obs`
/// field embeds one).
fn snapshot_from_file(path: &str) -> Result<ObsSnapshot, String> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    serde_json::from_str::<ObsSnapshot>(&text)
        .or_else(|_| serde_json::from_str::<Report>(&text).map(|r| r.obs))
        .map_err(|e| format!("{path}: neither a snapshot nor a report: {e}"))
}

fn cmd_alerts(args: &Args) -> Result<ExitCode, String> {
    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("alerts: missing subcommand (lint|eval)")?;
    let path = args
        .positional
        .get(2)
        .ok_or_else(|| format!("alerts {sub}: missing rules path"))?;
    let rules = serve::load_rules(path)?;
    match sub {
        "lint" => {
            println!("{path}: {} rule(s) ok", rules.len());
            for r in &rules {
                let hold = if r.for_ms == 0 {
                    String::new()
                } else if r.for_ms % 1000 == 0 {
                    format!("  for: {}s", r.for_ms / 1000)
                } else {
                    format!("  for: {}ms", r.for_ms)
                };
                println!(
                    "  {:<28} {:<8} {}{hold}",
                    r.name,
                    r.severity.as_str(),
                    r.expr.render()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "eval" => cmd_alerts_eval(args, &rules),
        other => Err(format!("unknown alerts subcommand `{other}` (lint|eval)")),
    }
}

/// `alerts eval` — one-shot rule evaluation against a snapshot source.
/// `for:` hysteresis is ignored (a single evaluation has no history to
/// hold against); the exit code is the gate: nonzero when any condition
/// currently holds.
fn cmd_alerts_eval(args: &Args, rules: &[predator_obs::Rule]) -> Result<ExitCode, String> {
    use predator_obs::alerts::Expr;
    let src = args
        .positional
        .get(3)
        .ok_or("alerts eval: missing <report.json|snapshot.json|ADDR>")?;
    let mut db = predator_obs::Tsdb::default();
    let now_ms;
    if src == "-" || Path::new(src).is_file() {
        // A recorded report/snapshot is one instant: threshold rules
        // evaluate, rate() rules read as "no data" (never met).
        db.sample(&raw_snapshot(&snapshot_from_file(src)?), 0);
        now_ms = 0;
        println!("evaluating {} rule(s) against {src}", rules.len());
    } else {
        // A live instance: two scrapes a second apart give rate() a
        // window while threshold rules read the newest sample.
        let addr = norm_addr(src);
        let token = args.options.get("--auth-token").map(String::as_str);
        let t0 = std::time::Instant::now();
        let (_, first) = scrape_snapshot(&addr, token)?;
        db.sample(&raw_snapshot(&first), 0);
        std::thread::sleep(std::time::Duration::from_secs(1));
        let (epoch, second) = scrape_snapshot(&addr, token)?;
        now_ms = t0.elapsed().as_millis() as u64;
        db.sample(&raw_snapshot(&second), now_ms);
        println!(
            "evaluating {} rule(s) against live {addr} (scrape epoch {epoch})",
            rules.len()
        );
    }
    println!(
        "  {:<28} {:<8} {:<44} {:>14}  MET",
        "ALERT", "SEV", "CONDITION", "VALUE"
    );
    let (mut met, mut nodata) = (0usize, 0usize);
    for r in rules {
        let v = r.expr.value(&db, now_ms);
        let holds = match (&r.expr, v) {
            (_, None) => false,
            (Expr::Threshold { cmp, value, .. }, Some(lhs))
            | (Expr::Rate { cmp, value, .. }, Some(lhs)) => cmp.eval(lhs, *value),
        };
        let shown = match v {
            Some(x) => fmt_value(x),
            None => {
                nodata += 1;
                "no data".to_string()
            }
        };
        if holds {
            met += 1;
        }
        println!(
            "  {:<28} {:<8} {:<44} {:>14}  {}",
            r.name,
            r.severity.as_str(),
            r.expr.render(),
            shown,
            if holds { "YES" } else { "no" }
        );
    }
    println!(
        "{met} of {} condition(s) met{}",
        rules.len(),
        if nodata > 0 {
            format!(" ({nodata} with no data)")
        } else {
            String::new()
        }
    );
    if met > 0 {
        eprintln!("GATE: FAIL — {met} alert condition(s) hold");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Compact numeric rendering for alert values and sparkline legends.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// The metric set `stats --watch` plots; series a mode never registers are
/// skipped, so the dashboard degrades gracefully across serve modes.
const WATCH_SERIES: &[&str] = &[
    "predator_watchdog_overhead_ppm",
    "predator_sampling_rate_ppm",
    "predator_backoff_tier",
    "predator_report_findings",
    "alloc_live_bytes",
    "runtime_accesses_total",
    "serve_requests_total",
    "fleet_traces_ingested_total",
];

/// Unicode eighth-block sparkline, min..max scaled per series.
fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max <= min {
        // Flat or empty series (empty folds to +inf..-inf) — no spread.
        return vals.iter().map(|_| BARS[0]).collect();
    }
    vals.iter()
        .map(|v| BARS[(((v - min) / (max - min)) * 7.0).round() as usize % 8])
        .collect()
}

/// Renders one `stats --watch` frame: liveness header, alert states, and
/// sparkline history for [`WATCH_SERIES`].
fn render_watch_frame(addr: &str, token: Option<&str>, secs: u64) -> Result<String, String> {
    use serde::Value;
    use std::fmt::Write as _;
    let get = |path: &str| -> Result<(u16, String), String> {
        predator_obs::http_get_auth(addr, path, SCRAPE_TIMEOUT, token)
            .map_err(|e| format!("cannot scrape {addr}{path}: {e}"))
    };
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    };
    let mut out = String::new();

    let (status, body) = get("/health")?;
    if status != 200 {
        return Err(format!("{addr}/health returned HTTP {status}"));
    }
    let h: Value =
        serde_json::from_str(&body).map_err(|e| format!("{addr}/health: not JSON: {e}"))?;
    let _ = writeln!(
        out,
        "predator serve @ http://{addr} — mode {}, up {}s, {} passes{}",
        match h.field("mode") {
            Value::Str(s) => s.as_str(),
            _ => "?",
        },
        num(h.field("uptime_seconds")).unwrap_or(0.0) as u64,
        num(h.field("passes")).unwrap_or(0.0) as u64,
        if secs > 0 {
            format!(" (refresh {secs}s, Ctrl-C stops)")
        } else {
            String::new()
        }
    );

    let (status, body) = get("/alerts")?;
    if status == 404 {
        let _ = writeln!(out, "\nalerts: none (serve started without --rules)");
    } else if status != 200 {
        return Err(format!("{addr}/alerts returned HTTP {status}"));
    } else {
        let a: Value =
            serde_json::from_str(&body).map_err(|e| format!("{addr}/alerts: not JSON: {e}"))?;
        let _ = writeln!(
            out,
            "\nalerts: {} firing, {} pending, {} transition(s)",
            num(a.field("firing")).unwrap_or(0.0) as u64,
            num(a.field("pending")).unwrap_or(0.0) as u64,
            num(a.field("transitions_total")).unwrap_or(0.0) as u64
        );
        for al in a.field("alerts").as_seq().unwrap_or(&[]) {
            let state = match al.field("state") {
                Value::Str(s) => s.clone(),
                _ => "?".into(),
            };
            let mark = match state.as_str() {
                "firing" => "!!",
                "pending" => " ~",
                _ => "  ",
            };
            let name = match al.field("name") {
                Value::Str(s) => s.clone(),
                _ => "?".into(),
            };
            let sev = match al.field("severity") {
                Value::Str(s) => s.clone(),
                _ => "?".into(),
            };
            let expr = match al.field("expr") {
                Value::Str(s) => s.clone(),
                _ => String::new(),
            };
            let val = match num(al.field("value")) {
                Some(v) => fmt_value(v),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                " {mark} {state:<8} {name:<28} {sev:<8} {expr}  [{val}]"
            );
        }
    }

    let _ = writeln!(out);
    for metric in WATCH_SERIES {
        let (status, body) = get(&format!("/query?metric={metric}&range=300s"))?;
        if status == 404 {
            continue; // series not registered in this serve mode
        }
        if status != 200 {
            return Err(format!("{addr}/query returned HTTP {status}"));
        }
        let q: Value =
            serde_json::from_str(&body).map_err(|e| format!("{addr}/query: not JSON: {e}"))?;
        let kind = match q.field("kind") {
            Value::Str(s) => s.clone(),
            _ => "gauge".into(),
        };
        let mut vals: Vec<f64> = q
            .field("points")
            .as_seq()
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| p.as_seq().and_then(|xy| xy.get(1)).and_then(num))
            .collect();
        if vals.is_empty() {
            continue;
        }
        // Counters plot per-interval deltas (the rate's shape); gauges plot
        // levels. Either way the legend shows the newest raw value.
        let last = *vals.last().unwrap();
        if kind == "counter" && vals.len() > 1 {
            vals = vals.windows(2).map(|w| w[1] - w[0]).collect();
        }
        const WIDTH: usize = 48;
        if vals.len() > WIDTH {
            vals.drain(..vals.len() - WIDTH);
        }
        let _ = writeln!(
            out,
            "  {metric:<34} {:<WIDTH$}  last {} ({kind})",
            sparkline(&vals),
            fmt_value(last)
        );
    }
    Ok(out)
}

/// `stats --url --watch <secs>`: redraw the dashboard until interrupted;
/// 0 renders a single frame without clearing (script/CI mode).
fn watch_loop(addr: &str, token: Option<&str>, secs: u64) -> Result<(), String> {
    loop {
        let frame = render_watch_frame(addr, token, secs)?;
        if secs == 0 {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame in one write: no visible flicker.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_secs(secs));
        if predator_core::shutdown::requested() || STDOUT_CLOSED.load(Ordering::Relaxed) {
            return Ok(());
        }
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    // --url scrapes a live `predator serve` instance's /snapshot endpoint
    // and renders its embedded cumulative ObsSnapshot; with --watch it
    // becomes a refreshing dashboard over /alerts and /query instead.
    if let Some(url) = args.options.get("--url") {
        let addr = norm_addr(url);
        let token = args.options.get("--auth-token").map(String::as_str);
        if let Some(watch) = args.options.get("--watch") {
            let secs: u64 = watch
                .parse()
                .map_err(|_| format!("invalid value for --watch: {watch}"))?;
            return watch_loop(&addr, token, secs);
        }
        let (epoch, snap) = scrape_snapshot(&addr, token)?;
        println!("live snapshot from {addr} (scrape epoch {epoch})");
        print!("{}", snap.render_table());
        return Ok(());
    }
    let path = args
        .positional
        .get(1)
        .ok_or("stats: missing snapshot path (or --url <addr>)")?;
    print!("{}", snapshot_from_file(path)?.render_table());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    // Dropped last thing before exit: flushes the event sink and writes the
    // `--trace-timeline` file on every path out of main, including gate
    // failures and panics. Commands must therefore *return* their exit code
    // rather than calling `std::process::exit` (which skips destructors).
    let timeline_path = install_timeline(&args);
    let _flush = FlushGuard {
        timeline_path: timeline_path.clone(),
    };
    install_signal_handlers();
    // `serve` polls the shutdown flag itself and exits its loop gracefully
    // (FlushGuard then runs on the normal path); every other command gets
    // the flush-then-exit watcher.
    if args.positional.first().map(String::as_str) != Some("serve") {
        arm_interrupt_watcher(timeline_path);
    }
    let result = install_trace_sink(&args)
        .and_then(|()| install_recorder(&args))
        .and_then(|()| {
            match args.positional.first().map(String::as_str) {
                Some("list") => {
                    cmd_list();
                    Ok(ExitCode::SUCCESS)
                }
                Some("run") => cmd_run(&args),
                Some("native") => cmd_native(&args).map(|()| ExitCode::SUCCESS),
                Some("record") => cmd_record(&args).map(|()| ExitCode::SUCCESS),
                Some("analyze") => cmd_analyze(&args),
                Some("whatif") => cmd_whatif(&args),
                Some("trace") => cmd_trace(&args).map(|()| ExitCode::SUCCESS),
                Some("fleet") => cmd_fleet(&args),
                Some("replay") => cmd_replay(&args),
                Some("ir") => cmd_ir(&args),
                Some("profile") => cmd_profile(&args).map(|()| ExitCode::SUCCESS),
                Some("explain") => cmd_explain(&args).map(|()| ExitCode::SUCCESS),
                Some("diff") => cmd_diff(&args),
                Some("baseline") => cmd_baseline(&args),
                Some("serve") => serve::cmd_serve(&args).map(|()| ExitCode::SUCCESS),
                Some("alerts") => cmd_alerts(&args),
                Some("stats") => cmd_stats(&args).map(|()| ExitCode::SUCCESS),
                Some("help") | None => {
                    println!("{USAGE}");
                    Ok(ExitCode::SUCCESS)
                }
                Some(other) => Err(format!("unknown command `{other}`")),
            }
            .and_then(|code| emit_metrics(&args).map(|()| code))
        });
    result.unwrap_or_else(|e| fail(&e))
}

/// Every failure says what failed and where the manual is; the manual
/// itself prints only when asked for (`help`, `--help`, no verb).
fn fail(e: &str) -> ExitCode {
    eprintln!("error: {e}\nrun `predator help` for usage");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        parse_args(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_positionals_flags_and_options() {
        let a = args(&["run", "histogram", "--fixed", "--threads", "8", "--json"]);
        assert_eq!(a.positional, vec!["run", "histogram"]);
        assert!(a.flags.contains(&"--fixed".to_string()));
        assert_eq!(a.options.get("--threads"), Some(&"8".to_string()));
    }

    #[test]
    fn missing_option_value_is_an_error() {
        let raw: Vec<String> = vec!["run".into(), "--threads".into()];
        assert!(parse_args(&raw).is_err());
    }

    #[test]
    fn detector_config_applies_flags() {
        let a = args(&["run", "x", "--no-prediction", "--sensitive"]);
        let det = detector_config(&a).unwrap();
        assert!(!det.prediction);
        assert_eq!(det.report_threshold, 1);
    }

    #[test]
    fn unknown_options_are_errors() {
        // A misspelt valued option must not leave its value behind as a
        // positional and the run at the default rate.
        for raw in [
            &["run", "x", "--samplng", "1.0"][..],
            &["run", "x", "--no-such-switch"][..],
        ] {
            let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            let err = parse_args(&raw).err().expect("rejected");
            assert_eq!(err, format!("unknown option '{}'", raw[2]));
        }
    }

    #[test]
    fn sampling_rate_validation() {
        let a = args(&["run", "x", "--sampling", "0"]);
        assert!(detector_config(&a).is_err());
        let a = args(&["run", "x", "--sampling", "0.1"]);
        assert!((detector_config(&a).unwrap().sampling_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_is_rejected() {
        let a = args(&["run", "x", "--threads", "0"]);
        let err = workload_config(&a).unwrap_err();
        assert!(err.contains("--threads"), "unexpected error: {err}");
        let a = args(&["run", "x", "--threads", "1"]);
        assert_eq!(workload_config(&a).unwrap().threads, 1);
    }

    #[test]
    fn metrics_and_trace_flags_take_values() {
        let a = args(&["run", "x", "--metrics", "-", "--trace-events", "ev.jsonl"]);
        assert_eq!(a.options.get("--metrics"), Some(&"-".to_string()));
        assert_eq!(
            a.options.get("--trace-events"),
            Some(&"ev.jsonl".to_string())
        );
        assert!(a.positional == vec!["run", "x"]);
    }

    #[test]
    fn workload_config_defaults_and_overrides() {
        let a = args(&["run", "x"]);
        let cfg = workload_config(&a).unwrap();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.variant, Variant::Broken);
        let a = args(&["run", "x", "--fixed", "--iters", "99"]);
        let cfg = workload_config(&a).unwrap();
        assert_eq!(cfg.iters, 99);
        assert_eq!(cfg.variant, Variant::Fixed);
    }
}
