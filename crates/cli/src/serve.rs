//! `predator serve` — live monitoring mode.
//!
//! Runs a detection source continuously and exposes its state over a
//! zero-dependency HTTP/1.1 endpoint ([`predator_obs::HttpServer`]):
//!
//! * `/metrics` — Prometheus text exposition of the process-global
//!   registry, prefixed with `predator_build_info` and a fresh
//!   `predator_uptime_seconds` gauge;
//! * `/health` — liveness JSON (uptime, pass count, last-analysis age);
//! * `/report` — the current findings, same schema as `analyze`;
//!   `?format=json|sarif|html` picks the document, and when `--fail-on`
//!   is armed a failed policy gate answers HTTP 412;
//! * `/snapshot` — the cumulative metrics snapshot as JSON, the document
//!   `--metrics <PATH>` writes (what `stats --url` renders).
//!
//! Metric history, rates and alerting are the scraper's: a Prometheus
//! server scraping `/metrics` keeps the series, takes `rate()` per scraper
//! and evaluates the rules (README, "History and alerting").
//! `--auth-token <tok>` gates every endpoint except `/health` behind
//! `Authorization: Bearer <tok>`.
//!
//! Three sources, picked from the arguments:
//!
//! * **workload** (default) — repeated tracked passes of an evaluation
//!   workload over one long-lived [`Session`]; the session is rotated when
//!   the simulated heap nears capacity (quarantined frees are never
//!   recycled), carrying the dynamic sampling settings across;
//! * **replay** — a `.ptrace` file looped through a single detector;
//! * **watch** (`--watch <dir> --corpus <dir>`) — a fleet spool directory
//!   polled for complete traces and auto-ingested into a corpus
//!   ([`predator_fleet::Watcher`]); `/report` serves the merged fleet view.
//!
//! A watchdog thread ticks [`Watchdog`] every `--watchdog-interval-ms`:
//! calibrated per-access costs × hot-path counter deltas give the
//! detector's own overhead, and sustained violations of
//! `--overhead-budget` shed sampling through the tiered backoff
//! controller; new allocation sites re-arm it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use predator_core::adaptive::Watchdog;
use predator_core::{
    build_report_with, shutdown, Attribution, DetectorConfig, ObjectDirectory, Predator, Session,
};
use predator_obs::{HttpServer, Request, Response};
use predator_policy::{evaluate_report, evaluate_views, FindingView, PolicyConfig};
use predator_trace::{AnalyzeConfig, TraceReader};
use predator_workloads::by_name;

use crate::args::{detector_config, policy_config, workload_config, Args};
use crate::detect::Format;

/// Default watchdog evaluation interval.
const DEFAULT_WATCHDOG_MS: u64 = 500;
/// Default self-overhead budget (fraction of wall time).
const DEFAULT_BUDGET: f64 = 0.05;
/// Responsiveness granule for interruptible sleeps.
const POLL_MS: u64 = 20;
/// Rotate the workload session when this fraction of its address space has
/// been consumed (carved into thread segments or handed to large objects —
/// carving is never undone, so consumption only grows).
const ROTATE_NUM: u64 = 3;
const ROTATE_DEN: u64 = 4;

/// Sleeps up to `ms`, waking early on shutdown; true when shutdown was
/// requested.
fn sleep_poll(ms: u64) -> bool {
    let mut slept = 0;
    while slept < ms {
        if shutdown::requested() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(POLL_MS.min(ms - slept)));
        slept += POLL_MS;
    }
    shutdown::requested()
}

/// State shared between the drive loop, the watchdog, and HTTP handlers.
struct ServeState {
    mode: &'static str,
    started: Instant,
    /// Completed drive iterations (workload passes, replay passes, or
    /// watch polls, by mode).
    passes: AtomicU64,
    /// Seconds-since-start of the last completed analysis activity.
    last_analysis_s: AtomicU64,
}

impl ServeState {
    fn new(mode: &'static str) -> Arc<Self> {
        Arc::new(ServeState {
            mode,
            started: Instant::now(),
            passes: AtomicU64::new(0),
            last_analysis_s: AtomicU64::new(0),
        })
    }

    fn mark_activity(&self, passes: u64) {
        self.passes.store(passes, Ordering::Relaxed);
        self.last_analysis_s
            .store(self.started.elapsed().as_secs(), Ordering::Relaxed);
    }
}

/// Touches every metric the endpoints promise, so a scrape taken before the
/// first pass already renders the full namespace at zero — fleet ingest
/// counters included (they only tick in watch mode, but exist in all).
fn register_static_metrics() {
    let g = predator_obs::global();
    for c in [
        "fleet_traces_ingested_total",
        "fleet_events_ingested_total",
        "fleet_bytes_ingested_total",
        "serve_requests_total",
        "serve_request_errors_total",
        "serve_passes_total",
        "predator_backoff_transitions_total",
        "policy_findings_classified_total",
        "policy_suppressed_total",
        "policy_baselined_total",
        "policy_gate_failures_total",
    ] {
        g.counter(c);
    }
    g.gauge("predator_uptime_seconds").set(0);
    g.gauge("predator_backoff_tier").set(0);
    g.gauge("predator_report_findings").set(0);
}

/// Registers the endpoints every mode shares; `/report` is mode-specific
/// and added by the caller.
fn common_routes(srv: HttpServer, state: &Arc<ServeState>) -> HttpServer {
    let st = state.clone();
    let srv = srv.route("/metrics", move |_| {
        predator_obs::static_gauge!("predator_uptime_seconds")
            .set(st.started.elapsed().as_secs() as i64);
        let mut body = predator_obs::prom_info_metric(
            "predator_build_info",
            &[("version", env!("CARGO_PKG_VERSION")), ("mode", st.mode)],
        );
        body.push_str(&predator_obs::global().snapshot().to_prometheus());
        Response::prometheus(body)
    });
    let st = state.clone();
    let srv = srv.route("/health", move |_| {
        let uptime = st.started.elapsed().as_secs();
        let age = uptime.saturating_sub(st.last_analysis_s.load(Ordering::Relaxed));
        Response::json(format!(
            "{{\"status\":\"ok\",\"mode\":\"{}\",\"uptime_seconds\":{uptime},\
             \"passes\":{},\"last_analysis_age_seconds\":{age}}}",
            st.mode,
            st.passes.load(Ordering::Relaxed)
        ))
    });
    srv.route("/snapshot", |_| {
        Response::json(predator_obs::global().snapshot().to_json())
    })
}

struct ServeOpts {
    listen: String,
    budget: f64,
    wd_ms: u64,
    max_passes: u64,
    /// `--auth-token` bearer token; `None` serves unauthenticated.
    auth: Option<String>,
    /// Policy configuration (`--suppressions`, `--baseline`, `--fail-on`)
    /// applied to every `/report` response.
    policy: PolicyConfig,
}

fn serve_opts(args: &Args) -> Result<ServeOpts, String> {
    let budget: f64 = args.num("--overhead-budget", DEFAULT_BUDGET)?;
    if !(budget > 0.0 && budget < 1.0) {
        return Err(format!("--overhead-budget must be in (0, 1), got {budget}"));
    }
    let wd_ms: u64 = args.num("--watchdog-interval-ms", DEFAULT_WATCHDOG_MS)?;
    if wd_ms == 0 {
        return Err("--watchdog-interval-ms must be at least 1".into());
    }
    Ok(ServeOpts {
        listen: args.get("--listen").unwrap_or("127.0.0.1:0").to_string(),
        budget,
        wd_ms,
        max_passes: args.num("--passes", 0u64)?,
        auth: args.get("--auth-token").map(str::to_string),
        policy: policy_config(args)?,
    })
}

/// `/report`'s `format=` query parameter (`json` when absent).
fn query_format(query: Option<&str>) -> &str {
    query
        .unwrap_or("")
        .split('&')
        .find_map(|pair| pair.strip_prefix("format="))
        .filter(|v| !v.is_empty())
        .unwrap_or("json")
}

/// Renders `/report` for the live-`Report` modes (workload, replay):
/// `?format=json|sarif|html` picks the document, and when `--fail-on` is
/// armed a failed gate answers HTTP 412 (Precondition Failed) so probes
/// can alert on the status line without parsing the body.
fn report_response(
    report: &predator_core::Report,
    geom: predator_sim::CacheGeometry,
    policy: &PolicyConfig,
    query: Option<&str>,
) -> Response {
    let eval = evaluate_report(report, policy);
    let asked = query_format(query);
    let (format, content_type) = match asked.parse() {
        Ok(f @ (Format::Json | Format::Sarif)) => (f, "application/json"),
        Ok(f @ Format::Html) => (f, "text/html; charset=utf-8"),
        _ => return Response::error(400, &format!("unknown format `{asked}` (json|sarif|html)")),
    };
    Response {
        status: if eval.gate_failed() { 412 } else { 200 },
        content_type,
        body: format.render(report, &eval, geom).into_bytes(),
        headers: Vec::new(),
    }
}

pub(crate) fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let opts = serve_opts(args)?;
    let det = detector_config(args)?;
    register_static_metrics();
    let target = args.operands.first().map_or("histogram", String::as_str);
    let served = if let Some(watch_dir) = args.get("--watch") {
        serve_watch(args, det, watch_dir, &opts)
    } else if by_name(target).is_some() {
        serve_workload(args, det, target, &opts)
    } else if Path::new(target).is_file() {
        serve_replay(det, target, &opts, args)
    } else {
        Err(format!(
            "serve: `{target}` is neither a workload (try `list`) nor a trace file"
        ))
    };
    served.map(|()| ExitCode::SUCCESS)
}

/// The one server set-up: binds, registers the shared routes plus the
/// mode's `/report`, spawns, announces, runs `drive` (the mode's loop, which
/// returns how many iterations it completed) and stops the server after it.
fn serve_mode(
    args: &Args,
    opts: &ServeOpts,
    mode: &'static str,
    report: impl Fn(&Request) -> Response + Send + Sync + 'static,
    drive: impl FnOnce(&ServeState) -> Result<u64, String>,
) -> Result<u64, String> {
    let state = ServeState::new(mode);
    let srv = HttpServer::bind(&opts.listen)
        .map_err(|e| format!("cannot bind {}: {e}", opts.listen))?
        .with_auth(opts.auth.clone());
    let addr = srv.local_addr();
    let handle = common_routes(srv, &state)
        .route("/report", report)
        .spawn()
        .map_err(|e| format!("cannot serve: {e}"))?;
    // Tests and scripts recover ephemeral ports from `--ready-file`.
    if let Some(path) = args.get("--ready-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("serving ({mode}) on http://{addr} — /metrics /health /report /snapshot");
    let done = drive(&state);
    handle.stop();
    done
}

/// The two modes that drive a long-lived detector (workload, replay): serves
/// `report`, runs the watchdog alongside, and repeats `pass` until shutdown
/// — at most `--passes` times, after which the server keeps answering
/// scrapes until a signal arrives. Each watchdog tick, `tick` feeds it the
/// runtime to throttle (sessions rotate under workload mode, so it is looked
/// up fresh) and the wall clock in ns. `pass` returns false when a shutdown
/// request cut it short.
fn serve_passes(
    args: &Args,
    det: DetectorConfig,
    opts: &ServeOpts,
    mode: &'static str,
    report: impl Fn(&Request) -> Response + Send + Sync + 'static,
    tick: impl Fn(&mut Watchdog, u64) + Send + 'static,
    mut pass: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let done = serve_mode(args, opts, mode, report, |state| {
        let (wd_ms, budget, started) = (opts.wd_ms, opts.budget, state.started);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let watchdog = std::thread::Builder::new()
            .name("predator-watchdog".into())
            .spawn(move || {
                // Calibration micro-times the hot paths on a scratch runtime
                // — done on this thread so serving starts immediately.
                let mut wd = Watchdog::for_detector(&det, budget);
                while !stopped.load(Ordering::Relaxed) && !sleep_poll(wd_ms) {
                    tick(&mut wd, started.elapsed().as_nanos() as u64);
                }
            })
            .map_err(|e| format!("cannot spawn watchdog: {e}"))?;
        let mut done = 0u64;
        let mut drive = || {
            while !shutdown::requested() {
                if opts.max_passes != 0 && done >= opts.max_passes {
                    sleep_poll(POLL_MS);
                } else if pass()? {
                    done += 1;
                    state.mark_activity(done);
                    predator_obs::static_counter!("serve_passes_total").inc();
                }
            }
            Ok(())
        };
        let driven = drive();
        stop.store(true, Ordering::Relaxed);
        let _ = watchdog.join();
        driven.map(|()| done)
    })?;
    eprintln!("serve: {done} {mode} pass(es), shutting down");
    Ok(())
}

fn serve_workload(
    args: &Args,
    det: DetectorConfig,
    name: &str,
    opts: &ServeOpts,
) -> Result<(), String> {
    let w = by_name(name).expect("caller checked the workload exists");
    let wcfg = workload_config(args)?;
    // Shared: the pass runs on this thread while the server thread builds
    // `/report` from the same detector (a snapshot drains counter batches).
    let session = Arc::new(Mutex::new(Arc::new(
        Session::with_config(det).into_shared(),
    )));
    let current = |session: &Mutex<Arc<Session>>| session.lock().unwrap().clone();

    let (sess_for_report, policy) = (session.clone(), opts.policy.clone());
    let report = move |req: &Request| {
        let report = current(&sess_for_report).report();
        report_response(&report, det.geometry, &policy, req.query.as_deref())
    };
    let sess_for_wd = session.clone();
    let tick = move |wd: &mut Watchdog, now_ns| {
        let sess = current(&sess_for_wd);
        wd.tick(sess.runtime(), sess.heap().callsites().len() as u64, now_ns);
    };
    serve_passes(args, det, opts, "workload", report, tick, || {
        let sess = current(&session);
        {
            let _span = predator_obs::span("interpret");
            w.run_tracked(&sess, &wcfg);
        }
        // Segment carving and quarantined frees are never undone, so a
        // long-lived session eventually exhausts its simulated heap: rotate
        // to a fresh one before that happens, carrying the watchdog's
        // dynamic settings across. Consumption is measured as address space
        // no longer available (size − uncarved), not usable bytes handed
        // out — workloads that register threads every pass burn a 64 KiB
        // segment per thread that usable-byte counters never see.
        let space = sess.space().size();
        let consumed = space - sess.heap().uncarved_bytes();
        if consumed * ROTATE_DEN >= space * ROTATE_NUM {
            let rate = sess.runtime().sampling_rate();
            let stride = sess.runtime().analysis_stride();
            let fresh = Arc::new(Session::with_config(det).into_shared());
            fresh.runtime().set_sampling_rate(rate);
            fresh.runtime().set_analysis_stride(stride);
            *session.lock().unwrap() = fresh;
            predator_obs::static_counter!("serve_session_rotations_total").inc();
        }
        Ok(true)
    })
}

fn serve_replay(
    det: DetectorConfig,
    path: &str,
    opts: &ServeOpts,
    args: &Args,
) -> Result<(), String> {
    let header = TraceReader::open(path)?.header();
    // Shared with the server thread's `/report`, as in workload mode.
    let rt = Arc::new(Predator::new(det, header.base, header.size).into_shared());
    let directory: Arc<Mutex<Option<ObjectDirectory>>> = Arc::new(Mutex::new(None));

    let (rt_for_report, dir_for_report) = (rt.clone(), directory.clone());
    let policy = opts.policy.clone();
    let report = move |req: &Request| {
        let report = {
            let dir = dir_for_report.lock().unwrap();
            let attr = dir
                .as_ref()
                .map_or(Attribution::None, Attribution::Directory);
            build_report_with(&rt_for_report, attr)
        };
        report_response(&report, det.geometry, &policy, req.query.as_deref())
    };
    // No allocator in replay mode: the callsite count stays 0, so the
    // re-arm signal never fires — backoff is budget-driven only.
    let rt_for_wd = rt.clone();
    let tick = move |wd: &mut Watchdog, now_ns| {
        wd.tick(&rt_for_wd, 0, now_ns);
    };
    serve_passes(args, det, opts, "replay", report, tick, || {
        let mut r = TraceReader::open(path)?;
        let mut n = 0u64;
        for a in &mut r {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
            n += 1;
            // Stay responsive to signals inside long traces.
            if n.is_multiple_of(65_536) && shutdown::requested() {
                return Ok(false);
            }
        }
        if directory.lock().unwrap().is_none() {
            if let Some(meta) = r.take_meta() {
                meta.apply_globals(&rt);
                *directory.lock().unwrap() = Some(meta.directory());
            }
        }
        Ok(true)
    })
}

fn serve_watch(
    args: &Args,
    det: DetectorConfig,
    watch_dir: &str,
    opts: &ServeOpts,
) -> Result<(), String> {
    let corpus = args
        .get("--corpus")
        .ok_or("serve --watch: missing --corpus <dir>")?;
    let cfg = AnalyzeConfig { det };
    let mut watcher = predator_fleet::Watcher::new(Path::new(watch_dir), Path::new(corpus), cfg);

    let corpus_dir = PathBuf::from(corpus);
    let policy = opts.policy.clone();
    let report = move |req: &Request| {
        // The merged fleet view has no per-finding Report to render, so
        // only JSON is served here; the gate still applies, over per-run
        // mean invalidations, with the same 412 contract as other modes.
        if query_format(req.query.as_deref()) != "json" {
            return Response::error(
                400,
                "watch mode serves the merged fleet report as JSON only",
            );
        }
        match predator_fleet::Manifest::load(&corpus_dir) {
            Ok(Some(m)) => {
                let r = predator_fleet::build_fleet_report(&m);
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
                    &policy,
                );
                Response {
                    status: if eval.gate_failed() { 412 } else { 200 },
                    content_type: "application/json",
                    body: r.to_json().into_bytes(),
                    headers: Vec::new(),
                }
            }
            Ok(None) => Response::error(404, "corpus empty (no trace ingested yet)"),
            Err(e) => Response::error(500, &e),
        }
    };
    // Analysis runs inside ingest, one detector per file, so there is no
    // long-lived detector for the watchdog to throttle in this mode.
    let polls = serve_mode(args, opts, "watch", report, |state| {
        let mut polls = 0u64;
        while !shutdown::requested() {
            match watcher.poll() {
                Ok(out) => {
                    if out.added() > 0 {
                        eprintln!(
                            "watch: ingested {} trace(s) ({} incomplete pending)",
                            out.added(),
                            out.incomplete
                        );
                    }
                    for e in &out.errors {
                        eprintln!("watch: {e}");
                    }
                    polls += 1;
                    state.mark_activity(polls);
                    if opts.max_passes != 0 && polls >= opts.max_passes {
                        break;
                    }
                }
                Err(e) => eprintln!("watch: {e}"),
            }
            if sleep_poll(opts.wd_ms) {
                break;
            }
        }
        Ok(polls)
    })?;
    eprintln!("serve: {polls} watch poll(s), shutting down");
    Ok(())
}
