//! `predator stats` and `predator alerts lint|eval`: reading what a run or
//! a live `serve` instance says about itself, plus the scrape helpers both
//! share.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use predator_core::{ObsSnapshot, Report};

use crate::args::Args;
use crate::{serve, STDOUT_CLOSED};

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

/// Reads an [`ObsSnapshot`] from a file (`-` = stdin): either a bare
/// snapshot (from `--metrics`) or a full JSON report (whose `obs` field
/// embeds one).
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

pub(crate) fn cmd_alerts_lint(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let rules = serve::load_rules(path)?;
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

/// `alerts eval` — one-shot rule evaluation against a snapshot source.
/// `for:` hysteresis is ignored (a single evaluation has no history to
/// hold against); the exit code is the gate: nonzero when any condition
/// currently holds.
pub(crate) fn cmd_alerts_eval(args: &Args) -> Result<ExitCode, String> {
    use predator_obs::alerts::Expr;
    let rules = &serve::load_rules(&args.operands[0])?;
    let src = &args.operands[1];
    let mut db = predator_obs::Tsdb::default();
    let now_ms;
    if src == "-" || Path::new(src).is_file() {
        // A recorded report/snapshot is one instant: threshold rules
        // evaluate, rate() rules read as "no data" (never met).
        db.sample(&snapshot_from_file(src)?, 0);
        now_ms = 0;
        println!("evaluating {} rule(s) against {src}", rules.len());
    } else {
        // A live instance: two scrapes a second apart give rate() a
        // window while threshold rules read the newest sample.
        let addr = norm_addr(src);
        let token = args.get("--auth-token");
        let t0 = std::time::Instant::now();
        let (_, first) = scrape_snapshot(&addr, token)?;
        db.sample(&first, 0);
        std::thread::sleep(std::time::Duration::from_secs(1));
        let (epoch, second) = scrape_snapshot(&addr, token)?;
        now_ms = t0.elapsed().as_millis() as u64;
        db.sample(&second, now_ms);
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

pub(crate) fn cmd_stats(args: &Args) -> Result<ExitCode, String> {
    // --url scrapes a live `predator serve` instance's /snapshot endpoint
    // and renders its embedded cumulative ObsSnapshot; with --watch it
    // becomes a refreshing dashboard over /alerts and /query instead.
    if let Some(url) = args.get("--url") {
        let addr = norm_addr(url);
        let token = args.get("--auth-token");
        if let Some(watch) = args.get("--watch") {
            let secs: u64 = watch
                .parse()
                .map_err(|_| format!("invalid value for --watch: {watch}"))?;
            watch_loop(&addr, token, secs)?;
            return Ok(ExitCode::SUCCESS);
        }
        let (epoch, snap) = scrape_snapshot(&addr, token)?;
        println!("live snapshot from {addr} (scrape epoch {epoch})");
        print!("{}", snap.render_table());
        return Ok(ExitCode::SUCCESS);
    }
    let path = args
        .operands
        .first()
        .ok_or("stats: missing snapshot path (or --url <addr>)")?;
    print!("{}", snapshot_from_file(path)?.render_table());
    Ok(ExitCode::SUCCESS)
}
