//! `predator stats`: reading what a run or a live `serve` instance says
//! about itself.

use std::process::ExitCode;

use predator_core::{ObsSnapshot, Report};

use crate::args::Args;

/// Normalizes a `--url` value to the bare `host:port` the obs HTTP
/// client expects.
fn norm_addr(url: &str) -> String {
    url.trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

/// HTTP client timeout for live scrapes (`stats --url`).
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

pub(crate) fn cmd_stats(args: &Args) -> Result<ExitCode, String> {
    // --url scrapes a live `predator serve` instance's /snapshot endpoint
    // and renders its embedded cumulative ObsSnapshot.
    if let Some(url) = args.get("--url") {
        let addr = norm_addr(url);
        let (epoch, snap) = scrape_snapshot(&addr, args.get("--auth-token"))?;
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
