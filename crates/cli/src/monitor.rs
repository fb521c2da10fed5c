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

/// Scrapes a live serve instance's /snapshot: the cumulative
/// [`ObsSnapshot`], the same document `--metrics <PATH>` writes.
fn scrape_snapshot(addr: &str, token: Option<&str>) -> Result<ObsSnapshot, String> {
    let (status, body) = predator_obs::http_get_auth(addr, "/snapshot", SCRAPE_TIMEOUT, token)
        .map_err(|e| format!("cannot scrape {addr}/snapshot: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}/snapshot returned HTTP {status}"));
    }
    serde_json::from_str::<ObsSnapshot>(&body)
        .map_err(|e| format!("{addr}/snapshot: not a snapshot: {e}"))
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
    // --url scrapes a live `predator serve` instance's /snapshot endpoint.
    if let Some(url) = args.get("--url") {
        let addr = norm_addr(url);
        let snap = scrape_snapshot(&addr, args.get("--auth-token"))?;
        println!("live snapshot from {addr}");
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
