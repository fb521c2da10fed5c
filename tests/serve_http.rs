//! In-process exercise of the telemetry endpoints behind `predator serve`.
//!
//! Spins the hand-rolled HTTP server on an ephemeral port with the same
//! `/metrics` + `/snapshot` handlers the CLI installs, seeds probe metrics
//! with known values, and proves the acceptance property: a `/metrics`
//! scrape parses as Prometheus text and **byte-matches** the fields of the
//! snapshot captured from the same registry.

use std::time::Duration;

use predator::obs::{global, http_get, DeltaTracker, HttpServer, Response, Snapshot};
use std::sync::Mutex;

/// Splits a Prometheus text body into `(series, value)` pairs, failing the
/// test on any line that does not parse.
fn parse_prometheus(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable metrics line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample in line: {line:?}"));
        out.push((series.to_string(), value));
    }
    out
}

#[test]
fn metrics_scrape_parses_and_matches_the_registry_snapshot() {
    // Probe metrics with names no other code path touches: their values
    // are stable across the capture-then-scrape window.
    let g = global();
    g.counter("serve_http_probe_total").add(42);
    g.gauge("serve_http_probe_level").set(-7);
    g.histogram("serve_http_probe_ns").record(100);
    g.histogram("serve_http_probe_ns").record(3000);

    let delta = Mutex::new(DeltaTracker::new());
    let srv = HttpServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.local_addr().to_string();
    let handle = srv
        .route("/metrics", |_| {
            Response::prometheus(global().snapshot().to_prometheus())
        })
        .route("/snapshot", move |_| {
            Response::json(delta.lock().unwrap().scrape(global().snapshot()).to_json())
        })
        .spawn()
        .expect("spawn server");

    let captured = Snapshot::capture();
    let (status, body) = http_get(&addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    assert_eq!(status, 200);

    // The whole body parses as Prometheus text exposition format.
    let series = parse_prometheus(&body);
    assert!(!series.is_empty());

    // Byte-match against the captured snapshot: the exact sample lines its
    // fields imply must appear in the scraped text.
    let count = captured
        .counter("serve_http_probe_total")
        .expect("probe counter in the snapshot");
    assert_eq!(count, 42);
    assert!(
        body.contains("\nserve_http_probe_total 42\n"),
        "counter line byte-matches the snapshot:\n{body}"
    );
    assert!(
        body.contains("\nserve_http_probe_level -7\n"),
        "gauge line byte-matches the snapshot:\n{body}"
    );
    let hist = captured
        .histograms
        .iter()
        .find(|h| h.name == "serve_http_probe_ns")
        .expect("probe histogram in the snapshot");
    assert!(body.contains(&format!("\nserve_http_probe_ns_sum {}\n", hist.sum)));
    assert!(body.contains(&format!("\nserve_http_probe_ns_count {}\n", hist.count)));
    assert!(body.contains(&format!(
        "serve_http_probe_ns_bucket{{le=\"+Inf\"}} {}\n",
        hist.count
    )));

    // /snapshot: first scrape is epoch 1 and reports the probe counter in
    // both payloads; a second scrape after an increment carries exactly the
    // increment in `delta` and the new total in `cumulative`.
    let (status, snap1) = http_get(&addr, "/snapshot", Duration::from_secs(5)).expect("scrape");
    assert_eq!(status, 200);
    assert!(snap1.starts_with("{\"schema\":\"predator-snapshot-delta/1\",\"epoch\":1,"));
    assert!(snap1.contains("{\"name\":\"serve_http_probe_total\",\"value\":42}"));

    g.counter("serve_http_probe_total").add(5);
    let (status, snap2) = http_get(&addr, "/snapshot", Duration::from_secs(5)).expect("scrape");
    assert_eq!(status, 200);
    assert!(snap2.starts_with("{\"schema\":\"predator-snapshot-delta/1\",\"epoch\":2,"));
    let (delta_part, cumulative_part) = snap2
        .split_once("\"cumulative\":")
        .expect("delta document has both payloads");
    assert!(
        delta_part.contains("{\"name\":\"serve_http_probe_total\",\"value\":5}"),
        "delta carries the increment: {delta_part}"
    );
    assert!(
        cumulative_part.contains("{\"name\":\"serve_http_probe_total\",\"value\":47}"),
        "cumulative carries the new total: {cumulative_part}"
    );

    // Unknown paths 404 without killing the server.
    let (status, _) = http_get(&addr, "/nope", Duration::from_secs(5)).expect("scrape");
    assert_eq!(status, 404);

    handle.stop();
}
