//! In-process exercise of the telemetry endpoints behind `predator serve`.
//!
//! Spins the hand-rolled HTTP server on an ephemeral port with the same
//! `/metrics` + `/snapshot` handlers the CLI installs, seeds probe metrics
//! with known values, and proves the acceptance property: a `/metrics`
//! scrape parses as Prometheus text and **byte-matches** the fields of the
//! snapshot captured from the same registry. And the property `serve` needs
//! of a *shared* session: `/report` scraped while a pass is running answers
//! with a well-formed report every time and costs the pass no update.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use predator::obs::{global, http_get, HttpServer, Response, Snapshot};
use predator::{Callsite, DetectorConfig, Report, Session, ThreadId};

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

    let srv = HttpServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.local_addr().to_string();
    let handle = srv
        .route("/metrics", |_| {
            Response::prometheus(global().snapshot().to_prometheus())
        })
        .route("/snapshot", |_| {
            Response::json(global().snapshot().to_json())
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

    // /snapshot is the cumulative snapshot, the `--metrics` document: it
    // parses as one, reports the probe counter, and a scrape after an
    // increment carries the new total (a scrape consumes nothing).
    let scrape = || {
        let (status, body) = http_get(&addr, "/snapshot", Duration::from_secs(5)).expect("scrape");
        assert_eq!(status, 200);
        serde_json::from_str::<Snapshot>(&body).expect("/snapshot parses as a snapshot")
    };
    assert_eq!(scrape().counter("serve_http_probe_total"), Some(42));
    g.counter("serve_http_probe_total").add(5);
    assert_eq!(scrape().counter("serve_http_probe_total"), Some(47));
    assert_eq!(scrape().counter("serve_http_probe_total"), Some(47));

    // Unknown paths 404 without killing the server.
    let (status, _) = http_get(&addr, "/nope", Duration::from_secs(5)).expect("scrape");
    assert_eq!(status, 404);

    handle.stop();
}

/// One round of the pass both sessions below run: an observed pair on one
/// line, a latent pair across the next line boundary.
fn round(s: &Session, (t0, t1): (ThreadId, ThreadId), obj: u64, i: u64) {
    s.write::<u64>(t0, obj, i);
    s.write::<u64>(t1, obj + 8, i);
    s.write::<u64>(t0, obj + 64 + 56, i);
    s.write::<u64>(t1, obj + 128, i);
}

fn session_with_object() -> (Session, (ThreadId, ThreadId), u64) {
    let s = Session::new(DetectorConfig::sensitive(), 1 << 20);
    let tids = (s.register_thread(), s.register_thread());
    let obj = s.malloc(tids.0, 256, Callsite::here()).unwrap().start;
    (s, tids, obj)
}

#[test]
fn report_scraped_mid_pass_is_consistent_and_costs_the_pass_nothing() {
    let (session, tids, obj) = session_with_object();
    let session = Arc::new(session.into_shared());
    let served = Arc::clone(&session);
    let srv = HttpServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.local_addr().to_string();
    let handle = srv
        .route("/report", move |_| {
            Response::json(served.report().to_json())
        })
        .spawn()
        .expect("spawn server");
    let scrape = || -> Report {
        let (status, body) = http_get(&addr, "/report", Duration::from_secs(5)).expect("scrape");
        assert_eq!(status, 200);
        serde_json::from_str(&body).expect("a scrape is a whole report")
    };

    // The pass runs until told to stop, so every scrape below lands inside
    // it: each drains the lines' pending counter batches from the server
    // thread while this session's driver is claiming and filling them.
    let stop = AtomicBool::new(false);
    let rounds = std::thread::scope(|scope| {
        let pass = scope.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round(&session, tids, obj, i);
                i += 1;
            }
            i
        });
        while session.runtime().events() == 0 {
            std::thread::yield_now();
        }
        let mut last = 0;
        for _ in 0..20 {
            let r = scrape();
            assert!(r.stats.events >= last, "events never run backwards");
            last = r.stats.events;
        }
        assert!(last > 0, "the scrapes saw the pass");
        stop.store(true, Ordering::Relaxed);
        pass.join().expect("the pass survives being scraped")
    });

    // At rest the endpoint and the session agree, and nothing was lost to
    // the concurrent drains: every physical line holds exactly what an
    // owned, never-scraped session holds after the same rounds. (Prediction
    // units are left out: a scrape may hold a batch while a hot-pair
    // analysis reads the counters, which can move the access a unit spawns
    // on — in the shared mode's contract, as before.)
    let (at_rest, direct) = (scrape(), session.report());
    assert_eq!(at_rest.stats.events, 4 * rounds);
    assert_eq!(
        serde_json::to_string(&at_rest.findings).unwrap(),
        serde_json::to_string(&direct.findings).unwrap()
    );
    let (control, ctids, cobj) = session_with_object();
    assert_eq!(cobj, obj);
    (0..rounds).for_each(|i| round(&control, ctids, cobj, i));
    assert_eq!(
        session.runtime().tracked_snapshots(),
        control.runtime().tracked_snapshots()
    );
    assert!(direct.has_observed_false_sharing());
    handle.stop();
}
