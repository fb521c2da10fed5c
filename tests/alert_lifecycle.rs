//! End-to-end alert lifecycle against an in-process serve-style session.
//!
//! Builds the same monitor stack `predator serve --rules` wires up — the
//! tsdb sampled per tick, the alert engine evaluated over it, `/alerts`
//! served over the hand-rolled HTTP server — and drives a synthetic
//! overhead spike through it, asserting the full pending → firing →
//! resolved lifecycle in both places it is observable: the `/alerts`
//! JSON document and the `alert_transition` records on the JSONL event
//! sink.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use predator::obs::{
    events, http_get, parse_rules, AlertEngine, GaugeSnapshot, HttpServer, Response, Snapshot, Tsdb,
};

/// A `Write` the test can read back: the JSONL event sink's destination.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn lines(buf: &SharedBuf) -> Vec<String> {
    String::from_utf8(buf.0.lock().unwrap().clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

const RULES: &str = "\
alert overhead_spike
  expr: predator_watchdog_overhead_ppm > 80000
  for: 2s
  severity: critical
  summary: synthetic spike
";

fn overhead_snap(ppm: i64) -> Snapshot {
    Snapshot {
        counters: vec![],
        gauges: vec![GaugeSnapshot {
            name: "predator_watchdog_overhead_ppm".into(),
            value: ppm,
        }],
        histograms: vec![],
    }
}

#[test]
fn spike_walks_pending_firing_resolved_over_http_and_jsonl() {
    let buf = SharedBuf::default();
    events().install(Box::new(buf.clone()), 10_000, 1);

    let rules = parse_rules(RULES).expect("rules parse");
    let monitor = Arc::new((
        Mutex::new(Tsdb::default()),
        Mutex::new(AlertEngine::new(rules)),
    ));
    let now = Arc::new(Mutex::new(0u64));

    // The same /alerts route `predator serve` installs, minus the CLI.
    let mon = monitor.clone();
    let now_for_route = now.clone();
    let srv = HttpServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.local_addr().to_string();
    // Shut down via Drop at end of test.
    let _handle = srv
        .route("/alerts", move |_| {
            let t = *now_for_route.lock().unwrap();
            Response::json(mon.1.lock().unwrap().to_json(t))
        })
        .spawn()
        .expect("spawn server");

    let tick = |t_ms: u64, ppm: i64| {
        *now.lock().unwrap() = t_ms;
        let mut db = monitor.0.lock().unwrap();
        db.sample(&overhead_snap(ppm), t_ms);
        monitor.1.lock().unwrap().eval(&db, t_ms);
    };
    let alerts = || -> String {
        let (status, body) = http_get(&addr, "/alerts", Duration::from_secs(5)).expect("GET");
        assert_eq!(status, 200);
        body
    };

    // Healthy: condition not met, rule inactive.
    tick(0, 1_000);
    let body = alerts();
    assert!(body.contains("\"state\":\"inactive\""), "bad body: {body}");
    assert!(body.contains("\"firing\":0"), "bad body: {body}");

    // Spike: the condition holds but `for: 2s` hasn't elapsed — pending.
    tick(1_000, 200_000);
    let body = alerts();
    assert!(body.contains("\"state\":\"pending\""), "bad body: {body}");
    assert!(body.contains("\"since_ms\":1000"), "bad body: {body}");

    // Spike sustained past the hysteresis window — firing.
    tick(2_000, 220_000);
    tick(3_000, 210_000);
    let body = alerts();
    assert!(body.contains("\"state\":\"firing\""), "bad body: {body}");
    assert!(body.contains("\"firing\":1"), "bad body: {body}");
    assert!(
        body.contains("\"severity\":\"critical\""),
        "bad body: {body}"
    );

    // Overhead recovers — resolved, with the resolution timestamp.
    tick(4_000, 900);
    let body = alerts();
    assert!(body.contains("\"state\":\"resolved\""), "bad body: {body}");
    assert!(body.contains("\"resolved_ms\":4000"), "bad body: {body}");
    assert!(body.contains("\"firing\":0"), "bad body: {body}");
    assert!(body.contains("\"transitions_total\":3"), "bad body: {body}");

    // The same lifecycle, as JSONL transition records on the event sink.
    events().flush();
    let recs: Vec<String> = lines(&buf)
        .into_iter()
        .filter(|l| l.contains("\"kind\":\"alert_transition\""))
        .collect();
    assert_eq!(recs.len(), 3, "expected 3 transitions, got: {recs:#?}");
    for (rec, (from, to, at)) in recs.iter().zip([
        ("inactive", "pending", 1_000u64),
        ("pending", "firing", 3_000),
        ("firing", "resolved", 4_000),
    ]) {
        assert!(
            rec.contains("\"alert\":\"overhead_spike\""),
            "bad rec: {rec}"
        );
        assert!(
            rec.contains(&format!("\"from\":\"{from}\",\"to\":\"{to}\"")),
            "expected {from}->{to} in: {rec}"
        );
        assert!(rec.contains(&format!("\"at_ms\":{at}")), "bad rec: {rec}");
    }
}
