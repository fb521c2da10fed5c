//! `bench_serve` — live-monitoring overhead telemetry (`BENCH_8.json`).
//!
//! ```text
//! bench_serve [out.json] [--passes N] [--iters N] [--scrape-ms N]
//! ```
//!
//! Reproduces `predator serve`'s steady state in-process and measures what
//! the monitoring stack costs the workload it watches:
//!
//! * **baseline** — repeated tracked passes of the histogram workload, no
//!   server, no watchdog;
//! * **serve mode** — the same passes with the HTTP endpoint up, a
//!   Prometheus-style scraper hitting `/metrics` + `/snapshot` on a fixed
//!   cadence, and the self-overhead watchdog ticking its calibrated cost
//!   model, the backoff controller, the embedded time-series store
//!   (every registry metric sampled per tick) and the alert engine over
//!   the shipped `docs/alerts.rules` pack throughout — the full
//!   `serve --rules` monitor stack.
//!
//! Reported: per-pass wall time for both phases, the serve-mode overhead
//! percentage, scrape latency percentiles, monitor-tick (tsdb sample +
//! alert eval) latency percentiles, tsdb series/sample counts, and the
//! watchdog's end state (tier, transitions, effective sampling rate)
//! proving it was engaged.
//! The ≤5% overhead gate is enforced on machines with ≥4 cores; on smaller
//! machines the serve threads time-slice against the workload itself, so
//! the number is reported but advisory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use predator_bench::telemetry::peak_rss_kb;
use predator_core::adaptive::Watchdog;
use predator_core::{DetectorConfig, Session};
use predator_obs::{http_get, parse_rules, AlertEngine, DeltaTracker, HttpServer, Response, Tsdb};
use predator_workloads::{by_name, Variant, Workload, WorkloadConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ServeBench {
    schema: &'static str,
    workload: &'static str,
    passes: u64,
    threads: usize,
    iters: u64,
    cores: usize,
    baseline_wall_ms: f64,
    baseline_ms_per_pass: f64,
    serve_wall_ms: f64,
    serve_ms_per_pass: f64,
    overhead_pct: f64,
    scrapes: u64,
    scrape_p50_us: u64,
    scrape_p99_us: u64,
    watchdog_interval_ms: u64,
    backoff_transitions: u64,
    final_tier: i64,
    final_sampling_rate_ppm: i64,
    alert_rules: u64,
    alert_transitions: u64,
    monitor_ticks: u64,
    monitor_tick_p50_us: u64,
    monitor_tick_p99_us: u64,
    tsdb_series: u64,
    tsdb_samples: u64,
    peak_rss_kb: u64,
}

/// The default rule pack `predator serve --rules docs/alerts.rules` ships
/// with — the bench evaluates exactly what production would.
const RULE_PACK: &str = include_str!("../../../../docs/alerts.rules");

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_passes(sess: &Session, w: &dyn Workload, cfg: &WorkloadConfig, passes: u64) -> Duration {
    let t = Instant::now();
    for _ in 0..passes {
        w.run_tracked(sess, cfg);
    }
    t.elapsed()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sleeps `ms` in small slices so the stop flag is honoured promptly.
fn sleep_unless(stop: &AtomicBool, ms: u64) -> bool {
    let mut slept = 0;
    while slept < ms {
        if stop.load(Ordering::Relaxed) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10.min(ms - slept)));
        slept += 10;
    }
    stop.load(Ordering::Relaxed)
}

const WATCHDOG_MS: u64 = 500;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_8.json".to_string();
    let mut passes: u64 = 200;
    let mut iters: u64 = 20_000;
    let mut scrape_ms: u64 = 250;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--passes" => passes = it.next().and_then(|v| v.parse().ok()).expect("--passes N"),
            "--iters" => iters = it.next().and_then(|v| v.parse().ok()).expect("--iters N"),
            "--scrape-ms" => {
                scrape_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scrape-ms N")
            }
            other => out_path = other.to_string(),
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let w = by_name("histogram").expect("histogram workload exists");
    let det = DetectorConfig::paper();
    let wcfg = WorkloadConfig {
        threads: 4,
        iters,
        seed: 42,
        variant: Variant::Broken,
    };

    println!("SERVE BENCH — histogram x {passes} passes, {iters} iters");

    // Warmup: first-touch costs (registry interning, thread spawn paths)
    // land outside both measured phases.
    run_passes(&Session::with_config(det), w.as_ref(), &wcfg, 2);

    let base_sess = Session::with_config(det);
    let baseline = run_passes(&base_sess, w.as_ref(), &wcfg, passes);
    drop(base_sess);
    println!(
        "  baseline: {:.1} ms ({:.2} ms/pass)",
        ms(baseline),
        ms(baseline) / passes as f64
    );

    // --- serve mode: endpoint + scraper + watchdog around the same passes.
    let sess = Arc::new(Session::with_config(det));
    let delta = Arc::new(Mutex::new(DeltaTracker::new()));
    let srv = HttpServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.local_addr().to_string();
    let d2 = delta.clone();
    let handle = srv
        .route("/metrics", |_| {
            Response::prometheus(predator_obs::global().snapshot().to_prometheus())
        })
        .route("/snapshot", move |_| {
            let snap = predator_obs::global().snapshot();
            Response::json(d2.lock().unwrap().scrape(snap).to_json())
        })
        .spawn()
        .expect("spawn server");

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let rules = parse_rules(RULE_PACK).expect("shipped rule pack parses");
    let rule_count = rules.len() as u64;
    let wd_thread = {
        let sess = sess.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut wd = Watchdog::for_detector(&det, 0.05);
            // The same monitor stack `serve --rules` runs per tick: sample
            // the registry into the tsdb, evaluate the rule pack over it.
            let mut tsdb = Tsdb::default();
            let mut engine = AlertEngine::new(rules);
            let mut tick_us: Vec<u64> = Vec::new();
            while !sleep_unless(&stop, WATCHDOG_MS) {
                let callsites = sess.heap().callsites().len() as u64;
                wd.tick(
                    sess.runtime(),
                    callsites,
                    started.elapsed().as_nanos() as u64,
                );
                let t = Instant::now();
                let now_ms = started.elapsed().as_millis() as u64;
                let snap = predator_obs::global().snapshot();
                tsdb.sample(&snap, now_ms);
                engine.eval(&tsdb, now_ms);
                tick_us.push(t.elapsed().as_micros() as u64);
            }
            let series = tsdb.series_names().len() as u64;
            let samples = tsdb.samples_total();
            (tick_us, series, samples)
        })
    };

    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let scraper = {
        let stop = stop.clone();
        let latencies = latencies.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            while !sleep_unless(&stop, scrape_ms) {
                for path in ["/metrics", "/snapshot"] {
                    let t = Instant::now();
                    if http_get(&addr, path, Duration::from_secs(2)).is_ok() {
                        latencies
                            .lock()
                            .unwrap()
                            .push(t.elapsed().as_micros() as u64);
                    }
                }
            }
        })
    };

    let serve = run_passes(&sess, w.as_ref(), &wcfg, passes);
    stop.store(true, Ordering::Relaxed);
    let (mut tick_us, tsdb_series, tsdb_samples) = wd_thread.join().expect("watchdog thread");
    let _ = scraper.join();
    handle.stop();

    tick_us.sort_unstable();
    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_unstable();
    let overhead_pct = (ms(serve) - ms(baseline)) / ms(baseline) * 100.0;
    // Effective rate from the runtime itself — the gauge is only written on
    // transitions, so an untouched tier-0 run would read as zero.
    let effective_rate_ppm = (sess.runtime().sampling_rate() * 1e6).round() as i64;
    let g = predator_obs::global();
    let report = ServeBench {
        schema: "predator-serve-bench/2",
        workload: "histogram",
        passes,
        threads: wcfg.threads,
        iters,
        cores,
        baseline_wall_ms: ms(baseline),
        baseline_ms_per_pass: ms(baseline) / passes as f64,
        serve_wall_ms: ms(serve),
        serve_ms_per_pass: ms(serve) / passes as f64,
        overhead_pct,
        scrapes: lat.len() as u64,
        scrape_p50_us: percentile(&lat, 0.50),
        scrape_p99_us: percentile(&lat, 0.99),
        watchdog_interval_ms: WATCHDOG_MS,
        backoff_transitions: g.counter("predator_backoff_transitions_total").get(),
        final_tier: g.gauge("predator_backoff_tier").get(),
        final_sampling_rate_ppm: effective_rate_ppm,
        alert_rules: rule_count,
        alert_transitions: g.counter("predator_alert_transitions_total").get(),
        monitor_ticks: tick_us.len() as u64,
        monitor_tick_p50_us: percentile(&tick_us, 0.50),
        monitor_tick_p99_us: percentile(&tick_us, 0.99),
        tsdb_series,
        tsdb_samples,
        peak_rss_kb: peak_rss_kb(),
    };
    println!(
        "  serve:    {:.1} ms ({:.2} ms/pass) — overhead {overhead_pct:+.2}%, \
         {} scrape(s) p50 {}us p99 {}us",
        ms(serve),
        ms(serve) / passes as f64,
        report.scrapes,
        report.scrape_p50_us,
        report.scrape_p99_us
    );
    println!(
        "  watchdog: tier {} after {} transition(s), sampling {} ppm",
        report.final_tier, report.backoff_transitions, report.final_sampling_rate_ppm
    );
    println!(
        "  monitor:  {} tick(s) over {} series ({} rule(s)) — tick p50 {}us p99 {}us, \
         {} alert transition(s)",
        report.monitor_ticks,
        report.tsdb_series,
        report.alert_rules,
        report.monitor_tick_p50_us,
        report.monitor_tick_p99_us,
        report.alert_transitions
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(&out_path, json + "\n").expect("write telemetry");
    println!("wrote {out_path}");

    // The ≤5% budget is the acceptance bar on multi-core machines; with
    // fewer cores the serve threads time-slice against the workload and the
    // comparison is apples-to-oranges, so it degrades to advisory.
    if overhead_pct > 5.0 {
        if cores >= 4 {
            eprintln!("GATE: FAIL — serve-mode overhead {overhead_pct:.2}% exceeds 5% budget");
            std::process::exit(1);
        }
        println!(
            "GATE: advisory on {cores} core(s) — overhead {overhead_pct:.2}% exceeds 5% \
             (threads time-slice against the workload here)"
        );
    } else {
        println!("GATE: ok — serve-mode overhead {overhead_pct:.2}% within 5% budget");
    }
}
