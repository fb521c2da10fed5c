//! Property tests for the embedded metric time-series store
//! (`predator::obs::tsdb`) behind `predator serve`'s `/query` endpoint.
//!
//! Three contracts pin the store down:
//!
//! 1. every tier is a bounded ring that retains exactly the newest K
//!    entries and counts what it dropped (loss accounting);
//! 2. downsampling happens at sample time, so a closed 10s/60s bucket
//!    re-aggregates its raw window *exactly* — count, sum, min, max and
//!    last all match a from-scratch fold of the full input history, even
//!    after the raw ring has evicted that window;
//! 3. counter series apply the `/snapshot` restart convention (a counter
//!    that shrank is a new session, its prior history becomes an offset),
//!    so stored counter series are monotone and `rate()` is never
//!    negative across wrap-around or serve session rotation.

use proptest::prelude::*;

use predator::obs::tsdb::AggPoint;
use predator::obs::{CounterSnapshot, GaugeSnapshot, Snapshot, Tsdb, TsdbConfig};

/// A deliberately tiny store so a few dozen samples exercise eviction on
/// every tier (the default config would need hours of history).
fn small_cfg() -> TsdbConfig {
    TsdbConfig {
        raw_capacity: 8,
        tier1_capacity: 6,
        tier2_capacity: 4,
        tier1_ms: 10_000,
        tier2_ms: 60_000,
    }
}

/// One registry snapshot holding a single counter and a single gauge.
fn snap(counter: u64, gauge: i64) -> Snapshot {
    Snapshot {
        counters: vec![CounterSnapshot {
            name: "work_total".into(),
            value: counter,
        }],
        gauges: vec![GaugeSnapshot {
            name: "live_level".into(),
            value: gauge,
        }],
        histograms: vec![],
    }
}

/// Turns per-sample time deltas into strictly increasing timestamps.
fn times(t0: u64, dts: &[u64]) -> Vec<u64> {
    let mut t = t0;
    dts.iter()
        .map(|dt| {
            t += dt.max(&1);
            t
        })
        .collect()
}

/// From-scratch 10s aggregation of a full (t, value) history, in fold
/// order — the oracle the store's sample-time buckets must match.
fn expected_tier1(points: &[(u64, f64)], tier1_ms: u64) -> Vec<AggPoint> {
    let mut out: Vec<AggPoint> = Vec::new();
    for &(t, v) in points {
        let b = t - t % tier1_ms;
        match out.last_mut() {
            Some(a) if a.t_ms == b => {
                a.count += 1;
                a.sum += v;
                a.min = a.min.min(v);
                a.max = a.max.max(v);
                a.last = v;
            }
            _ => out.push(AggPoint {
                t_ms: b,
                count: 1,
                sum: v,
                min: v,
                max: v,
                last: v,
            }),
        }
    }
    out
}

/// Folds already-closed 10s buckets into 60s buckets, same order.
fn expected_tier2(closed1: &[AggPoint], tier2_ms: u64) -> Vec<AggPoint> {
    let mut out: Vec<AggPoint> = Vec::new();
    for a in closed1 {
        let b = a.t_ms - a.t_ms % tier2_ms;
        match out.last_mut() {
            Some(o) if o.t_ms == b => {
                o.count += a.count;
                o.sum += a.sum;
                o.min = o.min.min(a.min);
                o.max = o.max.max(a.max);
                o.last = a.last;
            }
            _ => {
                let mut seeded = *a;
                seeded.t_ms = b;
                out.push(seeded);
            }
        }
    }
    out
}

fn agg_eq(a: &AggPoint, b: &AggPoint) -> bool {
    a.t_ms == b.t_ms
        && a.count == b.count
        && a.sum == b.sum
        && a.min == b.min
        && a.max == b.max
        && a.last == b.last
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tier retains exactly the newest K entries of what it was
    /// ever offered, and the loss accounting reports the remainder.
    #[test]
    fn prop_rings_retain_exactly_newest_k(
        t0 in 0u64..5_000,
        steps in proptest::collection::vec((1u64..4_000, -1_000i64..1_000), 1..64),
    ) {
        let cfg = small_cfg();
        let mut db = Tsdb::new(cfg);
        let ts = times(t0, &steps.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
        let mut history: Vec<(u64, f64)> = Vec::new();
        for ((_, g), &t) in steps.iter().zip(&ts) {
            db.sample(&snap(0, *g), t);
            history.push((t, *g as f64));
        }

        // Raw tier: the newest min(N, cap) samples, verbatim and in order.
        let keep = history.len().min(cfg.raw_capacity);
        let got = db.raw_points("live_level");
        prop_assert_eq!(got.len(), keep);
        for (p, (t, v)) in got.iter().zip(&history[history.len() - keep..]) {
            prop_assert_eq!(p.t_ms, *t);
            prop_assert_eq!(p.value, *v);
        }
        // Both series (gauge + the constant counter) evict in lockstep.
        let evicted_per_series = (history.len() - keep) as u64;
        prop_assert_eq!(db.loss().raw_evicted, 2 * evicted_per_series);

        // 10s tier: all buckets but the newest are closed; the ring keeps
        // the newest min(closed, cap) of them.
        let all1 = expected_tier1(&history, cfg.tier1_ms);
        let closed1 = &all1[..all1.len() - 1];
        let keep1 = closed1.len().min(cfg.tier1_capacity);
        let got1 = db.tier1_buckets("live_level");
        prop_assert_eq!(got1.len(), keep1);
        for (g, w) in got1.iter().zip(&closed1[closed1.len() - keep1..]) {
            prop_assert_eq!(g.t_ms, w.t_ms);
        }
        prop_assert_eq!(
            db.loss().tier1_evicted,
            2 * (closed1.len() - keep1) as u64
        );
    }

    /// Closed buckets re-aggregate their raw windows exactly — count,
    /// sum, min, max, last — regardless of raw-ring eviction, at both
    /// downsampling tiers.
    #[test]
    fn prop_closed_buckets_reaggregate_exactly(
        t0 in 0u64..5_000,
        steps in proptest::collection::vec((1u64..4_000, -1_000i64..1_000), 1..64),
    ) {
        let cfg = small_cfg();
        let mut db = Tsdb::new(cfg);
        let ts = times(t0, &steps.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
        let mut history: Vec<(u64, f64)> = Vec::new();
        for ((_, g), &t) in steps.iter().zip(&ts) {
            db.sample(&snap(0, *g), t);
            history.push((t, *g as f64));
        }

        let all1 = expected_tier1(&history, cfg.tier1_ms);
        let closed1 = &all1[..all1.len() - 1];
        let got1 = db.tier1_buckets("live_level");
        let want1 = &closed1[closed1.len() - got1.len()..];
        for (g, w) in got1.iter().zip(want1) {
            prop_assert!(agg_eq(g, w),
                "10s bucket diverged from raw re-aggregation: {g:?} vs {w:?}");
        }

        // 60s buckets fold *closed* 10s buckets; the one the newest
        // closed 10s bucket falls into is still open.
        let all2 = expected_tier2(closed1, cfg.tier2_ms);
        let closed2 = if all2.is_empty() { &all2[..] } else { &all2[..all2.len() - 1] };
        let got2 = db.tier2_buckets("live_level");
        prop_assert_eq!(got2.len(), closed2.len().min(cfg.tier2_capacity));
        let want2 = &closed2[closed2.len() - got2.len()..];
        for (g, w) in got2.iter().zip(want2) {
            prop_assert!(agg_eq(g, w),
                "60s bucket diverged from 10s re-aggregation: {g:?} vs {w:?}");
        }
    }

    /// Arbitrary counter histories — wrap-arounds, registry restarts,
    /// plain noise — produce a monotone stored series and a non-negative
    /// `rate()` over every window.
    #[test]
    fn prop_counter_rate_never_negative(
        t0 in 0u64..5_000,
        steps in proptest::collection::vec((1u64..4_000, 0u64..u64::MAX), 2..48),
        window_s in 1u64..300,
    ) {
        let mut db = Tsdb::new(small_cfg());
        let ts = times(t0, &steps.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
        let mut now = 0;
        for ((_, c), &t) in steps.iter().zip(&ts) {
            db.sample(&snap(*c, 0), t);
            now = t;

            // The stored series never goes backwards, whatever the raw
            // counter did.
            let pts = db.raw_points("work_total");
            prop_assert!(
                pts.windows(2).all(|w| w[1].value >= w[0].value),
                "stored counter series regressed: {pts:?}"
            );

            if let Some(r) = db.rate("work_total", window_s * 1000, now) {
                prop_assert!(r >= 0.0, "negative rate {r} over {window_s}s");
                prop_assert!(r.is_finite());
            }
        }
        // The full-history rate exists once two distinct-time points fit.
        prop_assert!(db.rate("work_total", u64::MAX, now).is_some());
    }
}

/// A counter that wraps right as the raw ring evicts the pre-wrap points:
/// the restart offset lives in the series, not the retained points, so
/// the adjusted history stays monotone even when the regression itself
/// has been evicted.
#[test]
fn wrap_survives_raw_eviction() {
    let mut db = Tsdb::new(small_cfg());
    for i in 0..6 {
        db.sample(&snap(1_000 + i * 100, 0), (i + 1) * 1_000);
    }
    db.sample(&snap(7, 0), 7_000); // session rotated
    for i in 0..10 {
        // Flush every pre-wrap point out of the 8-slot raw ring.
        db.sample(&snap(7 + i, 0), 8_000 + i * 1_000);
    }
    let pts = db.raw_points("work_total");
    assert!(pts.windows(2).all(|w| w[1].value >= w[0].value));
    let r = db.rate("work_total", u64::MAX, 17_000).unwrap();
    assert!(r >= 0.0, "rate {r} went negative across an evicted wrap");
}
