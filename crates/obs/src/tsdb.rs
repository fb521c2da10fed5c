//! An embedded metric time-series store: fixed-capacity rings of recent
//! samples, fed from registry [`Snapshot`]s on each watchdog tick.
//!
//! `predator serve` exposes instantaneous `/metrics` and `/snapshot`
//! deltas, but "invalidations-per-second tripled five minutes ago" needs
//! *history*. This module keeps that history in-process and bounded:
//!
//! * **Raw tier** — every sample, as offered (typically one per watchdog
//!   tick, so seconds of resolution for minutes of retention).
//! * **10s tier** — closed 10-second buckets aggregating the raw samples
//!   that fell inside them (`count`/`sum`/`min`/`max`/`last`).
//! * **60s tier** — closed 60-second buckets aggregating the 10s buckets.
//!
//! Aggregation happens at sample time, so a closed bucket re-aggregates
//! its raw window exactly even after the raw ring has evicted those
//! samples (the property `tests/tsdb_props.rs` proves). Every eviction is
//! counted per tier — loss accounting, not silence.
//!
//! ## Restart semantics
//!
//! Counter series store an *adjusted* cumulative value: when the raw
//! counter regresses (wrap-around, registry restart, serve session
//! rotation) the previous raw value is folded into a per-series offset —
//! exactly [`crate::delta`]'s `monotone_delta` convention, accumulated.
//! Stored counter series are therefore non-decreasing and [`Tsdb::rate`]
//! is never negative, even across rotation.

use std::collections::{BTreeMap, VecDeque};

use crate::snapshot::Snapshot;

/// Schema tag embedded in `/query` JSON documents.
pub const TSDB_SCHEMA: &str = "predator-tsdb/1";

/// What kind of series a stored metric is (drives client-side rendering:
/// counters want rates, gauges want levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone cumulative counter (stored restart-adjusted).
    Counter,
    /// Instantaneous level.
    Gauge,
}

impl SeriesKind {
    /// Stable lowercase name for JSON documents.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One raw sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Sample time, milliseconds on the caller's clock (serve uptime).
    pub t_ms: u64,
    /// Sampled value (restart-adjusted cumulative for counters).
    pub value: f64,
}

/// One closed downsampling bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggPoint {
    /// Bucket start (aligned to the tier width).
    pub t_ms: u64,
    /// Raw samples folded into the bucket.
    pub count: u64,
    /// Sum of folded sample values.
    pub sum: f64,
    /// Smallest folded sample value.
    pub min: f64,
    /// Largest folded sample value.
    pub max: f64,
    /// Most recent folded sample value.
    pub last: f64,
}

impl AggPoint {
    fn seed(bucket_start: u64, value: f64) -> Self {
        AggPoint {
            t_ms: bucket_start,
            count: 1,
            sum: value,
            min: value,
            max: value,
            last: value,
        }
    }

    fn fold_value(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
    }

    fn fold_agg(&mut self, other: &AggPoint) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
    }
}

/// Capacities and bucket widths for the three tiers.
#[derive(Debug, Clone, Copy)]
pub struct TsdbConfig {
    /// Raw samples retained per series.
    pub raw_capacity: usize,
    /// Closed 10s buckets retained per series.
    pub tier1_capacity: usize,
    /// Closed 60s buckets retained per series.
    pub tier2_capacity: usize,
    /// First downsampling bucket width, milliseconds.
    pub tier1_ms: u64,
    /// Second downsampling bucket width, milliseconds.
    pub tier2_ms: u64,
}

impl Default for TsdbConfig {
    /// 1s ticks: ~12 min raw, 1 h at 10s, 24 h at 60s — a few MB for the
    /// full registry, bounded regardless of how long serve runs.
    fn default() -> Self {
        TsdbConfig {
            raw_capacity: 720,
            tier1_capacity: 360,
            tier2_capacity: 1440,
            tier1_ms: 10_000,
            tier2_ms: 60_000,
        }
    }
}

/// A bounded ring: pushing onto a full ring evicts the oldest entry and
/// counts it as lost.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    evicted: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(cap.clamp(1, 64)),
            cap: cap.max(1),
            evicted: 0,
        }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(v);
    }
}

#[derive(Debug, Clone)]
struct SeriesBuf {
    kind: SeriesKind,
    /// Restart-adjustment offset for counters (see module docs).
    offset: u64,
    /// Last raw (unadjusted) counter value seen.
    last_raw: u64,
    raw: Ring<Point>,
    tier1: Ring<AggPoint>,
    tier2: Ring<AggPoint>,
    open1: Option<AggPoint>,
    open2: Option<AggPoint>,
}

impl SeriesBuf {
    fn new(kind: SeriesKind, cfg: &TsdbConfig) -> Self {
        SeriesBuf {
            kind,
            offset: 0,
            last_raw: 0,
            raw: Ring::new(cfg.raw_capacity),
            tier1: Ring::new(cfg.tier1_capacity),
            tier2: Ring::new(cfg.tier2_capacity),
            open1: None,
            open2: None,
        }
    }

    /// Applies `monotone_delta` restart semantics cumulatively: the stored
    /// series is non-decreasing even when the raw counter goes backwards.
    fn adjust_counter(&mut self, raw: u64) -> u64 {
        if raw < self.last_raw {
            // Regression: the delta from here on is `raw` itself, so the
            // history up to `last_raw` becomes part of the offset.
            self.offset = self.offset.saturating_add(self.last_raw);
        }
        self.last_raw = raw;
        self.offset.saturating_add(raw)
    }

    fn push(&mut self, t_ms: u64, value: f64, cfg: &TsdbConfig) {
        self.raw.push(Point { t_ms, value });
        let b1 = t_ms - t_ms % cfg.tier1_ms;
        match &mut self.open1 {
            Some(open) if open.t_ms == b1 => open.fold_value(value),
            Some(open) => {
                let closed = *open;
                self.close_tier1(closed, cfg);
                self.open1 = Some(AggPoint::seed(b1, value));
            }
            None => self.open1 = Some(AggPoint::seed(b1, value)),
        }
    }

    fn close_tier1(&mut self, closed: AggPoint, cfg: &TsdbConfig) {
        self.tier1.push(closed);
        let b2 = closed.t_ms - closed.t_ms % cfg.tier2_ms;
        match &mut self.open2 {
            Some(open) if open.t_ms == b2 => open.fold_agg(&closed),
            Some(open) => {
                let done = *open;
                self.tier2.push(done);
                let mut seeded = closed;
                seeded.t_ms = b2;
                self.open2 = Some(seeded);
            }
            None => {
                let mut seeded = closed;
                seeded.t_ms = b2;
                self.open2 = Some(seeded);
            }
        }
    }

    /// Oldest timestamp available in each tier (closed buckets only for
    /// the aggregate tiers).
    fn oldest_raw(&self) -> Option<u64> {
        self.raw.buf.front().map(|p| p.t_ms)
    }
}

/// Per-tier eviction totals across all series — the loss accounting
/// surfaced in every `/query` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsdbLoss {
    /// Raw samples evicted.
    pub raw_evicted: u64,
    /// 10s buckets evicted.
    pub tier1_evicted: u64,
    /// 60s buckets evicted.
    pub tier2_evicted: u64,
}

impl TsdbLoss {
    fn to_json(self) -> String {
        format!(
            "{{\"raw_evicted\":{},\"tier1_evicted\":{},\"tier2_evicted\":{}}}",
            self.raw_evicted, self.tier1_evicted, self.tier2_evicted
        )
    }
}

/// A range query's answer: the best-resolution tier that still covers the
/// requested range, as `(t_ms, value)` points.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The series queried.
    pub metric: String,
    /// Counter or gauge (drives rate-vs-level rendering).
    pub kind: SeriesKind,
    /// Which tier answered: `"raw"`, `"10s"` or `"60s"`.
    pub tier: &'static str,
    /// Points within the range, ascending by time. Aggregate tiers report
    /// each bucket's `last` value at the bucket start.
    pub points: Vec<Point>,
}

impl QueryResult {
    /// One `/query` JSON document, loss accounting included.
    pub fn to_json(&self, now_ms: u64, range_ms: u64, loss: TsdbLoss) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.points.len() * 16);
        let _ = write!(
            out,
            "{{\"schema\":\"{TSDB_SCHEMA}\",\"metric\":\"{}\",\"kind\":\"{}\",\
             \"tier\":\"{}\",\"now_ms\":{now_ms},\"range_ms\":{range_ms},\"points\":[",
            self.metric,
            self.kind.as_str(),
            self.tier
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", p.t_ms, json_f64(p.value));
        }
        let _ = write!(out, "],\"loss\":{}}}", loss.to_json());
        out
    }
}

/// Formats an `f64` as a JSON number (non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The store: one [`SeriesBuf`] per metric name, fed by [`Tsdb::sample`].
#[derive(Debug)]
pub struct Tsdb {
    cfg: TsdbConfig,
    series: BTreeMap<String, SeriesBuf>,
    samples_total: u64,
    last_t_ms: u64,
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb::new(TsdbConfig::default())
    }
}

impl Tsdb {
    /// An empty store with the given tier geometry.
    pub fn new(cfg: TsdbConfig) -> Self {
        Tsdb {
            cfg,
            series: BTreeMap::new(),
            samples_total: 0,
            last_t_ms: 0,
        }
    }

    /// The configured tier geometry.
    pub fn config(&self) -> TsdbConfig {
        self.cfg
    }

    /// Samples offered so far (one per metric per [`Tsdb::sample`] call).
    pub fn samples_total(&self) -> u64 {
        self.samples_total
    }

    /// Timestamp of the most recent [`Tsdb::sample`] call.
    pub fn last_t_ms(&self) -> u64 {
        self.last_t_ms
    }

    /// Ingests one registry snapshot at `t_ms` (caller's monotone clock,
    /// typically milliseconds since serve start):
    ///
    /// * every counter → a [`SeriesKind::Counter`] series (restart-adjusted);
    /// * every gauge → a [`SeriesKind::Gauge`] series;
    /// * every histogram → four derived series: `<name>:p50` / `<name>:p99`
    ///   (gauges, [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile),
    ///   0 while empty) plus `<name>:count` / `<name>:sum` (counters).
    pub fn sample(&mut self, snap: &Snapshot, t_ms: u64) {
        self.last_t_ms = t_ms;
        for c in &snap.counters {
            self.push_counter(&c.name, c.value, t_ms);
        }
        for g in &snap.gauges {
            self.push_gauge(&g.name, g.value as f64, t_ms);
        }
        // Histograms decompose into derived scalar series; allocation of
        // the derived names happens once per series, not per tick.
        let mut scratch = String::with_capacity(48);
        for h in &snap.histograms {
            for (suffix, q) in [(":p50", 0.50), (":p99", 0.99)] {
                scratch.clear();
                scratch.push_str(&h.name);
                scratch.push_str(suffix);
                let value = h.quantile(q).unwrap_or(0.0);
                self.push_named(&scratch, SeriesKind::Gauge, value, t_ms);
            }
            scratch.clear();
            scratch.push_str(&h.name);
            scratch.push_str(":count");
            self.push_counter(&scratch, h.count, t_ms);
            scratch.clear();
            scratch.push_str(&h.name);
            scratch.push_str(":sum");
            self.push_counter(&scratch, h.sum, t_ms);
        }
    }

    fn push_counter(&mut self, name: &str, raw: u64, t_ms: u64) {
        let cfg = self.cfg;
        let s = self.series_entry(name, SeriesKind::Counter);
        let adjusted = s.adjust_counter(raw) as f64;
        s.push(t_ms, adjusted, &cfg);
        self.samples_total += 1;
    }

    fn push_gauge(&mut self, name: &str, value: f64, t_ms: u64) {
        self.push_named(name, SeriesKind::Gauge, value, t_ms);
    }

    fn push_named(&mut self, name: &str, kind: SeriesKind, value: f64, t_ms: u64) {
        let cfg = self.cfg;
        let s = self.series_entry(name, kind);
        s.push(t_ms, value, &cfg);
        self.samples_total += 1;
    }

    fn series_entry(&mut self, name: &str, kind: SeriesKind) -> &mut SeriesBuf {
        if !self.series.contains_key(name) {
            self.series
                .insert(name.to_string(), SeriesBuf::new(kind, &self.cfg));
        }
        self.series.get_mut(name).expect("just inserted")
    }

    /// Total evictions per tier across all series.
    pub fn loss(&self) -> TsdbLoss {
        let mut loss = TsdbLoss::default();
        for s in self.series.values() {
            loss.raw_evicted += s.raw.evicted;
            loss.tier1_evicted += s.tier1.evicted;
            loss.tier2_evicted += s.tier2.evicted;
        }
        loss
    }

    /// Known series, ascending by name, with their kinds.
    pub fn series_names(&self) -> Vec<(String, SeriesKind)> {
        self.series
            .iter()
            .map(|(n, s)| (n.clone(), s.kind))
            .collect()
    }

    /// Most recent stored value of `metric` (restart-adjusted cumulative
    /// for counters).
    pub fn latest(&self, metric: &str) -> Option<f64> {
        self.series
            .get(metric)
            .and_then(|s| s.raw.buf.back().map(|p| p.value))
    }

    /// Series points covering `[now_ms - range_ms, now_ms]` from the
    /// best-resolution tier that still reaches back that far. Aggregate
    /// tiers report closed buckets (plus the open one, as the live edge).
    pub fn query(&self, metric: &str, range_ms: u64, now_ms: u64) -> Option<QueryResult> {
        let s = self.series.get(metric)?;
        let start = now_ms.saturating_sub(range_ms);
        let (tier, points) = self.pick_tier(s, start);
        Some(QueryResult {
            metric: metric.to_string(),
            kind: s.kind,
            tier,
            points,
        })
    }

    fn pick_tier(&self, s: &SeriesBuf, start: u64) -> (&'static str, Vec<Point>) {
        // A tier covers the range if it never evicted anything (it holds
        // the series' whole life) or its oldest retained entry predates
        // the range start. The finest covering tier wins; with no covering
        // tier, the one reaching furthest back does (finest on ties).
        let raw_points = || {
            s.raw
                .buf
                .iter()
                .filter(|p| p.t_ms >= start)
                .copied()
                .collect::<Vec<Point>>()
        };
        // A bucket [t, t+width) is in range when it ends after `start`.
        let tier_points = |ring: &Ring<AggPoint>, open: &Option<AggPoint>, width: u64| {
            ring.buf
                .iter()
                .chain(open.iter())
                .filter(|a| a.t_ms.saturating_add(width) > start)
                .map(|a| Point {
                    t_ms: a.t_ms,
                    value: a.last,
                })
                .collect::<Vec<Point>>()
        };
        let covers = |oldest: Option<u64>, evicted: u64| match oldest {
            Some(t) => evicted == 0 || t <= start,
            None => false,
        };
        let oldest1 = s
            .tier1
            .buf
            .front()
            .map(|a| a.t_ms)
            .or(s.open1.map(|a| a.t_ms));
        let oldest2 = s
            .tier2
            .buf
            .front()
            .map(|a| a.t_ms)
            .or(s.open2.map(|a| a.t_ms));
        if covers(s.oldest_raw(), s.raw.evicted) {
            return ("raw", raw_points());
        }
        if covers(oldest1, s.tier1.evicted) {
            return ("10s", tier_points(&s.tier1, &s.open1, self.cfg.tier1_ms));
        }
        if covers(oldest2, s.tier2.evicted) {
            return ("60s", tier_points(&s.tier2, &s.open2, self.cfg.tier2_ms));
        }
        // Nothing covers: take the tier with the most history.
        let reach = [
            s.oldest_raw().unwrap_or(u64::MAX),
            oldest1.unwrap_or(u64::MAX),
            oldest2.unwrap_or(u64::MAX),
        ];
        let best = (0..3).min_by_key(|&i| reach[i]).unwrap_or(0);
        match best {
            1 => ("10s", tier_points(&s.tier1, &s.open1, self.cfg.tier1_ms)),
            2 => ("60s", tier_points(&s.tier2, &s.open2, self.cfg.tier2_ms)),
            _ => ("raw", raw_points()),
        }
    }

    /// Raw points currently retained for `metric`, oldest first — the
    /// accessor the retention property tests pin the ring contract on.
    pub fn raw_points(&self, metric: &str) -> Vec<Point> {
        self.series
            .get(metric)
            .map(|s| s.raw.buf.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Closed 10s buckets retained for `metric`, oldest first.
    pub fn tier1_buckets(&self, metric: &str) -> Vec<AggPoint> {
        self.series
            .get(metric)
            .map(|s| s.tier1.buf.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Closed 60s buckets retained for `metric`, oldest first.
    pub fn tier2_buckets(&self, metric: &str) -> Vec<AggPoint> {
        self.series
            .get(metric)
            .map(|s| s.tier2.buf.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Per-second rate of change of `metric` over the trailing
    /// `window_ms`, computed from stored (restart-adjusted) values — never
    /// negative for counters, `None` without two distinct-time points.
    pub fn rate(&self, metric: &str, window_ms: u64, now_ms: u64) -> Option<f64> {
        let q = self.query(metric, window_ms, now_ms)?;
        let first = q.points.first()?;
        let last = q.points.last()?;
        if last.t_ms <= first.t_ms {
            return None;
        }
        let dt_s = (last.t_ms - first.t_ms) as f64 / 1000.0;
        Some((last.value - first.value) / dt_s)
    }

    /// The `/query` series-listing document (no `metric` parameter).
    pub fn series_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":\"{TSDB_SCHEMA}\",\"samples_total\":{},\"series\":[",
            self.samples_total
        );
        for (i, (name, s)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"kind\":\"{}\",\"raw_len\":{}}}",
                s.kind.as_str(),
                s.raw.buf.len()
            );
        }
        let _ = write!(out, "],\"loss\":{}}}", self.loss().to_json());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Bucket, HistogramSnapshot};

    #[test]
    fn raw_ring_retains_newest_k() {
        let mut db = Tsdb::new(TsdbConfig {
            raw_capacity: 3,
            ..Default::default()
        });
        for i in 0..10u64 {
            db.sample(&Snapshot::of_counter("c_total", i), i * 1000);
        }
        let ts: Vec<u64> = db.raw_points("c_total").iter().map(|p| p.t_ms).collect();
        assert_eq!(ts, vec![7_000, 8_000, 9_000]);
        assert_eq!(db.loss().raw_evicted, 7);
        // A range the raw tier still covers is answered from raw.
        let q = db.query("c_total", 2_000, 9_000).unwrap();
        assert_eq!(q.tier, "raw");
        assert_eq!(q.points.len(), 3);
        // A range reaching past the evictions falls back to the 10s tier
        // (whose open bucket aggregated every sample ever offered).
        let q = db.query("c_total", u64::MAX, 9_000).unwrap();
        assert_eq!(q.tier, "10s");
    }

    #[test]
    fn counter_restart_keeps_series_monotone_and_rate_non_negative() {
        let mut db = Tsdb::default();
        for (i, v) in [10u64, 20, 30, 5, 9].iter().enumerate() {
            db.sample(&Snapshot::of_counter("c_total", *v), i as u64 * 1000);
        }
        // Stored values: 10, 20, 30, 35, 39 — monotone through the reset.
        assert_eq!(db.latest("c_total"), Some(39.0));
        let r = db.rate("c_total", 10_000, 4_000).unwrap();
        assert!(r >= 0.0, "rate {r} went negative across the restart");
        assert!((r - (39.0 - 10.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn downsampled_buckets_reaggregate_their_raw_window() {
        let mut db = Tsdb::new(TsdbConfig {
            raw_capacity: 2, // evict aggressively: aggregation must not care
            tier1_ms: 10_000,
            tier2_ms: 60_000,
            ..Default::default()
        });
        // 12 samples at 1s spacing: the first 10 fill bucket [0,10s).
        for i in 0..12u64 {
            db.sample(&Snapshot::of_gauge("g", (i as i64) * 2), i * 1000);
        }
        let t1 = db.tier1_buckets("g");
        let b = t1.first().expect("bucket [0,10s) closed");
        assert_eq!(b.t_ms, 0);
        assert_eq!(b.count, 10);
        assert_eq!(b.sum, (0..10).map(|i| (i * 2) as f64).sum::<f64>());
        assert_eq!(b.max, 18.0);
        assert_eq!(b.min, 0.0);
        assert_eq!(b.last, 18.0);
    }

    #[test]
    fn tier2_folds_closed_tier1_buckets() {
        let mut db = Tsdb::new(TsdbConfig {
            tier1_ms: 10_000,
            tier2_ms: 60_000,
            ..Default::default()
        });
        // 70 seconds of samples: six 10s buckets close inside [0,60s),
        // and the 60s bucket closes when the 7th 10s bucket opens at 60s
        // ... which itself only closes at 70s.
        for i in 0..=70u64 {
            db.sample(&Snapshot::of_gauge("g", 1), i * 1000);
        }
        let t2 = db.tier2_buckets("g");
        let b2 = t2.first().expect("minute bucket closed");
        assert_eq!(b2.t_ms, 0);
        assert_eq!(b2.count, 60, "all 60 raw samples of the first minute");
    }

    #[test]
    fn query_falls_back_to_coarser_tiers_when_raw_evicted() {
        let mut db = Tsdb::new(TsdbConfig {
            raw_capacity: 5,
            tier1_capacity: 1000,
            tier1_ms: 10_000,
            ..Default::default()
        });
        for i in 0..100u64 {
            db.sample(&Snapshot::of_counter("c_total", i), i * 1000);
        }
        let short = db.query("c_total", 4_000, 99_000).unwrap();
        assert_eq!(short.tier, "raw");
        let long = db.query("c_total", 90_000, 99_000).unwrap();
        assert_eq!(long.tier, "10s");
        assert!(!long.points.is_empty());
    }

    #[test]
    fn histogram_derives_quantile_count_and_sum_series() {
        let h = HistogramSnapshot {
            name: "span_detect_ns".into(),
            count: 4,
            sum: 100,
            buckets: vec![Bucket { lo: 16, count: 4 }],
        };
        let mut db = Tsdb::default();
        db.sample(
            &Snapshot {
                histograms: vec![h],
                ..Default::default()
            },
            0,
        );
        let names: Vec<String> = db.series_names().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"span_detect_ns:p50".to_string()));
        assert!(names.contains(&"span_detect_ns:p99".to_string()));
        assert!(names.contains(&"span_detect_ns:count".to_string()));
        assert!(names.contains(&"span_detect_ns:sum".to_string()));
        let p50 = db.latest("span_detect_ns:p50").unwrap();
        assert!((16.0..=32.0).contains(&p50), "p50 {p50} outside its bucket");
    }

    #[test]
    fn all_zero_histogram_samples_exact_zero_quantiles() {
        // The zeros bucket holds exactly the zeros: `/query` and alert rules
        // must read the 0 that `predator stats` prints, not a point in [0, 1).
        let mut db = Tsdb::default();
        db.sample(
            &Snapshot {
                histograms: vec![HistogramSnapshot {
                    name: "h".into(),
                    count: 3,
                    sum: 0,
                    buckets: vec![Bucket { lo: 0, count: 3 }],
                }],
                ..Default::default()
            },
            0,
        );
        assert_eq!(db.latest("h:p50"), Some(0.0));
        assert_eq!(db.latest("h:p99"), Some(0.0));
    }

    #[test]
    fn query_json_is_self_describing() {
        let mut db = Tsdb::default();
        db.sample(&Snapshot::of_counter("c_total", 1), 0);
        let q = db.query("c_total", 60_000, 0).unwrap();
        let json = q.to_json(0, 60_000, db.loss());
        assert!(
            json.starts_with("{\"schema\":\"predator-tsdb/1\""),
            "{json}"
        );
        assert!(json.contains("\"metric\":\"c_total\""));
        assert!(json.contains("\"kind\":\"counter\""));
        assert!(json.contains("\"points\":[[0,1]]"));
        assert!(json.contains("\"loss\":{\"raw_evicted\":0"));
    }

    #[test]
    fn unknown_metric_queries_return_none() {
        let db = Tsdb::default();
        assert!(db.query("nope", 1000, 0).is_none());
        assert!(db.rate("nope", 1000, 0).is_none());
        assert!(db.latest("nope").is_none());
    }
}
