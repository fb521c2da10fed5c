//! Point-in-time metric snapshots: the one data model behind `--metrics`
//! files, the `obs` block of every report, `/snapshot` and `predator stats`.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// One counter total.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter total.
    pub value: u64,
}

/// One gauge level.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: i64,
}

/// One non-empty histogram bucket: `count` observations in `[lo, 2*lo)`
/// (`lo = 0` holds exactly the zeros; see [`crate::bucket_index`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty log2 buckets, ascending by bound.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0 < q <= 1`) from the log2 buckets:
    /// finds the bucket holding the target rank, then interpolates linearly
    /// inside its `[lo, 2*lo)` range — the standard Prometheus-style
    /// estimate, accurate to within a factor of 2 by construction.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for b in &self.buckets {
            if cum + b.count >= target {
                if b.lo == 0 {
                    return Some(0.0); // the zeros bucket is exact
                }
                let frac = (target - cum) as f64 / b.count as f64;
                return Some(b.lo as f64 + frac * b.lo as f64);
            }
            cum += b.count;
        }
        // Malformed snapshot (bucket counts < count): report the top edge.
        self.buckets.last().map(|b| b.lo as f64 * 2.0)
    }

    /// The phase name when this is a `span_<phase>_ns` histogram.
    fn phase(&self) -> Option<&str> {
        self.name.strip_prefix("span_")?.strip_suffix("_ns")
    }
}

/// A point-in-time copy of a [`crate::Registry`], sorted by metric name.
/// Its serde form is the snapshot JSON schema:
///
/// ```json
/// {"counters":[{"name":"...","value":1}],
///  "gauges":[{"name":"...","value":-1}],
///  "histograms":[{"name":"...","count":2,"sum":9,
///                 "buckets":[{"lo":4,"count":2}]}]}
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge values.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Canonical pipeline order for the PHASES table. Span histograms arrive
/// from the registry alphabetically; the table instead reads top-to-bottom
/// in execution order, with phases outside the pipeline appended after.
const PHASE_PIPELINE: [&str; 7] = [
    "parse",
    "instrument",
    "interpret",
    "shard_analyze",
    "detect",
    "predict",
    "report",
];

fn phase_rank(phase: &str) -> usize {
    PHASE_PIPELINE
        .iter()
        .position(|p| *p == phase)
        .unwrap_or(PHASE_PIPELINE.len())
}

/// Rewrites a metric name into the Prometheus charset (`[a-zA-Z0-9_]`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `# HELP` text for a metric: the name humanized (underscores to spaces) —
/// honest and mechanical, with no invented semantics.
fn prom_help(name: &str) -> String {
    name.chars()
        .map(|c| if c == '_' { ' ' } else { c })
        .collect()
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double-quote, and newline must be backslash-escaped.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a Prometheus *info-style* gauge: constant value 1 with the
/// interesting data carried in labels (`predator_build_info{version="0.1.0"} 1`).
/// The registry's own gauges are unlabeled, so info metrics — the one place
/// labels are idiomatic — are rendered by this helper and prepended to
/// [`Snapshot::to_prometheus`] output by the `/metrics` endpoint.
pub fn prom_info_metric(name: &str, labels: &[(&str, &str)]) -> String {
    let n = prom_name(name);
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape_label_value(v)))
        .collect();
    format!(
        "# HELP {n} {}\n# TYPE {n} gauge\n{n}{{{}}} 1\n",
        prom_help(name),
        pairs.join(",")
    )
}

impl Snapshot {
    /// Captures the current process-global registry.
    pub fn capture() -> Self {
        crate::global().snapshot()
    }

    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The `span_<phase>_ns` histograms with their phase names, in pipeline
    /// order (parse → instrument → interpret → detect → predict → report,
    /// then any other instrumented phases alphabetically).
    fn spans(&self) -> Vec<(&str, &HistogramSnapshot)> {
        let mut spans: Vec<_> = self
            .histograms
            .iter()
            .filter_map(|h| Some((h.phase()?, h)))
            .collect();
        spans.sort_by(|a, b| phase_rank(a.0).cmp(&phase_rank(b.0)).then(a.0.cmp(b.0)));
        spans
    }

    /// Per-phase wall times: `(phase, calls, total ns)` in pipeline order.
    pub fn phases(&self) -> Vec<(String, u64, u64)> {
        self.spans()
            .into_iter()
            .map(|(phase, h)| (phase.to_string(), h.count, h.sum))
            .collect()
    }

    /// Renders the human-readable stats table (`predator stats`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let spans = self.spans();
        if !spans.is_empty() {
            let total_ns: u64 = spans.iter().map(|(_, h)| h.sum).sum();
            out.push_str("PHASES\n");
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>14} {:>8} {:>14} {:>12} {:>12}",
                "phase", "calls", "total ms", "share", "mean us", "p50 us", "p99 us"
            );
            for (phase, h) in &spans {
                let mean_us = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64 / 1e3
                };
                let q = |q: f64| h.quantile(q).map(|v| v / 1e3).unwrap_or(0.0);
                let share = if total_ns == 0 {
                    0.0
                } else {
                    h.sum as f64 / total_ns as f64 * 100.0
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10} {:>14.3} {:>7.1}% {:>14.1} {:>12.1} {:>12.1}",
                    phase,
                    h.count,
                    h.sum as f64 / 1e6,
                    share,
                    mean_us,
                    q(0.50),
                    q(0.99)
                );
            }
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>14.3} {:>7.1}%",
                "total",
                spans.iter().map(|(_, h)| h.count).sum::<u64>(),
                total_ns as f64 / 1e6,
                100.0
            );
        }
        if !self.counters.is_empty() {
            out.push_str("COUNTERS\n");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<40} {:>14}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("GAUGES\n");
            for g in &self.gauges {
                let _ = writeln!(out, "  {:<40} {:>14}", g.name, g.value);
            }
        }
        let plain: Vec<&HistogramSnapshot> = self
            .histograms
            .iter()
            .filter(|h| !h.name.starts_with("span_"))
            .collect();
        if !plain.is_empty() {
            out.push_str("HISTOGRAMS\n");
            let _ = writeln!(
                out,
                "  {:<40} {:>10} {:>14} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "sum", "mean", "p50", "p90", "p99"
            );
            for h in plain {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                let q = |q: f64| h.quantile(q).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {:<40} {:>10} {:>14} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    h.name,
                    h.count,
                    h.sum,
                    mean,
                    q(0.50),
                    q(0.90),
                    q(0.99)
                );
            }
        }
        if out.is_empty() {
            out.push_str("(empty snapshot)\n");
        }
        out
    }

    /// Serializes to a single compact JSON object (the schema above).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a snapshot is plain data")
    }

    /// Serializes to the Prometheus text exposition format, with `# HELP`
    /// and `# TYPE` lines per metric family. Histogram buckets become
    /// cumulative `_bucket{le="..."}` series with the standard
    /// `+Inf`/`_sum`/`_count` trailer; label values go through
    /// [`escape_label_value`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        for c in &self.counters {
            let n = prom_name(&c.name);
            let _ = writeln!(out, "# HELP {n} {}", prom_help(&c.name));
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {}", c.value);
        }
        for g in &self.gauges {
            let n = prom_name(&g.name);
            let _ = writeln!(out, "# HELP {n} {}", prom_help(&g.name));
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", g.value);
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            let _ = writeln!(out, "# HELP {n} {}", prom_help(&h.name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                // `lo` is the inclusive lower bound of a [2^(i-1), 2^i)
                // bucket; the Prometheus inclusive upper bound is 2^i - 1.
                let le = if b.lo == 0 {
                    0
                } else {
                    b.lo.saturating_mul(2) - 1
                };
                let le = escape_label_value(&le.to_string());
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

/// Single-metric snapshots for this crate's unit tests.
#[cfg(test)]
impl Snapshot {
    pub(crate) fn of_counter(name: &str, value: u64) -> Self {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: name.into(),
                value,
            }],
            ..Default::default()
        }
    }

    pub(crate) fn of_gauge(name: &str, value: i64) -> Self {
        Snapshot {
            gauges: vec![GaugeSnapshot {
                name: name.into(),
                value,
            }],
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(name: &str, count: u64, sum: u64, buckets: &[(u64, u64)]) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count,
            sum,
            buckets: buckets
                .iter()
                .map(|&(lo, count)| Bucket { lo, count })
                .collect(),
        }
    }

    fn sample() -> Snapshot {
        Snapshot {
            counters: Snapshot::of_counter("runtime_accesses_total", 42).counters,
            gauges: Snapshot::of_gauge("alloc_live_bytes", -7).gauges,
            histograms: vec![
                hist("alloc_size_bytes", 1, 64, &[(64, 1)]),
                hist("span_detect_ns", 3, 70, &[(16, 2), (32, 1)]),
            ],
        }
    }

    #[test]
    fn json_schema_is_stable_and_round_trips() {
        let json = sample().to_json();
        assert!(json.contains("\"counters\":[{\"name\":\"runtime_accesses_total\",\"value\":42}]"));
        assert!(json.contains("\"gauges\":[{\"name\":\"alloc_live_bytes\",\"value\":-7}]"));
        assert!(json.contains(
            "{\"name\":\"span_detect_ns\",\"count\":3,\"sum\":70,\
             \"buckets\":[{\"lo\":16,\"count\":2},{\"lo\":32,\"count\":1}]}"
        ));
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn escape_label_value_covers_the_spec_cases() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn prometheus_emits_help_lines() {
        let prom = sample().to_prometheus();
        assert!(
            prom.contains("# HELP runtime_accesses_total runtime accesses total"),
            "{prom}"
        );
        assert!(
            prom.contains("# HELP alloc_live_bytes alloc live bytes"),
            "{prom}"
        );
        assert!(
            prom.contains("# HELP span_detect_ns span detect ns"),
            "{prom}"
        );
        // HELP precedes TYPE for each family.
        let help = prom.find("# HELP runtime_accesses_total").unwrap();
        let ty = prom.find("# TYPE runtime_accesses_total").unwrap();
        assert!(help < ty);
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE runtime_accesses_total counter"));
        assert!(prom.contains("runtime_accesses_total 42"));
        assert!(prom.contains("span_detect_ns_bucket{le=\"31\"} 2"));
        assert!(prom.contains("span_detect_ns_bucket{le=\"63\"} 3"));
        assert!(prom.contains("span_detect_ns_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("span_detect_ns_sum 70"));
    }

    #[test]
    fn info_metric_renders_labels_escaped() {
        let line = prom_info_metric("predator_build_info", &[("version", "0.1.0\"x")]);
        assert!(line.contains("# TYPE predator_build_info gauge"));
        assert!(
            line.contains("predator_build_info{version=\"0.1.0\\\"x\"} 1"),
            "{line}"
        );
    }

    #[test]
    fn empty_snapshot_serializes() {
        assert_eq!(
            Snapshot::default().to_json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
        assert_eq!(Snapshot::default().to_prometheus(), "");
    }

    #[test]
    fn quantile_interpolates_within_log2_buckets() {
        // 10 obs: 2 zeros, 4 in [4,8), 4 in [64,128).
        let h = hist("h", 10, 0, &[(0, 2), (4, 4), (64, 4)]);
        assert_eq!(h.quantile(0.1), Some(0.0), "rank 1 is a zero");
        // p50 → rank 5, the 3rd of 4 in [4,8): 4 + (3/4)*4 = 7.
        assert_eq!(h.quantile(0.5), Some(7.0));
        // p90 → rank 9, the 3rd of 4 in [64,128): 64 + (3/4)*64 = 112.
        assert_eq!(h.quantile(0.9), Some(112.0));
        // p99 → rank 10, top of the last bucket.
        assert_eq!(h.quantile(0.99), Some(128.0));
        assert_eq!(h.quantile(1.0), Some(128.0));
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
        let h = hist("h", 1, 5, &[(4, 1)]);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(
            h.quantile(0.5),
            Some(8.0),
            "single obs reports its bucket's top edge"
        );
    }

    #[test]
    fn phases_extracted_from_span_histograms() {
        let s = sample();
        assert_eq!(s.counter("runtime_accesses_total"), Some(42));
        assert_eq!(s.phases(), vec![("detect".to_string(), 3, 70)]);
        let table = s.render_table();
        assert!(table.contains("PHASES"));
        assert!(table.contains("detect"));
        assert!(table.contains("runtime_accesses_total"));
        assert!(table.contains("alloc_size_bytes"));
        assert!(
            !table.contains("span_detect_ns"),
            "spans render as phases, not histograms"
        );
        for column in ["p50 us", "p99 us", "p90"] {
            assert!(table.contains(column), "{table}");
        }
    }

    #[test]
    fn phases_render_in_pipeline_order_with_share() {
        // Registry snapshots list histograms alphabetically; the table must
        // re-order them into pipeline order and append unknown phases last.
        let span = |phase: &str, sum: u64| {
            let lo = sum.next_power_of_two() / 2;
            hist(&format!("span_{phase}_ns"), 1, sum, &[(lo, 1)])
        };
        let s = Snapshot {
            histograms: vec![
                span("detect", 1_000),
                span("interpret", 3_000),
                span("parse", 500),
                span("replay", 250),
                span("report", 250),
            ],
            ..Default::default()
        };
        let order: Vec<String> = s.phases().into_iter().map(|(p, _, _)| p).collect();
        assert_eq!(order, ["parse", "interpret", "detect", "report", "replay"]);

        let table = s.render_table();
        let pos = |needle: &str| {
            table
                .find(needle)
                .unwrap_or_else(|| panic!("{needle}\n{table}"))
        };
        assert!(pos("parse") < pos("interpret"), "{table}");
        assert!(pos("interpret") < pos("detect"), "{table}");
        assert!(
            pos("report") < pos("replay"),
            "pipeline phases before extras:\n{table}"
        );
        assert!(table.contains("share"), "{table}");
        // interpret holds 3000 of 5000 ns = 60%; the total row closes at 100%.
        assert!(table.contains("60.0%"), "{table}");
        let total_line = table
            .lines()
            .find(|l| l.trim_start().starts_with("total"))
            .unwrap();
        assert!(total_line.contains("100.0%"), "{total_line}");
    }
}
