//! Snapshot deltas: what changed since the last scrape.
//!
//! The `/snapshot` endpoint of `predator serve` streams *rates*, not
//! absolutes: each scrape returns the difference between the current
//! cumulative [`Snapshot`] and the previous scrape's, tagged with a
//! monotonically increasing scrape epoch. A scraper that keeps only the
//! latest delta still knows the instantaneous event rate; one that sums
//! every delta reconstructs the cumulative snapshot exactly (the property
//! `tests/snapshot_delta.rs` proves).
//!
//! ## Wrap-around
//!
//! Counters and histogram buckets are monotonic `u64`s, but a counter that
//! wraps (or a registry that restarts) would make naive subtraction produce
//! a huge bogus delta. The rule here is per *metric*: if any component of a
//! metric went backwards, the previous value is treated as zero and the
//! delta is the current value — "restart" semantics, the same convention
//! Prometheus `rate()` applies. Deltas are therefore never negative.

use crate::snapshot::{Bucket, CounterSnapshot, HistogramSnapshot, Snapshot};

/// One `/snapshot` scrape: the delta since the previous scrape plus the
/// cumulative snapshot it was derived from, tagged with the scrape epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Scrape epoch: 1 for the first scrape, +1 per scrape thereafter.
    pub epoch: u64,
    /// Per-metric change since the previous scrape (all-of-cumulative on
    /// the first scrape). Gauges are levels, not rates: the delta carries
    /// their *current* value.
    pub delta: Snapshot,
    /// The cumulative snapshot this delta was derived from.
    pub cumulative: Snapshot,
}

/// Schema tag embedded in [`SnapshotDelta::to_json`] documents.
pub const SNAPSHOT_DELTA_SCHEMA: &str = "predator-snapshot-delta/1";

impl SnapshotDelta {
    /// Serializes to one JSON object:
    /// `{"schema":"predator-snapshot-delta/1","epoch":N,"delta":{...},"cumulative":{...}}`
    /// where both snapshot payloads use the [`Snapshot::to_json`] schema.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"{SNAPSHOT_DELTA_SCHEMA}\",\"epoch\":{},\"delta\":{},\"cumulative\":{}}}",
            self.epoch,
            self.delta.to_json(),
            self.cumulative.to_json()
        )
    }
}

/// Tracks the previous scrape so each call to [`DeltaTracker::scrape`]
/// yields the change since the last one.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    epoch: u64,
    prev: Snapshot,
}

impl DeltaTracker {
    /// A tracker whose first scrape reports everything as new.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scrapes consumed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch and returns the delta from the previous scrape to
    /// `current`, remembering `current` for the next call.
    pub fn scrape(&mut self, current: Snapshot) -> SnapshotDelta {
        self.epoch += 1;
        let delta = delta_snapshots(&self.prev, &current);
        self.prev = current.clone();
        SnapshotDelta {
            epoch: self.epoch,
            delta,
            cumulative: current,
        }
    }
}

/// Monotonic subtraction with restart semantics: the delta from `prev` to
/// `cur`, or `cur` itself if the counter went backwards (wrap / restart).
fn monotone_delta(prev: u64, cur: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        cur
    }
}

/// Computes the per-metric delta between two cumulative snapshots.
///
/// * **Counters** — `cur - prev` per name, restart semantics on regression;
///   counters absent from `prev` count from zero. Zero deltas are kept so
///   the metric set is stable across scrapes.
/// * **Gauges** — levels, not rates: the delta carries the current value.
/// * **Histograms** — per-bucket subtraction by lower bound, plus
///   `count`/`sum`. If *any* component of a histogram went backwards the
///   whole histogram is treated as restarted (delta = current), keeping
///   buckets, count and sum mutually consistent. Empty-delta buckets are
///   dropped, matching [`Snapshot`]'s non-empty-bucket invariant.
pub fn delta_snapshots(prev: &Snapshot, cur: &Snapshot) -> Snapshot {
    let counters = cur
        .counters
        .iter()
        .map(|c| CounterSnapshot {
            name: c.name.clone(),
            value: monotone_delta(prev.counter(&c.name).unwrap_or(0), c.value),
        })
        .collect();

    let gauges = cur.gauges.clone();

    let histograms = cur
        .histograms
        .iter()
        .map(|h| {
            let ph = prev.histograms.iter().find(|p| p.name == h.name);
            delta_histogram(ph, h)
        })
        .collect();

    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

fn delta_histogram(prev: Option<&HistogramSnapshot>, cur: &HistogramSnapshot) -> HistogramSnapshot {
    let restarted = prev.is_some_and(|p| {
        p.count > cur.count
            || p.sum > cur.sum
            || p.buckets.iter().any(|pb| {
                let cb = cur.buckets.iter().find(|b| b.lo == pb.lo);
                cb.map_or(pb.count > 0, |cb| cb.count < pb.count)
            })
    });
    let prev = if restarted { None } else { prev };
    let buckets = cur
        .buckets
        .iter()
        .filter_map(|b| {
            let pc = prev
                .and_then(|p| p.buckets.iter().find(|pb| pb.lo == b.lo))
                .map(|pb| pb.count)
                .unwrap_or(0);
            let d = b.count - pc; // non-restarted prev guarantees pc <= count
            (d > 0).then_some(Bucket { lo: b.lo, count: d })
        })
        .collect();
    HistogramSnapshot {
        name: cur.name.clone(),
        count: cur.count - prev.map_or(0, |p| p.count),
        sum: cur.sum - prev.map_or(0, |p| p.sum),
        buckets,
    }
}

/// Adds `delta` onto `acc` metric-by-metric — the inverse of
/// [`delta_snapshots`], used by tests to prove deltas sum back to the
/// cumulative snapshot. Gauges are levels: the newest value wins.
pub fn accumulate(acc: &mut Snapshot, delta: &Snapshot) {
    for c in &delta.counters {
        match acc.counters.iter_mut().find(|a| a.name == c.name) {
            Some(a) => a.value += c.value,
            None => acc.counters.push(c.clone()),
        }
    }
    for g in &delta.gauges {
        match acc.gauges.iter_mut().find(|a| a.name == g.name) {
            Some(a) => a.value = g.value,
            None => acc.gauges.push(g.clone()),
        }
    }
    for h in &delta.histograms {
        match acc.histograms.iter_mut().find(|a| a.name == h.name) {
            Some(a) => {
                a.count += h.count;
                a.sum += h.sum;
                for b in &h.buckets {
                    match a.buckets.iter_mut().find(|ab| ab.lo == b.lo) {
                        Some(ab) => ab.count += b.count,
                        None => {
                            a.buckets.push(*b);
                            a.buckets.sort_by_key(|b| b.lo);
                        }
                    }
                }
            }
            None => acc.histograms.push(h.clone()),
        }
    }
    acc.counters.sort_by(|a, b| a.name.cmp(&b.name));
    acc.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    acc.histograms.sort_by(|a, b| a.name.cmp(&b.name));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c_total(value: u64) -> Vec<CounterSnapshot> {
        Snapshot::of_counter("c_total", value).counters
    }

    fn snap(counter: u64, hist: &[(u64, u64)], sum: u64) -> Snapshot {
        let count = hist.iter().map(|&(_, c)| c).sum();
        Snapshot {
            counters: c_total(counter),
            gauges: Snapshot::of_gauge("g", 7).gauges,
            histograms: vec![HistogramSnapshot {
                name: "h_ns".into(),
                count,
                sum,
                buckets: hist
                    .iter()
                    .map(|&(lo, count)| Bucket { lo, count })
                    .collect(),
            }],
        }
    }

    #[test]
    fn first_scrape_reports_everything() {
        let mut t = DeltaTracker::new();
        let d = t.scrape(snap(5, &[(4, 2)], 9));
        assert_eq!(d.epoch, 1);
        assert_eq!(d.delta, d.cumulative);
    }

    #[test]
    fn epochs_are_monotonic_and_deltas_subtract() {
        let mut t = DeltaTracker::new();
        t.scrape(snap(5, &[(4, 2)], 9));
        let d = t.scrape(snap(8, &[(4, 2), (16, 1)], 27));
        assert_eq!(d.epoch, 2);
        assert_eq!(d.delta.counters, c_total(3));
        let h = &d.delta.histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 18);
        assert_eq!(h.buckets, vec![Bucket { lo: 16, count: 1 }]);
    }

    #[test]
    fn gauges_pass_through_as_levels() {
        let mut t = DeltaTracker::new();
        t.scrape(snap(1, &[], 0));
        let d = t.scrape(snap(1, &[], 0));
        assert_eq!(d.delta.gauges, snap(1, &[], 0).gauges);
    }

    #[test]
    fn counter_regression_restarts_from_current() {
        let mut t = DeltaTracker::new();
        t.scrape(snap(100, &[], 0));
        let d = t.scrape(snap(3, &[], 0));
        assert_eq!(d.delta.counters, c_total(3));
    }

    #[test]
    fn histogram_regression_restarts_whole_histogram() {
        let mut t = DeltaTracker::new();
        t.scrape(snap(0, &[(4, 5)], 20));
        // Bucket 4 went backwards: the whole histogram restarts.
        let d = t.scrape(snap(0, &[(4, 2), (8, 1)], 14));
        let h = &d.delta.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 14);
        assert_eq!(
            h.buckets,
            vec![Bucket { lo: 4, count: 2 }, Bucket { lo: 8, count: 1 }]
        );
    }

    #[test]
    fn json_document_carries_schema_and_epoch() {
        let mut t = DeltaTracker::new();
        let d = t.scrape(snap(5, &[], 0));
        let json = d.to_json();
        assert!(json.starts_with("{\"schema\":\"predator-snapshot-delta/1\",\"epoch\":1,"));
        assert!(json.contains("\"delta\":{\"counters\":["));
        assert!(json.contains("\"cumulative\":{\"counters\":["));
    }

    #[test]
    fn accumulate_is_the_inverse_of_delta() {
        let states = [
            snap(5, &[(4, 2)], 9),
            snap(8, &[(4, 2), (16, 1)], 27),
            snap(8, &[(4, 3), (16, 1)], 30),
        ];
        let mut t = DeltaTracker::new();
        let mut acc = Snapshot::default();
        for s in &states {
            let d = t.scrape(s.clone());
            accumulate(&mut acc, &d.delta);
        }
        assert_eq!(&acc, states.last().unwrap());
    }
}
