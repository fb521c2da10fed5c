//! Property tests for the `/snapshot` delta math (`predator::obs::delta`).
//!
//! The streaming contract of `predator serve` is that each scrape returns
//! the change since the previous scrape, and that a consumer summing every
//! delta reconstructs the cumulative snapshot exactly. Three properties pin
//! that down:
//!
//! 1. deltas are never negative (restart semantics cap every component at
//!    its current cumulative value, even across counter wrap-around);
//! 2. for monotone metric histories, `accumulate(deltas)` reproduces the
//!    final cumulative snapshot bit-for-bit;
//! 3. arbitrary regressions — a wrapped counter, a restarted registry, a
//!    log2 histogram whose buckets went backwards — never panic and never
//!    break the internal consistency of a delta histogram (bucket counts
//!    still sum to `count`).

use proptest::prelude::*;

use predator::obs::{
    accumulate, bucket_index, bucket_lower_bound, Bucket, CounterSnapshot, DeltaTracker,
    GaugeSnapshot, HistogramSnapshot, Snapshot,
};

/// Builds a self-consistent histogram snapshot the way the live registry
/// would: every observed value lands in its log2 bucket, `count`/`sum`
/// mirror the observations.
fn hist_from_values(name: &str, values: &[u64]) -> HistogramSnapshot {
    let mut buckets: Vec<Bucket> = Vec::new();
    for &v in values {
        let lo = bucket_lower_bound(bucket_index(v));
        match buckets.iter_mut().find(|b| b.lo == lo) {
            Some(b) => b.count += 1,
            None => buckets.push(Bucket { lo, count: 1 }),
        }
    }
    buckets.sort_by_key(|b| b.lo);
    HistogramSnapshot {
        name: name.into(),
        count: values.len() as u64,
        sum: values.iter().sum(),
        buckets,
    }
}

/// Cumulative snapshot states built from per-scrape *increments*, i.e. a
/// monotone metric history with no restarts.
fn monotone_states(incs: &[(u64, Vec<u64>, i64)]) -> Vec<Snapshot> {
    let mut counter = 0u64;
    let mut observed: Vec<u64> = Vec::new();
    incs.iter()
        .map(|(cinc, hvals, gauge)| {
            counter += cinc;
            observed.extend_from_slice(hvals);
            Snapshot {
                counters: vec![CounterSnapshot {
                    name: "scrapes_total".into(),
                    value: counter,
                }],
                gauges: vec![GaugeSnapshot {
                    name: "live_level".into(),
                    value: *gauge,
                }],
                histograms: vec![hist_from_values("work_ns", &observed)],
            }
        })
        .collect()
}

/// Independent (possibly regressing) snapshot states: each scrape's
/// histogram is rebuilt from scratch, so counts, sums and individual
/// buckets can all go backwards — the wrap-around/restart regime.
fn restarting_states(states: &[(u64, Vec<u64>)]) -> Vec<Snapshot> {
    states
        .iter()
        .map(|(counter, hvals)| Snapshot {
            counters: vec![CounterSnapshot {
                name: "scrapes_total".into(),
                value: *counter,
            }],
            gauges: vec![GaugeSnapshot {
                name: "live_level".into(),
                value: 0,
            }],
            histograms: vec![hist_from_values("work_ns", hvals)],
        })
        .collect()
}

fn bucket_total(h: &HistogramSnapshot) -> u64 {
    h.buckets.iter().map(|b| b.count).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Monotone histories: every delta equals the increment that produced
    /// it, and summing the deltas reproduces the final cumulative snapshot.
    #[test]
    fn prop_deltas_sum_back_to_cumulative(
        incs in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec(0u64..1_000_000, 0..8), -50i64..50),
            1..12),
    ) {
        let states = monotone_states(&incs);
        let mut tracker = DeltaTracker::new();
        let mut acc = Snapshot::default();
        for (i, (state, (cinc, _, _))) in states.iter().zip(&incs).enumerate() {
            let d = tracker.scrape(state.clone());
            prop_assert_eq!(d.epoch, i as u64 + 1, "epochs count scrapes");
            prop_assert_eq!(d.delta.counters[0].value, *cinc,
                "monotone counter delta is exactly the increment");
            prop_assert_eq!(&d.cumulative, state);
            accumulate(&mut acc, &d.delta);
        }
        let want = states.last().unwrap().clone();
        prop_assert_eq!(acc, want, "accumulated deltas rebuild the cumulative snapshot");
    }

    /// Every delta component is bounded by its cumulative counterpart —
    /// the "never negative, never bogus-huge" restart guarantee — for
    /// arbitrary histories including wrapped counters and histograms whose
    /// log2 buckets went backwards.
    #[test]
    fn prop_wraparound_restarts_cleanly(
        states in proptest::collection::vec(
            (0u64..u64::MAX, proptest::collection::vec(0u64..1_000_000, 0..8)),
            1..12),
    ) {
        let mut tracker = DeltaTracker::new();
        for (counter, hvals) in &states {
            let snap = restarting_states(&[(*counter, hvals.clone())]).remove(0);
            let d = tracker.scrape(snap);
            prop_assert!(d.delta.counters[0].value <= *counter,
                "delta {} exceeds cumulative {}", d.delta.counters[0].value, counter);
            let dh = &d.delta.histograms[0];
            let ch = &d.cumulative.histograms[0];
            prop_assert!(dh.count <= ch.count, "histogram count delta over-reports");
            prop_assert!(dh.sum <= ch.sum, "histogram sum delta over-reports");
            prop_assert_eq!(bucket_total(dh), dh.count,
                "delta histogram buckets stay consistent with its count");
        }
    }

    /// The JSON document is self-describing: schema tag, the scrape epoch,
    /// and both payloads present on every scrape.
    #[test]
    fn prop_delta_json_carries_schema_and_epoch(
        incs in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec(0u64..1_000_000, 0..4), -50i64..50),
            1..6),
    ) {
        let mut tracker = DeltaTracker::new();
        for (i, state) in monotone_states(&incs).into_iter().enumerate() {
            let json = tracker.scrape(state).to_json();
            let head = format!(
                "{{\"schema\":\"predator-snapshot-delta/1\",\"epoch\":{},", i + 1);
            prop_assert!(json.starts_with(&head), "bad head: {}", json);
            prop_assert!(json.contains("\"delta\":{\"counters\":["));
            prop_assert!(json.contains("\"cumulative\":{\"counters\":["));
        }
    }
}

/// A counter one step from wrap-around followed by a tiny post-wrap value:
/// restart semantics report the post-wrap value itself, never the bogus
/// near-2^64 difference a naive subtraction would produce.
#[test]
fn wrapped_counter_reports_current_value() {
    let mut tracker = DeltaTracker::new();
    tracker.scrape(restarting_states(&[(u64::MAX, vec![])]).remove(0));
    let d = tracker.scrape(restarting_states(&[(3, vec![])]).remove(0));
    assert_eq!(d.delta.counters[0].value, 3);
}

/// A histogram whose buckets regressed (registry restart) is reported as
/// all-new, keeping buckets, count and sum mutually consistent.
#[test]
fn restarted_histogram_reports_itself_consistently() {
    let mut tracker = DeltaTracker::new();
    tracker.scrape(restarting_states(&[(0, vec![100, 100, 7])]).remove(0));
    let d = tracker.scrape(restarting_states(&[(0, vec![5])]).remove(0));
    let h = &d.delta.histograms[0];
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, 5);
    assert_eq!(bucket_total(h), 1);
}
