//! The shared comparison engine: one tolerance-banded fold that every
//! baseline-vs-current comparison in the workspace routes through.
//!
//! Report diffs (`predator diff`), fleet trend deltas (`fleet trend`) and
//! policy baseline diffs (`baseline diff`) are all the same computation:
//! two keyed numeric snapshots and a relative tolerance band. The callers
//! differ only in how they key their values and how they print the
//! classified entries — so classification lives here, once, and each
//! caller keeps its historical output format byte for byte.

use std::collections::BTreeMap;

/// How one key moved between the old and new snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// Present only in the new snapshot.
    Added,
    /// Present only in the old snapshot.
    Removed,
    /// Value grew beyond the tolerance band.
    Increased,
    /// Value shrank beyond the tolerance band.
    Decreased,
    /// Within tolerance.
    Steady,
}

/// One key's classified movement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry<K> {
    /// The key, as the caller indexed it.
    pub key: K,
    /// Classification.
    pub delta: Delta,
    /// Old value (0 for [`Delta::Added`]).
    pub before: f64,
    /// New value (0 for [`Delta::Removed`]).
    pub after: f64,
}

/// Classifies a value present in both snapshots against the relative
/// tolerance band `[before·(1−t), before·(1+t)]`; strictly outside is
/// [`Delta::Increased`]/[`Delta::Decreased`], inside is [`Delta::Steady`].
pub fn classify(before: f64, after: f64, tolerance: f64) -> Delta {
    if after > before * (1.0 + tolerance) {
        Delta::Increased
    } else if after < before * (1.0 - tolerance) {
        Delta::Decreased
    } else {
        Delta::Steady
    }
}

/// Folds two keyed snapshots into classified entries: every key of `new`
/// first (in key order — added and in-both entries), then keys only `old`
/// has (in key order — removed entries). Callers that want a different
/// presentation order re-sort; callers that iterate in key order (report
/// diffs) get their historical ordering for free.
pub fn compare_maps<K: Ord + Clone>(
    old: &BTreeMap<K, f64>,
    new: &BTreeMap<K, f64>,
    tolerance: f64,
) -> Vec<DeltaEntry<K>> {
    let mut out = Vec::with_capacity(new.len() + old.len());
    for (key, &after) in new {
        let entry = match old.get(key) {
            None => DeltaEntry {
                key: key.clone(),
                delta: Delta::Added,
                before: 0.0,
                after,
            },
            Some(&before) => DeltaEntry {
                key: key.clone(),
                delta: classify(before, after, tolerance),
                before,
                after,
            },
        };
        out.push(entry);
    }
    for (key, &before) in old {
        if !new.contains_key(key) {
            out.push(DeltaEntry {
                key: key.clone(),
                delta: Delta::Removed,
                before,
                after: 0.0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn classify_uses_a_strict_band() {
        assert_eq!(classify(100.0, 151.0, 0.5), Delta::Increased);
        assert_eq!(classify(100.0, 150.0, 0.5), Delta::Steady);
        assert_eq!(classify(100.0, 50.0, 0.5), Delta::Steady);
        assert_eq!(classify(100.0, 49.0, 0.5), Delta::Decreased);
        // A zero baseline flags any growth and tolerates exact zero.
        assert_eq!(classify(0.0, 1.0, 0.5), Delta::Increased);
        assert_eq!(classify(0.0, 0.0, 0.5), Delta::Steady);
    }

    #[test]
    fn compare_maps_orders_new_keys_then_removed() {
        let old = map(&[("b", 100.0), ("gone", 5.0)]);
        let new = map(&[("a", 7.0), ("b", 100.0)]);
        let got = compare_maps(&old, &new, 0.5);
        let shape: Vec<(&str, Delta)> = got.iter().map(|e| (e.key.as_str(), e.delta)).collect();
        assert_eq!(
            shape,
            vec![
                ("a", Delta::Added),
                ("b", Delta::Steady),
                ("gone", Delta::Removed),
            ]
        );
        assert_eq!(got[0].before, 0.0);
        assert_eq!(got[2].after, 0.0);
    }
}
