//! Potential-false-sharing search and verification state (§3.3, §3.4).
//!
//! Once a tracked line `L` accumulates `PredictionThreshold` writes, the
//! runtime searches `L` and its adjacent lines for *hot access pairs*: two
//! words, each hotter than `L`'s per-word average, issued by different
//! threads, at least one written, and close enough to land on one virtual
//! line. Each qualifying pair — with a conservatively estimated invalidation
//! count above the per-word average — spawns a [`PredictionUnit`]: a history
//! table over the candidate *virtual* line that subsequent accesses feed, so
//! the prediction is **verified** against the same invalidation model used
//! for physical lines (§3.4) rather than reported on estimation alone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::lockfree::{self, Mode};

use predator_sim::vline::{
    doubled_vline_possible, offset_vline_possible, place_offset_vline, scaled_vline_possible,
};
use predator_sim::{
    AccessKind, CacheGeometry, ThreadId, VirtualGeometry, VirtualRange, WordState, WordTracker,
};

/// What kind of what-if scenario a prediction unit verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UnitKind {
    /// Hardware with doubled cache-line size (Figure 3b).
    Doubled,
    /// Extension: hardware with `2^factor_log2`-times larger lines
    /// (`factor_log2 >= 2`; one doubling is [`UnitKind::Doubled`]).
    Scaled {
        /// log2 of the line-size multiple.
        factor_log2: u32,
    },
    /// Object placement shifted by `delta` bytes (Figure 3c).
    Remap {
        /// Partition shift in bytes (`0 ≤ delta < line_size`, word-aligned).
        delta: u64,
    },
}

/// Unique identity of a prediction unit: scenario plus virtual-line index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UnitKey {
    /// Scenario.
    pub kind: UnitKind,
    /// Virtual line index under the scenario's [`VirtualGeometry`].
    pub vline: u64,
}

/// One hot word: its address and counters at analysis time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotWord {
    /// Word start address.
    pub addr: u64,
    /// Counter snapshot.
    pub state: WordState,
}

/// A qualifying hot access pair (§3.3's X and Y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotPair {
    /// Hot word on the analyzed line.
    pub x: HotWord,
    /// Hot word on the adjacent line.
    pub y: HotWord,
    /// Conservative estimate of invalidations the pair could cause on a
    /// shared virtual line (interleaved schedule assumption).
    pub estimate: u64,
}

/// Conservative invalidation estimate for two words sharing a virtual line.
///
/// PREDATOR "conservatively assumes that accesses from different threads
/// occur in an interleaved manner". Under perfect interleaving, every access
/// of the less-frequent word can pair with a remote access, and each pair
/// with at least one write yields an invalidation — unless *neither* side
/// writes, in which case sharing is harmless.
pub fn estimate_pair_invalidations(x: &WordState, y: &WordState) -> u64 {
    if x.writes == 0 && y.writes == 0 {
        return 0;
    }
    x.total().min(y.total())
}

/// Finds §3.3 hot access pairs between line `l` and an adjacent line `n`.
///
/// `avg` is the per-word average of the *analyzed* line `l` (the paper
/// measures both hotness and the estimate cutoff against `l`). Pairs must:
/// be hot on their respective lines; be owned exclusively by *different*
/// threads (a word already marked shared is true sharing, not a false-sharing
/// candidate); include at least one write; and have an estimate above `avg`.
pub fn find_hot_pairs(l: &WordTracker, n: &WordTracker, avg: f64) -> Vec<HotPair> {
    let mut out = Vec::new();
    let hot_l = l.hot_words();
    let hot_n = n.hot_words();
    for &ix in &hot_l {
        let xs = l.words()[ix];
        let Some(tx) = xs.owner.thread() else {
            continue;
        };
        for &iy in &hot_n {
            let ys = n.words()[iy];
            let Some(ty) = ys.owner.thread() else {
                continue;
            };
            if tx == ty {
                continue;
            }
            if xs.writes == 0 && ys.writes == 0 {
                continue;
            }
            let estimate = estimate_pair_invalidations(&xs, &ys);
            if (estimate as f64) > avg {
                out.push(HotPair {
                    x: HotWord {
                        addr: l.word_addr(ix),
                        state: xs,
                    },
                    y: HotWord {
                        addr: n.word_addr(iy),
                        state: ys,
                    },
                    estimate,
                });
            }
        }
    }
    out
}

/// The virtual-line scenarios a hot pair makes worth verifying, considering
/// line-size scales up to `2^max_scale_log2` (the paper stops at one
/// doubling, `max_scale_log2 = 1`).
pub fn candidate_units(
    pair: &HotPair,
    geom: CacheGeometry,
    max_scale_log2: u32,
) -> Vec<(UnitKey, VirtualGeometry)> {
    let (x, y) = (pair.x.addr, pair.y.addr);
    let mut out = Vec::new();
    if doubled_vline_possible(x, y, geom) {
        let vg = VirtualGeometry::Doubled(geom);
        out.push((
            UnitKey {
                kind: UnitKind::Doubled,
                vline: vg.index(x),
            },
            vg,
        ));
    }
    for factor_log2 in 2..=max_scale_log2 {
        if scaled_vline_possible(x, y, geom, factor_log2) {
            let vg = VirtualGeometry::Scaled { geom, factor_log2 };
            out.push((
                UnitKey {
                    kind: UnitKind::Scaled { factor_log2 },
                    vline: vg.index(x),
                },
                vg,
            ));
        }
    }
    if offset_vline_possible(x, y, geom) {
        let vg = place_offset_vline(x, y, geom);
        if vg.same_vline(x, y) {
            out.push((
                UnitKey {
                    kind: UnitKind::Remap { delta: vg.delta() },
                    vline: vg.index(x),
                },
                vg,
            ));
        }
    }
    out
}

/// Verification state for one candidate virtual line.
///
/// Lives behind an `Arc`, attached to every physical-line tracker the
/// virtual line overlaps; sampled accesses inside [`PredictionUnit::range`]
/// feed the history table, counting the invalidations that *would* occur if
/// the virtual line were a real cache line. Updates are lock-free: the
/// history CAS loop keeps verified invalidation counts exact (see
/// [`crate::lockfree`]), the two counters are `Relaxed` atomics — all three
/// updated under the caller's [`Mode`].
#[derive(Debug)]
pub struct PredictionUnit {
    /// Identity (scenario + vline index).
    pub key: UnitKey,
    /// The scenario's partition of the address space.
    pub geometry: VirtualGeometry,
    /// The concrete address range verified.
    pub range: VirtualRange,
    /// The hot pair that spawned this unit.
    pub origin: HotPair,
    /// The two-entry history table's bits ([`predator_sim::HistoryTable`]).
    history: AtomicU64,
    invalidations: AtomicU64,
    accesses: AtomicU64,
}

/// Immutable snapshot of a unit's verification progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitSnapshot {
    /// Identity.
    pub key: UnitKey,
    /// Verified address range.
    pub range: VirtualRange,
    /// Originating hot pair.
    pub origin: HotPair,
    /// Invalidations verified on the virtual line so far.
    pub invalidations: u64,
    /// Accesses that fed the virtual history table.
    pub accesses: u64,
}

impl PredictionUnit {
    /// Creates a unit for `key` under `geometry`, spawned by `origin`.
    pub fn new(key: UnitKey, geometry: VirtualGeometry, origin: HotPair) -> Self {
        PredictionUnit {
            key,
            geometry,
            range: geometry.range(key.vline),
            origin,
            history: AtomicU64::new(predator_sim::HistoryTable::new().0),
            invalidations: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
        }
    }

    /// Feeds one access *already known to fall inside `range`*; returns true
    /// if it invalidated the virtual line. Inlined into the sampled-access
    /// walk over a line's units.
    #[inline(always)]
    pub fn record<M: Mode>(&self, m: M, tid: ThreadId, kind: AccessKind) -> bool {
        m.add(&self.accesses, 1);
        let (_, inv) = lockfree::record_history(m, &self.history, tid, kind);
        if inv {
            m.add(&self.invalidations, 1);
            predator_obs::hot_counter_inc!("predict_verified_invalidations_total");
        }
        inv
    }

    /// Verified invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self) -> UnitSnapshot {
        UnitSnapshot {
            key: self.key,
            range: self.range,
            origin: self.origin,
            invalidations: self.invalidations(),
            accesses: self.accesses.load(Ordering::Relaxed),
        }
    }
}

/// Deduplicating registry of all live prediction units.
#[derive(Debug, Default)]
pub struct UnitRegistry {
    units: HashMap<UnitKey, Arc<PredictionUnit>>,
}

impl UnitRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the unit for `key`, creating it from `make` if new; the bool
    /// is true when the unit was just created.
    pub fn get_or_create(
        &mut self,
        key: UnitKey,
        make: impl FnOnce() -> PredictionUnit,
    ) -> (Arc<PredictionUnit>, bool) {
        match self.units.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(v) => {
                let u = Arc::new(make());
                v.insert(u.clone());
                (u, true)
            }
        }
    }

    /// Number of live units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when no units exist.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Snapshots of every unit, in deterministic (key) order.
    pub fn snapshots(&self) -> Vec<UnitSnapshot> {
        let mut v: Vec<UnitSnapshot> = self.units.values().map(|u| u.snapshot()).collect();
        v.sort_by_key(|s| s.key);
        v
    }

    /// All units, unordered.
    pub fn all(&self) -> Vec<Arc<PredictionUnit>> {
        self.units.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_sim::AccessKind::{Read, Write};
    use predator_sim::{Owner, WORD_SIZE};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64)
    }

    fn ws(reads: u64, writes: u64, owner: Owner) -> WordState {
        WordState {
            reads,
            writes,
            owner,
        }
    }

    #[test]
    fn estimate_zero_without_writes() {
        let a = ws(100, 0, Owner::Exclusive(ThreadId(0)));
        let b = ws(100, 0, Owner::Exclusive(ThreadId(1)));
        assert_eq!(estimate_pair_invalidations(&a, &b), 0);
    }

    #[test]
    fn estimate_is_min_of_totals() {
        let a = ws(10, 90, Owner::Exclusive(ThreadId(0)));
        let b = ws(0, 40, Owner::Exclusive(ThreadId(1)));
        assert_eq!(estimate_pair_invalidations(&a, &b), 40);
        // One-sided write still counts.
        let c = ws(50, 0, Owner::Exclusive(ThreadId(2)));
        assert_eq!(estimate_pair_invalidations(&b, &c), 40);
    }

    /// Builds the linear_regression-like pattern: thread 0 hammers the last
    /// word of line 0, thread 1 hammers the first word of line 1.
    fn lreg_trackers(hits: usize) -> (WordTracker, WordTracker) {
        let g = geom();
        let mut l = WordTracker::new(0x4000_0000, g);
        let mut n = WordTracker::new(0x4000_0040, g);
        for _ in 0..hits {
            l.record(ThreadId(0), 0x4000_0038, 8, Write);
            n.record(ThreadId(1), 0x4000_0040, 8, Write);
        }
        (l, n)
    }

    #[test]
    fn finds_cross_line_hot_pair() {
        let (l, n) = lreg_trackers(100);
        let pairs = find_hot_pairs(&l, &n, l.average_accesses());
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        assert_eq!(p.x.addr, 0x4000_0038);
        assert_eq!(p.y.addr, 0x4000_0040);
        assert_eq!(p.estimate, 100);
    }

    #[test]
    fn same_thread_pairs_rejected() {
        let g = geom();
        let mut l = WordTracker::new(0, g);
        let mut n = WordTracker::new(64, g);
        for _ in 0..100 {
            l.record(ThreadId(0), 56, 8, Write);
            n.record(ThreadId(0), 64, 8, Write);
        }
        assert!(find_hot_pairs(&l, &n, l.average_accesses()).is_empty());
    }

    #[test]
    fn read_only_pairs_rejected() {
        let g = geom();
        let mut l = WordTracker::new(0, g);
        let mut n = WordTracker::new(64, g);
        for _ in 0..100 {
            l.record(ThreadId(0), 56, 8, Read);
            n.record(ThreadId(1), 64, 8, Read);
        }
        assert!(find_hot_pairs(&l, &n, l.average_accesses()).is_empty());
    }

    #[test]
    fn shared_words_not_paired() {
        let g = geom();
        let mut l = WordTracker::new(0, g);
        let mut n = WordTracker::new(64, g);
        for _ in 0..50 {
            l.record(ThreadId(0), 56, 8, Write);
            l.record(ThreadId(1), 56, 8, Write); // word becomes Shared
            n.record(ThreadId(2), 64, 8, Write);
        }
        let pairs = find_hot_pairs(&l, &n, l.average_accesses());
        assert!(pairs.is_empty(), "shared-owner word must not seed a pair");
    }

    #[test]
    fn low_estimate_pairs_filtered_by_average() {
        let g = geom();
        let mut l = WordTracker::new(0, g);
        let mut n = WordTracker::new(64, g);
        // Uniformly busy line: high average…
        for w in 0..8u64 {
            for _ in 0..100 {
                l.record(ThreadId(0), w * 8, 8, Write);
            }
        }
        // …make one word slightly hotter so it qualifies as hot…
        for _ in 0..10 {
            l.record(ThreadId(0), 56, 8, Write);
        }
        // …but the neighbor's hot word is too cold for the estimate to beat
        // the average (estimate = min(110, 30) = 30 < avg ≈ 101).
        for _ in 0..30 {
            n.record(ThreadId(1), 64, 8, Write);
        }
        assert!(find_hot_pairs(&l, &n, l.average_accesses()).is_empty());
    }

    #[test]
    fn candidates_include_doubled_and_remap_for_adjacent_even_odd_pair() {
        let (l, n) = lreg_trackers(100);
        let pair = find_hot_pairs(&l, &n, l.average_accesses())[0];
        let cands = candidate_units(&pair, geom(), 1);
        // Lines 0x1000000 (even) and 0x1000001 pair up under doubling, and
        // the words are 8 bytes apart → remap candidate too.
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().any(|(k, _)| k.kind == UnitKind::Doubled));
        assert!(cands
            .iter()
            .any(|(k, _)| matches!(k.kind, UnitKind::Remap { .. })));
        for (k, vg) in &cands {
            let r = vg.range(k.vline);
            assert!(r.contains(pair.x.addr));
            assert!(r.contains(pair.y.addr + WORD_SIZE - 1));
        }
    }

    #[test]
    fn odd_even_boundary_gets_remap_but_not_doubled() {
        let g = geom();
        // Hot words across lines 1|2 (odd→even boundary): doubling cannot
        // merge them, remapping can.
        let mut l = WordTracker::new(64, g);
        let mut n = WordTracker::new(128, g);
        for _ in 0..100 {
            l.record(ThreadId(0), 64 + 56, 8, Write);
            n.record(ThreadId(1), 128, 8, Write);
        }
        let pair = find_hot_pairs(&l, &n, l.average_accesses())[0];
        let cands = candidate_units(&pair, g, 1);
        assert_eq!(cands.len(), 1);
        assert!(matches!(cands[0].0.kind, UnitKind::Remap { .. }));
    }

    #[test]
    fn scaled_candidates_appear_at_higher_factors() {
        let g = geom();
        // Hot words on lines 1 and 2: merge first at the 4x scale.
        let mut l = WordTracker::new(64, g);
        let mut n = WordTracker::new(128, g);
        for _ in 0..100 {
            l.record(ThreadId(0), 64, 8, Write);
            n.record(ThreadId(1), 128 + 56, 8, Write);
        }
        let pair = find_hot_pairs(&l, &n, l.average_accesses())[0];
        // Paper setting: only the doubled scenario is considered, and lines
        // 1|2 do not pair under doubling; the words are 120 bytes apart, so
        // no remap either.
        assert!(candidate_units(&pair, g, 1).is_empty());
        // Extension: at max scale 4x, the pair becomes a candidate.
        let cands = candidate_units(&pair, g, 2);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0.kind, UnitKind::Scaled { factor_log2: 2 });
        let r = cands[0].1.range(cands[0].0.vline);
        assert_eq!(r.size, 256);
        assert!(r.contains(pair.x.addr) && r.contains(pair.y.addr));
    }

    #[test]
    fn unit_verifies_interleaved_invalidations() {
        let g = geom();
        let vg = VirtualGeometry::Doubled(g);
        let key = UnitKey {
            kind: UnitKind::Doubled,
            vline: 0,
        };
        let pair = HotPair {
            x: HotWord {
                addr: 56,
                state: ws(0, 100, Owner::Exclusive(ThreadId(0))),
            },
            y: HotWord {
                addr: 64,
                state: ws(0, 100, Owner::Exclusive(ThreadId(1))),
            },
            estimate: 100,
        };
        let u = PredictionUnit::new(key, vg, pair);
        assert_eq!(
            u.range,
            VirtualRange {
                start: 0,
                size: 128
            }
        );
        for i in 0..10 {
            u.record(lockfree::Exclusive, ThreadId(i % 2), Write);
        }
        assert_eq!(u.invalidations(), 9);
        let snap = u.snapshot();
        assert_eq!(snap.accesses, 10);
        assert_eq!(snap.invalidations, 9);
    }

    #[test]
    fn unit_conserves_counts_under_contention() {
        let g = geom();
        let vg = VirtualGeometry::Doubled(g);
        let key = UnitKey {
            kind: UnitKind::Doubled,
            vline: 0,
        };
        let pair = HotPair {
            x: HotWord {
                addr: 56,
                state: ws(0, 100, Owner::Exclusive(ThreadId(0))),
            },
            y: HotWord {
                addr: 64,
                state: ws(0, 100, Owner::Exclusive(ThreadId(1))),
            },
            estimate: 100,
        };
        let u = Arc::new(PredictionUnit::new(key, vg, pair));
        std::thread::scope(|s| {
            for id in 0..4u16 {
                let u = u.clone();
                s.spawn(move || {
                    for _ in 0..5_000 {
                        u.record(lockfree::Shared, ThreadId(id), Write);
                    }
                });
            }
        });
        let snap = u.snapshot();
        assert_eq!(snap.accesses, 20_000, "no access lost under contention");
        assert!(snap.invalidations >= 3 && snap.invalidations < snap.accesses);
    }

    #[test]
    fn registry_dedups_by_key() {
        let g = geom();
        let vg = VirtualGeometry::Doubled(g);
        let key = UnitKey {
            kind: UnitKind::Doubled,
            vline: 3,
        };
        let pair = HotPair {
            x: HotWord {
                addr: 0,
                state: ws(0, 1, Owner::Exclusive(ThreadId(0))),
            },
            y: HotWord {
                addr: 8,
                state: ws(0, 1, Owner::Exclusive(ThreadId(1))),
            },
            estimate: 1,
        };
        let mut reg = UnitRegistry::new();
        let mk = || PredictionUnit::new(key, vg, pair);
        let (u1, created1) = reg.get_or_create(key, mk);
        let (u2, created2) = reg.get_or_create(key, mk);
        assert!(created1);
        assert!(!created2);
        assert!(Arc::ptr_eq(&u1, &u2));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.snapshots().len(), 1);
    }
}
