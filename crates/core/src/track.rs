//! Per-line detailed tracking state — the payload behind `CacheTracking`
//! (§2.3.1, §2.4.3).
//!
//! A [`CacheTrack`] exists only for lines whose write count crossed the
//! *TrackingThreshold*. It holds the two-entry history table, the
//! word-granularity counters, and the sampling window; during prediction it
//! also carries the list of [`PredictionUnit`]s whose virtual lines overlap
//! this physical line, so a single sampled access feeds both the physical
//! and every relevant virtual history table.
//!
//! Concurrency: nothing here takes a lock. The sampling decision is a lone
//! `Relaxed` add on an atomic access counter, made inline at the call site so
//! an access outside the window never enters [`CacheTrack::record_sampled`];
//! recorded accesses go through the lock-free line state in
//! [`crate::lockfree`] — the history table's bits in one atomic word
//! (invalidation counts stay exact via a CAS loop over the pure §2.3.1
//! `HistoryTable::record`), batched `Relaxed` word/line counters, and an
//! `Acquire` fence only on the threshold-promotion edge. The attached
//! prediction units are one immutable array behind one pointer, walked as a
//! slice on every sampled access; each entry carries its unit's range, so
//! the walk tests it in place. [`CacheTrack::record_sampled`] is the
//! admitted access's one frame: the line's record, the history CAS and each
//! unit's record are inlined into it. Every read-modify-write is issued
//! under the caller's [`Mode`]: hardware RMWs when the detector is shared,
//! load and store when one thread owns it.
//!
//! A detector built with the flight recorder on owns a [`Flight`]: its
//! [`FlightRecorder`] plus one [`Ring`] per tracked line, by shadow index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use predator_obs::recorder::{FlightRecorder, Rec, RecKind, Ring, WORD_UNKNOWN};
use predator_shadow::{ShadowLayout, TrackSlots};
use predator_sim::{Access, AccessKind, CacheGeometry, HistoryTable, ThreadId, WordTracker};

use crate::config::DetectorConfig;
use crate::lockfree::{Mode, RelaxedLine, RelaxedOutcome, UnitList};
use crate::predict::PredictionUnit;

/// Result of offering one access to a [`CacheTrack`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackOutcome {
    /// The access was inside the sampling burst and was recorded.
    pub sampled: bool,
    /// The access invalidated the physical line.
    pub invalidated: bool,
    /// The line's tracked write count just crossed a multiple of the
    /// PredictionThreshold: the caller should run hot-pair analysis.
    pub analysis_due: bool,
}

/// Immutable snapshot of a line's tracked state, for analysis and reporting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackSnapshot {
    /// First byte address of the line.
    pub line_start: u64,
    /// Invalidations recorded on the physical line.
    pub invalidations: u64,
    /// Sampled reads.
    pub reads: u64,
    /// Sampled writes.
    pub writes: u64,
    /// Total accesses offered (sampled or not).
    pub offered: u64,
    /// Word-granularity counters.
    pub words: WordTracker,
}

/// A detector's flight recorder: the clock and line cap, and the rings of
/// the tracked lines, found by shadow index like their tracks.
pub(crate) struct Flight {
    recorder: FlightRecorder,
    layout: ShadowLayout,
    rings: TrackSlots<Ring>,
}

impl Flight {
    /// An empty recorder for `layout`'s lines: the ring slots are zeroed
    /// memory, backed only where a tracked line records.
    pub fn new(depth: usize, layout: ShadowLayout) -> Self {
        Flight {
            recorder: FlightRecorder::new(depth),
            layout,
            rings: TrackSlots::new(layout.lines()),
        }
    }

    /// Records one event on line `idx`, opening its ring on the first.
    #[inline]
    fn record<M: Mode>(&self, m: M, idx: usize, tid: u16, word: u8, kinds: &[RecKind]) {
        let ring = match self.rings.get(idx) {
            Some(ring) => ring,
            None => match self
                .recorder
                .open_ring(m, self.layout.line_start(idx), kinds.len())
            {
                Some(ring) => self.rings.get_or_publish(idx, || ring),
                None => return,
            },
        };
        self.recorder.push(m, ring, tid, word, kinds);
    }

    /// Line `idx`'s records, oldest first.
    pub fn records<M: Mode>(&self, m: M, idx: usize) -> Vec<Rec> {
        self.rings
            .get(idx)
            .map_or_else(Vec::new, |ring| ring.records(m))
    }
}

/// Detailed tracking state for one cache line.
#[derive(Debug)]
pub struct CacheTrack {
    line_start: u64,
    offered: AtomicU64,
    units: UnitList,
    line: RelaxedLine,
}

impl CacheTrack {
    /// Creates tracking state for the line starting at `line_start`.
    pub fn new(line_start: u64, geom: CacheGeometry) -> Self {
        CacheTrack {
            line_start,
            offered: AtomicU64::new(0),
            units: UnitList::new(),
            line: RelaxedLine::new(geom.words_per_line()),
        }
    }

    /// First byte address of the tracked line.
    pub fn line_start(&self) -> u64 {
        self.line_start
    }

    /// Offers one access; applies `cfg`'s sampling policy, then records into
    /// the physical history table, the word counters, and any overlapping
    /// prediction units.
    #[inline]
    pub fn handle<M: Mode>(
        &self,
        m: M,
        tid: ThreadId,
        addr: u64,
        size: u8,
        kind: AccessKind,
        cfg: &DetectorConfig,
    ) -> TrackOutcome {
        if self.admit(m, cfg, cfg.sampling.then_some(cfg.sample_burst)) {
            let a = Access {
                tid,
                addr,
                size,
                kind,
            };
            self.record_sampled(m, a, cfg, None)
        } else {
            TrackOutcome::default()
        }
    }

    /// The sampling gate: counts one offered access and says whether it falls
    /// in the window to record — the first `burst` of every
    /// `cfg.sample_interval` offered, all of them when `None` (`cfg`'s own
    /// `sampling`/`sample_burst` are ignored; the runtime passes its dynamic
    /// override here without copying `cfg`). Inlined into the caller: at the
    /// paper's 1 % rate 99 of 100 offered accesses end here, and none of
    /// them pays for [`record_sampled`](Self::record_sampled)'s frame.
    #[inline]
    pub fn admit<M: Mode>(&self, m: M, cfg: &DetectorConfig, burst: Option<u64>) -> bool {
        let n = m.add(&self.offered, 1);
        burst.is_none_or(|burst| n % cfg.sample_interval < burst)
    }

    /// Records one access that [`admit`](Self::admit) let through, and
    /// into `flight`'s ring for this line (its shadow index) when given.
    #[inline(never)]
    pub(crate) fn record_sampled<M: Mode>(
        &self,
        m: M,
        Access {
            tid,
            addr,
            size,
            kind,
        }: Access,
        cfg: &DetectorConfig,
        flight: Option<(&Flight, usize)>,
    ) -> TrackOutcome {
        let tl = predator_obs::timeline();
        let word = ((addr.saturating_sub(self.line_start) / 8) as u8).min(WORD_UNKNOWN - 1);
        // In-line word span, mirroring `WordTracker::record`'s clamping of
        // straddling accesses.
        let end = addr + size.max(1) as u64 - 1;
        let line_end = self.line_start + cfg.geometry.line_size() - 1;
        let lo_word = ((addr.max(self.line_start) - self.line_start) / 8) as usize;
        let hi_word = ((end.min(line_end) - self.line_start) / 8) as usize;
        let threshold = cfg.prediction.then_some(cfg.prediction_threshold);
        let RelaxedOutcome {
            invalidated,
            analysis_due,
            prev_history,
        } = self.line.record(m, tid, lo_word, hi_word, kind, threshold);
        // Flight-recorder and timeline feed: the victims of an invalidating
        // write are the remote entries sitting in the history table *before*
        // the write lands (≤ 2, distinct threads — §2.3.1), so capture them
        // from the pre-access table the CAS loop hands back.
        let mut victims = [RecKind::Read; 2];
        let mut victim_count = 0usize;
        if invalidated && (flight.is_some() || tl.enabled()) {
            for e in HistoryTable(prev_history).entries() {
                if e.tid != tid {
                    victims[victim_count] = RecKind::Invalidation {
                        victim_tid: e.tid.index() as u16,
                        victim_word: self.line.last_word(e.tid),
                    };
                    victim_count += 1;
                }
            }
        }
        if flight.is_some() {
            self.line.note_word(m, tid, word);
        }
        self.units.for_each_containing(addr, |unit| {
            unit.record(m, tid, kind);
        });
        predator_obs::hot_counter_inc!("track_sampled_accesses_total");
        if let Some((flight, idx)) = flight {
            let access = [match kind {
                AccessKind::Read => RecKind::Read,
                AccessKind::Write => RecKind::Write,
            }];
            let kinds = if invalidated {
                &victims[..victim_count]
            } else {
                &access
            };
            if !kinds.is_empty() {
                flight.record(m, idx, tid.index() as u16, word, kinds);
            }
        }
        if invalidated {
            predator_obs::hot_counter_inc!("track_invalidations_total");
            // Timeline: an instant on the writer's sim-thread lane plus one
            // flow arrow per victim, so Perfetto draws the causal link from
            // the invalidating write to the thread whose copy it killed.
            if tl.enabled() {
                let writer_lane = tid.index() as u64;
                tl.instant(
                    "invalidation",
                    "detector",
                    writer_lane,
                    vec![
                        ("line_start", predator_obs::ArgVal::U64(self.line_start)),
                        ("word", predator_obs::ArgVal::U64(word as u64)),
                    ],
                );
                for victim in &victims[..victim_count] {
                    if let RecKind::Invalidation { victim_tid, .. } = victim {
                        tl.flow(
                            "invalidate",
                            "detector",
                            writer_lane,
                            *victim_tid as u64,
                            tl.new_flow(),
                        );
                    }
                }
            }
        }
        TrackOutcome {
            sampled: true,
            invalidated,
            analysis_due,
        }
    }

    /// Attaches a prediction unit whose virtual line overlaps this physical
    /// line; deduplicated by unit identity.
    pub fn attach_unit(&self, unit: Arc<PredictionUnit>) {
        self.units.push_if_absent(unit);
    }

    /// Invalidations recorded on the physical line.
    pub fn invalidations(&self) -> u64 {
        self.line.invalidations()
    }

    /// Snapshot for analysis/reporting (drains the pending counter batch,
    /// then copies the word counters).
    pub fn snapshot<M: Mode>(&self, m: M) -> TrackSnapshot {
        let (words, invalidations, reads, writes) = self.line.snapshot(m, self.line_start);
        TrackSnapshot {
            line_start: self.line_start,
            invalidations,
            reads,
            writes,
            offered: self.offered.load(Ordering::Relaxed),
            words,
        }
    }

    /// Clears all recorded state (history, words, counters) while keeping
    /// attached units — the metadata refresh applied when a heap object is
    /// freed without false sharing (§2.3.2), so a later object recycling the
    /// address starts clean.
    pub fn reset(&self) {
        self.line.reset();
        self.offered.store(0, Ordering::Relaxed);
    }

    /// Approximate heap footprint of this track (for Figures 8–9): the
    /// struct plus one `WordState`-sized counter block per word.
    pub fn metadata_bytes(&self, geom: CacheGeometry) -> usize {
        std::mem::size_of::<Self>()
            + geom.words_per_line() * std::mem::size_of::<predator_sim::WordState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfree::Shared;
    use crate::predict::{HotPair, HotWord, UnitKey, UnitKind};
    use predator_sim::AccessKind::{Read, Write};
    use predator_sim::{Owner, VirtualGeometry, WordState};

    fn cfg_nosample() -> DetectorConfig {
        DetectorConfig::sensitive()
    }

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64)
    }

    /// "No field may move": these sizes are `stats.metadata_bytes` and so in
    /// every golden report. The update mode is a way of writing the cells,
    /// never a second layout.
    #[test]
    fn metadata_layout_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<RelaxedLine>(), 120);
        assert_eq!(size_of::<CacheTrack>(), 144);
        assert_eq!(size_of::<PredictionUnit>(), 152);
    }

    #[test]
    fn records_invalidations_like_history_table() {
        let t = CacheTrack::new(0x4000_0000, geom());
        let cfg = cfg_nosample();
        let mut inv = 0;
        for i in 0..10u16 {
            let out = t.handle(
                Shared,
                ThreadId(i % 2),
                0x4000_0000 + (i as u64 % 2) * 8,
                8,
                Write,
                &cfg,
            );
            inv += out.invalidated as u64;
            assert!(out.sampled);
        }
        assert_eq!(inv, 9);
        assert_eq!(t.invalidations(), 9);
        let snap = t.snapshot(Shared);
        assert_eq!(snap.writes, 10);
        assert_eq!(snap.reads, 0);
        assert_eq!(snap.offered, 10);
        assert_eq!(snap.words.words()[0].writes, 5);
        assert_eq!(snap.words.words()[1].writes, 5);
    }

    #[test]
    fn sampling_skips_after_burst() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.sampling = true;
        cfg.sample_interval = 100;
        cfg.sample_burst = 10;
        let t = CacheTrack::new(0, geom());
        let mut sampled = 0;
        for _ in 0..250 {
            sampled += t.handle(Shared, ThreadId(0), 0, 8, Write, &cfg).sampled as u64;
        }
        // Bursts at offsets [0,10) and [100,110) and [200,210) → 30 samples.
        assert_eq!(sampled, 30);
        assert_eq!(t.snapshot(Shared).writes, 30);
        assert_eq!(t.snapshot(Shared).offered, 250);
    }

    #[test]
    fn analysis_due_fires_on_prediction_threshold_multiples() {
        let cfg = cfg_nosample(); // prediction_threshold = 16
        let t = CacheTrack::new(0, geom());
        let mut due_at = Vec::new();
        for i in 1..=40u64 {
            if t.handle(Shared, ThreadId(0), 0, 8, Write, &cfg)
                .analysis_due
            {
                due_at.push(i);
            }
        }
        assert_eq!(due_at, vec![16, 32]);
    }

    #[test]
    fn analysis_not_due_when_prediction_disabled() {
        let mut cfg = cfg_nosample();
        cfg.prediction = false;
        let t = CacheTrack::new(0, geom());
        for _ in 0..64 {
            assert!(
                !t.handle(Shared, ThreadId(0), 0, 8, Write, &cfg)
                    .analysis_due
            );
        }
    }

    #[test]
    fn reads_never_trigger_analysis() {
        let cfg = cfg_nosample();
        let t = CacheTrack::new(0, geom());
        for _ in 0..64 {
            assert!(!t.handle(Shared, ThreadId(0), 0, 8, Read, &cfg).analysis_due);
        }
        assert_eq!(t.snapshot(Shared).reads, 64);
    }

    fn dummy_unit(range_start: u64) -> Arc<PredictionUnit> {
        let g = geom();
        let vg = VirtualGeometry::Doubled(g);
        let key = UnitKey {
            kind: UnitKind::Doubled,
            vline: vg.index(range_start),
        };
        let pair = HotPair {
            x: HotWord {
                addr: range_start,
                state: WordState {
                    reads: 0,
                    writes: 1,
                    owner: Owner::Exclusive(ThreadId(0)),
                },
            },
            y: HotWord {
                addr: range_start + 64,
                state: WordState {
                    reads: 0,
                    writes: 1,
                    owner: Owner::Exclusive(ThreadId(1)),
                },
            },
            estimate: 1,
        };
        Arc::new(PredictionUnit::new(key, vg, pair))
    }

    fn attached(t: &CacheTrack) -> usize {
        let mut n = 0;
        t.units.for_each_containing(0, |_| n += 1);
        n
    }

    #[test]
    fn attached_units_receive_in_range_accesses() {
        let cfg = cfg_nosample();
        let t = CacheTrack::new(0, geom());
        let u = dummy_unit(0); // covers [0,128)
        t.attach_unit(u.clone());
        assert_eq!(attached(&t), 1);
        // Ping-pong inside the virtual line.
        for i in 0..10u16 {
            t.handle(Shared, ThreadId(i % 2), (i as u64 % 2) * 56, 8, Write, &cfg);
        }
        assert_eq!(u.invalidations(), 9);
    }

    #[test]
    fn attach_unit_dedups_by_key() {
        let t = CacheTrack::new(0, geom());
        let u = dummy_unit(0);
        t.attach_unit(u.clone());
        t.attach_unit(dummy_unit(0));
        assert_eq!(attached(&t), 1);
    }

    /// Four threads attach overlapping keys while a fifth walks: each key
    /// lands once, no walk sees a key twice, and dropping the track frees
    /// every array it retired (each held its own clone of every unit).
    #[test]
    fn concurrent_attach_lands_each_key_once_and_frees_retired_arrays() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        // One unit per key, all over [0, 128); only the key tells them apart.
        let units: Vec<_> = (0..12u64)
            .map(|delta| {
                let u = dummy_unit(0);
                let key = UnitKey {
                    kind: UnitKind::Remap { delta },
                    vline: 0,
                };
                Arc::new(PredictionUnit::new(key, u.geometry, u.origin))
            })
            .collect();
        let landed: Vec<_> = units.iter().map(|_| AtomicUsize::new(0)).collect();
        let t = CacheTrack::new(0, geom());
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            let walker = s.spawn(|| {
                start.wait();
                let mut walks = 0u64;
                while !done.load(Ordering::Acquire) || walks == 0 {
                    let mut seen = HashSet::new();
                    t.units.for_each_containing(0, |u| {
                        assert!(seen.insert(u.key), "{:?} seen twice", u.key);
                    });
                    walks += 1;
                }
            });
            let attachers: Vec<_> = (0..4usize)
                .map(|id| {
                    let (t, units, landed, start) = (&t, &units, &landed, &start);
                    s.spawn(move || {
                        start.wait();
                        // Thread `id` attaches keys 3·id .. 3·id + 6, wrapping.
                        for k in (0..6).map(|i| (3 * id + i) % units.len()) {
                            if t.units.push_if_absent(units[k].clone()) {
                                landed[k].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            attachers.into_iter().for_each(|h| h.join().unwrap());
            done.store(true, Ordering::Release);
            walker.join().unwrap();
        });
        for (k, n) in landed.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "key {k}");
        }
        assert_eq!(attached(&t), units.len());
        drop(t);
        for u in &units {
            assert_eq!(Arc::strong_count(u), 1, "{:?}", u.key);
        }
    }

    #[test]
    fn out_of_range_accesses_do_not_feed_unit() {
        let cfg = cfg_nosample();
        // Track for line 2 ([128,192)) with a unit covering [0,128).
        let t = CacheTrack::new(128, geom());
        let u = dummy_unit(0);
        t.attach_unit(u.clone());
        for i in 0..10u16 {
            t.handle(
                Shared,
                ThreadId(i % 2),
                128 + (i as u64 % 2) * 8,
                8,
                Write,
                &cfg,
            );
        }
        assert_eq!(u.invalidations(), 0, "accesses outside unit range ignored");
    }

    #[test]
    fn reset_clears_counters_but_keeps_units() {
        let cfg = cfg_nosample();
        let t = CacheTrack::new(0, geom());
        t.attach_unit(dummy_unit(0));
        for i in 0..10u16 {
            t.handle(Shared, ThreadId(i % 2), 0, 8, Write, &cfg);
        }
        assert!(t.invalidations() > 0);
        t.reset();
        let snap = t.snapshot(Shared);
        assert_eq!(snap.invalidations, 0);
        assert_eq!(snap.reads + snap.writes, 0);
        assert_eq!(snap.offered, 0);
        assert_eq!(snap.words.total_accesses(), 0);
        assert_eq!(attached(&t), 1, "units survive reset");
    }

    #[test]
    fn straddling_access_attributed_to_both_words() {
        let cfg = cfg_nosample();
        let t = CacheTrack::new(0, geom());
        // 8-byte write at offset 4 touches words 0 and 1.
        t.handle(Shared, ThreadId(0), 4, 8, Write, &cfg);
        let snap = t.snapshot(Shared);
        assert_eq!(snap.words.words()[0].writes, 1);
        assert_eq!(snap.words.words()[1].writes, 1);
        assert_eq!(snap.writes, 1, "line totals count the access once");
    }

    #[test]
    fn concurrent_handling_is_consistent() {
        let cfg = cfg_nosample();
        let t = std::sync::Arc::new(CacheTrack::new(0, geom()));
        std::thread::scope(|s| {
            for id in 0..4u16 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        t.handle(Shared, ThreadId(id), (id as u64) * 8, 8, Write, &cfg);
                    }
                });
            }
        });
        let snap = t.snapshot(Shared);
        assert_eq!(snap.writes, 40_000, "no update lost under contention");
        assert_eq!(snap.offered, 40_000);
        assert_eq!(snap.words.exclusive_threads().len(), 4);
        // Real-thread interleaving is scheduler-dependent (threads may run
        // their whole loop in one timeslice), so only the lower bound is
        // deterministic: at least one invalidation per thread hand-off.
        assert!(snap.invalidations >= 3, "got {}", snap.invalidations);
        assert!(snap.invalidations <= 39_999);
    }
}
