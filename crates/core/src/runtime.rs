//! The detector runtime: Figure 1's `HandleAccess` plus the §3.2 prediction
//! workflow.
//!
//! Hot-path structure (identical to the paper's pseudo-code):
//!
//! 1. Map the address to its cache line via shadow address arithmetic.
//! 2. Below the *TrackingThreshold*: writes bump the line's atomic
//!    `CacheWrites` counter; reads cost nothing.
//! 3. At the threshold, the crossing thread publishes a [`CacheTrack`] with
//!    a CAS — and, when prediction is on, forces the two adjacent lines into
//!    tracked mode too (§3.2 step 2 tracks "every word in both cache line L
//!    and its adjacent cache lines").
//! 4. Above the threshold, accesses flow into the track (sampled), feeding
//!    the history table, word counters, and any overlapping virtual-line
//!    prediction units.
//! 5. Every *PredictionThreshold* tracked writes, the hot-pair analysis of
//!    §3.3 runs over the line and its neighbors, spawning verification units
//!    (§3.4) for qualifying pairs.
//!
//! Who may do all that is the detector's *owner* ([`Predator::claim`],
//! [`Predator::into_shared`]): each entry point that updates detector state
//! resolves it once and threads the resulting [`Mode`] down to every counter
//! and history update — plain loads and stores for the owning thread, atomic
//! read-modify-writes only for a detector that really is shared.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use serde::{Deserialize, Serialize};

use predator_shadow::{LineCounters, ShadowLayout, SimSpace, TrackSlots};
use predator_sim::{AccessKind, AccessSink, ThreadId};

use crate::config::DetectorConfig;
use crate::lockfree::{Exclusive, Mode, Shared};
use crate::owner::Owner;
use crate::predict::{candidate_units, find_hot_pairs, PredictionUnit, UnitRegistry, UnitSnapshot};
use crate::track::{CacheTrack, TrackSnapshot};

/// A registered global variable (reported by name, address and size —
/// §2.3's "for global variables involved in false sharing, PREDATOR reports
/// their name, address and size").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalInfo {
    /// Source-level variable name.
    pub name: String,
    /// First simulated address.
    pub start: u64,
    /// Size in bytes.
    pub size: u64,
}

/// The PREDATOR detector runtime.
///
/// All methods take `&self`, but a detector has a driver: the thread that
/// built it, until [`claim`](Self::claim) re-homes it or
/// [`into_shared`](Self::into_shared) opens it to every thread (behind an
/// `Arc` or a scoped borrow). The calls that update detector state —
/// [`handle_access`](Self::handle_access), the snapshots (they drain pending
/// counter batches) and [`object_freed`](Self::object_freed) — panic on any
/// other thread; configuration and read-only accessors work from anywhere.
pub struct Predator {
    owner: Owner,
    cfg: DetectorConfig,
    layout: ShadowLayout,
    writes: LineCounters,
    tracks: TrackSlots<CacheTrack>,
    units: Mutex<UnitRegistry>,
    globals: Mutex<BTreeMap<u64, GlobalInfo>>,
    /// Address ranges excluded from instrumentation — the runtime-side
    /// counterpart of the §2.4.2 blacklist ("the user could provide a
    /// blacklist so that given modules, functions or variables are not
    /// instrumented"). Sorted, non-overlapping `(start, end)` pairs, behind a
    /// lock that [`is_ignored`](Self::is_ignored) takes only when
    /// `ignored_len` is non-zero.
    ignored: RwLock<Vec<(u64, u64)>>,
    /// The gate in front of `ignored`: its length, stored (`Release`) by
    /// `ignore_range` before it returns, loaded (`Acquire`) by every access.
    /// Zero — no blacklist, the usual case — means the access takes no lock.
    ignored_len: AtomicUsize,
    events: AtomicU64,
    /// Optional event tap, consulted *before* every filter (including the
    /// master `enabled` switch): `predator record` installs a trace writer
    /// here and runs the workload with detection off, capturing the raw
    /// pre-filter stream so offline analysis can apply any configuration.
    /// One relaxed-ordering load when unset — negligible on the hot path.
    tap: OnceLock<Arc<dyn AccessSink + Send + Sync>>,
    /// Dynamic sampling-rate override ([`NO_OVERRIDE`] when inactive): the
    /// effective `sample_burst` the serve watchdog has dialed in. The hot
    /// path pays one relaxed load and hands the tracked-line handler the
    /// effective burst next to the unchanged config.
    dyn_burst: AtomicU64,
    /// Dynamic analysis stride: run only every k-th due hot-pair analysis
    /// (1 = every one, the configured behaviour). The second watchdog knob —
    /// `analyze()` walks every neighbor track under the unit-registry lock,
    /// so its frequency matters as much as the sampling rate.
    analysis_stride: AtomicU64,
    /// Count of analysis-due edges, for the stride modulus.
    analysis_ticks: AtomicU64,
}

/// Sentinel for "no dynamic sampling override installed".
const NO_OVERRIDE: u64 = u64::MAX;

/// Resolves who drives `$rt` — once per entry point — and evaluates `$body`
/// with `$m` bound to the matching [`Mode`]: one source, two instantiations.
macro_rules! driven {
    ($rt:expr, |$m:ident| $body:expr) => {
        if $rt.owner.exclusive() {
            let $m = Exclusive;
            $body
        } else {
            let $m = Shared;
            $body
        }
    };
}

impl Predator {
    /// Creates a runtime covering the simulated range `[base, base+size)`,
    /// owned by the calling thread.
    pub fn new(cfg: DetectorConfig, base: u64, size: u64) -> Self {
        cfg.validate().expect("invalid detector configuration");
        let layout = ShadowLayout::new(base, size, cfg.geometry);
        Predator {
            owner: Owner::me(),
            cfg,
            writes: LineCounters::new(layout.lines()),
            tracks: TrackSlots::new(layout.lines()),
            units: Mutex::new(UnitRegistry::new()),
            globals: Mutex::new(BTreeMap::new()),
            ignored: RwLock::new(Vec::new()),
            ignored_len: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            tap: OnceLock::new(),
            dyn_burst: AtomicU64::new(NO_OVERRIDE),
            analysis_stride: AtomicU64::new(1),
            analysis_ticks: AtomicU64::new(0),
            layout,
        }
    }

    /// Creates a runtime shadowing an existing [`SimSpace`] — a live run, so
    /// its write counters (4 B per line of the space) are backed up front.
    pub fn for_space(cfg: DetectorConfig, space: &SimSpace) -> Self {
        let rt = Self::new(cfg, space.base(), space.size());
        rt.writes.prefault();
        rt
    }

    /// Re-homes the detector to the calling thread — after a move to the
    /// thread that will drive it, or back again. `&mut` proves nobody else is
    /// inside it. A shared detector stays shared.
    pub fn claim(&mut self) {
        self.owner.claim();
    }

    /// Opens the detector to every thread, for good: each update then pays
    /// an atomic read-modify-write. For the callers that really share one —
    /// `serve`'s workload and scrape threads, tests that hammer one detector
    /// from several threads.
    pub fn into_shared(mut self) -> Self {
        self.owner.share();
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The shadow layout (for tests and reporting).
    pub fn layout(&self) -> &ShadowLayout {
        &self.layout
    }

    /// Registers a global variable for name attribution in reports.
    pub fn register_global(&self, name: impl Into<String>, start: u64, size: u64) {
        self.globals.lock().unwrap().insert(
            start,
            GlobalInfo {
                name: name.into(),
                start,
                size,
            },
        );
    }

    /// Total access events delivered to the runtime.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Excludes `[start, start + len)` from detection — the runtime
    /// counterpart of the §2.4.2 variable blacklist. Use for data whose
    /// sharing is intentional (e.g. a deliberately shared queue head) to
    /// silence it without raising global thresholds.
    pub fn ignore_range(&self, start: u64, len: u64) {
        let mut ranges = self.ignored.write().unwrap();
        ranges.push((start, start + len));
        ranges.sort_unstable();
        self.ignored_len.store(ranges.len(), Ordering::Release);
    }

    /// True if `addr` falls inside an ignored range.
    #[inline]
    pub fn is_ignored(&self, addr: u64) -> bool {
        if self.ignored_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        let ranges = self.ignored.read().unwrap();
        let i = ranges.partition_point(|&(s, _)| s <= addr);
        i > 0 && addr < ranges[i - 1].1
    }

    /// Dials the effective per-line sampling rate at runtime — the serve
    /// watchdog's load-shedding knob. `rate` is the absolute fraction of
    /// each sampling window recorded, in `(0, 1]`; passing the configured
    /// [`DetectorConfig::sampling_rate`] (or anything within rounding of it)
    /// clears the override so the hot path returns to the zero-cost branch.
    ///
    /// The override only narrows or widens the `sample_burst` of the
    /// *existing* window; window length, thresholds, and every other
    /// configuration field stay fixed, so findings remain comparable across
    /// rate changes (fewer samples, same semantics).
    pub fn set_sampling_rate(&self, rate: f64) {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sampling rate must be in (0, 1], got {rate}"
        );
        let interval = self.cfg.sample_interval;
        let burst = if rate >= 1.0 {
            interval
        } else {
            (((interval as f64) * rate).round() as u64).clamp(1, interval)
        };
        let configured = if self.cfg.sampling {
            self.cfg.sample_burst
        } else {
            interval
        };
        let store = if burst == configured {
            NO_OVERRIDE
        } else {
            burst
        };
        self.dyn_burst.store(store, Ordering::Relaxed);
        predator_obs::static_gauge!("predator_sampling_rate_ppm")
            .set((self.sampling_rate() * 1e6).round() as i64);
    }

    /// The effective sampling rate: the dynamic override if one is active,
    /// the configured rate otherwise.
    pub fn sampling_rate(&self) -> f64 {
        match self.dyn_burst.load(Ordering::Relaxed) {
            NO_OVERRIDE => self.cfg.sampling_rate(),
            burst => (burst as f64 / self.cfg.sample_interval as f64).min(1.0),
        }
    }

    /// Sets the analysis stride: run only every `stride`-th due hot-pair
    /// analysis (1 restores the configured every-time behaviour).
    pub fn set_analysis_stride(&self, stride: u64) {
        self.analysis_stride.store(stride.max(1), Ordering::Relaxed);
        predator_obs::static_gauge!("predator_analysis_stride")
            .set(stride.max(1).min(i64::MAX as u64) as i64);
    }

    /// The current analysis stride.
    pub fn analysis_stride(&self) -> u64 {
        self.analysis_stride.load(Ordering::Relaxed)
    }

    /// Installs an event tap that sees every `handle_access` call before any
    /// filtering (read suppression, blacklist, the `enabled` switch). At most
    /// one tap per runtime; returns `Err` if one is already installed.
    pub fn install_tap(&self, tap: Arc<dyn AccessSink + Send + Sync>) -> Result<(), String> {
        self.tap
            .set(tap)
            .map_err(|_| "a tap is already installed".to_string())
    }

    /// The instrumentation entry point (Figure 1's `HandleAccess`).
    #[inline]
    pub fn handle_access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        if let Some(tap) = self.tap.get() {
            tap.access(tid, addr, size, kind);
        }
        if !self.cfg.enabled {
            return;
        }
        if !self.cfg.instrument_reads && kind == AccessKind::Read {
            return;
        }
        if self.is_ignored(addr) {
            return;
        }
        driven!(self, |m| self.access(m, tid, addr, size, kind))
    }

    /// An access that passed every filter, under the resolved mode.
    #[inline]
    fn access<M: Mode>(&self, m: M, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        m.add(&self.events, 1);
        predator_obs::hot_counter_inc!("runtime_accesses_total");
        let geom = self.cfg.geometry;
        for line in geom.lines_touched(addr, size) {
            if let Some(idx) = self.layout.index_of(geom.line_start(line)) {
                self.access_line(m, tid, idx, addr, size, kind);
            }
        }
    }

    #[inline]
    fn access_line<M: Mode>(
        &self,
        m: M,
        tid: ThreadId,
        idx: usize,
        addr: u64,
        size: u8,
        kind: AccessKind,
    ) {
        let count = self.writes.get(idx);
        if count < self.cfg.tracking_threshold {
            if kind.is_write() {
                let c = self.writes.increment(m, idx);
                if c == self.cfg.tracking_threshold {
                    // Exactly one thread observes the crossing value.
                    self.begin_tracking(idx);
                }
            }
        } else if let Some(track) = self.tracks.get(idx) {
            let burst = match self.dyn_burst.load(Ordering::Relaxed) {
                NO_OVERRIDE => self.cfg.sampling.then_some(self.cfg.sample_burst),
                burst => (burst < self.cfg.sample_interval).then_some(burst),
            };
            if track.admit(m, &self.cfg, burst)
                && track
                    .record_sampled(m, tid, addr, size, kind, &self.cfg)
                    .analysis_due
            {
                let stride = self.analysis_stride.load(Ordering::Relaxed).max(1);
                if stride == 1 || m.add(&self.analysis_ticks, 1).is_multiple_of(stride) {
                    self.analyze(m, idx);
                } else {
                    predator_obs::static_counter!("runtime_analyses_deferred_total").inc();
                }
            }
        }
        // A null track with count >= threshold is the benign publish race of
        // Figure 1 (`if (track)`): the access is simply not recorded.
    }

    /// How far (in lines) the hot-pair search looks around a hot line: 1
    /// for the paper's scenarios (adjacent lines suffice for doubling and
    /// shifting), wider when the scaled-line extension is enabled — a
    /// `2^k`-line virtual line can pair words up to `2^k − 1` lines apart.
    fn analysis_radius(&self) -> usize {
        (1usize << self.cfg.max_scale_log2) - 1
    }

    /// Publishes detailed tracking for `idx`; with prediction on, also for
    /// its neighborhood (so word data exists for the §3.3 search).
    fn begin_tracking(&self, idx: usize) {
        self.ensure_tracked(idx);
        if self.cfg.prediction {
            let r = self.analysis_radius();
            for n in idx.saturating_sub(r)..=(idx + r).min(self.layout.lines() - 1) {
                self.ensure_tracked(n);
            }
        }
    }

    /// Forces line `idx` into tracked mode and returns its track.
    fn ensure_tracked(&self, idx: usize) -> &CacheTrack {
        self.writes.bump_to(idx, self.cfg.tracking_threshold);
        let newly = self.tracks.get(idx).is_none();
        let track = self.tracks.get_or_publish(idx, || {
            CacheTrack::new(self.layout.line_start(idx), self.cfg.geometry)
        });
        if newly {
            predator_obs::static_counter!("runtime_lines_promoted_total").inc();
            // Tracking-state transition on the timeline: the line entered
            // CacheTracking (its history table now exists).
            let tl = predator_obs::timeline();
            if tl.enabled() {
                tl.instant(
                    "line_promoted",
                    "detector",
                    predator_obs::host_lane(),
                    vec![("line_start", predator_obs::ArgVal::U64(track.line_start()))],
                );
            }
        }
        track
    }

    /// §3.3: hot-access-pair search over line `idx` and its neighbors;
    /// qualifying pairs spawn §3.4 verification units.
    fn analyze<M: Mode>(&self, m: M, idx: usize) {
        let _timer = predator_obs::static_histogram!("span_predict_ns").start_timer();
        predator_obs::static_counter!("predict_analyses_total").inc();
        let Some(track) = self.tracks.get(idx) else {
            return;
        };
        let snap_l = track.snapshot(m);
        let avg = snap_l.words.average_accesses();
        let geom = self.cfg.geometry;
        let r = self.analysis_radius();
        let lo = idx.saturating_sub(r);
        let hi = (idx + r).min(self.layout.lines() - 1);
        // One registry acquisition for the whole analysis: the nested
        // pair/candidate loops used to re-lock per candidate unit, taking
        // and releasing the global registry mutex O(pairs × scenarios)
        // times on every promotion edge.
        let mut units = self.units.lock().unwrap();
        for n_idx in (lo..=hi).filter(|&n| n != idx) {
            let Some(nt) = self.tracks.get(n_idx) else {
                continue;
            };
            let snap_n = nt.snapshot(m);
            for pair in find_hot_pairs(&snap_l.words, &snap_n.words, avg) {
                for (key, vg) in candidate_units(&pair, geom, self.cfg.max_scale_log2) {
                    let (unit, created) =
                        units.get_or_create(key, || PredictionUnit::new(key, vg, pair));
                    if created {
                        predator_obs::static_counter!("predict_units_spawned_total").inc();
                        let tl = predator_obs::timeline();
                        if tl.enabled() {
                            use predator_obs::ArgVal::{Str, U64};
                            let args = vec![
                                ("unit", Str(format!("{:?}", key.kind))),
                                ("start", U64(unit.range.start)),
                                ("size", U64(unit.range.size)),
                            ];
                            tl.instant("unit_spawned", "detector", predator_obs::host_lane(), args);
                        }
                        self.attach_unit(&unit);
                    }
                }
            }
        }
    }

    /// Attaches `unit` to every physical line its virtual range overlaps,
    /// forcing those lines into tracked mode so verification sees their
    /// accesses.
    fn attach_unit(&self, unit: &Arc<PredictionUnit>) {
        let geom = self.cfg.geometry;
        let first = geom.line_index(unit.range.start);
        let last = geom.line_index(unit.range.end());
        for line in first..=last {
            if let Some(idx) = self.layout.index_of(geom.line_start(line)) {
                self.ensure_tracked(idx).attach_unit(unit.clone());
            }
        }
    }

    /// Free-time hook (§2.3.2's reuse rule). Returns `true` when the object
    /// was involved in (possibly predicted) false sharing — the caller must
    /// then quarantine it in the allocator. Otherwise the metadata of every
    /// line fully inside the object is refreshed so recycling starts clean.
    ///
    /// Lines only *partially* covered are left untouched: they may carry
    /// another live object's counts. That is safe because the per-thread
    /// allocator recycles a block only to its owning thread, and same-thread
    /// access mixing cannot fabricate cross-thread sharing.
    pub fn object_freed(&self, start: u64, usable: u64) -> bool {
        // Nothing below is a read-modify-write, but a reset's stores must not
        // land between an owner's load and store: the same driver rule.
        let _ = self.owner.exclusive();
        let geom = self.cfg.geometry;
        let end = start + usable;
        let mut involved = false;
        for line in geom.line_index(start)..=geom.line_index(end - 1) {
            let Some(idx) = self.layout.index_of(geom.line_start(line)) else {
                continue;
            };
            if let Some(track) = self.tracks.get(idx) {
                if track.invalidations() >= self.cfg.report_threshold {
                    involved = true;
                }
            }
        }
        for unit in self.units.lock().unwrap().all() {
            if unit.range.start < end
                && unit.range.end() >= start
                && unit.invalidations() >= self.cfg.report_threshold
            {
                involved = true;
            }
        }
        if !involved {
            for line in geom.line_index(start)..=geom.line_index(end - 1) {
                let line_start = geom.line_start(line);
                let fully_inside = line_start >= start && line_start + geom.line_size() <= end;
                if !fully_inside {
                    continue;
                }
                if let Some(idx) = self.layout.index_of(line_start) {
                    self.writes.reset(idx);
                    if let Some(track) = self.tracks.get(idx) {
                        track.reset();
                    }
                }
            }
        }
        involved
    }

    /// Snapshots of every tracked line, with dense indices.
    pub fn tracked_snapshots(&self) -> Vec<(usize, TrackSnapshot)> {
        let tracks = self.tracks.iter_published();
        driven!(self, |m| tracks.map(|(i, t)| (i, t.snapshot(m))).collect())
    }

    /// Snapshot of a specific line's tracking state, if tracked.
    pub fn line_snapshot(&self, idx: usize) -> Option<TrackSnapshot> {
        let track = self.tracks.get(idx);
        driven!(self, |m| track.map(|t| t.snapshot(m)))
    }

    /// Write counter of dense line `idx` (saturates near the threshold).
    pub fn line_writes(&self, idx: usize) -> u32 {
        self.writes.get(idx)
    }

    /// Snapshots of every prediction unit.
    pub fn unit_snapshots(&self) -> Vec<UnitSnapshot> {
        self.units.lock().unwrap().snapshots()
    }

    /// Total invalidations observed on *physical* lines (the coherence
    /// traffic a real machine would suffer; virtual-line verification counts
    /// are excluded). Drives the modeled-improvement estimates in the
    /// benchmark harness.
    pub fn total_invalidations(&self) -> u64 {
        self.tracks
            .iter_published()
            .map(|(_, t)| t.invalidations())
            .sum()
    }

    /// Number of lines in tracked mode.
    pub fn tracked_lines(&self) -> usize {
        self.tracks.published()
    }

    /// Registered globals, in address order.
    pub fn globals_snapshot(&self) -> Vec<GlobalInfo> {
        self.globals.lock().unwrap().values().cloned().collect()
    }

    /// Detector metadata footprint in bytes (Figures 8–9).
    pub fn metadata_bytes(&self) -> usize {
        self.metadata_fixed_bytes() + self.metadata_dynamic_bytes()
    }

    /// The *fixed* shadow arrays (`CacheWrites` + `CacheTracking` pointer
    /// slots): proportional to the configured heap size, independent of the
    /// application — 12 bytes per shadowed 64-byte line. Amortizes away for
    /// real heaps; dominates for miniature ones.
    pub fn metadata_fixed_bytes(&self) -> usize {
        self.writes.metadata_bytes() + self.tracks.metadata_bytes()
    }

    /// The *dynamic* metadata: published per-line tracks (history + word
    /// counters) plus prediction units — proportional to how much of the
    /// heap actually saw heavy write traffic.
    pub fn metadata_dynamic_bytes(&self) -> usize {
        let geom = self.cfg.geometry;
        let per_track: usize = self
            .tracks
            .iter_published()
            .map(|(_, t)| t.metadata_bytes(geom))
            .sum();
        per_track + self.units.lock().unwrap().len() * std::mem::size_of::<PredictionUnit>()
    }
}

impl AccessSink for Predator {
    #[inline]
    fn access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        self.handle_access(tid, addr, size, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_sim::AccessKind::{Read, Write};

    const BASE: u64 = 0x4000_0000;

    fn rt() -> Predator {
        Predator::new(DetectorConfig::sensitive(), BASE, 1 << 20)
    }

    fn hammer_pingpong(rt: &Predator, line_start: u64, rounds: usize) {
        // Two threads write different words of the same line, alternating.
        for i in 0..rounds {
            let t = (i % 2) as u16;
            rt.handle_access(ThreadId(t), line_start + (t as u64) * 8, 8, Write);
        }
    }

    #[test]
    fn below_threshold_nothing_is_tracked() {
        let rt = rt();
        for _ in 0..3 {
            rt.handle_access(ThreadId(0), BASE, 8, Write);
        }
        assert_eq!(rt.tracked_lines(), 0);
        assert_eq!(rt.line_writes(0), 3);
        assert_eq!(rt.events(), 3);
    }

    #[test]
    fn reads_do_not_advance_the_threshold() {
        let rt = rt();
        for _ in 0..100 {
            rt.handle_access(ThreadId(0), BASE, 8, Read);
        }
        assert_eq!(rt.tracked_lines(), 0);
        assert_eq!(rt.line_writes(0), 0);
    }

    #[test]
    fn crossing_threshold_publishes_track_and_neighbors() {
        let rt = rt(); // threshold 4, prediction on
        for _ in 0..4 {
            rt.handle_access(ThreadId(0), BASE + 64, 8, Write);
        }
        // Line 1 plus neighbors 0 and 2.
        assert_eq!(rt.tracked_lines(), 3);
        assert!(rt.line_snapshot(0).is_some());
        assert!(rt.line_snapshot(1).is_some());
        assert!(rt.line_snapshot(2).is_some());
        assert!(rt.line_snapshot(3).is_none());
    }

    #[test]
    fn no_prediction_tracks_only_the_crossing_line() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.prediction = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        for _ in 0..4 {
            rt.handle_access(ThreadId(0), BASE + 64, 8, Write);
        }
        assert_eq!(rt.tracked_lines(), 1);
    }

    #[test]
    fn physical_false_sharing_counts_invalidations() {
        let rt = rt();
        hammer_pingpong(&rt, BASE, 200);
        let snap = rt.line_snapshot(0).unwrap();
        // First 4 writes consumed by the threshold counter; tracked
        // ping-pong writes invalidate nearly every time.
        assert!(snap.invalidations > 150, "got {}", snap.invalidations);
        assert_eq!(snap.words.exclusive_threads().len(), 2);
    }

    #[test]
    fn single_thread_traffic_never_invalidates() {
        let rt = rt();
        for i in 0..1000u64 {
            rt.handle_access(ThreadId(0), BASE + (i % 8) * 8, 8, Write);
        }
        let snap = rt.line_snapshot(0).unwrap();
        assert_eq!(snap.invalidations, 0);
    }

    #[test]
    fn adjacent_line_pattern_spawns_prediction_units() {
        let rt = rt();
        // linear_regression shape: t0 hammers last word of line 0, t1
        // hammers first word of line 1. No physical sharing.
        for _ in 0..600 {
            rt.handle_access(ThreadId(0), BASE + 56, 8, Write);
            rt.handle_access(ThreadId(1), BASE + 64, 8, Write);
        }
        let units = rt.unit_snapshots();
        assert!(!units.is_empty(), "prediction units should exist");
        // Both scenarios apply here (even/odd pair, distance 8 < 64).
        let kinds: Vec<_> = units.iter().map(|u| u.key.kind).collect();
        assert!(kinds.contains(&crate::predict::UnitKind::Doubled));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, crate::predict::UnitKind::Remap { .. })));
        // Verification: interleaved writes inside the virtual line → many
        // verified invalidations.
        let max_inv = units.iter().map(|u| u.invalidations).max().unwrap();
        assert!(max_inv > 100, "verified invalidations: {max_inv}");
        // Physical lines show no (or almost no) invalidations.
        let phys =
            rt.line_snapshot(0).unwrap().invalidations + rt.line_snapshot(1).unwrap().invalidations;
        assert_eq!(phys, 0, "no physical false sharing in this pattern");
    }

    #[test]
    fn scaled_prediction_reaches_across_line_pairs() {
        // Threads hot on lines 1 and 2 (never paired by doubling): only the
        // 4x extension catches them.
        let run = |max_scale_log2: u32| {
            let mut cfg = DetectorConfig::sensitive();
            cfg.max_scale_log2 = max_scale_log2;
            let rt = Predator::new(cfg, BASE, 1 << 20);
            for _ in 0..600 {
                rt.handle_access(ThreadId(0), BASE + 64, 8, Write);
                rt.handle_access(ThreadId(1), BASE + 128 + 56, 8, Write);
            }
            rt.unit_snapshots()
        };
        assert!(run(1).is_empty(), "paper setting: no candidate");
        let units = run(2);
        assert_eq!(units.len(), 1);
        assert!(matches!(
            units[0].key.kind,
            crate::predict::UnitKind::Scaled { factor_log2: 2 }
        ));
        assert!(
            units[0].invalidations > 100,
            "verified: {}",
            units[0].invalidations
        );
    }

    #[test]
    fn no_units_when_prediction_off() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.prediction = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        for _ in 0..600 {
            rt.handle_access(ThreadId(0), BASE + 56, 8, Write);
            rt.handle_access(ThreadId(1), BASE + 64, 8, Write);
        }
        assert!(rt.unit_snapshots().is_empty());
    }

    #[test]
    fn same_thread_adjacent_traffic_spawns_nothing() {
        let rt = rt();
        for _ in 0..600 {
            rt.handle_access(ThreadId(0), BASE + 56, 8, Write);
            rt.handle_access(ThreadId(0), BASE + 64, 8, Write);
        }
        assert!(rt.unit_snapshots().is_empty());
    }

    #[test]
    fn write_only_mode_ignores_reads_entirely() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.instrument_reads = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        for _ in 0..100 {
            rt.handle_access(ThreadId(0), BASE, 8, Read);
        }
        assert_eq!(rt.events(), 0);
        hammer_pingpong(&rt, BASE, 100);
        assert_eq!(rt.events(), 100);
        assert!(rt.line_snapshot(0).unwrap().invalidations > 50);
    }

    #[test]
    fn ignored_ranges_suppress_detection() {
        let rt = rt();
        // Intentional sharing on line 5 — blacklisted.
        rt.ignore_range(BASE + 5 * 64, 64);
        assert!(rt.is_ignored(BASE + 5 * 64));
        assert!(rt.is_ignored(BASE + 5 * 64 + 63));
        assert!(!rt.is_ignored(BASE + 6 * 64));
        assert!(!rt.is_ignored(BASE));
        for i in 0..200u64 {
            let t = (i % 2) as u16;
            rt.handle_access(ThreadId(t), BASE + 5 * 64 + t as u64 * 8, 8, Write);
        }
        assert_eq!(rt.tracked_lines(), 0, "blacklisted traffic is invisible");
        assert_eq!(rt.events(), 0);
        // Unlisted lines still detect.
        hammer_pingpong(&rt, BASE, 100);
        assert!(rt.line_snapshot(0).unwrap().invalidations > 50);
    }

    #[test]
    fn multiple_ignore_ranges_resolve_correctly() {
        let rt = rt();
        rt.ignore_range(BASE + 128, 64);
        rt.ignore_range(BASE + 512, 128);
        rt.ignore_range(BASE, 8);
        assert!(rt.is_ignored(BASE + 4));
        assert!(!rt.is_ignored(BASE + 8));
        assert!(rt.is_ignored(BASE + 128));
        assert!(!rt.is_ignored(BASE + 192));
        assert!(rt.is_ignored(BASE + 639));
        assert!(!rt.is_ignored(BASE + 640));
    }

    #[test]
    fn a_range_registered_mid_run_filters_the_very_next_access() {
        let rt = rt();
        hammer_pingpong(&rt, BASE, 100);
        assert_eq!(rt.events(), 100, "no blacklist yet: every access counts");
        rt.ignore_range(BASE, 64);
        rt.handle_access(ThreadId(0), BASE, 8, Write);
        assert_eq!(
            rt.events(),
            100,
            "the gate is open before ignore_range returns"
        );
        hammer_pingpong(&rt, BASE, 100);
        assert_eq!(rt.events(), 100);
        // Unregistered addresses still detect.
        hammer_pingpong(&rt, BASE + 64, 100);
        assert_eq!(rt.events(), 200);
        assert!(rt.line_snapshot(1).unwrap().invalidations > 50);
    }

    #[test]
    fn no_access_started_after_ignore_range_returns_slips_through() {
        // Three threads hammer one line while the main thread blacklists
        // it. `registered` is raised only after `ignore_range` returned, so
        // an access issued after a thread has seen it raised started after
        // the return and must be filtered: it may not move `events()`.
        let rt = rt().into_shared();
        let registered = std::sync::atomic::AtomicBool::new(false);
        let (issued, after) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3u16)
                .map(|t| {
                    let (rt, registered) = (&rt, &registered);
                    s.spawn(move || {
                        let (mut issued, mut after) = (0u64, 0u64);
                        while after < 10_000 {
                            let seen = registered.load(Ordering::Acquire);
                            rt.handle_access(ThreadId(t), BASE + t as u64 * 8, 8, Write);
                            issued += 1;
                            after += seen as u64;
                        }
                        (issued, after)
                    })
                })
                .collect();
            // Register mid-stream: the workers run until told, so they are
            // still hammering whenever this thread gets here.
            while rt.events() < 1000 {
                std::hint::spin_loop();
            }
            rt.ignore_range(BASE, 64);
            registered.store(true, Ordering::Release);
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold((0, 0), |(i, a), (wi, wa)| (i + wi, a + wa))
        });
        assert_eq!(after, 30_000);
        assert!(
            rt.events() + after <= issued,
            "{} counted + {after} issued after the registration > {issued} offered",
            rt.events()
        );
    }

    #[test]
    fn disabled_runtime_records_nothing() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.enabled = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        hammer_pingpong(&rt, BASE, 1000);
        assert_eq!(rt.events(), 0);
        assert_eq!(rt.tracked_lines(), 0);
        assert_eq!(rt.line_writes(0), 0);
    }

    #[test]
    fn out_of_range_accesses_are_ignored() {
        let rt = rt();
        rt.handle_access(ThreadId(0), 0x100, 8, Write); // below base
        rt.handle_access(ThreadId(0), BASE + (2 << 20), 8, Write); // above end
        assert_eq!(rt.tracked_lines(), 0);
        assert_eq!(rt.events(), 2, "events counted, lines not");
    }

    #[test]
    fn straddling_write_feeds_both_lines() {
        let rt = rt();
        for _ in 0..10 {
            rt.handle_access(ThreadId(0), BASE + 60, 8, Write);
        }
        assert!(rt.line_writes(0) >= 4);
        assert!(rt.line_writes(1) >= 4);
    }

    #[test]
    fn globals_are_snapshotted_in_address_order() {
        let rt = rt();
        rt.register_global("late", BASE + 4096, 64);
        rt.register_global("counter_array", BASE + 128, 64);
        let names: Vec<String> = rt.globals_snapshot().into_iter().map(|g| g.name).collect();
        assert_eq!(names, ["counter_array", "late"]);
    }

    #[test]
    fn object_freed_without_sharing_resets_lines() {
        let rt = rt();
        // Single-thread traffic on lines 4..6 (an object of 128 bytes).
        let start = BASE + 4 * 64;
        for i in 0..100u64 {
            rt.handle_access(ThreadId(0), start + (i % 16) * 8, 8, Write);
        }
        assert!(rt.line_snapshot(4).is_some());
        let involved = rt.object_freed(start, 128);
        assert!(!involved);
        let snap = rt.line_snapshot(4).unwrap();
        assert_eq!(
            snap.words.total_accesses(),
            0,
            "line reset after clean free"
        );
        assert_eq!(rt.line_writes(4), 0);
    }

    #[test]
    fn object_freed_with_false_sharing_reports_involvement() {
        let rt = rt();
        hammer_pingpong(&rt, BASE, 200);
        let involved = rt.object_freed(BASE, 64);
        assert!(involved);
        // Metadata NOT reset for involved objects.
        assert!(rt.line_snapshot(0).unwrap().invalidations > 0);
    }

    #[test]
    fn partially_covered_lines_survive_free() {
        let rt = rt();
        // Object covers only half of line 0.
        for i in 0..100u64 {
            rt.handle_access(ThreadId(0), BASE + (i % 4) * 8, 8, Write);
        }
        let before = rt.line_snapshot(0).unwrap().words.total_accesses();
        assert!(before > 0);
        rt.object_freed(BASE, 32);
        assert_eq!(
            rt.line_snapshot(0).unwrap().words.total_accesses(),
            before,
            "partial line must not be reset"
        );
    }

    #[test]
    fn metadata_accounting_grows_with_tracking() {
        let rt = rt();
        let base_bytes = rt.metadata_bytes();
        hammer_pingpong(&rt, BASE, 100);
        assert!(rt.metadata_bytes() > base_bytes);
    }

    #[test]
    fn tap_sees_events_even_when_disabled() {
        struct Counting(AtomicU64);
        impl AccessSink for Counting {
            fn access(&self, _: ThreadId, _: u64, _: u8, _: AccessKind) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut cfg = DetectorConfig::sensitive();
        cfg.enabled = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        let tap = Arc::new(Counting(AtomicU64::new(0)));
        rt.install_tap(tap.clone()).unwrap();
        assert!(rt.install_tap(tap.clone()).is_err(), "second tap rejected");
        hammer_pingpong(&rt, BASE, 100);
        rt.handle_access(ThreadId(0), BASE, 8, Read);
        assert_eq!(
            tap.0.load(Ordering::Relaxed),
            101,
            "tap sees the pre-filter stream"
        );
        assert_eq!(rt.events(), 0, "detector itself stays off");
    }

    #[test]
    fn sampling_override_narrows_the_recorded_fraction() {
        let mut cfg = DetectorConfig::sensitive();
        cfg.sample_interval = 10;
        cfg.prediction = false;
        let rt = Predator::new(cfg, BASE, 1 << 20);
        for _ in 0..4 {
            rt.handle_access(ThreadId(0), BASE, 8, Write);
        }
        assert_eq!(rt.sampling_rate(), 1.0, "sensitive config records all");
        rt.set_sampling_rate(0.1); // 1 recorded per 10-access window
        assert!((rt.sampling_rate() - 0.1).abs() < 1e-9);
        for _ in 0..100 {
            rt.handle_access(ThreadId(0), BASE, 8, Write);
        }
        let throttled = rt.line_snapshot(0).unwrap().words.total_accesses();
        assert!(
            (1..=20).contains(&throttled),
            "expected ~10 recorded accesses, got {throttled}"
        );
        // Restoring the configured rate clears the override entirely.
        rt.set_sampling_rate(1.0);
        assert_eq!(rt.sampling_rate(), 1.0);
        for _ in 0..100 {
            rt.handle_access(ThreadId(0), BASE, 8, Write);
        }
        let restored = rt.line_snapshot(0).unwrap().words.total_accesses();
        assert_eq!(restored, throttled + 100, "full recording after re-arm");
    }

    #[test]
    fn analysis_stride_defers_hot_pair_analysis() {
        let run = |stride: u64| {
            let rt = rt();
            rt.set_analysis_stride(stride);
            // Consume the first due analysis (tick 0 always runs) with
            // single-thread traffic that can never produce a hot pair...
            for _ in 0..20 {
                rt.handle_access(ThreadId(0), BASE, 8, Write);
            }
            // ...then drive the adjacent-line pattern that *would* spawn
            // prediction units on every later analysis.
            for _ in 0..600 {
                rt.handle_access(ThreadId(0), BASE + 56, 8, Write);
                rt.handle_access(ThreadId(1), BASE + 64, 8, Write);
            }
            rt.unit_snapshots().len()
        };
        assert_eq!(run(10_000), 0, "all later analyses deferred");
        assert!(run(1) > 0, "stride 1 analyzes as configured");
    }
}
