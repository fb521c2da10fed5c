//! A MESI cache-coherence simulator used as *ground truth*.
//!
//! PREDATOR does not simulate a coherence protocol; it counts invalidations
//! with the two-entry history table of [`crate::history`], justified by the
//! observation that "if a thread writes a cache line after other threads have
//! accessed the same cache line, this write most likely causes at least one
//! cache invalidation" (§2.1). This module implements the real protocol —
//! per-core private caches kept coherent with MESI, one thread pinned per
//! core (the paper's §2.1 assumption) — so tests can *prove* the
//! approximation tight:
//!
//! > For any single-line access sequence, the history table's invalidation
//! > count equals exactly the number of MESI write operations that
//! > invalidated at least one remote copy.
//!
//! (See `prop_history_table_matches_mesi_events` in the tests, and the
//! cross-crate integration tests.) The simulator models infinite-capacity
//! private caches: capacity misses are irrelevant to sharing traffic, and the
//! paper's model ignores them too.
//!
//! Storage is line-major: one map from line index to a cell holding every
//! core's view of that line, so an access is one look-up and a snoop walks
//! the cores that ever touched the line, never a map per core. In infinite
//! mode lines share no state (`prop_lines_are_independent`).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use predator_obs::recorder::{FlightRecorder, LineHasher, RecKind, WORD_UNKNOWN};

use crate::access::{AccessKind, ThreadId};
use crate::geometry::{CacheGeometry, SectorGeometry};

/// MESI state of a line present in a private cache. Absence means Invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Dirty, sole owner.
    Modified,
    /// Clean, sole owner.
    Exclusive,
    /// Clean, possibly multiple holders.
    Shared,
}

/// Aggregate coherence-traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MesiStats {
    /// Accesses served from the issuing core's own cache without a bus
    /// transaction (M/E hit for writes; any-state hit for reads).
    pub hits: u64,
    /// Accesses requiring the line to be fetched (line absent).
    pub misses: u64,
    /// Writes that invalidated at least one remote copy (events).
    pub invalidation_events: u64,
    /// Total remote copies invalidated (≥ `invalidation_events`).
    pub lines_invalidated: u64,
    /// M→S downgrades forced by remote reads (implying a writeback).
    pub downgrades: u64,
    /// Lines evicted for space (capacity-limited mode only).
    pub evictions: u64,
    /// Misses on lines this core never held (first touch).
    pub cold_misses: u64,
    /// Misses on lines lost to remote writes — the sharing signal.
    pub coherence_misses: u64,
    /// Misses on lines lost to eviction.
    pub capacity_misses: u64,
    /// Invalidation events that killed at least one copy in a *different*
    /// domain than the writer (multi-domain mode; always ≤
    /// `invalidation_events`, and 0 with a single domain).
    pub cross_domain_events: u64,
    /// Remote copies invalidated across a domain boundary — the traffic
    /// that crosses the NUMA interconnect instead of the local bus.
    pub cross_domain_lines: u64,
    /// Invalidated copies whose victim had live data in the written sector
    /// (sectored mode). The remainder of `lines_invalidated` are losses a
    /// sectored cache would shrug off: the victim never touched the sector
    /// the writer dirtied.
    pub sector_conflict_lines: u64,
}

/// The multi-core MESI simulator.
///
/// Each [`ThreadId`] is a core with an infinite private cache; `access`
/// applies the protocol transition and updates [`MesiStats`] plus per-line
/// invalidation-event counters (retrievable via
/// [`MesiSim::line_invalidations`]).
#[derive(Debug, Clone)]
pub struct MesiSim {
    geom: CacheGeometry,
    /// Every line any core has touched, by line index: the one store.
    lines: HashMap<u64, Cell, BuildHasherDefault<LineHasher>>,
    /// Capacity limit per core as (sets, ways); `None` = infinite.
    capacity: Option<(usize, usize)>,
    /// LRU clock, bumped on every touch.
    clock: u64,
    stats: MesiStats,
    /// Domain (NUMA node) of each core; all zeros in single-domain mode.
    domain: Vec<u16>,
    /// Sub-line sector model, if enabled.
    sector: Option<SectorGeometry>,
    /// Optional flight-recorder feed: the simulator writes ground-truth
    /// access/invalidation records into *this* instance (never the process
    /// global), so tests can compare it against the detector's own feed.
    recorder: Option<Arc<FlightRecorder>>,
}

/// One line: its invalidation events and a [`Slot`] per core that has
/// touched it, in first-touch order — memory follows the touched (core,
/// line) pairs, whatever the highest thread id is, and a line few cores
/// share is a short scan.
#[derive(Debug, Clone, Default)]
struct Cell {
    invalidations: u64,
    slots: Vec<Slot>,
}

/// One core's view of one line. The slot exists from the core's first
/// access on, and every access installs the line: a miss that has to create
/// its slot is the cold one.
#[derive(Debug, Clone, Copy)]
struct Slot {
    core: u16,
    /// `None` = Invalid: lost to a remote write, or evicted.
    state: Option<LineState>,
    lru: u64,
    /// The line's last departure was a coherence invalidation.
    coherence_lost: bool,
    /// Sector bitmask accumulated while resident (sectored mode only).
    sectors: u32,
    /// Victim-side attribution for recorded invalidations; maintained only
    /// while a recorder is attached.
    last_word: u8,
}

impl Cell {
    /// `core`'s slot, if it holds the line.
    fn resident(&self, core: ThreadId) -> Option<&Slot> {
        let holds = |s: &&Slot| s.core == core.0 && s.state.is_some();
        self.slots.iter().find(holds)
    }
}

/// Why a miss happened, for the capacity-limited mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First touch by this core.
    Cold,
    /// The line was invalidated by a remote write — coherence traffic, the
    /// only class (false or true) sharing produces.
    Coherence,
    /// The line was evicted for space.
    Capacity,
}

impl MesiSim {
    /// Creates a simulator with infinite private caches (coherence traffic
    /// only — the paper's model, which ignores capacity).
    pub fn new(n_cores: usize, geom: CacheGeometry) -> Self {
        MesiSim {
            geom,
            lines: HashMap::default(),
            capacity: None,
            clock: 0,
            stats: MesiStats::default(),
            domain: vec![0; n_cores],
            sector: None,
            recorder: None,
        }
    }

    /// Multi-domain (NUMA-style) mode: cores are split into `n_domains`
    /// contiguous equal blocks, and invalidations crossing a block boundary
    /// are additionally counted as cross-domain traffic
    /// ([`MesiStats::cross_domain_events`] / `cross_domain_lines`).
    /// Coherence semantics — and therefore `invalidation_events` — are
    /// identical to the single-domain simulator; domains change only the
    /// traffic accounting.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_domains <= n_cores`.
    pub fn with_domains(n_cores: usize, geom: CacheGeometry, n_domains: usize) -> Self {
        assert!(
            n_domains >= 1 && n_domains <= n_cores,
            "need 1 <= domains ({n_domains}) <= cores ({n_cores})"
        );
        let mut sim = Self::new(n_cores, geom);
        for core in 0..n_cores {
            sim.domain[core] = (core * n_domains / n_cores) as u16;
        }
        sim
    }

    /// Sectored-cache mode: invalidations are additionally classified by
    /// whether the victim had touched the written sector
    /// ([`MesiStats::sector_conflict_lines`]). With
    /// [`SectorGeometry::unsectored`] every conflict is same-sector and the
    /// count equals `lines_invalidated`.
    pub fn with_sectors(n_cores: usize, sector: SectorGeometry) -> Self {
        let mut sim = Self::new(n_cores, sector.line());
        sim.sector = Some(sector);
        sim
    }

    /// Domain of a core (0 in single-domain mode).
    pub fn domain_of(&self, core: ThreadId) -> u16 {
        self.domain.get(core.index()).copied().unwrap_or(0)
    }

    /// Attaches a flight recorder; every subsequent access and invalidation
    /// is recorded into it (ground truth for the detector's own feed).
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Extension: capacity-limited set-associative private caches
    /// (`sets × ways` lines per core, LRU replacement within a set). Enables
    /// miss *classification* — separating cold and capacity misses from the
    /// coherence misses that sharing causes, the distinction the paper
    /// faults sampling-based tools for blurring.
    pub fn with_capacity(n_cores: usize, geom: CacheGeometry, sets: usize, ways: usize) -> Self {
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways >= 1);
        let mut sim = Self::new(n_cores, geom);
        sim.capacity = Some((sets, ways));
        sim
    }

    /// Capacity mode, before `core` installs `line`: evicts the least
    /// recently used line of a full set from `core`'s cache. LRU stamps are
    /// unique, so the victim does not depend on the map's iteration order.
    fn make_room(&mut self, core: ThreadId, line: u64) {
        let Some((sets, ways)) = self.capacity else {
            return;
        };
        if self.state(core, line).is_some() {
            return;
        }
        let same_set = |l: u64| (l ^ line) & (sets as u64 - 1) == 0;
        let in_set = self.lines.iter().filter(|(&l, _)| same_set(l));
        let resident: Vec<(u64, u64)> = in_set
            .filter_map(|(&l, cell)| cell.resident(core).map(|s| (s.lru, l)))
            .collect();
        if resident.len() < ways {
            return;
        }
        let &(_, victim) = resident.iter().min().expect("ways >= 1");
        let cell = self.lines.get_mut(&victim).expect("victim was scanned");
        let slot = cell.slots.iter_mut().find(|s| s.core == core.0);
        let slot = slot.expect("victim is resident");
        (slot.state, slot.coherence_lost, slot.sectors) = (None, false, 0);
        self.stats.evictions += 1;
    }

    /// The geometry the simulator indexes lines with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MesiStats {
        self.stats
    }

    /// Invalidation events recorded against a particular line index.
    pub fn line_invalidations(&self, line: u64) -> u64 {
        self.lines.get(&line).map_or(0, |c| c.invalidations)
    }

    /// State of `line` in `core`'s cache (None = Invalid).
    pub fn state(&self, core: ThreadId, line: u64) -> Option<LineState> {
        self.lines.get(&line)?.resident(core)?.state
    }

    /// Number of lines currently resident in `core`'s cache.
    pub fn resident_lines(&self, core: ThreadId) -> usize {
        let held = |c: &&Cell| c.resident(core).is_some();
        self.lines.values().filter(held).count()
    }

    /// Applies one access of `size` bytes at `addr` by `tid`, visiting every
    /// line the access touches.
    pub fn access(&mut self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        predator_obs::hot_counter_inc!("mesi_accesses_total");
        for line in self.geom.lines_touched(addr, size) {
            // Word attribution for the flight recorder: exact for the line
            // containing `addr`, word 0 for the spilled-into lines of a
            // straddling access.
            let word = if self.geom.line_index(addr) == line {
                self.geom.word_in_line(addr) as u8
            } else {
                0
            };
            let smask = match self.sector {
                // Clip the access to this line before masking (a straddling
                // access contributes each line's own sector span).
                Some(sg) => {
                    let line_start = self.geom.line_start(line);
                    let start = addr.max(line_start);
                    let len = (addr + size.max(1) as u64 - start).min(self.geom.line_size()) as u8;
                    sg.sector_mask(start, len)
                }
                None => 0,
            };
            self.access_line(tid, line, kind, word, smask);
        }
    }

    fn access_line(&mut self, tid: ThreadId, line: u64, kind: AccessKind, word: u8, smask: u32) {
        let core = tid.index();
        assert!(
            core < self.domain.len(),
            "thread {tid} exceeds configured core count"
        );
        self.make_room(tid, line);
        // Every path below is one touch of the line by `core`.
        self.clock += 1;
        let cell = self.lines.entry(line).or_default();
        let found = cell.slots.iter().position(|s| s.core == tid.0);
        let own = found.unwrap_or_else(|| {
            let fresh = Slot {
                core: tid.0,
                state: None,
                lru: 0,
                coherence_lost: false,
                sectors: 0,
                last_word: WORD_UNKNOWN,
            };
            cell.slots.push(fresh);
            cell.slots.len() - 1
        });
        let had = cell.slots[own].state;
        cell.slots[own].sectors |= smask;
        match had {
            Some(_) => self.stats.hits += 1,
            None if found.is_none() => self.stats.cold_misses += 1,
            None if cell.slots[own].coherence_lost => self.stats.coherence_misses += 1,
            None => self.stats.capacity_misses += 1,
        }
        self.stats.misses += had.is_none() as u64;

        // The bus transaction, if the access needs one. An M/E holder is the
        // line's only holder: its writes are silent (E→M included).
        let owned = matches!(had, Some(LineState::Modified | LineState::Exclusive));
        let remote = cell.slots.iter_mut();
        let remote = remote.filter(|s| s.core != tid.0 && s.state.is_some());
        let (mut shared, mut invalidated, mut cross_lines, mut sector_conflicts) = (false, 0, 0, 0);
        let mut victims: Vec<(u16, u8)> = Vec::new();
        match kind {
            // Read miss: snoop, downgrading any remote M/E holder to S.
            AccessKind::Read if had.is_none() => remote.for_each(|slot| {
                shared = true;
                self.stats.downgrades += (slot.state == Some(LineState::Modified)) as u64;
                slot.state = Some(LineState::Shared);
            }),
            // Upgrade from S (BusUpgr) or read-for-ownership miss (BusRdX):
            // invalidate every remote copy.
            AccessKind::Write if !owned => remote.for_each(|slot| {
                invalidated += 1;
                cross_lines += (self.domain[slot.core as usize] != self.domain[core]) as u64;
                sector_conflicts += (slot.sectors & smask != 0) as u64;
                (slot.state, slot.sectors, slot.coherence_lost) = (None, 0, true);
                if self.recorder.is_some() {
                    victims.push((slot.core, slot.last_word));
                }
            }),
            _ => {}
        }
        let state = match kind {
            AccessKind::Write => LineState::Modified,
            AccessKind::Read if shared => LineState::Shared,
            AccessKind::Read => had.unwrap_or(LineState::Exclusive),
        };
        let slot = &mut cell.slots[own];
        (slot.state, slot.lru, slot.coherence_lost) = (Some(state), self.clock, false);

        let line_start = self.geom.line_start(line);
        if invalidated > 0 {
            self.stats.invalidation_events += 1;
            self.stats.lines_invalidated += invalidated;
            self.stats.cross_domain_lines += cross_lines;
            self.stats.cross_domain_events += (cross_lines > 0) as u64;
            self.stats.sector_conflict_lines += sector_conflicts;
            cell.invalidations += 1;
            predator_obs::static_counter!("mesi_invalidation_events_total").inc();
            predator_obs::static_counter!("mesi_lines_invalidated_total").add(invalidated);
            // Timeline: a ground-truth invalidation burst on the
            // writer's sim lane, sized by how many copies died.
            let tl = predator_obs::timeline();
            if tl.enabled() {
                tl.instant(
                    "mesi_invalidation",
                    "mesi",
                    core as u64,
                    vec![
                        ("line_start", predator_obs::ArgVal::U64(line_start)),
                        ("copies_lost", predator_obs::ArgVal::U64(invalidated)),
                    ],
                );
            }
        }
        if let Some(rec) = &self.recorder {
            victims.sort_unstable(); // by core: the order the records are read out in
            match kind {
                _ if invalidated > 0 => rec.offer_invalidation(line_start, tid.0, word, &victims),
                AccessKind::Read => rec.offer_event(line_start, tid.0, word, RecKind::Read),
                AccessKind::Write => rec.offer_event(line_start, tid.0, word, RecKind::Write),
            };
            cell.slots[own].last_word = word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind::{Read, Write};
    use crate::history::HistoryTable;
    use proptest::prelude::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn sim(n: usize) -> MesiSim {
        MesiSim::new(n, CacheGeometry::new(64))
    }

    #[test]
    fn cold_read_is_exclusive() {
        let mut m = sim(2);
        m.access(T0, 0, 8, Read);
        assert_eq!(m.state(T0, 0), Some(LineState::Exclusive));
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().invalidation_events, 0);
    }

    #[test]
    fn second_reader_shares() {
        let mut m = sim(2);
        m.access(T0, 0, 8, Read);
        m.access(T1, 0, 8, Read);
        assert_eq!(m.state(T0, 0), Some(LineState::Shared));
        assert_eq!(m.state(T1, 0), Some(LineState::Shared));
        assert_eq!(m.stats().invalidation_events, 0);
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut m = sim(2);
        m.access(T0, 0, 8, Read);
        m.access(T0, 0, 8, Write);
        assert_eq!(m.state(T0, 0), Some(LineState::Modified));
        assert_eq!(m.stats().invalidation_events, 0);
        assert_eq!(m.stats().hits, 1);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut m = sim(3);
        m.access(T0, 0, 8, Read);
        m.access(T1, 0, 8, Read);
        m.access(T2, 0, 8, Write);
        assert_eq!(m.stats().invalidation_events, 1);
        assert_eq!(m.stats().lines_invalidated, 2);
        assert_eq!(m.state(T0, 0), None);
        assert_eq!(m.state(T1, 0), None);
        assert_eq!(m.state(T2, 0), Some(LineState::Modified));
    }

    #[test]
    fn remote_read_downgrades_modified() {
        let mut m = sim(2);
        m.access(T0, 0, 8, Write);
        m.access(T1, 0, 8, Read);
        assert_eq!(m.state(T0, 0), Some(LineState::Shared));
        assert_eq!(m.state(T1, 0), Some(LineState::Shared));
        assert_eq!(m.stats().downgrades, 1);
    }

    #[test]
    fn write_ping_pong_counts_per_line() {
        let mut m = sim(2);
        for i in 0..10u64 {
            m.access(ThreadId((i % 2) as u16), 0, 8, Write);
        }
        assert_eq!(m.stats().invalidation_events, 9);
        assert_eq!(m.line_invalidations(0), 9);
        assert_eq!(m.line_invalidations(1), 0);
    }

    #[test]
    fn distinct_lines_do_not_interact() {
        let mut m = sim(2);
        m.access(T0, 0, 8, Write);
        m.access(T1, 64, 8, Write); // next line
        assert_eq!(m.stats().invalidation_events, 0);
    }

    #[test]
    fn straddling_write_touches_both_lines() {
        let mut m = sim(2);
        m.access(T0, 60, 8, Write); // covers lines 0 and 1
        assert_eq!(m.state(T0, 0), Some(LineState::Modified));
        assert_eq!(m.state(T0, 1), Some(LineState::Modified));
        m.access(T1, 0, 8, Write);
        assert_eq!(m.stats().invalidation_events, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds configured core count")]
    fn rejects_unknown_core() {
        let mut m = sim(1);
        m.access(T1, 0, 8, Write);
    }

    #[test]
    fn attached_recorder_sees_invalidations_with_victim_words() {
        let rec = Arc::new(FlightRecorder::new());
        rec.enable(16);
        let mut m = sim(2);
        m.set_recorder(rec.clone());
        m.access(T0, 0, 8, Write); // T0 writes word 0
        m.access(T1, 24, 8, Write); // T1 writes word 3: invalidates T0
        m.access(T0, 0, 8, Write); // T0 writes word 0: invalidates T1
        let recs = rec.line_records(0);
        let invs: Vec<_> = recs
            .iter()
            .filter_map(|r| match r.kind {
                RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                } => Some((r.tid, r.word, victim_tid, victim_word)),
                _ => None,
            })
            .collect();
        assert_eq!(invs, vec![(1, 3, 0, 0), (0, 0, 1, 3)]);
        // The non-invalidating first write is recorded as a plain write.
        assert!(matches!(recs[0].kind, RecKind::Write));
    }

    #[test]
    fn capacity_mode_evicts_lru() {
        // 1 set x 2 ways: third distinct line evicts the least recent.
        let mut m = MesiSim::with_capacity(1, CacheGeometry::new(64), 1, 2);
        m.access(T0, 0, 8, Read); // line 0
        m.access(T0, 64, 8, Read); // line 1
        m.access(T0, 0, 8, Read); // touch line 0 -> line 1 is LRU
        m.access(T0, 128, 8, Read); // line 2 evicts line 1
        assert_eq!(m.stats().evictions, 1);
        assert_eq!(m.state(T0, 1), None, "LRU line evicted");
        assert!(m.state(T0, 0).is_some());
        assert!(m.state(T0, 2).is_some());
        assert_eq!(m.resident_lines(T0), 2);
    }

    #[test]
    fn capacity_mode_classifies_misses() {
        let mut m = MesiSim::with_capacity(2, CacheGeometry::new(64), 1, 1);
        // Cold miss.
        m.access(T0, 0, 8, Write);
        assert_eq!(m.stats().cold_misses, 1);
        // Coherence miss: T1 steals the line, T0 re-reads.
        m.access(T1, 0, 8, Write);
        assert_eq!(m.stats().cold_misses, 2);
        m.access(T0, 0, 8, Read);
        assert_eq!(m.stats().coherence_misses, 1);
        // Capacity miss: T0's single way gets replaced by another line,
        // then T0 returns to the first.
        m.access(T0, 64, 8, Read);
        assert_eq!(m.stats().evictions, 1);
        m.access(T0, 0, 8, Read);
        assert_eq!(m.stats().capacity_misses, 1);
        let s = m.stats();
        assert_eq!(
            s.misses,
            s.cold_misses + s.coherence_misses + s.capacity_misses
        );
    }

    #[test]
    fn sets_partition_the_index_space() {
        // 2 sets x 1 way: even and odd lines never evict each other.
        let mut m = MesiSim::with_capacity(1, CacheGeometry::new(64), 2, 1);
        m.access(T0, 0, 8, Read); // line 0 -> set 0
        m.access(T0, 64, 8, Read); // line 1 -> set 1
        assert_eq!(m.stats().evictions, 0);
        assert_eq!(m.resident_lines(T0), 2);
        m.access(T0, 128, 8, Read); // line 2 -> set 0 evicts line 0
        assert_eq!(m.stats().evictions, 1);
        assert_eq!(m.state(T0, 0), None);
        assert!(m.state(T0, 1).is_some());
    }

    /// The victim is the set's least recently used line whichever way the
    /// map happens to walk its lines: maps filled in opposite orders end the
    /// same script in the same place.
    #[test]
    fn eviction_does_not_depend_on_map_order() {
        let run = |warm: &mut dyn Iterator<Item = u64>| {
            let mut m = MesiSim::with_capacity(2, CacheGeometry::new(64), 2, 4);
            // T1 fills its cache exactly (four lines per set, no eviction)...
            for line in warm {
                m.access(T1, line * 64, 8, Read);
            }
            // ...then T0 wanders over three times what its own can hold.
            for i in 0..300u64 {
                let kind = if i % 3 == 0 { Write } else { Read };
                m.access(T0, (i * 7 + i / 5) % 24 * 64, 8, kind);
            }
            let states: Vec<_> = (0..24)
                .flat_map(|line| [m.state(T0, line), m.state(T1, line)])
                .collect();
            (m.stats(), states)
        };
        let ascending = run(&mut (0..8));
        assert!(ascending.0.evictions > 100, "{:?}", ascending.0);
        assert_eq!(ascending, run(&mut (0..8).rev()));
    }

    #[test]
    fn false_sharing_shows_as_coherence_misses_not_capacity() {
        // Plenty of space; a ping-pong pattern must classify as coherence.
        let mut m = MesiSim::with_capacity(2, CacheGeometry::new(64), 16, 4);
        for i in 0..100u64 {
            m.access(ThreadId((i % 2) as u16), (i % 2) * 8, 8, AccessKind::Write);
        }
        let s = m.stats();
        assert_eq!(s.capacity_misses, 0);
        assert_eq!(s.cold_misses, 2);
        assert!(s.coherence_misses > 90, "{s:?}");
    }

    #[test]
    fn domains_partition_cores_into_contiguous_blocks() {
        let m = MesiSim::with_domains(8, CacheGeometry::new(64), 2);
        let doms: Vec<u16> = (0..8).map(|c| m.domain_of(ThreadId(c))).collect();
        assert_eq!(doms, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let m = MesiSim::with_domains(4, CacheGeometry::new(64), 4);
        let doms: Vec<u16> = (0..4).map(|c| m.domain_of(ThreadId(c))).collect();
        assert_eq!(doms, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "domains")]
    fn more_domains_than_cores_rejected() {
        MesiSim::with_domains(2, CacheGeometry::new(64), 3);
    }

    #[test]
    fn single_domain_has_zero_cross_traffic() {
        let mut m = MesiSim::with_domains(2, CacheGeometry::new(64), 1);
        for i in 0..10u64 {
            m.access(ThreadId((i % 2) as u16), 0, 8, Write);
        }
        assert_eq!(m.stats().invalidation_events, 9);
        assert_eq!(m.stats().cross_domain_events, 0);
        assert_eq!(m.stats().cross_domain_lines, 0);
    }

    #[test]
    fn one_domain_per_core_makes_every_invalidation_cross() {
        let mut m = MesiSim::with_domains(2, CacheGeometry::new(64), 2);
        for i in 0..10u64 {
            m.access(ThreadId((i % 2) as u16), 0, 8, Write);
        }
        assert_eq!(m.stats().invalidation_events, 9);
        assert_eq!(m.stats().cross_domain_events, 9);
        assert_eq!(m.stats().cross_domain_lines, 9);
    }

    #[test]
    fn intra_domain_ping_pong_stays_local() {
        // Cores 0 and 1 share domain 0; cores 2 and 3 are domain 1. A
        // ping-pong confined to one domain produces no cross traffic, while
        // a 0<->2 ping-pong is all cross.
        let mut m = MesiSim::with_domains(4, CacheGeometry::new(64), 2);
        for i in 0..6u64 {
            m.access(ThreadId((i % 2) as u16), 0, 8, Write);
        }
        assert_eq!(m.stats().cross_domain_events, 0);
        for i in 0..6u64 {
            m.access(ThreadId(if i % 2 == 0 { 0 } else { 2 }), 64, 8, Write);
        }
        let s = m.stats();
        assert_eq!(s.cross_domain_events, 5);
        assert!(s.cross_domain_lines <= s.lines_invalidated);
        assert!(s.cross_domain_events <= s.invalidation_events);
    }

    #[test]
    fn sectored_mode_classifies_conflicts() {
        // 64B line, 16B sectors. T0 writes sector 0; T1 writes sector 3.
        // The coherence protocol still invalidates, but the victims never
        // touched the written sector, so no sector conflicts are counted.
        let sg = SectorGeometry::new(CacheGeometry::new(64), 16);
        let mut m = MesiSim::with_sectors(2, sg);
        for i in 0..10u64 {
            let (tid, addr) = if i % 2 == 0 { (0u16, 0u64) } else { (1, 48) };
            m.access(ThreadId(tid), addr, 8, Write);
        }
        let s = m.stats();
        assert_eq!(s.invalidation_events, 9);
        assert_eq!(s.sector_conflict_lines, 0, "{s:?}");
        // Same-sector ping-pong on another line: every invalidation is a
        // true sector conflict.
        for i in 0..10u64 {
            let (tid, addr) = if i % 2 == 0 { (0u16, 64) } else { (1, 72) };
            m.access(ThreadId(tid), addr, 8, Write);
        }
        let s = m.stats();
        assert_eq!(s.invalidation_events, 18);
        assert_eq!(s.sector_conflict_lines, 9, "{s:?}");
    }

    #[test]
    fn unsectored_geometry_counts_every_invalidation_as_conflict() {
        let sg = SectorGeometry::unsectored(CacheGeometry::new(64));
        let mut m = MesiSim::with_sectors(2, sg);
        for i in 0..10u64 {
            let (tid, addr) = if i % 2 == 0 { (0u16, 0u64) } else { (1, 56) };
            m.access(ThreadId(tid), addr, 8, Write);
        }
        let s = m.stats();
        assert_eq!(s.sector_conflict_lines, s.lines_invalidated);
    }

    #[test]
    fn sector_mask_resets_on_reinstall() {
        // T1's mask must not survive invalidation: after losing the line,
        // T1 re-touches only sector 3, so T0's sector-0 write conflicts
        // with nothing.
        let sg = SectorGeometry::new(CacheGeometry::new(64), 16);
        let mut m = MesiSim::with_sectors(2, sg);
        m.access(ThreadId(1), 0, 8, Write); // T1 dirties sector 0
        m.access(ThreadId(0), 0, 8, Write); // conflict (both sector 0)
        m.access(ThreadId(1), 48, 8, Write); // T1 back, sector 3 only
        m.access(ThreadId(0), 0, 8, Write); // sector 0 vs sector 3: no hit
        let s = m.stats();
        assert_eq!(s.invalidation_events, 3);
        assert_eq!(s.sector_conflict_lines, 1, "{s:?}");
    }

    proptest! {
        /// Domains never change coherence semantics: invalidation_events and
        /// lines_invalidated are identical across any domain count, cross
        /// counts are bounded by totals, and a single domain is all-local.
        #[test]
        fn prop_domains_only_relabel_traffic(
            script in proptest::collection::vec(
                (0u16..4, 0u64..256, prop::bool::ANY), 0..256),
            n_domains in 1usize..=4,
        ) {
            let mut base = sim(4);
            let mut multi = MesiSim::with_domains(4, CacheGeometry::new(64), n_domains);
            for (tid, addr, w) in script {
                let kind = if w { Write } else { Read };
                base.access(ThreadId(tid), addr, 8, kind);
                multi.access(ThreadId(tid), addr, 8, kind);
            }
            let (b, m) = (base.stats(), multi.stats());
            prop_assert_eq!(b.invalidation_events, m.invalidation_events);
            prop_assert_eq!(b.lines_invalidated, m.lines_invalidated);
            prop_assert!(m.cross_domain_events <= m.invalidation_events);
            prop_assert!(m.cross_domain_lines <= m.lines_invalidated);
            if n_domains == 1 {
                prop_assert_eq!(m.cross_domain_events, 0);
            }
        }

        /// Sector conflicts are bounded by lines invalidated, and the
        /// unsectored model counts every invalidated copy as a conflict.
        #[test]
        fn prop_sector_conflicts_bounded(
            script in proptest::collection::vec(
                (0u16..3, 0u64..128, prop::bool::ANY), 0..256),
            sector_log in 3u32..=6,
        ) {
            let sg = SectorGeometry::new(CacheGeometry::new(64), 1 << sector_log);
            let mut m = MesiSim::with_sectors(3, sg);
            let mut plain = sim(3);
            for (tid, addr, w) in script {
                let kind = if w { Write } else { Read };
                m.access(ThreadId(tid), addr, 8, kind);
                plain.access(ThreadId(tid), addr, 8, kind);
            }
            let s = m.stats();
            prop_assert!(s.sector_conflict_lines <= s.lines_invalidated);
            // The sector model never perturbs the protocol itself.
            prop_assert_eq!(s.invalidation_events, plain.stats().invalidation_events);
            if sector_log == 6 {
                // 64B sectors on a 64B line = unsectored.
                prop_assert_eq!(s.sector_conflict_lines, s.lines_invalidated);
            }
        }
    }

    #[test]
    fn infinite_mode_never_evicts() {
        let mut m = sim(1);
        for line in 0..10_000u64 {
            m.access(T0, line * 64, 8, Write);
        }
        assert_eq!(m.stats().evictions, 0);
        assert_eq!(m.resident_lines(T0), 10_000);
    }

    proptest! {
        /// Capacity never exceeds sets x ways, and the miss classes always
        /// partition the misses.
        #[test]
        fn prop_capacity_respected(
            ops in proptest::collection::vec((0u16..2, 0u64..64, prop::bool::ANY), 1..300),
            ways in 1usize..4,
        ) {
            let mut m = MesiSim::with_capacity(2, CacheGeometry::new(64), 4, ways);
            for (tid, word, w) in ops {
                let kind = if w { Write } else { Read };
                m.access(ThreadId(tid), word * 8, 8, kind);
                prop_assert!(m.resident_lines(ThreadId(0)) <= 4 * ways);
                prop_assert!(m.resident_lines(ThreadId(1)) <= 4 * ways);
            }
            let s = m.stats();
            prop_assert_eq!(
                s.misses,
                s.cold_misses + s.coherence_misses + s.capacity_misses
            );
        }
    }

    proptest! {
        /// THE key validation: the paper's two-entry history table counts
        /// exactly the MESI invalidation *events* for any single-line script.
        #[test]
        fn prop_history_table_matches_mesi_events(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..512)
        ) {
            let mut m = sim(4);
            let mut h = HistoryTable::new();
            let mut h_inv = 0u64;
            for (tid, w) in script {
                let kind = if w { Write } else { Read };
                m.access(ThreadId(tid), 0, 8, kind);
                h_inv += h.record(ThreadId(tid), kind) as u64;
            }
            prop_assert_eq!(h_inv, m.stats().invalidation_events);
        }

        /// Lines share no state in infinite mode — the licence for any
        /// per-line filtering of a trace: simulating it whole equals
        /// simulating each line's accesses alone, line by line (same
        /// invalidations, same final states) and in total (stats sum).
        #[test]
        fn prop_lines_are_independent(
            script in proptest::collection::vec(
                (0u16..4, 0u64..64, prop::bool::ANY), 0..400)
        ) {
            let run = |only: Option<u64>| {
                let mut m = sim(4);
                for &(tid, word, w) in &script {
                    if only.is_none_or(|line| word / 8 == line) {
                        m.access(ThreadId(tid), word * 8, 8, if w { Write } else { Read });
                    }
                }
                m
            };
            let fields = |s: MesiStats| [
                s.hits, s.misses, s.invalidation_events, s.lines_invalidated,
                s.downgrades, s.evictions, s.cold_misses, s.coherence_misses,
                s.capacity_misses, s.cross_domain_events, s.cross_domain_lines,
                s.sector_conflict_lines,
            ];
            let whole = run(None);
            let mut sum = [0u64; 12];
            for line in 0..8u64 {
                let alone = run(Some(line));
                prop_assert_eq!(alone.line_invalidations(line), whole.line_invalidations(line));
                for core in 0..4u16 {
                    let core = ThreadId(core);
                    prop_assert_eq!(alone.state(core, line), whole.state(core, line));
                }
                for (total, part) in sum.iter_mut().zip(fields(alone.stats())) {
                    *total += part;
                }
            }
            prop_assert_eq!(sum, fields(whole.stats()));
        }

        /// Events never exceed total lines invalidated, and both are bounded
        /// by the number of writes.
        #[test]
        fn prop_stat_relationships(
            script in proptest::collection::vec(
                (0u16..4, 0u64..256, prop::bool::ANY), 0..512)
        ) {
            let mut m = sim(4);
            let mut writes = 0u64;
            for (tid, addr, w) in script {
                let kind = if w { Write } else { Read };
                writes += w as u64;
                m.access(ThreadId(tid), addr, 8, kind);
            }
            let s = m.stats();
            prop_assert!(s.invalidation_events <= s.lines_invalidated);
            // Each write touches at most 2 lines here (8-byte accesses).
            prop_assert!(s.invalidation_events <= writes * 2);
        }

        /// Coherence invariant: at most one core holds a line in M or E, and
        /// if any core holds M/E no other core holds the line at all.
        #[test]
        fn prop_single_writer_invariant(
            script in proptest::collection::vec(
                (0u16..4, 0u64..128, prop::bool::ANY), 0..256)
        ) {
            let mut m = sim(4);
            for (tid, addr, w) in script {
                let kind = if w { Write } else { Read };
                m.access(ThreadId(tid), addr, 8, kind);
                for line in 0..4u64 {
                    let holders: Vec<_> = (0..4u16)
                        .filter_map(|c| m.state(ThreadId(c), line).map(|s| (c, s)))
                        .collect();
                    let owners = holders.iter()
                        .filter(|(_, s)| *s != LineState::Shared)
                        .count();
                    prop_assert!(owners <= 1);
                    if owners == 1 {
                        prop_assert_eq!(holders.len(), 1);
                    }
                }
            }
        }
    }
}
