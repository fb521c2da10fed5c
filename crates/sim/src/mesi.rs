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
//! cross-crate integration tests.) Private caches are infinite, as in the
//! paper's model, so a line's whole state is a *holder set*, an *ever-held
//! set* and the holders' M/E/S state: bitmasks over dense core ids numbered
//! in first-touch order (DESIGN.md, "MESI storage"). A miss is cold when
//! the core is not in the ever-held set, a coherence miss when it is.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;

use predator_obs::mode::Exclusive;
use predator_obs::recorder::{FlightRecorder, LineHasher, Rec, RecKind, Ring, WORD_UNKNOWN};
use predator_obs::ArgVal::U64;

use crate::access::{Access, AccessKind, ThreadId};
use crate::geometry::CacheGeometry;

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
    /// Misses on lines this core never held (first touch).
    pub cold_misses: u64,
    /// Misses on lines lost to remote writes — the sharing signal.
    pub coherence_misses: u64,
}

/// Lines per page of the store.
const PAGE_LINES: u64 = 256;
/// A cell's last word, its tag, holds the holders' state (one of these
/// three) in its low two bits and the line's invalidation events above them.
const MODIFIED: u64 = 0;
const EXCLUSIVE: u64 = 1;
const SHARED: u64 = 2;
const ONE_INVALIDATION: u64 = 4;

/// The multi-core MESI simulator.
///
/// Each [`ThreadId`] is a core with an infinite private cache; `access`
/// (one event) and `walk` (a slice) apply the protocol and update
/// [`MesiStats`] and per-line invalidation events
/// ([`MesiSim::line_invalidations`]). The process-wide `mesi_*_total`
/// counters hear of them once per walk and when the simulator is dropped:
/// line accesses (`hits + misses`), `invalidation_events` and
/// `lines_invalidated`.
#[derive(Debug)]
pub struct MesiSim {
    geom: CacheGeometry,
    n_cores: usize,
    /// The thread behind each dense core id, in first-touch order.
    tids: Vec<u16>,
    /// Words per set: one until a 65th distinct thread.
    width: usize,
    /// Every touched line's cell, `2 * width + 1` words — holder set,
    /// ever-held set, tag — in pages of `PAGE_LINES` cells found by page
    /// number through `index`, the last one through `memo` (no page number
    /// is `u64::MAX`).
    pages: Vec<Box<[u64]>>,
    index: HashMap<u64, usize, BuildHasherDefault<LineHasher>>,
    memo: (u64, usize),
    stats: MesiStats,
    /// The part of `stats` the `mesi_*_total` counters already carry.
    published: MesiStats,
    /// Optional flight recorder of the simulator's own: ground-truth
    /// access/invalidation records tests compare with a detector's.
    recording: Option<Recording>,
    /// The word each (line, thread) last touched, kept while a recorder is
    /// attached: victim-side attribution for recorded invalidations.
    last_word: HashMap<(u64, u16), u8>,
}

/// A ground-truth flight recorder: the detector's ring type, found by line
/// start.
#[derive(Debug)]
pub struct Recording {
    recorder: FlightRecorder,
    rings: HashMap<u64, Ring, BuildHasherDefault<LineHasher>>,
}

impl Recording {
    /// An empty recording whose rings keep `depth` records each.
    pub fn new(depth: usize) -> Self {
        Recording {
            recorder: FlightRecorder::new(depth),
            rings: HashMap::default(),
        }
    }

    /// Records one event on the line at `line_start`: one record per
    /// `kinds` entry, under one timestamp.
    pub fn push(&mut self, line_start: u64, tid: u16, word: u8, kinds: &[RecKind]) {
        let ring = match self.rings.entry(line_start) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match self.recorder.open_ring(Exclusive, line_start, kinds.len()) {
                Some(ring) => e.insert(ring),
                None => return,
            },
        };
        self.recorder.push(Exclusive, ring, tid, word, kinds);
    }

    /// The records kept for the line at `line_start`, oldest first.
    pub fn line_records(&self, line_start: u64) -> Vec<Rec> {
        let ring = self.rings.get(&line_start);
        ring.map_or_else(Vec::new, |r| r.records(Exclusive))
    }

    /// Line starts with a ring, ascending.
    pub fn recorded_lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self.rings.keys().copied().collect();
        lines.sort_unstable();
        lines
    }
}

/// Is dense core `core` in `set`?
fn member(set: &[u64], core: usize) -> bool {
    set[core / 64] >> (core % 64) & 1 != 0
}

/// One access by dense core `core` to one line's cell: the whole protocol.
/// Returns the remote copies the access invalidated.
#[inline(always)]
fn step(cell: &mut [u64], width: usize, core: usize, write: bool, stats: &mut MesiStats) -> u64 {
    let (held, rest) = cell.split_at_mut(width);
    let (ever, tag) = rest.split_at_mut(width);
    let (tag, word, bit) = (&mut tag[0], core / 64, 1u64 << (core % 64));
    let had = held[word] & bit != 0;
    if had {
        stats.hits += 1;
    } else {
        let known = ever[word] & bit != 0;
        stats.misses += 1;
        stats.coherence_misses += known as u64;
        stats.cold_misses += !known as u64;
        ever[word] |= bit;
    }
    let state = *tag & 3;
    let mut killed = 0;
    let next = match (write, had) {
        (false, true) => return 0,
        // Read miss: snoop, downgrading any remote M/E holder to S.
        (false, false) => {
            let shared = held.iter().any(|&h| h != 0);
            stats.downgrades += (shared && state == MODIFIED) as u64;
            held[word] |= bit;
            EXCLUSIVE + shared as u64 // SHARED with company
        }
        // An M/E holder is the line's only holder: its writes are silent
        // (E→M included).
        (true, true) if state != SHARED => MODIFIED,
        // Upgrade from S (BusUpgr) or read-for-ownership miss (BusRdX):
        // invalidate every remote copy.
        (true, _) => {
            killed = held.iter().map(|h| h.count_ones() as u64).sum::<u64>() - had as u64;
            held.fill(0);
            held[word] = bit;
            if killed > 0 {
                stats.invalidation_events += 1;
                stats.lines_invalidated += killed;
                *tag += ONE_INVALIDATION;
            }
            MODIFIED
        }
    };
    *tag = *tag & !3 | next;
    killed
}

impl MesiSim {
    /// Creates a simulator with infinite private caches (coherence traffic
    /// only — the paper's model, which ignores capacity) for threads
    /// `0..n_cores`.
    pub fn new(n_cores: usize, geom: CacheGeometry) -> Self {
        MesiSim {
            geom,
            n_cores,
            tids: Vec::new(),
            width: 1,
            pages: Vec::new(),
            index: HashMap::default(),
            memo: (u64::MAX, 0),
            stats: MesiStats::default(),
            published: MesiStats::default(),
            recording: None,
            last_word: HashMap::new(),
        }
    }

    /// Starts a flight recording whose rings keep `depth` records: every
    /// later access and invalidation goes into it (ground truth for a
    /// detector's own).
    pub fn set_recorder(&mut self, depth: usize) {
        self.recording = Some(Recording::new(depth));
    }

    /// The flight recording, if [`set_recorder`](Self::set_recorder) started
    /// one.
    pub fn recording(&self) -> Option<&Recording> {
        self.recording.as_ref()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MesiStats {
        self.stats
    }

    /// Invalidation events recorded against a particular line index.
    pub fn line_invalidations(&self, line: u64) -> u64 {
        self.cell(line)
            .map_or(0, |c| c[2 * self.width] / ONE_INVALIDATION)
    }

    /// State of `line` in `core`'s cache (None = Invalid).
    pub fn state(&self, core: ThreadId, line: u64) -> Option<LineState> {
        let dense = self.dense(core)?;
        let cell = self.cell(line).filter(|c| member(c, dense))?;
        Some(match cell[2 * self.width] & 3 {
            MODIFIED => LineState::Modified,
            EXCLUSIVE => LineState::Exclusive,
            _ => LineState::Shared,
        })
    }

    /// `tid`'s dense core id, if it has accessed anything.
    fn dense(&self, tid: ThreadId) -> Option<usize> {
        self.tids.iter().position(|&t| t == tid.0)
    }

    /// `line`'s cell, if its page exists.
    fn cell(&self, line: u64) -> Option<&[u64]> {
        let (page, stride) = (*self.index.get(&(line / PAGE_LINES))?, 2 * self.width + 1);
        let at = (line % PAGE_LINES) as usize * stride;
        Some(&self.pages[page][at..at + stride])
    }

    /// Applies one access of `size` bytes at `addr` by `tid`, visiting every
    /// line the access touches.
    pub fn access(&mut self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        match self.recording.is_some() || predator_obs::timeline().enabled() {
            true => self.apply::<true>(tid, addr, size, kind),
            false => self.apply::<false>(tid, addr, size, kind),
        }
    }

    /// [`MesiSim::access`] for every event of `events`, in order; then the
    /// counts are published.
    pub fn walk(&mut self, events: &[Access]) {
        match self.recording.is_some() || predator_obs::timeline().enabled() {
            true => events
                .iter()
                .for_each(|a| self.apply::<true>(a.tid, a.addr, a.size, a.kind)),
            false => events
                .iter()
                .for_each(|a| self.apply::<false>(a.tid, a.addr, a.size, a.kind)),
        }
        self.publish();
    }

    #[inline(always)]
    fn apply<const TRACED: bool>(&mut self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        let core = self.dense(tid).unwrap_or_else(|| self.admit(tid));
        let lines = self.geom.lines_touched(addr, size);
        let (mut line, last) = (*lines.start(), *lines.end());
        loop {
            if TRACED {
                self.step_traced(core, tid, addr, line, kind);
            } else if self.width == 1 {
                self.step_at(1, core, line, kind.is_write()); // the common width, as a constant
            } else {
                self.step_at(self.width, core, line, kind.is_write());
            }
            if line == last {
                break;
            }
            line += 1;
        }
    }

    /// [`step`] on `line`'s cell, its page created on first touch. `width`
    /// is `self.width`, passed so a caller can make it a constant.
    #[inline(always)]
    fn step_at(&mut self, width: usize, core: usize, line: u64, write: bool) -> u64 {
        let page = line / PAGE_LINES;
        if self.memo.0 != page {
            self.memo = (page, self.add_page(page));
        }
        let at = (line % PAGE_LINES) as usize * (2 * width + 1);
        let cell = &mut self.pages[self.memo.1][at..at + 2 * width + 1];
        step(cell, width, core, write, &mut self.stats)
    }

    #[inline(never)]
    fn add_page(&mut self, page: u64) -> usize {
        let (pages, words) = (&mut self.pages, PAGE_LINES as usize * (2 * self.width + 1));
        *self.index.entry(page).or_insert_with(|| {
            pages.push(vec![0; words].into_boxed_slice());
            pages.len() - 1
        })
    }

    /// A thread's first access: its dense core id. The 65th distinct thread
    /// doubles the words per set, re-laying every page out once.
    #[cold]
    fn admit(&mut self, tid: ThreadId) -> usize {
        assert!(
            tid.index() < self.n_cores,
            "thread {tid} exceeds configured core count"
        );
        if self.tids.len() == 64 * self.width {
            let (old, new) = (self.width, 2 * self.width);
            for page in &mut self.pages {
                let mut wide = vec![0; PAGE_LINES as usize * (2 * new + 1)];
                for (from, to) in page
                    .chunks_exact(2 * old + 1)
                    .zip(wide.chunks_exact_mut(2 * new + 1))
                {
                    to[..old].copy_from_slice(&from[..old]);
                    to[new..new + old].copy_from_slice(&from[old..2 * old]);
                    to[2 * new] = from[2 * old];
                }
                *page = wide.into_boxed_slice();
            }
            self.width = new;
        }
        self.tids.push(tid.0);
        self.tids.len() - 1
    }

    /// [`step`], then what the timeline and a recorder are told.
    #[inline(never)]
    fn step_traced(&mut self, core: usize, tid: ThreadId, addr: u64, line: u64, kind: AccessKind) {
        let holders = self
            .cell(line)
            .map_or(vec![0; self.width], |c| c[..self.width].to_vec());
        let killed = self.step_at(self.width, core, line, kind.is_write());
        let line_start = self.geom.line_start(line);
        let tl = predator_obs::timeline();
        if killed > 0 && tl.enabled() {
            // A ground-truth invalidation burst on the writer's sim lane,
            // sized by how many copies died.
            let args = vec![
                ("line_start", U64(line_start)),
                ("copies_lost", U64(killed)),
            ];
            tl.instant("mesi_invalidation", "mesi", tid.index() as u64, args);
        }
        let Some(rec) = &mut self.recording else {
            return;
        };
        // Word attribution: exact for the line containing `addr`, word 0 for
        // the spilled-into lines of a straddling access.
        let word = (self.geom.line_index(addr) == line) as u8 * self.geom.word_in_line(addr) as u8;
        let last_word = |t| *self.last_word.get(&(line, t)).unwrap_or(&WORD_UNKNOWN);
        let victims =
            (0..self.tids.len()).filter(|&c| killed > 0 && c != core && member(&holders, c));
        let mut victims: Vec<(u16, u8)> = victims
            .map(|c| (self.tids[c], last_word(self.tids[c])))
            .collect();
        victims.sort_unstable(); // by thread: the order the records are read out in
        let kinds: Vec<RecKind> = match kind {
            _ if killed > 0 => victims
                .into_iter()
                .map(|(victim_tid, victim_word)| RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                })
                .collect(),
            AccessKind::Read => vec![RecKind::Read],
            AccessKind::Write => vec![RecKind::Write],
        };
        rec.push(line_start, tid.0, word, &kinds);
        self.last_word.insert((line, tid.0), word);
    }

    /// Hands the counts since the last publication to the `mesi_*_total`
    /// counters.
    fn publish(&mut self) {
        let (now, then) = (self.stats, self.published);
        predator_obs::static_counter!("mesi_accesses_total")
            .add(now.hits + now.misses - then.hits - then.misses);
        predator_obs::static_counter!("mesi_invalidation_events_total")
            .add(now.invalidation_events - then.invalidation_events);
        predator_obs::static_counter!("mesi_lines_invalidated_total")
            .add(now.lines_invalidated - then.lines_invalidated);
        self.published = now;
    }
}

impl Drop for MesiSim {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind::{Read, Write};
    use crate::history::HistoryTable;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn sim(n: usize) -> MesiSim {
        MesiSim::new(n, CacheGeometry::new(64))
    }

    /// Number of lines currently resident in `core`'s cache.
    fn resident_lines(m: &MesiSim, core: ThreadId) -> usize {
        let stride = 2 * m.width + 1;
        let cells = m.pages.iter().flat_map(|p| p.chunks_exact(stride));
        m.dense(core)
            .map_or(0, |dense| cells.filter(|c| member(c, dense)).count())
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
    fn misses_split_into_cold_and_coherence() {
        let mut m = sim(2);
        for i in 0..100u64 {
            m.access(ThreadId((i % 2) as u16), (i % 2) * 8, 8, Write);
        }
        let s = m.stats();
        assert_eq!(s.cold_misses, 2);
        assert_eq!(s.coherence_misses, 98);
        assert_eq!(s.misses, s.cold_misses + s.coherence_misses);
    }

    #[test]
    #[should_panic(expected = "exceeds configured core count")]
    fn rejects_unknown_core() {
        let mut m = sim(1);
        m.access(T1, 0, 8, Write);
    }

    #[test]
    fn attached_recorder_sees_invalidations_with_victim_words() {
        let mut m = sim(2);
        m.set_recorder(16);
        m.access(T0, 0, 8, Write); // T0 writes word 0
        m.access(T1, 24, 8, Write); // T1 writes word 3: invalidates T0
        m.access(T0, 0, 8, Write); // T0 writes word 0: invalidates T1
        let recs = m.recording().unwrap().line_records(0);
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
    fn infinite_caches_keep_every_line() {
        let mut m = sim(1);
        for line in 0..10_000u64 {
            m.access(T0, line * 64, 8, Write);
        }
        assert_eq!(resident_lines(&m, T0), 10_000);
        assert_eq!(m.stats().cold_misses, 10_000);
    }

    /// The 65th distinct thread widens every set once; what the first 64
    /// left behind reads back unchanged, and the newcomer invalidates them.
    #[test]
    fn a_65th_thread_widens_the_sets() {
        let mut m = sim(200);
        for t in 0..64u16 {
            m.access(ThreadId(t * 3), 0, 8, Read);
            m.access(ThreadId(t * 3), 64 * 1000, 8, Write);
        }
        assert_eq!(m.width, 1);
        m.access(ThreadId(199), 0, 8, Write);
        assert_eq!(m.width, 2);
        assert_eq!(m.stats().lines_invalidated, 63 + 64);
        assert_eq!(m.state(ThreadId(189), 1000), Some(LineState::Modified));
        assert_eq!(m.state(ThreadId(199), 0), Some(LineState::Modified));
        assert_eq!(m.line_invalidations(1000), 63);
        assert_eq!(m.line_invalidations(0), 1);
    }

    /// The protocol spelled out per (line, thread) pair: the oracle every
    /// walk and every per-event access is held to.
    #[derive(Default)]
    struct Reference {
        states: BTreeMap<(u64, u16), LineState>,
        touched: BTreeSet<(u64, u16)>,
        invalidations: BTreeMap<u64, u64>,
        words: BTreeMap<(u64, u16), u8>,
        stats: MesiStats,
    }

    impl Reference {
        fn access(&mut self, geom: CacheGeometry, a: Access, rec: &mut Recording) {
            let (me, s) = (a.tid.0, &mut self.stats);
            for line in geom.lines_touched(a.addr, a.size) {
                let word = if geom.line_index(a.addr) == line {
                    geom.word_in_line(a.addr) as u8
                } else {
                    0
                };
                let had = self.states.get(&(line, me)).copied();
                let others: Vec<u16> = self
                    .states
                    .range((line, 0)..=(line, u16::MAX))
                    .map(|(&(_, t), _)| t)
                    .filter(|&t| t != me)
                    .collect();
                match had {
                    Some(_) => s.hits += 1,
                    None if self.touched.insert((line, me)) => s.cold_misses += 1,
                    None => s.coherence_misses += 1,
                }
                s.misses += had.is_none() as u64;
                let mut victims = Vec::new();
                let next = match (a.kind, had) {
                    (Read, Some(st)) => st,
                    (Read, None) if others.is_empty() => LineState::Exclusive,
                    (Read, None) => {
                        for t in others {
                            let st = self.states.insert((line, t), LineState::Shared);
                            s.downgrades += (st == Some(LineState::Modified)) as u64;
                        }
                        LineState::Shared
                    }
                    (Write, Some(LineState::Modified | LineState::Exclusive)) => {
                        LineState::Modified
                    }
                    (Write, _) => {
                        for t in others {
                            self.states.remove(&(line, t));
                            let w = self.words.get(&(line, t)).copied();
                            victims.push((t, w.unwrap_or(WORD_UNKNOWN)));
                        }
                        LineState::Modified
                    }
                };
                self.states.insert((line, me), next);
                let start = geom.line_start(line);
                if victims.is_empty() {
                    let kind = if a.kind.is_write() {
                        RecKind::Write
                    } else {
                        RecKind::Read
                    };
                    rec.push(start, me, word, &[kind]);
                } else {
                    s.invalidation_events += 1;
                    s.lines_invalidated += victims.len() as u64;
                    *self.invalidations.entry(line).or_default() += 1;
                    let victims: Vec<RecKind> = victims
                        .into_iter()
                        .map(|(victim_tid, victim_word)| RecKind::Invalidation {
                            victim_tid,
                            victim_word,
                        })
                        .collect();
                    rec.push(start, me, word, &victims);
                }
                self.words.insert((line, me), word);
            }
        }
    }

    /// The threads a script draws from: 1–5 cores, 100 distinct threads
    /// (two words per set), or ids far apart.
    fn pool(kind: u8, cores: u16) -> Vec<u16> {
        match kind {
            0 => (0..cores).collect(),
            1 => (0..100).map(|t| t * 7).collect(),
            _ => vec![0, 1, 65_535],
        }
    }

    proptest! {
        /// Stats, per-line invalidations, every (thread, line) state and the
        /// recorded rings equal the reference model's, through `walk` and
        /// through per-event `access`, at every portfolio geometry.
        #[test]
        fn prop_matches_the_reference_model(
            (kind, cores) in (0u8..3, 1u16..=5),
            // 1–16 bytes over a few lines of every portfolio size: some straddle.
            ops in proptest::collection::vec((0usize..100, 0u64..1024, 1u8..=16, any::<bool>()), 0..300),
            line_log in 5u32..=8,
            (by_event, recorded) in (any::<bool>(), any::<bool>()),
        ) {
            let (threads, geom) = (pool(kind, cores), CacheGeometry::new(1 << line_log));
            let script: Vec<Access> = ops
                .into_iter()
                .map(|(t, addr, size, w)| Access {
                    tid: ThreadId(threads[t % threads.len()]),
                    addr: 0x4000_0000 + addr,
                    size,
                    kind: if w { Write } else { Read },
                })
                .collect();
            let mut want = Recording::new(8);
            let mut oracle = Reference::default();
            for &a in &script {
                oracle.access(geom, a, &mut want);
            }
            let mut m = MesiSim::new(1 << 16, geom);
            if recorded {
                m.set_recorder(8);
            }
            if by_event {
                for a in &script {
                    m.access(a.tid, a.addr, a.size, a.kind);
                }
            } else {
                m.walk(&script);
            }
            prop_assert_eq!(m.stats(), oracle.stats);
            let lines: BTreeSet<u64> = oracle.touched.iter().map(|&(l, _)| l).collect();
            let tids: BTreeSet<u16> = script.iter().map(|a| a.tid.0).collect();
            for &line in &lines {
                let inv = oracle.invalidations.get(&line).copied().unwrap_or(0);
                prop_assert_eq!(m.line_invalidations(line), inv);
                for &t in &tids {
                    let st = oracle.states.get(&(line, t)).copied();
                    prop_assert_eq!(m.state(ThreadId(t), line), st);
                }
            }
            for &t in &tids {
                let held = oracle.states.keys().filter(|&&(_, h)| h == t).count();
                prop_assert_eq!(resident_lines(&m, ThreadId(t)), held);
            }
            if let Some(got) = m.recording() {
                prop_assert_eq!(got.recorded_lines(), want.recorded_lines());
                for start in want.recorded_lines() {
                    prop_assert_eq!(got.line_records(start), want.line_records(start));
                }
            }
        }

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

        /// Lines share no state: the licence for any per-line filtering of a
        /// trace: simulating it whole equals simulating each line's accesses
        /// alone, line by line (same invalidations, same final states) and
        /// in total (stats sum).
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
                s.downgrades, s.cold_misses, s.coherence_misses,
            ];
            let whole = run(None);
            let mut sum = [0u64; 7];
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
