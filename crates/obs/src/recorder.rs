//! The flight recorder: a bounded, lossy-by-design ring of recent
//! per-cache-line access and invalidation records, owned by the detector
//! (or simulator) that writes it.
//!
//! Aggregate metrics (counters, histograms) say *how much* invalidation
//! traffic a line suffered; the flight recorder says *why* — which write, by
//! which thread, knocked which reader's copy out, and in what interleaving.
//! Each record carries the issuing thread, the word offset inside the line,
//! the access kind, and its recorder's logical timestamp; invalidation
//! records additionally name the victim thread and the victim's last word.
//!
//! [`recorder`] is only the process-wide switch: whether a detector built
//! now records, and how deep its rings are. A detector reads it once, when
//! it is built. It then owns a [`FlightRecorder`] — a logical clock and a
//! line cap — and one [`Ring`] per tracked line, reached by the line's
//! shadow index; the MESI simulator keeps the same rings by line start.
//!
//! Cost model, in order of increasing price:
//!
//! * **off** (the default): the detector holds no recorder, and a sampled
//!   access tests one `Option`;
//! * **on, owned detector**: the clock and the ring's cells are loaded and
//!   stored under [`Exclusive`](crate::mode::Exclusive) — no `lock` prefix,
//!   and the ring's lock word is left alone;
//! * **on, shared detector**: the ring's lock word is taken by
//!   compare-exchange *before* the clock is read by fetch-add, so no record
//!   is torn and each ring receives its records in clock order;
//! * **snapshot**: [`Ring::records`] copies one ring under its lock word.
//!
//! Loss semantics (deliberate, all bounded and counted):
//!
//! * a ring keeps the `depth` newest records by `(seq, slot)` — the slot is
//!   the cell a record occupies, and a newcomer inherits the slot of the
//!   record it evicts, so the records of one multi-victim event keep and
//!   read out in slot order; pushes into a full ring count as evicted
//!   ([`Ring::counts`]);
//! * a recorder opens rings for at most [`MAX_LINES`] lines (give or take
//!   the threads racing to open one in a shared detector); the records of
//!   further lines are dropped and counted ([`FlightRecorder::capped`]).
//!
//! Nothing else is lost: a record is in its ring when the push returns.

use std::hash::Hasher;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use crate::mode::{Mode, RawU64};

/// Upper bound on the lines one recorder opens rings for; beyond it,
/// records for new lines are dropped (bounds memory on huge address spaces).
pub const MAX_LINES: usize = 4096;

/// Default per-line ring depth.
pub const DEFAULT_DEPTH: usize = 64;

/// Largest ring depth: a record's slot is packed into 14 bits.
pub const MAX_DEPTH: usize = 1 << 14;

/// Sentinel word offset meaning "unknown" (e.g. a victim that was never
/// seen accessing the line while the recorder was enabled).
pub const WORD_UNKNOWN: u8 = u8::MAX;

/// What one record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecKind {
    /// A sampled read.
    Read,
    /// A sampled write that invalidated nothing.
    Write,
    /// A write that knocked a remote copy out. The writing thread and word
    /// are the record's `tid`/`word`; the victim rides along. Multi-victim
    /// events emit one record per victim, all sharing the event's `seq`.
    Invalidation {
        /// Thread whose cached copy was invalidated.
        victim_tid: u16,
        /// Last word the victim was seen touching ([`WORD_UNKNOWN`] if it
        /// was never observed while the recorder was on).
        victim_word: u8,
    },
}

/// One flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// First byte address of the cache line.
    pub line_start: u64,
    /// The recorder's logical timestamp (invalidation records of one event
    /// share it).
    pub seq: u64,
    /// Issuing thread (the *writer* for invalidations).
    pub tid: u16,
    /// Word offset inside the line (8-byte words).
    pub word: u8,
    /// Access kind, with victim attribution for invalidations.
    pub kind: RecKind,
}

/// The hasher of every map keyed by cache-line position (a line start in
/// the MESI simulator's rings, a page of lines in its cells): one multiply,
/// not SipHash, per look-up.
/// The rotate moves the mixed high bits down (line starts end in zeros). It
/// resists no collision flood: a trace built to collide slows its own
/// `whatif`, nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line starts hash through write_u64");
    }
    #[inline]
    fn write_u64(&mut self, line_start: u64) {
        self.0 = line_start
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The process-wide switch: the ring depth a detector built now records
/// with, 0 for off.
#[derive(Debug)]
pub struct RecorderSwitch(AtomicUsize);

impl RecorderSwitch {
    /// Detectors built from now on record, `depth` records per line
    /// (clamped to `1..=`[`MAX_DEPTH`]).
    pub fn enable(&self, depth: usize) {
        self.0.store(depth.clamp(1, MAX_DEPTH), Ordering::Relaxed);
    }

    /// Detectors built from now on do not record.
    pub fn disable(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// The ring depth a detector built now records with, `None` when off.
    pub fn depth(&self) -> Option<usize> {
        Some(self.0.load(Ordering::Relaxed)).filter(|&d| d > 0)
    }

    /// Nothing to drop: every detector owns its records and starts empty.
    /// Stays only because `benchmark/` calls it (ROADMAP 1(f)).
    pub fn reset(&self) {}
}

/// The flight-recorder switch. Off until the CLI or a test enables it.
pub fn recorder() -> &'static RecorderSwitch {
    static SWITCH: RecorderSwitch = RecorderSwitch(AtomicUsize::new(0));
    &SWITCH
}

/// What a recorder keeps besides its rings: the logical clock every event
/// takes one timestamp from, the depth of the rings it opens and the line
/// cap. Its owner finds the rings (by shadow index, by line start).
#[derive(Debug)]
pub struct FlightRecorder {
    depth: usize,
    clock: AtomicU64,
    lines: AtomicU64,
    capped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder whose rings keep `depth` records (clamped to
    /// `1..=`[`MAX_DEPTH`]).
    pub fn new(depth: usize) -> Self {
        FlightRecorder {
            depth: depth.clamp(1, MAX_DEPTH),
            clock: AtomicU64::new(0),
            lines: AtomicU64::new(0),
            capped: AtomicU64::new(0),
        }
    }

    /// A ring for a line that has none yet — `None` past [`MAX_LINES`], and
    /// the `records` that would have opened it count as [`capped`].
    ///
    /// [`capped`]: Self::capped
    pub fn open_ring<M: Mode>(&self, m: M, line_start: u64, records: usize) -> Option<Ring> {
        if self.lines.load(Ordering::Relaxed) >= MAX_LINES as u64 {
            m.add(&self.capped, records as u64);
            return None;
        }
        m.add(&self.lines, 1);
        Some(Ring::new(line_start, self.depth))
    }

    /// Records one event into `ring`: one record per `kinds` entry, all
    /// under one timestamp, which is returned.
    #[inline(always)]
    pub fn push<M: Mode>(&self, m: M, ring: &Ring, tid: u16, word: u8, kinds: &[RecKind]) -> u64 {
        ring.push(m, &self.clock, tid, word, kinds)
    }

    /// Records dropped because their line found no ring under the cap.
    pub fn capped(&self) -> u64 {
        self.capped.load(Ordering::Relaxed)
    }
}

/// One line's ring: the `depth` newest records, two cells each, kept in
/// read-out order from the oldest. Generic over the cell so the model tests
/// run this code on the loom shim's atomics.
#[derive(Debug)]
pub struct Ring<A = AtomicU64> {
    line_start: u64,
    /// 0 free, 1 held; taken only under a shared detector.
    lock: A,
    /// Records pushed, kept or not.
    pushed: A,
    /// `[len:32][head:32]`: records kept, and the position of the oldest.
    pos: A,
    /// Position `p` holds a seq at `2p` and its [`pack`]ed fields at `2p + 1`.
    cells: Box<[A]>,
}

const SLOT_SHIFT: u32 = 50;

/// `[slot:14][victim_word:8][victim_tid:16][kind:2][word:8][tid:16]`.
fn pack(tid: u16, word: u8, kind: RecKind, slot: usize) -> u64 {
    let (code, victim) = match kind {
        RecKind::Read => (0, 0),
        RecKind::Write => (1, 0),
        RecKind::Invalidation {
            victim_tid,
            victim_word,
        } => (2, u64::from(victim_tid) | u64::from(victim_word) << 16),
    };
    u64::from(tid) | u64::from(word) << 16 | code << 24 | victim << 26 | (slot as u64) << SLOT_SHIFT
}

fn slot_of(bits: u64) -> usize {
    (bits >> SLOT_SHIFT) as usize
}

/// Takes a ring's lock word under a shared detector, spinning until its
/// compare-exchange wins; the `Acquire` fence after it pairs with the
/// `Release` fence before the holder's unlocking store. The owner of a
/// detector is the ring's only writer and reader: it takes nothing.
fn lock<M: Mode, A: RawU64>(m: M, word: &A) {
    if M::SHARED {
        while m.cas(word, 0, 1).is_err() {
            std::hint::spin_loop();
        }
        fence(Ordering::Acquire);
    }
}

fn unlock<M: Mode, A: RawU64>(_: M, word: &A) {
    if M::SHARED {
        fence(Ordering::Release);
        word.store(0);
    }
}

impl<A: RawU64 + Default> Ring<A> {
    /// An empty ring of `depth` records (clamped to `1..=`[`MAX_DEPTH`]) for
    /// the line starting at `line_start`.
    pub fn new(line_start: u64, depth: usize) -> Self {
        let cells = 2 * depth.clamp(1, MAX_DEPTH);
        Ring {
            line_start,
            lock: A::default(),
            pushed: A::default(),
            pos: A::default(),
            cells: (0..cells).map(|_| A::default()).collect(),
        }
    }

    fn depth(&self) -> usize {
        self.cells.len() / 2
    }

    /// Records one event stamped by `clock`: one record per `kinds` entry,
    /// all under the seq it returns.
    #[inline]
    pub fn push<M: Mode>(&self, m: M, clock: &A, tid: u16, word: u8, kinds: &[RecKind]) -> u64 {
        lock(m, &self.lock);
        let seq = m.add(clock, 1);
        // A local slice: the cell stores below cannot move it, so its
        // pointer and length stay in registers.
        let cells: &[A] = &self.cells;
        let depth = cells.len() / 2;
        let (mut head, mut len) = {
            let pos = self.pos.load();
            ((pos as u32) as usize, (pos >> 32) as usize)
        };
        // Positions wrap by compare, not `%`: a division per record was the
        // ring's costliest instruction.
        for (n, &kind) in kinds.iter().enumerate() {
            // Only an event's later records can meet a sibling in the ring.
            let sibling = n > 0;
            let (at, slot) = if len < depth {
                // Not full yet, so nothing was evicted and `head` is 0.
                len += 1;
                (len - 1, len - 1)
            } else if sibling && cells[2 * head].load() == seq {
                // Every kept record is a sibling of this one, so this one is
                // not newer than the oldest: dropped.
                continue;
            } else {
                let oldest = head;
                head = if head + 1 == depth { 0 } else { head + 1 };
                (oldest, slot_of(cells[2 * oldest + 1].load()))
            };
            cells[2 * at].store(seq);
            cells[2 * at + 1].store(pack(tid, word, kind, slot));
            // Siblings read out in slot order: the newcomer moves in front
            // of the siblings holding a higher slot.
            let mut i = at;
            while sibling && i != head {
                let prev = if i == 0 { depth - 1 } else { i - 1 };
                let fields = cells[2 * prev + 1].load();
                if cells[2 * prev].load() != seq || slot_of(fields) < slot {
                    break;
                }
                cells[2 * i + 1].store(fields);
                cells[2 * prev + 1].store(pack(tid, word, kind, slot));
                i = prev;
            }
        }
        self.pushed.store(self.pushed.load() + kinds.len() as u64);
        self.pos.store((len as u64) << 32 | head as u64);
        unlock(m, &self.lock);
        seq
    }

    /// The kept records, oldest first.
    pub fn records<M: Mode>(&self, m: M) -> Vec<Rec> {
        lock(m, &self.lock);
        let pos = self.pos.load();
        let (head, len, depth) = ((pos as u32) as usize, (pos >> 32) as usize, self.depth());
        let recs = (head..head + len)
            .map(|p| {
                let at = p % depth;
                let bits = self.cells[2 * at + 1].load();
                let kind = match bits >> 24 & 3 {
                    0 => RecKind::Read,
                    1 => RecKind::Write,
                    _ => RecKind::Invalidation {
                        victim_tid: (bits >> 26) as u16,
                        victim_word: (bits >> 42) as u8,
                    },
                };
                Rec {
                    line_start: self.line_start,
                    seq: self.cells[2 * at].load(),
                    tid: bits as u16,
                    word: (bits >> 16) as u8,
                    kind,
                }
            })
            .collect();
        unlock(m, &self.lock);
        recs
    }

    /// `(appended, evicted)`: records pushed, and of those the ones that
    /// met a full ring (kept = appended − evicted).
    pub fn counts<M: Mode>(&self, m: M) -> (u64, u64) {
        lock(m, &self.lock);
        let (pushed, kept) = (self.pushed.load(), self.pos.load() >> 32);
        unlock(m, &self.lock);
        (pushed, pushed - kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{Exclusive, Shared};

    fn victim(victim_tid: u16) -> RecKind {
        RecKind::Invalidation {
            victim_tid,
            victim_word: 1,
        }
    }

    /// `(seq, victim)` per record, `u16::MAX` for a plain access.
    fn victims_of(ring: &Ring) -> Vec<(u64, u16)> {
        let recs = ring.records(Exclusive).into_iter();
        recs.map(|r| match r.kind {
            RecKind::Invalidation { victim_tid, .. } => (r.seq, victim_tid),
            _ => (r.seq, u16::MAX),
        })
        .collect()
    }

    #[test]
    fn the_switch_is_off_until_enabled_and_clamps_its_depth() {
        let switch = RecorderSwitch(AtomicUsize::new(0));
        assert_eq!(switch.depth(), None);
        switch.enable(0);
        assert_eq!(switch.depth(), Some(1));
        switch.enable(usize::MAX);
        assert_eq!(switch.depth(), Some(MAX_DEPTH));
        switch.disable();
        assert_eq!(switch.depth(), None);
    }

    #[test]
    fn a_ring_keeps_the_most_recent_depth_records() {
        let r = FlightRecorder::new(3);
        let ring = Ring::new(64, 3);
        for _ in 0..10 {
            r.push(Exclusive, &ring, 0, 0, &[RecKind::Write]);
        }
        let kept: Vec<u64> = ring.records(Exclusive).iter().map(|x| x.seq).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(ring.counts(Exclusive), (10, 7));
    }

    #[test]
    fn equal_seq_victims_at_the_eviction_boundary() {
        let r = FlightRecorder::new(3);
        let ring = Ring::new(0, 3);
        r.push(Exclusive, &ring, 0, 0, &[RecKind::Write]);
        r.push(Exclusive, &ring, 0, 0, &[RecKind::Write]);
        // A two-victim event fills the ring, then overflows it by one: the
        // oldest record goes, both victims of the event stay, and read out
        // in slot order (victim 8 took over slot 0).
        r.push(Exclusive, &ring, 0, 0, &[victim(7), victim(8)]);
        assert_eq!(victims_of(&ring), [(1, u16::MAX), (2, 8), (2, 7)]);
        assert_eq!(ring.counts(Exclusive), (4, 1));
        // A three-victim event evicts every older record, none of its own.
        r.push(Exclusive, &ring, 0, 0, &[victim(1), victim(2), victim(3)]);
        let mut kept = victims_of(&ring);
        kept.sort_unstable();
        assert_eq!(kept, [(3, 1), (3, 2), (3, 3)]);
        // A four-victim event's last sibling meets a ring of its siblings
        // and is dropped, counted like any other loss.
        r.push(
            Exclusive,
            &ring,
            0,
            0,
            &[victim(4), victim(5), victim(6), victim(9)],
        );
        let kept = victims_of(&ring);
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|&(seq, v)| seq == 4 && v != 9));
        assert_eq!(ring.counts(Exclusive), (11, 8));
    }

    #[test]
    fn records_round_trip_every_field_at_its_widest() {
        let r = FlightRecorder::new(MAX_DEPTH);
        let ring = Ring::new(1 << 40, MAX_DEPTH);
        let kinds = [RecKind::Read, RecKind::Write, victim(u16::MAX)];
        let seqs: Vec<u64> = kinds
            .iter()
            .map(|k| r.push(Shared, &ring, u16::MAX, WORD_UNKNOWN, &[*k]))
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
        let got = ring.records(Shared);
        for ((rec, kind), seq) in got.iter().zip(kinds).zip(seqs) {
            let want = Rec {
                line_start: 1 << 40,
                seq,
                tid: u16::MAX,
                word: WORD_UNKNOWN,
                kind,
            };
            assert_eq!(*rec, want);
        }
    }

    #[test]
    fn the_line_cap_drops_new_lines_and_counts_their_records() {
        let r = FlightRecorder::new(1);
        for line in 0..MAX_LINES as u64 {
            assert!(r.open_ring(Exclusive, line * 64, 1).is_some());
        }
        assert!(r.open_ring(Exclusive, 0, 2).is_none());
        assert_eq!(r.capped(), 2);
    }
}
