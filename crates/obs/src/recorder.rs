//! The flight recorder: a bounded, lossy-by-design ring of recent
//! per-cache-line access and invalidation records.
//!
//! Aggregate metrics (counters, histograms) say *how much* invalidation
//! traffic a line suffered; the flight recorder says *why* — which write, by
//! which thread, knocked which reader's copy out, and in what interleaving.
//! Each record carries the issuing thread, the word offset inside the line,
//! the access kind, and a process-global logical timestamp; invalidation
//! records additionally name the victim thread and the victim's last word.
//!
//! Cost model, in order of increasing price:
//!
//! * **disabled** (the default): [`FlightRecorder::is_enabled`] is one
//!   relaxed atomic load, so call sites can stay inline on hot paths;
//! * **enabled, hot path**: [`record`] appends to a plain thread-local
//!   segment and bumps the logical clock — no lock. Segments flush to the
//!   shared per-line rings every [`SEGMENT_LEN`] records and when the
//!   thread exits;
//! * **snapshot**: [`FlightRecorder::line_records`] flushes the calling
//!   thread's segment, locks the ring store, and clones.
//!
//! Loss semantics (deliberate, all bounded):
//!
//! * each line keeps only the `depth` most-recent records (by logical
//!   timestamp); older ones are evicted and counted in
//!   [`FlightRecorder::evicted`]. Rings stay sorted, so a record arriving
//!   in timestamp order — the common case — costs O(1), not a ring scan;
//! * at most [`MAX_LINES`] distinct lines are recorded; records for further
//!   lines are dropped (also counted as evicted);
//! * records sitting in a *live* thread's unflushed segment (at most
//!   `SEGMENT_LEN - 1` per thread) are invisible to snapshots until that
//!   thread flushes or exits.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Records a thread-local segment accumulates before flushing to the shared
/// ring store (one lock acquisition per `SEGMENT_LEN` records).
pub const SEGMENT_LEN: usize = 64;

/// Upper bound on distinct lines the recorder tracks; beyond it, records
/// for new lines are dropped (bounds memory on huge address spaces).
pub const MAX_LINES: usize = 4096;

/// Default per-line ring depth.
pub const DEFAULT_DEPTH: usize = 64;

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
    /// Process-global logical timestamp (invalidation records of one event
    /// share it).
    pub seq: u64,
    /// Issuing thread (the *writer* for invalidations).
    pub tid: u16,
    /// Word offset inside the line (8-byte words).
    pub word: u8,
    /// Access kind, with victim attribution for invalidations.
    pub kind: RecKind,
}

/// The bounded per-line ring store. Use [`recorder`] for the process-global
/// instance hot paths feed via [`record`]/[`record_invalidation`];
/// standalone instances (e.g. the MESI simulator's ground-truth feed) take
/// records directly through [`FlightRecorder::offer`].
pub struct FlightRecorder {
    enabled: AtomicBool,
    depth: AtomicUsize,
    seq: AtomicU64,
    appended: AtomicU64,
    evicted: AtomicU64,
    lines: Mutex<HashMap<u64, Ring, BuildHasherDefault<LineHasher>>>,
}

/// The hasher of every map keyed by cache-line position (a line start here,
/// a page of lines in the MESI simulator): one multiply, not SipHash, per
/// look-up.
/// The rotate moves the mixed high bits down (line starts end in zeros). It
/// resists no collision flood: the ring store holds at most [`MAX_LINES`]
/// keys, and a trace built to collide slows its own `whatif`, nothing else.
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

/// One line's records, ascending by `(seq, slot)`. The slot is the index a
/// record would occupy in an unordered ring that overwrites its oldest
/// entry in place — a newcomer inherits the slot of the record it evicts —
/// and breaks ties among the records of one multi-victim event, both for
/// eviction (lowest slot goes first) and for read-out order.
type Ring = VecDeque<(Rec, usize)>;

fn ring_key(&(rec, slot): &(Rec, usize)) -> (u64, usize) {
    (rec.seq, slot)
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("depth", &self.depth())
            .field("appended", &self.appended())
            .field("evicted", &self.evicted())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// Creates a disabled recorder with the default depth.
    pub const fn new() -> Self {
        FlightRecorder {
            enabled: AtomicBool::new(false),
            depth: AtomicUsize::new(DEFAULT_DEPTH),
            seq: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            lines: Mutex::new(HashMap::with_hasher(BuildHasherDefault::new())),
        }
    }

    /// Starts recording, keeping the `depth` most-recent records per line.
    /// Clears nothing: re-enabling resumes on top of existing rings.
    pub fn enable(&self, depth: usize) {
        self.depth.store(depth.max(1), Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (already-captured records stay readable).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// True while recording. One relaxed load — safe to leave inline on hot
    /// paths.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Per-line ring depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Allocates the next logical timestamp.
    #[inline]
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records offered so far (including ones later evicted).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Records lost to ring eviction or the line cap — the visible measure
    /// of the recorder's deliberate lossiness.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Drops every captured record and zeroes the clock and counters
    /// (enablement and depth are preserved). For tests and run boundaries.
    pub fn reset(&self) {
        let mut lines = self.lines.lock().unwrap();
        lines.clear();
        self.seq.store(0, Ordering::Relaxed);
        self.appended.store(0, Ordering::Relaxed);
        self.evicted.store(0, Ordering::Relaxed);
    }

    /// Inserts records directly into the ring store (one lock acquisition).
    /// This is the flush target for thread-local segments and the front
    /// door for single-threaded feeders like the MESI simulator.
    pub fn offer(&self, recs: &[Rec]) {
        if recs.is_empty() {
            return;
        }
        let depth = self.depth();
        let mut evicted = 0u64;
        let mut lines = self.lines.lock().unwrap();
        // Records of one line arrive in runs (a segment holds a thread's last
        // few accesses): one look-up per run, not per record.
        for run in recs.chunk_by(|a, b| a.line_start == b.line_start) {
            let room = lines.len() < MAX_LINES;
            let ring = match lines.entry(run[0].line_start) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) if room => e.insert(Ring::new()),
                Entry::Vacant(_) => {
                    evicted += run.len() as u64;
                    continue;
                }
            };
            for &rec in run {
                let mut entry = (rec, ring.len());
                if ring.len() >= depth {
                    // Keep the `depth` newest records by timestamp: the
                    // oldest makes room if this one is newer, else the
                    // incoming record itself is dropped.
                    evicted += 1;
                    match ring.front() {
                        Some(oldest) if rec.seq > oldest.0.seq => entry.1 = oldest.1,
                        _ => continue,
                    }
                    ring.pop_front();
                }
                let key = ring_key(&entry);
                match ring.back() {
                    Some(newest) if key < ring_key(newest) => {
                        let at = ring.partition_point(|e| ring_key(e) < key);
                        ring.insert(at, entry);
                    }
                    _ => ring.push_back(entry),
                }
            }
        }
        drop(lines);
        self.appended
            .fetch_add(recs.len() as u64, Ordering::Relaxed);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Allocates one event timestamp and inserts directly (no segment
    /// batching) — for single-threaded feeders holding their own instance.
    pub fn offer_event(&self, line_start: u64, tid: u16, word: u8, kind: RecKind) -> u64 {
        let seq = self.next_seq();
        self.offer(&[Rec {
            line_start,
            seq,
            tid,
            word,
            kind,
        }]);
        seq
    }

    /// Inserts one invalidation *event* directly: one record per victim,
    /// all sharing a single freshly-allocated timestamp.
    pub fn offer_invalidation(
        &self,
        line_start: u64,
        writer_tid: u16,
        writer_word: u8,
        victims: &[(u16, u8)],
    ) -> u64 {
        let seq = self.next_seq();
        let recs: Vec<Rec> = victims
            .iter()
            .map(|&(victim_tid, victim_word)| Rec {
                line_start,
                seq,
                tid: writer_tid,
                word: writer_word,
                kind: RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                },
            })
            .collect();
        self.offer(&recs);
        seq
    }

    /// The records captured for the line starting at `line_start`, sorted by
    /// logical timestamp. Flushes the calling thread's segment first; other
    /// live threads' unflushed segments remain invisible (bounded loss).
    pub fn line_records(&self, line_start: u64) -> Vec<Rec> {
        flush_thread();
        let lines = self.lines.lock().unwrap();
        let ring = lines.get(&line_start);
        ring.map_or_else(Vec::new, |ring| ring.iter().map(|&(rec, _)| rec).collect())
    }

    /// Line start addresses with at least one captured record, ascending.
    pub fn recorded_lines(&self) -> Vec<u64> {
        flush_thread();
        let lines = self.lines.lock().unwrap();
        let mut keys: Vec<u64> = lines.keys().copied().collect();
        drop(lines);
        keys.sort_unstable();
        keys
    }
}

/// The process-global flight recorder. Disabled (one relaxed load per
/// check) until the CLI or a test enables it.
#[inline]
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: FlightRecorder = FlightRecorder::new();
    &RECORDER
}

mod segment {
    use super::{recorder, Rec, SEGMENT_LEN};
    use std::cell::RefCell;

    /// A thread-local batch destined for the *global* recorder; flushed when
    /// full and when the owning thread exits.
    struct Segment {
        buf: Vec<Rec>,
    }

    impl Drop for Segment {
        fn drop(&mut self) {
            recorder().offer(&self.buf);
        }
    }

    thread_local! {
        static SEGMENT: RefCell<Segment> = const { RefCell::new(Segment { buf: Vec::new() }) };
    }

    pub(super) fn push(rec: Rec) {
        // `try_with` so records arriving during thread teardown (after the
        // TLS slot was destroyed) fall through to a direct insert.
        let spilled = SEGMENT
            .try_with(|seg| {
                let mut seg = seg.borrow_mut();
                seg.buf.push(rec);
                if seg.buf.len() >= SEGMENT_LEN {
                    // Offered in place and cleared: the buffer keeps its
                    // capacity from one flush to the next.
                    recorder().offer(&seg.buf);
                    seg.buf.clear();
                }
            })
            .is_err();
        if spilled {
            recorder().offer(&[rec]);
        }
    }

    pub(super) fn flush() {
        let batch = SEGMENT
            .try_with(|seg| std::mem::take(&mut seg.borrow_mut().buf))
            .unwrap_or_default();
        recorder().offer(&batch);
    }
}

/// Flushes the calling thread's segment into the global recorder (snapshot
/// paths call this; worker threads flush automatically on exit).
pub fn flush_thread() {
    segment::flush();
}

/// Records one sampled access into the global recorder's thread-local
/// segment. No-op while the recorder is disabled (callers should pre-check
/// [`FlightRecorder::is_enabled`] to skip argument setup).
#[inline]
pub fn record(line_start: u64, tid: u16, word: u8, is_write: bool) {
    let r = recorder();
    if !r.is_enabled() {
        return;
    }
    let kind = if is_write {
        RecKind::Write
    } else {
        RecKind::Read
    };
    segment::push(Rec {
        line_start,
        seq: r.next_seq(),
        tid,
        word,
        kind,
    });
}

/// Records one invalidation event into the global recorder: `writer_tid`
/// writing `writer_word` knocked out the copies of `victims` (pairs of
/// victim thread and the victim's last-seen word). One record per victim,
/// all sharing the event's logical timestamp.
#[inline]
pub fn record_invalidation(
    line_start: u64,
    writer_tid: u16,
    writer_word: u8,
    victims: &[(u16, u8)],
) {
    let r = recorder();
    if !r.is_enabled() || victims.is_empty() {
        return;
    }
    let seq = r.next_seq();
    for &(victim_tid, victim_word) in victims {
        segment::push(Rec {
            line_start,
            seq,
            tid: writer_tid,
            word: writer_word,
            kind: RecKind::Invalidation {
                victim_tid,
                victim_word,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: u64, seq: u64, tid: u16) -> Rec {
        Rec {
            line_start: line,
            seq,
            tid,
            word: (seq % 8) as u8,
            kind: RecKind::Write,
        }
    }

    #[test]
    fn disabled_recorder_reports_disabled() {
        let r = FlightRecorder::new();
        assert!(!r.is_enabled());
        r.enable(4);
        assert!(r.is_enabled());
        r.disable();
        assert!(!r.is_enabled());
    }

    #[test]
    fn ring_keeps_the_most_recent_depth_records() {
        let r = FlightRecorder::new();
        r.enable(3);
        for seq in 0..10 {
            r.offer(&[rec(64, seq, 0)]);
        }
        let kept: Vec<u64> = r.line_records(64).iter().map(|x| x.seq).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(r.appended(), 10);
        assert_eq!(r.evicted(), 7);
    }

    #[test]
    fn out_of_order_arrival_still_keeps_newest_by_seq() {
        let r = FlightRecorder::new();
        r.enable(2);
        // Batched thread-local segments can interleave arrival order.
        for seq in [5u64, 1, 9, 2, 8] {
            r.offer(&[rec(0, seq, 0)]);
        }
        let kept: Vec<u64> = r.line_records(0).iter().map(|x| x.seq).collect();
        assert_eq!(kept, vec![8, 9]);
    }

    fn victim(seq: u64, victim_tid: u16) -> Rec {
        Rec {
            line_start: 0,
            seq,
            tid: 0,
            word: 0,
            kind: RecKind::Invalidation {
                victim_tid,
                victim_word: 1,
            },
        }
    }

    fn victims_of(recs: &[Rec]) -> Vec<(u64, u16)> {
        recs.iter()
            .map(|r| match r.kind {
                RecKind::Invalidation { victim_tid, .. } => (r.seq, victim_tid),
                _ => (r.seq, u16::MAX),
            })
            .collect()
    }

    #[test]
    fn equal_seq_victims_at_the_eviction_boundary() {
        let r = FlightRecorder::new();
        r.enable(3);
        r.offer(&[rec(0, 1, 0), rec(0, 2, 0)]);
        // A two-victim event fills the ring, then overflows it by one: the
        // oldest record goes, both victims of the event stay.
        r.offer(&[victim(3, 7), victim(3, 8)]);
        // (Siblings read out in slot order: victim 8 took over slot 0.)
        assert_eq!(
            victims_of(&r.line_records(0)),
            [(2, u16::MAX), (3, 8), (3, 7)]
        );
        assert_eq!(r.evicted(), 1);
        // A three-victim event into a ring of three newer-or-equal records:
        // each victim evicts the oldest survivor; none evicts a sibling.
        r.offer(&[victim(4, 1), victim(4, 2), victim(4, 3)]);
        let mut kept = victims_of(&r.line_records(0));
        kept.sort_unstable();
        assert_eq!(kept, [(4, 1), (4, 2), (4, 3)]);
        // A late sibling finds only its own event in the ring and is dropped
        // (not newer than the oldest), counted like any other loss.
        r.offer(&[victim(4, 4)]);
        assert_eq!(r.line_records(0).len(), 3);
        assert!(!victims_of(&r.line_records(0)).contains(&(4, 4)));
        assert_eq!((r.appended(), r.evicted()), (8, 5));
    }

    #[test]
    fn out_of_order_segments_merge_into_one_ordered_ring() {
        let r = FlightRecorder::new();
        r.enable(4);
        // Two threads' segments flush in the "wrong" order: the later
        // timestamps arrive first, then an older segment of which only the
        // records newer than the ring's oldest may enter.
        r.offer(&[rec(0, 10, 1), rec(0, 12, 1), rec(0, 14, 1)]);
        r.offer(&[rec(0, 9, 2), rec(0, 11, 2), rec(0, 13, 2)]);
        let kept: Vec<(u64, u16)> = r.line_records(0).iter().map(|x| (x.seq, x.tid)).collect();
        assert_eq!(kept, [(11, 2), (12, 1), (13, 2), (14, 1)]);
        assert_eq!((r.appended(), r.evicted()), (6, 2));
    }

    /// The ring the recorder used to keep: unordered, scanned for its
    /// oldest entry on every record once full, sorted on read-out.
    fn scan_ring_offer(ring: &mut Vec<Rec>, depth: usize, rec: Rec) -> bool {
        if ring.len() < depth {
            ring.push(rec);
            return false;
        }
        let (i, oldest) = ring
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.seq)
            .map(|(i, r)| (i, r.seq))
            .unwrap();
        if rec.seq > oldest {
            ring[i] = rec;
        }
        true
    }

    #[test]
    fn ordered_ring_reads_out_exactly_what_the_scanned_ring_did() {
        // xorshift streams of mostly-increasing timestamps with ties
        // (multi-victim events), stale stragglers and depth changes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200 {
            let r = FlightRecorder::new();
            let mut depth = 1 + (next() % 9) as usize;
            r.enable(depth);
            let mut reference = Vec::new();
            let (mut clock, mut evicted) = (0u64, 0u64);
            for i in 0..(next() % 120) {
                clock += next() % 3; // 0 = a sibling of the previous event
                let seq = match next() % 5 {
                    0 => clock.saturating_sub(next() % 8), // straggler
                    _ => clock,
                };
                if next() % 40 == 0 {
                    depth = 1 + (next() % 9) as usize;
                    r.enable(depth);
                }
                let rec = victim(seq, i as u16);
                r.offer(&[rec]);
                evicted += scan_ring_offer(&mut reference, depth, rec) as u64;
            }
            reference.sort_by_key(|r| r.seq);
            assert_eq!(r.line_records(0), reference, "round {round}");
            assert_eq!(r.evicted(), evicted, "round {round}");
        }
    }

    #[test]
    fn lines_are_independent_rings() {
        let r = FlightRecorder::new();
        r.enable(2);
        for seq in 0..6 {
            r.offer(&[rec((seq % 3) * 64, seq, 0)]);
        }
        assert_eq!(r.recorded_lines(), vec![0, 64, 128]);
        for line in [0u64, 64, 128] {
            assert_eq!(r.line_records(line).len(), 2);
        }
    }

    #[test]
    fn offer_event_assigns_monotonic_seqs() {
        let r = FlightRecorder::new();
        r.enable(8);
        let a = r.offer_event(0, 0, 0, RecKind::Read);
        let b = r.offer_event(0, 1, 1, RecKind::Write);
        assert!(b > a);
        assert_eq!(r.line_records(0).len(), 2);
    }

    #[test]
    fn reset_clears_records_and_counters() {
        let r = FlightRecorder::new();
        r.enable(2);
        for seq in 0..5 {
            r.offer(&[rec(0, seq, 0)]);
        }
        r.reset();
        assert!(r.line_records(0).is_empty());
        assert_eq!(r.appended(), 0);
        assert_eq!(r.evicted(), 0);
        assert!(r.is_enabled(), "enablement survives reset");
    }

    #[test]
    fn line_cap_drops_new_lines_not_old_records() {
        let r = FlightRecorder::new();
        r.enable(1);
        let mut batch = Vec::new();
        for i in 0..(MAX_LINES as u64 + 10) {
            batch.push(rec(i * 64, i, 0));
        }
        r.offer(&batch);
        assert_eq!(r.recorded_lines().len(), MAX_LINES);
        assert_eq!(r.evicted(), 10);
    }

    #[test]
    fn multi_victim_invalidations_share_a_seq() {
        let r = FlightRecorder::new();
        r.enable(8);
        let seq = r.next_seq();
        let recs: Vec<Rec> = [(1u16, 2u8), (2, 5)]
            .iter()
            .map(|&(victim_tid, victim_word)| Rec {
                line_start: 0,
                seq,
                tid: 0,
                word: 0,
                kind: RecKind::Invalidation {
                    victim_tid,
                    victim_word,
                },
            })
            .collect();
        r.offer(&recs);
        let got = r.line_records(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, got[1].seq);
    }
}
