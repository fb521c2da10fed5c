//! Lock-free per-line shadow state.
//!
//! The paper's runtime updates per-cache-line metadata without locks,
//! accepting benign races for speed (§2.3, Figure 1). This module rebuilds
//! the tracked-line hot path in that spirit while keeping the one count that
//! the detector's verdicts hinge on — **invalidations** — exact:
//!
//! * the two-entry history table (§2.3.1) is one `AtomicU64` holding a
//!   [`HistoryTable`]'s bits, advanced by a CAS loop over the *pure*
//!   [`HistoryTable::record`], so every interleaving of concurrent
//!   accesses linearizes to some serial order and no invalidation is ever
//!   lost or double-counted (model-checked in `tests/loom_model.rs`);
//! * word/line counters are plain `Relaxed` atomics fed through a per-line
//!   *batch slot*: one packed word remembering the last writer's `(thread,
//!   word)` plus its pending read/write counts, so a thread streaming over
//!   its own word coalesces counter updates into one CAS each and drains
//!   only when displaced by another thread (or when the next write would
//!   land on a `PredictionThreshold` multiple — see [`batch`]);
//! * the only ordering stronger than `Relaxed` is an `Acquire` fence on the
//!   threshold-promotion edge, taken once per `PredictionThreshold` writes,
//!   so the hot-pair analysis that follows observes the counter updates
//!   drained before the threshold was crossed;
//! * the prediction units attached to a line are one immutable array
//!   behind one pointer (`UnitList`): an attach publishes a copy plus the
//!   new unit by a `Release` CAS, the walk is an `Acquire` load and a
//!   slice, and replaced arrays live until the list drops.
//!
//! The algorithms are generic twice over ([`predator_shadow::mode`]). Over
//! the cell, [`RawU64`]: `std::sync::atomic::AtomicU64` in production, the
//! vendored `loom` shim's `AtomicU64` in the model tests, so the code that is
//! model-checked is the code that ships, not a replica. And over the
//! [`Mode`] every read-modify-write goes through: [`Shared`] is everything
//! said above; under [`Exclusive`] — the detector's owner thread, proven per
//! call by `Predator` — the same cells are updated by load and store, every
//! CAS below succeeds first time, and the protocols degenerate to the
//! sequential spec they linearize to.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use predator_sim::{AccessKind, HistoryTable, Owner, ThreadId, WordState, WordTracker};

pub use predator_shadow::mode::{Exclusive, Mode, RawU64, Shared};

/// Advances the [`HistoryTable`] bits in `hist` by one access, lock-free.
/// Returns `(previous_table_bits, invalidated)`.
///
/// The CAS loop applies the pure [`HistoryTable::record`]; because
/// an access whose transition is the identity never invalidates, the common
/// case of a thread re-touching a line it already owns is a single relaxed
/// load with no RMW at all. Every *successful* CAS is one linearized
/// application of the sequential rules, so summing the returned `invalidated`
/// flags across threads counts exactly the invalidations of the history's
/// modification order — no interleaving can lose or duplicate one.
#[inline(always)]
pub fn record_history<M: Mode, A: RawU64>(
    m: M,
    hist: &A,
    tid: ThreadId,
    kind: AccessKind,
) -> (u64, bool) {
    let mut cur = hist.load();
    loop {
        let mut next = HistoryTable(cur);
        let invalidated = next.record(tid, kind);
        if next.0 == cur {
            return (cur, false);
        }
        match m.cas(hist, cur, next.0) {
            Ok(_) => return (cur, invalidated),
            Err(actual) => cur = actual,
        }
    }
}

/// True when adding `added` writes to a counter previously at `prev` crosses
/// (or lands on) a multiple of `threshold` — the promotion edge that makes
/// hot-pair analysis due.
#[inline]
pub fn crosses_threshold(prev: u64, added: u64, threshold: u64) -> bool {
    added > 0 && (prev + added) / threshold > prev / threshold
}

/// The per-line batch slot: last-writer word state packed into one atomic.
///
/// Layout (low to high):
///
/// ```text
/// [allowance:8][writes:8][reads:8][word:8][tid:16][unused:15][present:1]
/// ```
///
/// A thread streaming accesses over one word of a line parks its pending
/// read/write counts here with single CASes; the counts drain into the
/// per-word atomics when another `(thread, word)` displaces the batch, when
/// a snapshot claims it, or when `allowance` — the number of further writes
/// that may defer before the line's committed write count reaches the next
/// `PredictionThreshold` multiple — runs out. The allowance cap is what
/// keeps `analysis_due` firing on exactly the k·threshold-th write under any
/// serialized feed, which the differential suite checks against the
/// sequential spec.
pub mod batch {
    /// Maximum pending count per kind before a forced drain.
    pub const MAX_PENDING: u64 = u8::MAX as u64;
    const PRESENT: u64 = 1 << 63;

    /// True when the slot holds a batch.
    #[inline]
    pub fn present(bits: u64) -> bool {
        bits & PRESENT != 0
    }

    /// Owning thread of the batch.
    #[inline]
    pub fn tid(bits: u64) -> u16 {
        (bits >> 32) as u16
    }

    /// Word index the batch accumulates on.
    #[inline]
    pub fn word(bits: u64) -> u8 {
        (bits >> 24) as u8
    }

    /// Pending reads.
    #[inline]
    pub fn reads(bits: u64) -> u64 {
        (bits >> 16) & 0xff
    }

    /// Pending writes.
    #[inline]
    pub fn writes(bits: u64) -> u64 {
        (bits >> 8) & 0xff
    }

    /// Writes this batch may still absorb before a forced drain.
    #[inline]
    pub fn allowance(bits: u64) -> u64 {
        bits & 0xff
    }

    /// A fresh batch holding exactly the offering access. `write_allowance`
    /// is the distance (in writes, inclusive) to the next threshold
    /// multiple; the caller guarantees `write_allowance > 1` for writes.
    #[inline]
    pub fn new(tid: u16, word: u8, is_write: bool, write_allowance: u64) -> u64 {
        let clamped = write_allowance.min(MAX_PENDING + 1);
        let left = clamped - is_write as u64;
        PRESENT
            | ((tid as u64) << 32)
            | ((word as u64) << 24)
            | ((!is_write as u64) << 16)
            | ((is_write as u64) << 8)
            | left.min(MAX_PENDING)
    }

    /// Absorbs one more read.
    #[inline]
    pub fn bump_read(bits: u64) -> u64 {
        bits + (1 << 16)
    }

    /// Absorbs one more write, consuming one unit of allowance.
    #[inline]
    pub fn bump_write(bits: u64) -> u64 {
        bits + (1 << 8) - 1
    }
}

/// Outcome of offering one access to a line's batch slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The access was absorbed into the pending batch; nothing to drain.
    Deferred,
    /// The caller claimed the slot. It must drain `displaced` (`0` when the
    /// slot was empty) into the per-word counters and then apply its own
    /// access directly.
    Claimed {
        /// The batch that was displaced, in [`batch`] encoding.
        displaced: u64,
    },
}

/// Offers one single-word access to the batch slot.
///
/// `write_allowance` is the number of writes (inclusive) until the line's
/// committed write count reaches the next `PredictionThreshold` multiple; a
/// write arriving with `write_allowance <= 1` *is* the threshold-crossing
/// write and is never deferred, so the promotion edge is observed by the
/// access that causes it.
///
/// Conservation invariant (model-checked): every offered access is counted
/// exactly once — either inside the batch word (pending) or by the caller
/// that drains it — under all interleavings.
#[inline(always)]
pub fn offer_batch<M: Mode, A: RawU64>(
    m: M,
    slot: &A,
    tid: u16,
    word: u8,
    is_write: bool,
    write_allowance: u64,
) -> Offer {
    let mut cur = slot.load();
    loop {
        let res = if !batch::present(cur) {
            if is_write && write_allowance <= 1 {
                return Offer::Claimed { displaced: 0 };
            }
            m.cas(slot, cur, batch::new(tid, word, is_write, write_allowance))
        } else if batch::tid(cur) == tid
            && batch::word(cur) == word
            && if is_write {
                batch::allowance(cur) > 1 && batch::writes(cur) < batch::MAX_PENDING
            } else {
                batch::reads(cur) < batch::MAX_PENDING
            }
        {
            let next = if is_write {
                batch::bump_write(cur)
            } else {
                batch::bump_read(cur)
            };
            m.cas(slot, cur, next)
        } else {
            match m.cas(slot, cur, 0) {
                Ok(_) => return Offer::Claimed { displaced: cur },
                Err(actual) => Err(actual),
            }
        };
        match res {
            Ok(_) => return Offer::Deferred,
            Err(actual) => cur = actual,
        }
    }
}

/// Claims whatever batch is pending (for snapshots, resets and straddling
/// accesses that bypass the single-word fast path). Returns `0` when empty.
pub fn take_batch<M: Mode, A: RawU64>(m: M, slot: &A) -> u64 {
    let mut cur = slot.load();
    while batch::present(cur) {
        match m.cas(slot, cur, 0) {
            Ok(_) => return cur,
            Err(actual) => cur = actual,
        }
    }
    0
}

// ---- concrete per-line state (std atomics) ----

/// Word-owner encoding inside an `AtomicU32`: untouched / shared / tid.
const OWNER_UNTOUCHED: u64 = 0;
const OWNER_SHARED: u64 = 1;

#[inline]
fn owner_encode(tid: u16) -> u64 {
    tid as u64 + 2
}

#[inline]
fn owner_decode(bits: u64) -> Owner {
    match bits {
        OWNER_UNTOUCHED => Owner::Untouched,
        OWNER_SHARED => Owner::Shared,
        other => Owner::Exclusive(ThreadId((other - 2) as u16)),
    }
}

/// Per-word counters: two relaxed totals plus the exclusive/shared owner
/// state machine (monotone: untouched → exclusive → shared, so CAS races can
/// only converge).
#[derive(Debug)]
struct RelaxedWord {
    reads: AtomicU64,
    writes: AtomicU64,
    owner: AtomicU32,
}

impl RelaxedWord {
    fn new() -> Self {
        RelaxedWord {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            owner: AtomicU32::new(OWNER_UNTOUCHED as u32),
        }
    }

    fn note_owner<M: Mode>(&self, m: M, tid: u16) {
        let enc = owner_encode(tid);
        let mut cur = RawU64::load(&self.owner);
        loop {
            let next = match cur {
                OWNER_UNTOUCHED => enc,
                OWNER_SHARED => return,
                c if c == enc => return,
                _ => OWNER_SHARED,
            };
            match m.cas(&self.owner, cur, next) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    fn snapshot(&self) -> WordState {
        WordState {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            owner: owner_decode(RawU64::load(&self.owner)),
        }
    }
}

/// Slots for remembering the last word each thread touched (flight-recorder
/// victim attribution). A line is touched by a handful of threads; overflow
/// degrades to `WORD_UNKNOWN`, never blocks.
const LAST_WORD_SLOTS: usize = 16;
const LAST_PRESENT: u32 = 1 << 31;

/// Lock-free shadow state for one tracked cache line.
#[derive(Debug)]
pub(crate) struct RelaxedLine {
    /// The two-entry history table's bits ([`HistoryTable`]).
    hist: AtomicU64,
    /// Batch slot ([`batch`] encoding).
    slot: AtomicU64,
    invalidations: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    words: Box<[RelaxedWord]>,
    /// `[present:1][unused:7][tid:16][word:8]` per slot; 0 = empty.
    last_words: [AtomicU32; LAST_WORD_SLOTS],
}

/// What one recorded access did.
pub(crate) struct RelaxedOutcome {
    pub invalidated: bool,
    pub analysis_due: bool,
    /// History entries as they stood *before* this access landed — the
    /// victim candidates of an invalidating write.
    pub prev_history: u64,
}

impl RelaxedLine {
    pub fn new(words_per_line: usize) -> Self {
        RelaxedLine {
            hist: AtomicU64::new(HistoryTable::new().0),
            slot: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            words: (0..words_per_line).map(|_| RelaxedWord::new()).collect(),
            last_words: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Records one access: exact history/invalidation update, batched
    /// counter update, threshold-promotion detection.
    ///
    /// `lo_word..=hi_word` is the access's in-line word span (empty span
    /// callers skip the counter path); `prediction_threshold` is
    /// `u64::MAX`-like (never crossed) when prediction is off. Inlined into
    /// `CacheTrack::record_sampled`, whose frame is the admitted access's
    /// only one.
    #[inline(always)]
    pub fn record<M: Mode>(
        &self,
        m: M,
        tid: ThreadId,
        lo_word: usize,
        hi_word: usize,
        kind: AccessKind,
        prediction_threshold: Option<u64>,
    ) -> RelaxedOutcome {
        let (prev_history, invalidated) = record_history(m, &self.hist, tid, kind);
        if invalidated {
            m.add(&self.invalidations, 1);
        }
        let is_write = kind == AccessKind::Write;
        let mut due = false;
        if lo_word == hi_word {
            // Single-word access: the batchable fast path.
            // Distance (in writes) to the next threshold multiple, computed
            // for reads too: a read may found the batch that later writes
            // join, and the allowance it seeds must still bound them.
            let allowance = match prediction_threshold {
                Some(t) => t - self.writes.load(Ordering::Relaxed) % t,
                None => u64::MAX,
            };
            match offer_batch(m, &self.slot, tid.0, lo_word as u8, is_write, allowance) {
                Offer::Deferred => {}
                Offer::Claimed { displaced } => {
                    due |= self.drain(m, displaced, prediction_threshold);
                    due |= self.apply(m, tid, lo_word, hi_word, kind, prediction_threshold);
                }
            }
        } else {
            // Straddling access: flush any pending batch, then apply each
            // touched word directly (mirrors `WordTracker::record`).
            due |= self.drain(m, take_batch(m, &self.slot), prediction_threshold);
            due |= self.apply(m, tid, lo_word, hi_word, kind, prediction_threshold);
        }
        if due {
            // The promotion edge: make the counter updates drained above
            // visible to the hot-pair analysis that runs next.
            fence(Ordering::Acquire);
        }
        RelaxedOutcome {
            invalidated,
            analysis_due: due,
            prev_history,
        }
    }

    /// Drains a claimed batch into the per-word and per-line counters.
    /// Returns true when the drained writes crossed the threshold.
    fn drain<M: Mode>(&self, m: M, bits: u64, prediction_threshold: Option<u64>) -> bool {
        if !batch::present(bits) {
            return false;
        }
        let (r, w) = (batch::reads(bits), batch::writes(bits));
        let word = &self.words[batch::word(bits) as usize];
        word.note_owner(m, batch::tid(bits));
        if r > 0 {
            m.add(&word.reads, r);
            m.add(&self.reads, r);
        }
        if w > 0 {
            m.add(&word.writes, w);
            let prev = m.add(&self.writes, w);
            if let Some(t) = prediction_threshold {
                return crosses_threshold(prev, w, t);
            }
        }
        false
    }

    /// Applies one access directly (no batching) to every touched word.
    /// Line totals count the access once, however many words it touches.
    fn apply<M: Mode>(
        &self,
        m: M,
        tid: ThreadId,
        lo_word: usize,
        hi_word: usize,
        kind: AccessKind,
        prediction_threshold: Option<u64>,
    ) -> bool {
        for word in &self.words[lo_word..=hi_word] {
            word.note_owner(m, tid.0);
            match kind {
                AccessKind::Read => m.add(&word.reads, 1),
                AccessKind::Write => m.add(&word.writes, 1),
            };
        }
        match kind {
            AccessKind::Read => {
                m.add(&self.reads, 1);
                false
            }
            AccessKind::Write => {
                let prev = m.add(&self.writes, 1);
                prediction_threshold.is_some_and(|t| crosses_threshold(prev, 1, t))
            }
        }
    }

    /// Drains the pending batch (if any) and snapshots all counters.
    pub fn snapshot<M: Mode>(&self, m: M, base: u64) -> (WordTracker, u64, u64, u64) {
        self.drain(m, take_batch(m, &self.slot), None);
        let words = self.words.iter().map(RelaxedWord::snapshot).collect();
        (
            WordTracker::from_parts(base, words),
            self.invalidations.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    /// Verified invalidations so far (drains nothing).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Clears all recorded state (the metadata refresh on object free).
    pub fn reset(&self) {
        self.hist.store(HistoryTable::new().0, Ordering::Relaxed);
        self.slot.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        for w in self.words.iter() {
            w.reads.store(0, Ordering::Relaxed);
            w.writes.store(0, Ordering::Relaxed);
            RawU64::store(&w.owner, OWNER_UNTOUCHED);
        }
        for s in &self.last_words {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// Remembers the last word `tid` touched (recorder attribution).
    pub fn note_word<M: Mode>(&self, m: M, tid: ThreadId, word: u8) {
        let enc = LAST_PRESENT | ((tid.0 as u32) << 8) | word as u32;
        for slot in self.probe(tid) {
            let cur = slot.load(Ordering::Relaxed);
            if cur & LAST_PRESENT != 0 && (cur >> 8) as u16 == tid.0 {
                slot.store(enc, Ordering::Relaxed);
                return;
            }
            if cur == 0 && m.cas(slot, 0, enc as u64).is_ok() {
                return;
            }
            // Slot raced to another thread: keep scanning.
        }
    }

    /// Last word `tid` was seen touching, or `WORD_UNKNOWN`.
    pub fn last_word(&self, tid: ThreadId) -> u8 {
        for slot in self.probe(tid) {
            let cur = slot.load(Ordering::Relaxed);
            if cur & LAST_PRESENT != 0 && (cur >> 8) as u16 == tid.0 {
                return cur as u8;
            }
            if cur == 0 {
                break;
            }
        }
        predator_obs::recorder::WORD_UNKNOWN
    }

    /// The last-word slots in `tid`'s probe order: from slot `tid % 16`
    /// on, wrapping. Slots are only ever claimed, never freed (a reset
    /// clears all), so a thread's slot comes before any empty one on its
    /// probe, and the first 16 threads to note a word get one each.
    fn probe(&self, tid: ThreadId) -> impl Iterator<Item = &AtomicU32> {
        let home = tid.0 as usize % LAST_WORD_SLOTS;
        (0..LAST_WORD_SLOTS).map(move |i| &self.last_words[(home + i) % LAST_WORD_SLOTS])
    }
}

// ---- lock-free unit array ----

use std::sync::atomic::AtomicPtr;
use std::sync::Arc;

use crate::predict::PredictionUnit;

/// One attached unit, with its virtual range `[start, end)` copied in so the
/// walk tests it without loading the unit.
struct UnitEntry {
    start: u64,
    end: u64,
    unit: Arc<PredictionUnit>,
}

/// One published generation of a line's units, oldest first; never written
/// after its publication. `prev` is the generation it replaced.
struct UnitArray {
    units: Box<[UnitEntry]>,
    prev: *mut UnitArray,
}

/// The prediction units attached to a line: one pointer to an immutable
/// array.
///
/// Attachment is rare (once per unit per overlapped line) while the walk is
/// the per-sampled-access hot path, so the structure optimizes reads: the
/// walk is one `Acquire` load and a slice. Attaching copies the array plus
/// the new unit and publishes the copy by a `Release` CAS on the pointer.
/// A replaced array stays readable, chained from its successor, until the
/// list drops, so walks need no reclamation scheme.
#[derive(Debug)]
pub(crate) struct UnitList {
    head: AtomicPtr<UnitArray>,
}

impl UnitList {
    pub fn new() -> Self {
        UnitList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The current generation's units, oldest first.
    #[inline(always)]
    fn current(&self) -> (*mut UnitArray, &[UnitEntry]) {
        let head = self.head.load(Ordering::Acquire);
        // SAFETY: a published array is never written and is freed only
        // when the list drops.
        let units = unsafe { head.as_ref() }.map_or(&[][..], |a| &a.units);
        (head, units)
    }

    /// Attaches `unit` unless a unit with the same key is already present.
    /// Linearizable dedup: after a failed CAS the new current array is
    /// rescanned, so two racing attaches of one key cannot both land.
    pub fn push_if_absent(&self, unit: Arc<PredictionUnit>) -> bool {
        let (start, end) = (unit.range.start, unit.range.start + unit.range.size);
        loop {
            let (head, units) = self.current();
            if units.iter().any(|e| e.unit.key == unit.key) {
                return false;
            }
            let copy = units.iter().map(|e| UnitEntry {
                unit: e.unit.clone(),
                ..*e
            });
            let next = Box::into_raw(Box::new(UnitArray {
                units: copy
                    .chain([UnitEntry {
                        start,
                        end,
                        unit: unit.clone(),
                    }])
                    .collect(),
                prev: head,
            }));
            match self
                .head
                .compare_exchange(head, next, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return true,
                // SAFETY: never published; dropping it leaves `head` alone.
                Err(_) => drop(unsafe { Box::from_raw(next) }),
            }
        }
    }

    /// Visits every attached unit whose range contains `addr` (newest
    /// first); the others cost a compare on their entry.
    #[inline(always)]
    pub fn for_each_containing(&self, addr: u64, mut f: impl FnMut(&PredictionUnit)) {
        for e in self.current().1.iter().rev() {
            if e.start <= addr && addr < e.end {
                f(&e.unit);
            }
        }
    }
}

impl Drop for UnitList {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: every array in the chain was published once and is
            // reachable only from here.
            cur = unsafe { Box::from_raw(cur) }.prev;
        }
    }
}

// The raw pointers reference heap arrays owned by the list; the payloads are
// Send + Sync (`Arc<PredictionUnit>`), and all mutation is CAS-published.
unsafe impl Send for UnitList {}
unsafe impl Sync for UnitList {}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_sim::AccessKind::{Read, Write};
    use proptest::prelude::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn record_history_matches_sequential_rules() {
        let h = AtomicU64::new(HistoryTable::new().0);
        let mut seq = HistoryTable::new();
        for i in 0..10u16 {
            let tid = ThreadId(i % 2);
            let (_, inv) = record_history(Shared, &h, tid, Write);
            assert_eq!(inv, seq.record(tid, Write));
        }
        assert_eq!(h.load(Ordering::Relaxed), seq.0);
    }

    #[test]
    fn redundant_access_skips_rmw_and_reports_prev() {
        let h = AtomicU64::new(HistoryTable::new().0);
        record_history(Shared, &h, T0, Write);
        let before = h.load(Ordering::Relaxed);
        let (prev, inv) = record_history(Shared, &h, T0, Write);
        assert_eq!(prev, before);
        assert!(!inv);
        assert_eq!(h.load(Ordering::Relaxed), before);
    }

    #[test]
    fn crosses_threshold_exact_multiples() {
        assert!(crosses_threshold(15, 1, 16));
        assert!(!crosses_threshold(14, 1, 16));
        assert!(!crosses_threshold(16, 0, 16));
        assert!(crosses_threshold(10, 10, 16));
        assert!(crosses_threshold(0, 32, 16));
        assert!(crosses_threshold(0, 1, 1));
    }

    #[test]
    fn batch_roundtrip_encoding() {
        let b = batch::new(7, 3, true, 16);
        assert!(batch::present(b));
        assert_eq!(batch::tid(b), 7);
        assert_eq!(batch::word(b), 3);
        assert_eq!(batch::reads(b), 0);
        assert_eq!(batch::writes(b), 1);
        assert_eq!(batch::allowance(b), 15);
        let b = batch::bump_read(batch::bump_write(b));
        assert_eq!(batch::reads(b), 1);
        assert_eq!(batch::writes(b), 2);
        assert_eq!(batch::allowance(b), 14);
    }

    #[test]
    fn threshold_write_is_never_deferred() {
        let slot = AtomicU64::new(0);
        // Distance 1: this write lands on the multiple, must be applied now.
        assert_eq!(
            offer_batch(Shared, &slot, 0, 0, true, 1),
            Offer::Claimed { displaced: 0 }
        );
        // Distance 2: defers; the *next* write must then claim.
        assert_eq!(offer_batch(Shared, &slot, 0, 0, true, 2), Offer::Deferred);
        match offer_batch(Shared, &slot, 0, 0, true, 1) {
            Offer::Claimed { displaced } => {
                assert_eq!(batch::writes(displaced), 1);
            }
            other => panic!("expected claim, got {other:?}"),
        }
    }

    #[test]
    fn displacement_hands_back_full_batch() {
        let slot = AtomicU64::new(0);
        for _ in 0..5 {
            assert_eq!(
                offer_batch(Shared, &slot, 1, 2, false, u64::MAX),
                Offer::Deferred
            );
        }
        match offer_batch(Shared, &slot, 2, 2, false, u64::MAX) {
            Offer::Claimed { displaced } => {
                assert_eq!(batch::tid(displaced), 1);
                assert_eq!(batch::reads(displaced), 5);
                assert_eq!(batch::writes(displaced), 0);
            }
            other => panic!("expected claim, got {other:?}"),
        }
    }

    #[test]
    fn relaxed_line_serial_feed_matches_word_tracker() {
        let line = RelaxedLine::new(8);
        let mut oracle = WordTracker::new(0, predator_sim::CacheGeometry::new(64));
        let script: Vec<(u16, u64, u8, AccessKind)> = (0..200)
            .map(|i| {
                let tid = (i % 3) as u16;
                let addr = ((i * 7) % 56) as u64;
                let size = if i % 5 == 0 { 8 } else { 4 };
                let kind = if i % 2 == 0 { Write } else { Read };
                (tid, addr, size, kind)
            })
            .collect();
        for &(tid, addr, size, kind) in &script {
            let lo = (addr / 8) as usize;
            let hi = ((addr + size as u64 - 1).min(63) / 8) as usize;
            line.record(Shared, ThreadId(tid), lo, hi, kind, Some(16));
            oracle.record(ThreadId(tid), addr, size, kind);
        }
        let (words, _inv, reads, writes) = line.snapshot(Shared, 0);
        assert_eq!(words, oracle);
        assert_eq!(reads, script.iter().filter(|a| a.3 == Read).count() as u64);
        assert_eq!(
            writes,
            script.iter().filter(|a| a.3 == Write).count() as u64
        );
    }

    #[test]
    fn analysis_due_fires_on_exact_multiples_in_serial_feed() {
        let line = RelaxedLine::new(8);
        let mut due_at = Vec::new();
        for i in 1..=40u64 {
            if line.record(Shared, T0, 0, 0, Write, Some(16)).analysis_due {
                due_at.push(i);
            }
        }
        assert_eq!(due_at, vec![16, 32]);
    }

    #[test]
    fn due_still_fires_across_displacements() {
        let line = RelaxedLine::new(8);
        let mut due_at = Vec::new();
        for i in 1..=32u64 {
            let tid = ThreadId((i % 2) as u16);
            if line
                .record(Shared, tid, tid.index(), tid.index(), Write, Some(16))
                .analysis_due
            {
                due_at.push(i);
            }
        }
        assert_eq!(due_at, vec![16, 32]);
    }

    #[test]
    fn last_words_attribution() {
        let line = RelaxedLine::new(8);
        assert_eq!(line.last_word(T0), predator_obs::recorder::WORD_UNKNOWN);
        line.note_word(Shared, T0, 3);
        line.note_word(Shared, T1, 5);
        line.note_word(Shared, T0, 4);
        assert_eq!(line.last_word(T0), 4);
        assert_eq!(line.last_word(T1), 5);
    }

    #[test]
    fn reset_clears_everything() {
        let line = RelaxedLine::new(8);
        for i in 0..20u16 {
            line.record(Shared, ThreadId(i % 2), 0, 0, Write, Some(16));
        }
        line.note_word(Shared, T0, 1);
        line.reset();
        let (words, inv, reads, writes) = line.snapshot(Shared, 0);
        assert_eq!((inv, reads, writes), (0, 0, 0));
        assert_eq!(words.total_accesses(), 0);
        assert_eq!(line.last_word(T0), predator_obs::recorder::WORD_UNKNOWN);
    }

    #[test]
    fn concurrent_counts_conserved() {
        let line = std::sync::Arc::new(RelaxedLine::new(8));
        std::thread::scope(|s| {
            for id in 0..4u16 {
                let line = line.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let kind = if i % 4 == 0 { Read } else { Write };
                        line.record(
                            Shared,
                            ThreadId(id),
                            id as usize,
                            id as usize,
                            kind,
                            Some(1024),
                        );
                    }
                });
            }
        });
        let (words, inv, reads, writes) = line.snapshot(Shared, 0);
        assert_eq!(reads, 4 * 2_500);
        assert_eq!(writes, 4 * 7_500);
        assert_eq!(words.total_accesses(), 40_000);
        assert!(inv >= 3 && inv < writes);
        for w in 0..4 {
            assert_eq!(words.words()[w].owner, Owner::Exclusive(ThreadId(w as u16)));
        }
    }

    /// One serialized feed under `m` against the sequential oracle: same
    /// per-word counters, same line totals, same invalidations, same
    /// analysis-due points.
    fn serial_feed_equals_sequential<M: Mode>(m: M, script: &[(u16, usize, bool)], threshold: u64) {
        let line = RelaxedLine::new(8);
        let mut hist = HistoryTable::new();
        let mut oracle = WordTracker::new(0, predator_sim::CacheGeometry::new(64));
        let (mut inv, mut writes) = (0u64, 0u64);
        for &(tid, word, w) in script {
            let kind = if w { Write } else { Read };
            let out = line.record(m, ThreadId(tid), word, word, kind, Some(threshold));
            let expect_inv = hist.record(ThreadId(tid), kind);
            assert_eq!(out.invalidated, expect_inv);
            inv += expect_inv as u64;
            oracle.record(ThreadId(tid), (word * 8) as u64, 8, kind);
            writes += w as u64;
            assert_eq!(out.analysis_due, w && writes.is_multiple_of(threshold));
        }
        let (words, line_inv, _, line_writes) = line.snapshot(m, 0);
        assert_eq!(words, oracle);
        assert_eq!(line_inv, inv);
        assert_eq!(line_writes, writes);
    }

    proptest! {
        /// Serialized feeds reproduce the sequential oracle exactly, whether
        /// the cells are updated by hardware RMW or by load and store.
        #[test]
        fn prop_serial_relaxed_equals_sequential(
            script in proptest::collection::vec(
                (0u16..4, 0usize..8, prop::bool::ANY), 0..300),
            threshold in 1u64..32,
        ) {
            serial_feed_equals_sequential(Shared, &script, threshold);
            serial_feed_equals_sequential(Exclusive, &script, threshold);
        }
    }
}
