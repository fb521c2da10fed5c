//! The two-entry cache history table of §2.3.1.
//!
//! PREDATOR's key observation: *if a thread writes a cache line after other
//! threads have accessed the same line, that write most likely causes at
//! least one cache invalidation.* To count such invalidations precisely the
//! runtime keeps, per (physical or virtual) cache line, a history table with
//! at most two entries, each a `(thread, access kind)` pair.
//!
//! The transition rules are implemented verbatim from the paper:
//!
//! * **Read `R` by thread `t`:**
//!   * table full → nothing to record;
//!   * table not full and an existing entry has a *different* thread id →
//!     record `(t, Read)` as the second entry;
//!   * table empty → record `(t, Read)`.
//! * **Write `W` by thread `t`:**
//!   * table full → the write invalidates at least one remote copy (the two
//!     entries are guaranteed to have distinct thread ids); count an
//!     invalidation and reset the table to the single entry `(t, Write)`;
//!   * table not full, existing entry has the same thread id → update the
//!     entry in place to `(t, Write)`, no invalidation;
//!   * table not full, existing entry has a different thread id →
//!     invalidation; reset to `(t, Write)`;
//!   * table empty → record `(t, Write)`.
//!
//! There is no distinct "empty after invalidation" state: every invalidation
//! replaces the table with the invalidating write (the paper's "no empty
//! status" remark).
//!
//! [`HistoryTable`] *is* the packed word the concurrent detector keeps in one
//! `AtomicU64`, and [`HistoryTable::record`] applies the rules above to its
//! bits directly; `predator-core`'s CAS loop, the loom models and the
//! sequential references all call that one function. The test module keeps
//! an independent `Option`-form model of the rules as its oracle.

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, ThreadId};

/// One slot of the history table: which thread last touched the line and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Issuing thread.
    pub tid: ThreadId,
    /// Read or write.
    pub kind: AccessKind,
}

/// Bits per entry slot.
const SLOT_BITS: u32 = 18;
/// Mask of one entry slot.
const SLOT: u64 = (1 << SLOT_BITS) - 1;
/// Present flag inside one entry slot.
const PRESENT: u64 = 1 << 17;
/// Write-kind flag inside one entry slot.
const WRITE: u64 = 1 << 16;
/// Thread id inside one entry slot.
const TID: u64 = 0xffff;

/// The two-entry cache history table for a single (virtual) cache line,
/// packed into one `u64` so the concurrent detector keeps it in a single
/// atomic word and advances it by a CAS loop over [`record`](Self::record).
///
/// Layout (low to high): two 18-bit entry slots, each
/// `[tid:16][write:1][present:1]`; the upper 28 bits are zero. The empty
/// table is `0`. The table is deliberately tiny because the detector keeps
/// one per tracked line and, during prediction, one per candidate *virtual*
/// line as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryTable(pub u64);

impl HistoryTable {
    /// A fresh, empty table.
    pub const fn new() -> Self {
        HistoryTable(0)
    }

    /// True when both slots are occupied. Invariant: a full table always
    /// holds entries from two *different* threads (a second entry is only
    /// ever admitted when its thread differs from the first).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.0 >> SLOT_BITS != 0
    }

    /// True when no access has been recorded since creation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of occupied slots (0, 1 or 2).
    #[inline]
    pub fn len(&self) -> usize {
        !self.is_empty() as usize + self.is_full() as usize
    }

    /// The occupied entries, decoded, slot 0 first.
    pub fn entries(&self) -> impl Iterator<Item = HistoryEntry> {
        let bits = self.0;
        [bits & SLOT, bits >> SLOT_BITS]
            .into_iter()
            .filter(|e| e & PRESENT != 0)
            .map(|e| HistoryEntry {
                tid: ThreadId((e & TID) as u16),
                kind: if e & WRITE != 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
    }

    /// Records one access and reports whether it caused a cache invalidation
    /// under the paper's rules (see module docs), applied to the bits:
    ///
    /// * a write always leaves the single entry `(t, W)`, and invalidates
    ///   iff an entry was present and the table was full or entry 0 was
    ///   another thread's;
    /// * a read fills an empty slot 0, fills slot 1 when entry 0 is another
    ///   thread's and slot 1 is free, and is otherwise the identity.
    ///
    /// The bits change iff the access is not redundant, and a redundant
    /// access never invalidates — so a CAS loop that sees the same bits may
    /// skip its RMW.
    #[inline(always)]
    pub fn record(&mut self, tid: ThreadId, kind: AccessKind) -> bool {
        let bits = self.0;
        let me = PRESENT | tid.0 as u64;
        let full = self.is_full();
        let other0 = bits & (PRESENT | TID) != me;
        match kind {
            AccessKind::Write => {
                self.0 = me | WRITE;
                bits != 0 && (full || other0)
            }
            AccessKind::Read => {
                if bits == 0 {
                    self.0 = me;
                } else if !full && other0 {
                    self.0 = bits | me << SLOT_BITS;
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind::{Read, Write};
    use proptest::prelude::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    /// Feed a script, return total invalidations.
    fn run(script: &[(ThreadId, AccessKind)]) -> u64 {
        let mut t = HistoryTable::new();
        script.iter().map(|&(tid, k)| t.record(tid, k) as u64).sum()
    }

    #[test]
    fn starts_empty() {
        let t = HistoryTable::new();
        assert!(t.is_empty());
        assert!(!t.is_full());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn single_thread_never_invalidates() {
        let script: Vec<_> = (0..100)
            .map(|i| (T0, if i % 3 == 0 { Write } else { Read }))
            .collect();
        assert_eq!(run(&script), 0);
    }

    #[test]
    fn read_read_from_two_threads_fills_table_without_invalidation() {
        let mut t = HistoryTable::new();
        assert!(!t.record(T0, Read));
        assert!(!t.record(T1, Read));
        assert!(t.is_full());
    }

    #[test]
    fn write_after_remote_read_invalidates() {
        // T0 reads, T1 writes: T1's write invalidates T0's copy.
        assert_eq!(run(&[(T0, Read), (T1, Write)]), 1);
    }

    #[test]
    fn write_after_remote_write_invalidates() {
        assert_eq!(run(&[(T0, Write), (T1, Write)]), 1);
    }

    #[test]
    fn write_ping_pong_invalidates_every_time() {
        // Classic false-sharing ping-pong: every write after the first hits.
        let script: Vec<_> = (0..10).map(|i| (ThreadId(i % 2), Write)).collect();
        assert_eq!(run(&script), 9);
    }

    #[test]
    fn read_to_full_table_is_ignored() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T1, Read);
        let before = t;
        assert!(!t.record(T2, Read));
        assert_eq!(t, before);
    }

    #[test]
    fn write_to_full_table_resets_to_single_write_entry() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T1, Read);
        assert!(t.record(T2, Write));
        assert_eq!(t.len(), 1);
        let e: Vec<_> = t.entries().collect();
        assert_eq!(
            e,
            vec![HistoryEntry {
                tid: T2,
                kind: Write
            }]
        );
    }

    #[test]
    fn own_write_after_own_read_upgrades_in_place() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        assert!(!t.record(T0, Write));
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries().next().unwrap().kind, Write);
    }

    #[test]
    fn same_thread_repeat_read_not_duplicated() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T0, Read);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidating_write_then_remote_write_invalidates_again() {
        // After a reset, the table holds only the last writer; a subsequent
        // remote write must count again.
        assert_eq!(run(&[(T0, Read), (T1, Write), (T0, Write)]), 2);
    }

    #[test]
    fn reader_between_writers_still_one_invalidation_per_write() {
        // W0, R1 (fills table), W0 — W0 hits a full table: invalidation.
        assert_eq!(run(&[(T0, Write), (T1, Read), (T0, Write)]), 1);
    }

    #[test]
    fn true_sharing_counter_pattern_counts_heavily() {
        // Three threads hammering the same line with writes.
        let script: Vec<_> = (0..30).map(|i| (ThreadId(i % 3), Write)).collect();
        assert_eq!(run(&script), 29);
    }

    /// The paper's rules in their textbook form, kept apart from the bit
    /// arithmetic of [`HistoryTable::record`] as its oracle.
    type Model = [Option<HistoryEntry>; 2];

    fn model_record(t: &mut Model, tid: ThreadId, kind: AccessKind) -> bool {
        let fresh = Some(HistoryEntry { tid, kind });
        match (kind, t[0], t[1]) {
            // Full: a read adds nothing; a write invalidates and resets.
            (Read, _, Some(_)) => false,
            (Write, _, Some(_)) => {
                *t = [fresh, None];
                true
            }
            // Empty: record the access.
            (_, None, None) => {
                *t = [fresh, None];
                false
            }
            // One entry of the same thread: a write upgrades it in place.
            (Read, Some(e0), None) if e0.tid == tid => false,
            (Write, Some(e0), None) if e0.tid == tid => {
                t[0] = fresh;
                false
            }
            // One entry of another thread: a read joins it, a write
            // invalidates and resets.
            (Read, Some(_), None) => {
                t[1] = fresh;
                false
            }
            (Write, Some(_), None) => {
                *t = [fresh, None];
                true
            }
        }
    }

    /// `record` is the model on every reachable table, for every access by
    /// tids {0, 1, 2, `u16::MAX`}: same verdict, same next table, and
    /// `entries`/`len`/`is_full`/`is_empty` decode what the model holds.
    #[test]
    fn record_matches_the_reference_model_exhaustively() {
        let tids = [0, 1, 2, u16::MAX].map(ThreadId);
        let accesses: Vec<_> = tids.iter().flat_map(|&t| [(t, Read), (t, Write)]).collect();
        let check = |bits: HistoryTable, model: &Model| {
            let want: Vec<_> = model.iter().flatten().copied().collect();
            assert_eq!(bits.entries().collect::<Vec<_>>(), want, "{bits:?}");
            assert_eq!(bits.len(), want.len());
            assert_eq!(bits.is_full(), want.len() == 2);
            assert_eq!(bits.is_empty(), want.is_empty());
        };
        let mut seen = vec![HistoryTable::new().0];
        let mut todo = vec![(HistoryTable::new(), [None, None])];
        while let Some((bits, model)) = todo.pop() {
            check(bits, &model);
            for &(tid, kind) in &accesses {
                let (mut next, mut next_model) = (bits, model);
                let inv = next.record(tid, kind);
                let want = model_record(&mut next_model, tid, kind);
                assert_eq!(inv, want, "{kind:?} by {tid:?} on {model:?}");
                check(next, &next_model);
                assert_eq!(next == bits, next_model == model);
                if !seen.contains(&next.0) {
                    seen.push(next.0);
                    todo.push((next, next_model));
                }
            }
        }
        // Empty, 4 tids × 2 kinds alone, and (a, any kind) + (b ≠ a, Read).
        assert_eq!(seen.len(), 1 + 8 + 4 * 2 * 3);
    }

    proptest! {
        /// A full table always contains two distinct thread ids.
        #[test]
        fn prop_full_table_has_distinct_tids(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..64)
        ) {
            let mut t = HistoryTable::new();
            for (tid, w) in script {
                let kind = if w { Write } else { Read };
                t.record(ThreadId(tid), kind);
                if t.is_full() {
                    let e: Vec<_> = t.entries().collect();
                    prop_assert_ne!(e[0].tid, e[1].tid);
                }
            }
        }

        /// Invalidations never exceed the number of writes, and a
        /// single-thread prefix contributes none.
        #[test]
        fn prop_invalidations_bounded_by_writes(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..256)
        ) {
            let mut t = HistoryTable::new();
            let mut inv = 0u64;
            let mut writes = 0u64;
            for (tid, w) in &script {
                let kind = if *w { Write } else { Read };
                writes += *w as u64;
                inv += t.record(ThreadId(*tid), kind) as u64;
            }
            prop_assert!(inv <= writes);
        }

        /// Recording is insensitive to reads once the table is full:
        /// inserting extra reads from any thread between two events never
        /// *decreases* the invalidation count... but it can increase it
        /// (a read can fill the table). Here we check the weaker, exact
        /// invariant actually used by the detector: an invalidation is
        /// reported only for writes.
        #[test]
        fn prop_only_writes_invalidate(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..256)
        ) {
            let mut t = HistoryTable::new();
            for (tid, w) in script {
                let kind = if w { Write } else { Read };
                let inv = t.record(ThreadId(tid), kind);
                if inv {
                    prop_assert_eq!(kind, Write);
                }
            }
        }
    }
}
