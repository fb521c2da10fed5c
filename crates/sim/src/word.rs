//! Word-granularity access tracking (§2.3.2, "Distinguishing False from True
//! Sharing").
//!
//! For every cache line suspected of sharing, PREDATOR records — per 8-byte
//! word — how many reads and writes it received and by which thread. When a
//! word is touched by more than one thread its origin is marked *shared* and
//! per-thread attribution stops for that word. In the reporting phase this is
//! what separates:
//!
//! * **false sharing** — distinct threads dominating *distinct* words of the
//!   same line (at least one of them writing), from
//! * **true sharing** — multiple threads hammering the *same* word (e.g. a
//!   shared counter), which also produces invalidations but is not fixable by
//!   padding.

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, ThreadId};
use crate::geometry::{CacheGeometry, WORD_SIZE};

/// Ownership state of one tracked word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Owner {
    /// Never accessed.
    #[default]
    Untouched,
    /// So far accessed by exactly one thread.
    Exclusive(ThreadId),
    /// Accessed by more than one thread; per-thread attribution stopped.
    Shared,
}

impl Owner {
    /// The owning thread, if exclusive.
    pub fn thread(self) -> Option<ThreadId> {
        match self {
            Owner::Exclusive(t) => Some(t),
            _ => None,
        }
    }
}

/// Per-word counters: total reads, total writes, and the origin state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordState {
    /// Total reads of this word by any thread.
    pub reads: u64,
    /// Total writes of this word by any thread.
    pub writes: u64,
    /// Exclusive / shared origin.
    pub owner: Owner,
}

impl WordState {
    /// Total accesses (reads + writes).
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Records one access by `tid`.
    #[inline]
    pub fn record(&mut self, tid: ThreadId, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.owner = match self.owner {
            Owner::Untouched => Owner::Exclusive(tid),
            Owner::Exclusive(t) if t == tid => Owner::Exclusive(t),
            // Second distinct thread: mark shared, stop tracking threads.
            Owner::Exclusive(_) | Owner::Shared => Owner::Shared,
        };
    }
}

/// Word-granularity tracker for one cache line.
///
/// `base` is the line's first byte address; the tracker holds
/// `line_size / 8` [`WordState`] slots. An access that spans multiple words
/// (e.g. an unaligned 8-byte store) is attributed to every word it touches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordTracker {
    base: u64,
    words: Vec<WordState>,
}

impl WordTracker {
    /// Creates a tracker for the line starting at `base` under `geom`.
    pub fn new(base: u64, geom: CacheGeometry) -> Self {
        debug_assert_eq!(geom.offset_in_line(base), 0, "base must be line-aligned");
        WordTracker {
            base,
            words: vec![WordState::default(); geom.words_per_line()],
        }
    }

    /// Reassembles a tracker from raw per-word states, e.g. from the
    /// lock-free per-word atomics in `predator-core` when a snapshot is
    /// taken. `words.len()` must match the line geometry.
    pub fn from_parts(base: u64, words: Vec<WordState>) -> Self {
        debug_assert!(!words.is_empty());
        WordTracker { base, words }
    }

    /// First byte address of the covered line.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of tracked words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the tracker covers no words (cannot happen for valid geometries).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The tracked words, in address order.
    #[inline]
    pub fn words(&self) -> &[WordState] {
        &self.words
    }

    /// Byte address of word `idx`.
    #[inline]
    pub fn word_addr(&self, idx: usize) -> u64 {
        self.base + (idx as u64) * WORD_SIZE
    }

    /// Records an access of `size` bytes at `addr`; the portion of the access
    /// falling outside this line (for straddling accesses) is ignored — the
    /// adjacent line's tracker records it.
    pub fn record(&mut self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        let end = addr + size.max(1) as u64 - 1;
        let line_end = self.base + (self.words.len() as u64) * WORD_SIZE - 1;
        if end < self.base || addr > line_end {
            return;
        }
        let lo = addr.max(self.base);
        let hi = end.min(line_end);
        let first = ((lo - self.base) / WORD_SIZE) as usize;
        let last = ((hi - self.base) / WORD_SIZE) as usize;
        for w in &mut self.words[first..=last] {
            w.record(tid, kind);
        }
    }

    /// Total accesses over all words of the line.
    pub fn total_accesses(&self) -> u64 {
        self.words.iter().map(WordState::total).sum()
    }

    /// Mean accesses per word, the paper's *hot access* cutoff: a word is hot
    /// when its access count exceeds this average (§3.3).
    pub fn average_accesses(&self) -> f64 {
        self.total_accesses() as f64 / self.words.len() as f64
    }

    /// Indices of *hot* words: words whose access count is strictly greater
    /// than the per-word average of this line.
    pub fn hot_words(&self) -> Vec<usize> {
        let avg = self.average_accesses();
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| (w.total() as f64) > avg)
            .map(|(i, _)| i)
            .collect()
    }

    /// The distinct exclusive owner threads observed on this line.
    pub fn exclusive_threads(&self) -> Vec<ThreadId> {
        let mut out: Vec<ThreadId> = self.words.iter().filter_map(|w| w.owner.thread()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind::{Read, Write};
    use proptest::prelude::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn tracker() -> WordTracker {
        WordTracker::new(0x4000_0000, CacheGeometry::new(64))
    }

    #[test]
    fn new_tracker_is_untouched() {
        let t = tracker();
        assert_eq!(t.len(), 8);
        assert!(t
            .words()
            .iter()
            .all(|w| w.owner == Owner::Untouched && w.total() == 0));
        assert_eq!(t.total_accesses(), 0);
    }

    #[test]
    fn exclusive_then_shared_transition() {
        let mut t = tracker();
        t.record(T0, 0x4000_0000, 8, Write);
        assert_eq!(t.words()[0].owner, Owner::Exclusive(T0));
        t.record(T0, 0x4000_0000, 8, Read);
        assert_eq!(t.words()[0].owner, Owner::Exclusive(T0));
        t.record(T1, 0x4000_0000, 8, Read);
        assert_eq!(t.words()[0].owner, Owner::Shared);
        // Shared is absorbing.
        t.record(T0, 0x4000_0000, 8, Write);
        assert_eq!(t.words()[0].owner, Owner::Shared);
    }

    #[test]
    fn counts_attributed_to_correct_word() {
        let mut t = tracker();
        t.record(T0, 0x4000_0008, 4, Write); // word 1
        t.record(T1, 0x4000_0038, 8, Read); // word 7
        assert_eq!(t.words()[1].writes, 1);
        assert_eq!(t.words()[7].reads, 1);
        assert_eq!(t.words()[0].total(), 0);
    }

    #[test]
    fn straddling_word_access_hits_both_words() {
        let mut t = tracker();
        // 8-byte write at offset 4 touches words 0 and 1.
        t.record(T0, 0x4000_0004, 8, Write);
        assert_eq!(t.words()[0].writes, 1);
        assert_eq!(t.words()[1].writes, 1);
    }

    #[test]
    fn access_outside_line_is_ignored() {
        let mut t = tracker();
        t.record(T0, 0x4000_0040, 8, Write); // next line
        t.record(T0, 0x3fff_fff8, 8, Write); // previous line
        assert_eq!(t.total_accesses(), 0);
    }

    #[test]
    fn straddling_line_access_records_only_inner_part() {
        let mut t = tracker();
        // Write covering the last 4 bytes of this line and 4 of the next.
        t.record(T0, 0x4000_003c, 8, Write);
        assert_eq!(t.words()[7].writes, 1);
        assert_eq!(t.total_accesses(), 1);
    }

    #[test]
    fn hot_words_exceed_average() {
        let mut t = tracker();
        for _ in 0..100 {
            t.record(T0, 0x4000_0000, 8, Write); // word 0: 100 accesses
        }
        t.record(T1, 0x4000_0038, 8, Write); // word 7: 1 access
                                             // avg = 101/8 ≈ 12.6 → only word 0 is hot.
        assert_eq!(t.hot_words(), vec![0]);
    }

    #[test]
    fn uniform_access_has_no_hot_words() {
        let mut t = tracker();
        for w in 0..8u64 {
            t.record(T0, 0x4000_0000 + w * 8, 8, Write);
        }
        assert!(t.hot_words().is_empty());
    }

    #[test]
    fn exclusive_threads_lists_distinct_owners() {
        let mut t = tracker();
        t.record(T0, 0x4000_0000, 8, Write);
        t.record(T1, 0x4000_0038, 8, Write);
        assert_eq!(t.exclusive_threads(), vec![T0, T1]);
        assert!(!t.words.iter().any(|w| w.owner == Owner::Shared));
    }

    #[test]
    fn shared_word_detected() {
        let mut t = tracker();
        t.record(T0, 0x4000_0000, 8, Write);
        t.record(T1, 0x4000_0000, 8, Write);
        assert!(t.words.iter().any(|w| w.owner == Owner::Shared));
        assert!(t.exclusive_threads().is_empty());
    }

    #[test]
    fn word_addr_matches_layout() {
        let t = tracker();
        assert_eq!(t.word_addr(0), 0x4000_0000);
        assert_eq!(t.word_addr(7), 0x4000_0038);
    }

    proptest! {
        /// Total accesses equals the number of (word × access) attributions.
        #[test]
        fn prop_counts_conserved(
            accesses in proptest::collection::vec(
                (0u16..3, 0u64..64, 1u8..=8, prop::bool::ANY), 0..128)
        ) {
            let geom = CacheGeometry::new(64);
            let base = 0x1000u64;
            let mut t = WordTracker::new(base, geom);
            let mut expected = 0u64;
            for (tid, off, size, w) in accesses {
                let addr = base + off;
                let kind = if w { Write } else { Read };
                // Count how many in-line words the access touches.
                let end = (addr + size as u64 - 1).min(base + 63);
                if addr <= base + 63 {
                    expected += end / 8 - addr / 8 + 1;
                }
                t.record(ThreadId(tid), addr, size, kind);
            }
            prop_assert_eq!(t.total_accesses(), expected);
        }

        /// A word's owner is Shared iff ≥2 distinct threads touched it.
        #[test]
        fn prop_shared_iff_multiple_threads(
            accesses in proptest::collection::vec((0u16..3, 0usize..8, prop::bool::ANY), 0..64)
        ) {
            let geom = CacheGeometry::new(64);
            let mut t = WordTracker::new(0, geom);
            let mut seen: Vec<std::collections::BTreeSet<u16>> =
                vec![Default::default(); 8];
            for (tid, word, w) in accesses {
                let kind = if w { Write } else { Read };
                t.record(ThreadId(tid), (word * 8) as u64, 8, kind);
                seen[word].insert(tid);
            }
            for (i, s) in seen.iter().enumerate() {
                let owner = t.words()[i].owner;
                match s.len() {
                    0 => prop_assert_eq!(owner, Owner::Untouched),
                    1 => prop_assert_eq!(
                        owner,
                        Owner::Exclusive(ThreadId(*s.iter().next().unwrap()))
                    ),
                    _ => prop_assert_eq!(owner, Owner::Shared),
                }
            }
        }
    }
}
