//! The `CacheWrites` shadow array (§2.4.1).
//!
//! "PREDATOR maintains two arrays in shadow memory: `CacheWrites` tracks the
//! number of memory writes to every cache line …". Until a line's write
//! count crosses the *TrackingThreshold* the runtime does nothing else for
//! it — reads are not even counted — which is what keeps the common case
//! cheap. The increment is a single `Relaxed` atomic `fetch_add`, "to avoid
//! expensive lock operations" — and not even that when one thread owns the
//! detector ([`crate::mode`]).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::mode::{Mode, Shared};

/// A dense array of per-cache-line atomic write counters.
pub struct LineCounters {
    counts: Box<[AtomicU32]>,
}

impl LineCounters {
    /// Allocates `lines` counters, all zero.
    pub fn new(lines: usize) -> Self {
        let counts = crate::zeroed(lines);
        LineCounters { counts }
    }

    /// Backs the whole array now, not on first touch — for live sessions,
    /// whose workload threads would otherwise take the faults mid-run. A
    /// hardware CAS of 0 for 0 per page: an add of 0 compiles to a load and
    /// backs nothing.
    pub fn prefault(&self) {
        const PER_PAGE: usize = 4096 / std::mem::size_of::<AtomicU32>();
        for count in self.counts.iter().step_by(PER_PAGE) {
            let _ = Shared.cas(count, 0, 0);
        }
    }

    /// Increments the write counter of the line with dense index `idx` and
    /// returns the *new* value (Figure 1's
    /// `ATOMIC_INCR(&CacheWrites[cacheIndex])`).
    #[inline]
    pub fn increment<M: Mode>(&self, m: M, idx: usize) -> u32 {
        m.add(&self.counts[idx], 1) as u32 + 1
    }

    /// Current write count of dense line `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        self.counts[idx].load(Ordering::Relaxed)
    }

    /// Resets the counter of dense line `idx` (used when an object is freed
    /// and its lines held no false sharing — the memory-reuse rule of
    /// §2.3.2).
    #[inline]
    pub fn reset(&self, idx: usize) {
        self.counts[idx].store(0, Ordering::Relaxed);
    }

    /// Raises the counter of dense line `idx` to at least `floor` (used to
    /// force adjacent lines into tracked mode when prediction begins on a
    /// neighbor, §3.2 step 2). Never lowers the counter.
    #[inline]
    pub fn bump_to(&self, idx: usize, floor: u32) {
        self.counts[idx].fetch_max(floor, Ordering::Relaxed);
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the layout covers no lines.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Bytes of metadata this array occupies (for the memory-overhead
    /// experiments, Figures 8–9).
    pub fn metadata_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<AtomicU32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> LineCounters {
        LineCounters::new(64)
    }

    #[test]
    fn starts_at_zero() {
        let c = counters();
        assert_eq!(c.len(), 64);
        assert!((0..c.len()).all(|i| c.get(i) == 0));
    }

    #[test]
    fn increment_returns_new_value() {
        let c = counters();
        assert_eq!(c.increment(Shared, 3), 1);
        assert_eq!(c.increment(crate::mode::Exclusive, 3), 2);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(2), 0);
    }

    #[test]
    fn reset_zeroes_single_line() {
        let c = counters();
        c.increment(Shared, 1);
        c.increment(Shared, 2);
        c.reset(1);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.get(2), 1);
    }

    #[test]
    fn bump_to_only_raises() {
        let c = counters();
        c.bump_to(0, 10);
        assert_eq!(c.get(0), 10);
        c.bump_to(0, 5);
        assert_eq!(c.get(0), 10);
        c.bump_to(0, 20);
        assert_eq!(c.get(0), 20);
    }

    #[test]
    fn metadata_accounting() {
        let c = counters();
        assert_eq!(c.metadata_bytes(), 64 * 4);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = std::sync::Arc::new(counters());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.increment(Shared, 0);
                    }
                });
            }
        });
        assert_eq!(c.get(0), 80_000);
    }
}
