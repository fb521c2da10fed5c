//! The `CacheTracking` shadow array (§2.4.1, Figure 1).
//!
//! Once a line's write count crosses the *TrackingThreshold*, the runtime
//! "allocates space to track detailed cache invalidations and word accesses
//! … and uses an atomic compare-and-swap to set the cache tracking address
//! for this cache line in the shadow mapping."
//!
//! [`TrackSlots<T>`] is that array, generic over the per-line tracking
//! payload `T`. The race on the threshold edge is resolved with the
//! publish-with-`Release` / read-with-`Acquire` pattern: whichever thread
//! wins the CAS publishes a fully-constructed `T`; losers free their
//! speculative allocation and use the winner's.
//!
//! The array is sized by the shadowed range but backed lazily
//! ([`crate::zeroed`]), and reports and teardown visit the published payloads
//! through an index of them, so both follow the lines promoted, not the range.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A dense array of lazily, atomically published per-line tracking payloads.
///
/// Slots start null; [`TrackSlots::get_or_publish`] installs a payload
/// exactly once per slot, and [`TrackSlots::get`] returns `None` until that
/// happens. Published payloads live until the `TrackSlots` is dropped.
pub struct TrackSlots<T> {
    slots: Box<[AtomicPtr<T>]>,
    /// Index of every published slot, entered by the winner of its CAS: once
    /// per promotion, never on an access. Not counted as metadata.
    published: Mutex<BTreeSet<usize>>,
}

impl<T> TrackSlots<T> {
    /// Allocates `len` empty slots.
    pub fn new(len: usize) -> Self {
        TrackSlots {
            slots: crate::zeroed(len),
            published: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The published-index set. Its only update is `insert`, which cannot
    /// leave it invalid, so a poisoned lock is recovered, not propagated.
    fn listed(&self) -> MutexGuard<'_, BTreeSet<usize>> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of slots with a published payload.
    pub fn published(&self) -> usize {
        self.listed().len()
    }

    /// Returns the payload for `idx`, if one has been published.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&T> {
        let p = self.slots[idx].load(Ordering::Acquire);
        // SAFETY: a non-null pointer was published by `get_or_publish` via a
        // Release CAS from a `Box::into_raw`, is never mutated or freed until
        // `self` drops, and `&self` outlives the returned reference.
        unsafe { p.as_ref() }
    }

    /// Returns the payload for `idx`, publishing `make()` if the slot is
    /// still empty. On a lost race the speculative payload is dropped and the
    /// winner's is returned — Figure 1's `ATOMIC_CAS(&CacheTracking[i], 0, track)`.
    pub fn get_or_publish(&self, idx: usize, make: impl FnOnce() -> T) -> &T {
        let slot = &self.slots[idx];
        let existing = slot.load(Ordering::Acquire);
        if !existing.is_null() {
            // SAFETY: as in `get`.
            return unsafe { &*existing };
        }
        let fresh = Box::into_raw(Box::new(make()));
        match slot.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::Release,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.listed().insert(idx);
                // SAFETY: we just published `fresh`; it stays valid until drop.
                unsafe { &*fresh }
            }
            Err(winner) => {
                // SAFETY: `fresh` was never shared; reclaim it.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: as in `get`.
                unsafe { &*winner }
            }
        }
    }

    /// Iterates over `(index, payload)` for every published slot, in index
    /// order, through the index set: the cost is the lines promoted.
    pub fn iter_published(&self) -> impl Iterator<Item = (usize, &T)> {
        let indices: Vec<usize> = self.listed().iter().copied().collect();
        indices
            .into_iter()
            .map(|i| (i, self.get(i).expect("a listed slot was published")))
    }

    /// Bytes of metadata: the pointer array plus every published payload
    /// (for the memory-overhead experiments, Figures 8–9) — the paper's
    /// accounting, array length × element size, and so an upper bound on
    /// what is resident: untouched parts of the array are never backed.
    pub fn metadata_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<AtomicPtr<T>>()
            + self.published() * std::mem::size_of::<T>()
    }
}

impl<T> Drop for TrackSlots<T> {
    fn drop(&mut self) {
        let listed = std::mem::take(&mut *self.listed());
        for idx in listed {
            let p = std::mem::replace(self.slots[idx].get_mut(), std::ptr::null_mut());
            assert!(!p.is_null(), "a listed slot was published");
            // SAFETY: non-null pointers in slots come exclusively from
            // `Box::into_raw` in `get_or_publish`; the set lists each once,
            // the swap above empties the slot, and nothing else frees them.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

// SAFETY: payloads are published once and only shared by reference; `T` must
// itself be Sync (shared between threads) and Send (dropped by whichever
// thread drops the TrackSlots). The index is a `Mutex<BTreeSet<usize>>`,
// Send + Sync on its own.
unsafe impl<T: Send + Sync> Sync for TrackSlots<T> {}
unsafe impl<T: Send> Send for TrackSlots<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Arc;

    #[test]
    fn slots_start_empty() {
        let s: TrackSlots<u64> = TrackSlots::new(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.published(), 0);
        assert!(s.get(0).is_none());
    }

    #[test]
    fn publish_once_then_get() {
        let s: TrackSlots<u64> = TrackSlots::new(8);
        let v = s.get_or_publish(3, || 42);
        assert_eq!(*v, 42);
        assert_eq!(s.published(), 1);
        assert_eq!(s.get(3), Some(&42));
        // Second publish attempt returns the existing payload, make() unused.
        let v2 = s.get_or_publish(3, || 99);
        assert_eq!(*v2, 42);
        assert_eq!(s.published(), 1);
    }

    #[test]
    fn iter_published_lists_only_filled_slots() {
        let s: TrackSlots<u64> = TrackSlots::new(8);
        s.get_or_publish(1, || 10);
        s.get_or_publish(5, || 50);
        let got: Vec<(usize, u64)> = s.iter_published().map(|(i, v)| (i, *v)).collect();
        assert_eq!(got, vec![(1, 10), (5, 50)]);
    }

    #[test]
    fn metadata_accounting_grows_with_publishes() {
        let s: TrackSlots<u64> = TrackSlots::new(4);
        let empty = s.metadata_bytes();
        s.get_or_publish(0, || 1);
        assert_eq!(s.metadata_bytes(), empty + std::mem::size_of::<u64>());
    }

    #[test]
    fn racing_publishers_agree_on_one_payload() {
        // Every thread publishes its own id; all must read the same winner.
        let s: Arc<TrackSlots<u64>> = Arc::new(TrackSlots::new(1));
        let results: Vec<u64> = std::thread::scope(|scope| {
            (0..8u64)
                .map(|t| {
                    let s = s.clone();
                    scope.spawn(move || *s.get_or_publish(0, || t))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(s.published(), 1);
        let winner = results[0];
        assert!(results.iter().all(|&r| r == winner));
        assert_eq!(s.get(0), Some(&winner));
    }

    #[test]
    fn payload_mutation_via_interior_mutability_is_shared() {
        let s: TrackSlots<AtomicU64> = TrackSlots::new(1);
        s.get_or_publish(0, || AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let c = s.get_or_publish(0, || AtomicU64::new(0));
                    for _ in 0..1000 {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(s.get(0).unwrap().load(Ordering::Relaxed), 4000);
    }

    /// A payload that counts its drops, so a leak or a double free shows.
    struct Counted<'a>(usize, &'a AtomicUsize);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The pre-index `iter_published`: every slot, in order.
    fn full_scan(s: &TrackSlots<Counted<'_>>) -> Vec<(usize, usize)> {
        (0..s.len())
            .filter_map(|i| s.get(i).map(|c| (i, c.0)))
            .collect()
    }

    /// `iter_published`, `published()` and `Drop` against the full scan.
    fn check_against_full_scan(s: TrackSlots<Counted<'_>>, drops: &AtomicUsize, made: usize) {
        let listed: Vec<(usize, usize)> = s.iter_published().map(|(i, c)| (i, c.0)).collect();
        assert_eq!(listed, full_scan(&s), "same pairs, ascending index");
        assert_eq!(s.published(), listed.len());
        // Speculative payloads of lost races are already gone...
        assert_eq!(drops.load(Ordering::Relaxed), made - listed.len());
        drop(s);
        // ...and every published one is freed exactly once.
        assert_eq!(drops.load(Ordering::Relaxed), made);
    }

    #[test]
    fn four_concurrent_publishers_are_all_listed_once() {
        const LEN: usize = 64;
        let drops = AtomicUsize::new(0);
        let made = AtomicUsize::new(0);
        let s: TrackSlots<Counted<'_>> = TrackSlots::new(LEN);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (s, start, drops, made) = (&s, &start, &drops, &made);
                scope.spawn(move || {
                    start.wait();
                    // Overlapping strides: most slots are raced for.
                    for k in 0..LEN {
                        let idx = (k * (2 * t + 1) + t) % LEN;
                        s.get_or_publish(idx, || {
                            made.fetch_add(1, Ordering::Relaxed);
                            Counted(idx, drops)
                        });
                    }
                });
            }
        });
        assert_eq!(s.published(), LEN);
        check_against_full_scan(s, &drops, made.load(Ordering::Relaxed));
    }

    proptest! {
        #[test]
        fn prop_iter_published_equals_full_scan(
            order in proptest::collection::vec(0usize..48, 0..96)
        ) {
            let drops = AtomicUsize::new(0);
            let s: TrackSlots<Counted<'_>> = TrackSlots::new(48);
            let mut made = 0;
            for &idx in &order {
                s.get_or_publish(idx, || {
                    made += 1;
                    Counted(idx, &drops)
                });
                prop_assert_eq!(s.iter_published().count(), made);
            }
            check_against_full_scan(s, &drops, made);
        }
    }
}
