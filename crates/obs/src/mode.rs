//! How a detector's cells are updated: by several threads at once, or by the
//! one thread that owns the detector.
//!
//! Every counter, history table, batch slot and flight-recorder ring of the
//! detector is an atomic cell, and every read-modify-write on one goes
//! through a [`Mode`]: [`Shared`] issues the hardware RMW (`lock xadd` /
//! `lock cmpxchg` on x86-64), [`Exclusive`] a relaxed load and a relaxed
//! store of the *same* cell. The exclusive form is only correct while a single thread updates
//! the detector — which its owner check establishes per call
//! (`predator_core::Predator`) — and is then indistinguishable from the
//! shared form: with no concurrent writer a compare-exchange on the value
//! just loaded always succeeds, and a load–add–store loses nothing. One data
//! layout, one source path for the algorithms, two instantiations.
//!
//! The cell interface is [`RawU64`]: implemented by the std atomics here —
//! the only `fetch_add` / `compare_exchange` on detector state in the tree,
//! which `scripts/ci.sh` checks — and by the vendored `loom` shim's atomic in
//! the model tests, so the code that is model-checked is the code that ships.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Minimal atomic cell the detector's algorithms are written against, read
/// and written as a `u64`.
///
/// All operations are `Relaxed`: the protocols rely only on the per-location
/// total modification order that every atomic RMW already participates in,
/// never on cross-location ordering (the single exception, the promotion-edge
/// `Acquire` fence, is issued by the caller).
pub trait RawU64 {
    /// Relaxed load.
    fn load(&self) -> u64;
    /// Relaxed compare-exchange (strong); `Err` carries the observed value.
    fn cas(&self, current: u64, new: u64) -> Result<u64, u64>;
    /// Relaxed fetch-add.
    fn fetch_add(&self, val: u64) -> u64;
    /// Relaxed store.
    fn store(&self, val: u64);
}

/// The std atomics as cells. A 32-bit cell speaks the same interface,
/// widened: every value the detector keeps in one (a line's write count up
/// to the tracking threshold, a word-owner code, a last-word slot) fits, so
/// the narrowing casts never drop a set bit.
macro_rules! std_cell {
    ($atomic:ty, $int:ty) => {
        impl RawU64 for $atomic {
            #[inline]
            fn load(&self) -> u64 {
                <$atomic>::load(self, Ordering::Relaxed) as u64
            }

            #[inline]
            fn cas(&self, current: u64, new: u64) -> Result<u64, u64> {
                self.compare_exchange(
                    current as $int,
                    new as $int,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .map(|v| v as u64)
                .map_err(|v| v as u64)
            }

            #[inline]
            fn fetch_add(&self, val: u64) -> u64 {
                <$atomic>::fetch_add(self, val as $int, Ordering::Relaxed) as u64
            }

            #[inline]
            fn store(&self, val: u64) {
                <$atomic>::store(self, val as $int, Ordering::Relaxed)
            }
        }
    };
}
std_cell!(AtomicU64, u64);
std_cell!(AtomicU32, u32);

/// The two read-modify-writes of the detector, under one update discipline.
/// A zero-sized value threaded from the entry point that resolved it down to
/// every cell update, so a call makes the choice once.
pub trait Mode: Copy {
    /// True when other threads may update the same cells at the same time:
    /// what a lock word (the flight recorder's rings) is taken for.
    const SHARED: bool;
    /// Adds `val` to `cell`, returning the previous value.
    fn add<A: RawU64>(self, cell: &A, val: u64) -> u64;
    /// Replaces `current` with `new` in `cell`; `Err` carries what was there.
    fn cas<A: RawU64>(self, cell: &A, current: u64, new: u64) -> Result<u64, u64>;
}

/// Any number of threads update the detector: hardware RMWs.
#[derive(Debug, Clone, Copy)]
pub struct Shared;

/// One thread updates the detector: load, compute, store.
#[derive(Debug, Clone, Copy)]
pub struct Exclusive;

impl Mode for Shared {
    const SHARED: bool = true;

    #[inline]
    fn add<A: RawU64>(self, cell: &A, val: u64) -> u64 {
        cell.fetch_add(val)
    }

    #[inline]
    fn cas<A: RawU64>(self, cell: &A, current: u64, new: u64) -> Result<u64, u64> {
        cell.cas(current, new)
    }
}

impl Mode for Exclusive {
    const SHARED: bool = false;

    #[inline]
    fn add<A: RawU64>(self, cell: &A, val: u64) -> u64 {
        let prev = cell.load();
        cell.store(prev.wrapping_add(val));
        prev
    }

    #[inline]
    fn cas<A: RawU64>(self, cell: &A, current: u64, new: u64) -> Result<u64, u64> {
        let prev = cell.load();
        if prev != current {
            return Err(prev);
        }
        cell.store(new);
        Ok(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmws_behave<M: Mode>(m: M) {
        let c = AtomicU64::new(5);
        assert_eq!(m.add(&c, 3), 5);
        assert_eq!(RawU64::load(&c), 8);
        assert_eq!(m.cas(&c, 8, 1), Ok(8));
        assert_eq!(m.cas(&c, 8, 2), Err(1));
        assert_eq!(RawU64::load(&c), 1);
        RawU64::store(&c, u64::MAX);
        assert_eq!(m.add(&c, 2), u64::MAX, "wraps like the hardware add");
        assert_eq!(RawU64::load(&c), 1);
    }

    #[test]
    fn both_modes_compute_the_same_results_on_one_thread() {
        rmws_behave(Shared);
        rmws_behave(Exclusive);
    }

    #[test]
    fn a_32_bit_cell_round_trips_through_the_widened_interface() {
        let c = AtomicU32::new(0);
        assert_eq!(Exclusive.add(&c, 1), 0);
        assert_eq!(Shared.add(&c, 1), 1);
        assert_eq!(Shared.cas(&c, 2, 0x8000_0301), Ok(2));
        assert_eq!(Exclusive.cas(&c, 2, 7), Err(0x8000_0301));
        assert_eq!(c.load(Ordering::Relaxed), 0x8000_0301);
    }
}
