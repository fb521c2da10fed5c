//! # predator-shadow
//!
//! The simulated address space and shadow-memory substrate for the PREDATOR
//! false-sharing detector (PPoPP 2014).
//!
//! The paper's runtime (§2.3.2) relies on two things this crate provides:
//!
//! 1. **A heap with a predefined starting address and fixed size** —
//!    [`SimSpace`], our stand-in for the instrumented application's address
//!    space. Application data lives in a real backing arena; every slot is an
//!    atomic word, so racy workloads (the whole point of a false-sharing
//!    detector!) stay well-defined in Rust while still exercising real
//!    concurrent access patterns.
//! 2. **Shadow memory located by address arithmetic** — [`ShadowLayout`]
//!    maps addresses to dense cache-line indices in O(1);
//!    [`LineCounters`] is the paper's `CacheWrites` array of atomic per-line
//!    write counters; [`TrackSlots`] is the `CacheTracking` array of
//!    CAS-published pointers to detailed per-line tracking state (Figure 1's
//!    `ATOMIC_CAS(&CacheTracking[cacheIndex], 0, track)`).
//!
//! Every read-modify-write on detector state — these counters and
//! `predator-core`'s per-line cells — is issued through a [`Mode`]: hardware
//! RMWs when several threads drive a detector, load and store when one owns
//! it ([`mode`], which lives in `predator-obs` so the flight recorder's rings
//! share it).
//!
//! Memory-ordering notes (per *Rust Atomics and Locks*): counters use
//! `Relaxed` (pure counts, no data published through them); [`TrackSlots`]
//! publishes with `Release` and reads with `Acquire` so the fully-initialized
//! track structure is visible to every thread that observes the pointer.

pub mod counters;
pub mod space;
pub mod track_slots;

pub use counters::LineCounters;
pub use predator_obs::mode;
pub use predator_obs::mode::{Exclusive, Mode, RawU64, Shared};
pub use space::{Scalar, SimSpace};
pub use track_slots::TrackSlots;

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64};

use predator_sim::CacheGeometry;

/// Types [`zeroed`] may build.
///
/// # Safety
/// All-zero bytes must be a valid value of the implementor.
pub(crate) unsafe trait ZeroValid {}
// SAFETY: the std atomics are laid out as the integer or pointer they wrap,
// and 0 and the null pointer are valid values of those.
unsafe impl ZeroValid for AtomicU32 {}
unsafe impl ZeroValid for AtomicU64 {}
unsafe impl<T> ZeroValid for AtomicPtr<T> {}

/// The one constructor of every shadow array: `len` zero elements from the
/// allocator's `alloc_zeroed`. At shadow sizes that is fresh `mmap` memory the
/// OS zero-fills on first touch, so a line never written costs neither set-up
/// time nor resident memory (§2.4.1: the shadow is located, not paid for).
pub(crate) fn zeroed<T: ZeroValid>(len: usize) -> Box<[T]> {
    // SAFETY: `ZeroValid` promises all-zero bytes are an initialised `T`.
    unsafe { Box::new_zeroed_slice(len).assume_init() }
}

/// Maps simulated addresses to dense per-line metadata indices.
///
/// The layout covers `[base, base + size)`; `size` is rounded up to whole
/// lines. Lookup is two instructions — subtract and shift — exactly the
/// address-arithmetic shadow scheme of AddressSanitizer that §2.3.2 cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowLayout {
    base: u64,
    lines: usize,
    geom: CacheGeometry,
}

impl ShadowLayout {
    /// Creates a layout for `size` bytes starting at `base` (must be
    /// line-aligned) under `geom`.
    pub fn new(base: u64, size: u64, geom: CacheGeometry) -> Self {
        assert_eq!(
            base % geom.line_size(),
            0,
            "shadow base must be line-aligned"
        );
        let lines = (geom.align_up(base + size) - base) >> geom.line_shift();
        ShadowLayout {
            base,
            lines: lines as usize,
            geom,
        }
    }

    /// First covered address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of cache lines covered.
    #[inline]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The cache geometry indices are computed with.
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// True if `addr` falls inside the covered range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && ((addr - self.base) >> self.geom.line_shift()) < self.lines as u64
    }

    /// Dense line index for `addr`, or `None` when out of range.
    #[inline]
    pub fn index_of(&self, addr: u64) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) >> self.geom.line_shift()) as usize;
        (idx < self.lines).then_some(idx)
    }

    /// First byte address of dense line `idx`.
    #[inline]
    pub fn line_start(&self, idx: usize) -> u64 {
        self.base + ((idx as u64) << self.geom.line_shift())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_indexing_roundtrip() {
        let geom = CacheGeometry::new(64);
        let l = ShadowLayout::new(0x4000_0000, 4096, geom);
        assert_eq!(l.lines(), 64);
        assert_eq!(l.index_of(0x4000_0000), Some(0));
        assert_eq!(l.index_of(0x4000_003f), Some(0));
        assert_eq!(l.index_of(0x4000_0040), Some(1));
        assert_eq!(l.index_of(0x4000_0000 + 4096), None);
        assert_eq!(l.index_of(0x3fff_ffff), None);
        assert_eq!(l.line_start(1), 0x4000_0040);
    }

    #[test]
    fn layout_rounds_size_up_to_lines() {
        let geom = CacheGeometry::new(64);
        let l = ShadowLayout::new(0, 100, geom);
        assert_eq!(l.lines(), 2);
        assert!(l.contains(127));
        assert!(!l.contains(128));
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn layout_rejects_misaligned_base() {
        ShadowLayout::new(8, 4096, CacheGeometry::new(64));
    }
}
