//! Cache-line and word address arithmetic.
//!
//! All metadata lookups in the detector are O(1) address arithmetic on top of
//! these helpers (the shadow-memory design of §2.3.2). The paper tracks
//! word-granularity information at 8-byte granularity; [`WORD_SIZE`] fixes
//! that constant for the whole workspace.

use serde::{Deserialize, Serialize};

/// Granularity of word-level access tracking, in bytes (§2.3.2).
pub const WORD_SIZE: u64 = 8;
/// `log2(WORD_SIZE)`.
pub const WORD_SHIFT: u32 = 3;

/// Describes a cache-line geometry: a power-of-two line size.
///
/// The default is the ubiquitous 64-byte line. Prediction for doubled line
/// sizes (§3.1, Figure 3b) is expressed by pairing lines of this geometry
/// rather than by a second `CacheGeometry`, mirroring the paper's
/// "virtual line = lines 2·i and 2·i+1" formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    line_shift: u32,
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::new(64)
    }
}

impl CacheGeometry {
    /// Creates a geometry with the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two or is smaller than a word.
    pub fn new(line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two() && line_size >= WORD_SIZE,
            "cache line size must be a power of two >= {WORD_SIZE}, got {line_size}"
        );
        CacheGeometry {
            line_shift: line_size.trailing_zeros(),
        }
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_size(self) -> u64 {
        1 << self.line_shift
    }

    /// `log2(line_size)` — the `CACHELINE_SIZE_SHIFTS` constant of Figure 1.
    #[inline]
    pub fn line_shift(self) -> u32 {
        self.line_shift
    }

    /// Number of tracked words per line.
    #[inline]
    pub fn words_per_line(self) -> usize {
        (self.line_size() >> WORD_SHIFT) as usize
    }

    /// Index of the cache line containing `addr` (`addr >> CACHELINE_SIZE_SHIFTS`).
    #[inline]
    pub fn line_index(self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// First byte address of line `index`.
    #[inline]
    pub fn line_start(self, index: u64) -> u64 {
        index << self.line_shift
    }

    /// Byte offset of `addr` within its line.
    #[inline]
    pub fn offset_in_line(self, addr: u64) -> u64 {
        addr & (self.line_size() - 1)
    }

    /// Index of the word containing `addr`, *within its cache line*.
    #[inline]
    pub fn word_in_line(self, addr: u64) -> usize {
        (self.offset_in_line(addr) >> WORD_SHIFT) as usize
    }

    /// Returns the inclusive range of line indices touched by an access of
    /// `size` bytes starting at `addr`. Scalar accesses almost always touch a
    /// single line, but unaligned or large accesses may straddle two.
    #[inline]
    pub fn lines_touched(self, addr: u64, size: u8) -> std::ops::RangeInclusive<u64> {
        let first = self.line_index(addr);
        // `size - 1` first: an access ending on the last byte of the address
        // space must not overflow on the way to its last byte.
        let last = self.line_index(addr + (size.max(1) as u64 - 1));
        first..=last
    }

    /// Rounds `addr` down to its line start.
    #[inline]
    pub fn align_down(self, addr: u64) -> u64 {
        addr & !(self.line_size() - 1)
    }

    /// Rounds `addr` up to the next line boundary (identity if aligned).
    #[inline]
    pub fn align_up(self, addr: u64) -> u64 {
        let mask = self.line_size() - 1;
        (addr + mask) & !mask
    }

    /// The prediction portfolio: the line sizes every what-if verdict is
    /// checked against. Covers the deployed spectrum from 32-byte embedded
    /// lines through 64-byte x86 to 128/256-byte POWER and prefetch-paired
    /// server parts.
    pub const PORTFOLIO_LINE_SIZES: [u64; 4] = [32, 64, 128, 256];

    /// All portfolio geometries, smallest line first.
    pub fn portfolio() -> [CacheGeometry; 4] {
        Self::PORTFOLIO_LINE_SIZES.map(CacheGeometry::new)
    }

    /// Byte separation that guarantees two addresses can never share a
    /// physical *or predicted* cache line anywhere in the portfolio: the
    /// largest portfolio line doubled (the §3.1 doubled-line scenario at the
    /// widest geometry). Two addresses at least this far apart cannot fall
    /// inside any single aligned or shifted window of any portfolio size.
    pub fn portfolio_separation() -> u64 {
        Self::PORTFOLIO_LINE_SIZES[Self::PORTFOLIO_LINE_SIZES.len() - 1] * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_64_bytes() {
        let g = CacheGeometry::default();
        assert_eq!(g.line_size(), 64);
        assert_eq!(g.line_shift(), 6);
        assert_eq!(g.words_per_line(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        CacheGeometry::new(48);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_sub_word_lines() {
        CacheGeometry::new(4);
    }

    #[test]
    fn line_index_and_start_roundtrip() {
        let g = CacheGeometry::new(64);
        assert_eq!(g.line_index(0), 0);
        assert_eq!(g.line_index(63), 0);
        assert_eq!(g.line_index(64), 1);
        assert_eq!(g.line_start(1), 64);
        assert_eq!(g.line_start(g.line_index(0x4000_0038)), 0x4000_0000);
    }

    #[test]
    fn offsets_and_words() {
        let g = CacheGeometry::new(64);
        assert_eq!(g.offset_in_line(0x4000_0038), 0x38);
        assert_eq!(g.word_in_line(0x4000_0038), 7);
        assert_eq!(g.word_in_line(0x4000_0040), 0);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let g = CacheGeometry::new(64);
        assert_eq!(g.lines_touched(60, 8), 0..=1);
        assert_eq!(g.lines_touched(56, 8), 0..=0);
        assert_eq!(g.lines_touched(64, 8), 1..=1);
        let top = u64::MAX >> 6;
        assert_eq!(g.lines_touched(u64::MAX - 7, 8), top..=top);
    }

    #[test]
    fn align_helpers() {
        let g = CacheGeometry::new(64);
        assert_eq!(g.align_down(100), 64);
        assert_eq!(g.align_up(100), 128);
        assert_eq!(g.align_up(64), 64);
        assert_eq!(g.align_down(64), 64);
    }

    proptest! {
        #[test]
        fn prop_line_math_consistent(addr in 0u64..1 << 40, shift in 3u32..10) {
            let g = CacheGeometry::new(1 << shift);
            let idx = g.line_index(addr);
            prop_assert!(g.line_start(idx) <= addr);
            prop_assert!(addr < g.line_start(idx) + g.line_size());
            prop_assert_eq!(g.line_start(idx) + g.offset_in_line(addr), addr);
            prop_assert!(g.word_in_line(addr) < g.words_per_line());
        }

        #[test]
        fn prop_align_brackets_addr(addr in 0u64..1 << 40) {
            let g = CacheGeometry::default();
            prop_assert!(g.align_down(addr) <= addr);
            prop_assert!(g.align_up(addr) >= addr);
            prop_assert!(g.align_up(addr) - g.align_down(addr) <= g.line_size());
        }
    }

    #[test]
    fn portfolio_spans_32_to_256() {
        let p = CacheGeometry::portfolio();
        assert_eq!(p.map(|g| g.line_size()), [32, 64, 128, 256]);
        assert_eq!(CacheGeometry::portfolio_separation(), 512);
        // The separation is a whole-line multiple of every portfolio
        // geometry — the property the remap-soundness argument leans on.
        for g in p {
            assert_eq!(CacheGeometry::portfolio_separation() % g.line_size(), 0);
        }
    }
}
