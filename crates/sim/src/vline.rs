//! Virtual cache lines (§3.3, §3.4).
//!
//! A *virtual cache line* is a contiguous memory range that spans one or more
//! physical cache lines. PREDATOR uses them to predict false sharing in two
//! what-if scenarios (Figure 3):
//!
//! 1. **Doubled line size** — a virtual line is the pair of physical lines
//!    `2·i` and `2·i+1` (the first has an even index). False sharing latent
//!    across that boundary appears on hardware with lines twice as large.
//! 2. **Different object starting address** — a virtual line has the *same*
//!    size as a physical line but an arbitrary starting offset `delta`
//!    (`0 ≤ delta < line_size`). A different allocation sequence or allocator
//!    shifts objects relative to line boundaries; a shifted partition of the
//!    address space models exactly that.
//!
//! Given two hot accesses `X < Y` closer than a line size, many offset
//! partitions put them on the same virtual line. Figure 4's placement rule
//! picks the canonical one to *verify*: leave the same slack before `X` and
//! after `Y`, i.e. track the virtual line `[X − (sz−d)/2, Y + (sz−d)/2)` with
//! `d = Y − X`. Because shifting a virtual line is equivalent to shifting the
//! object, all lines of one object must use the same `delta`; that is why the
//! geometry here is a *partition of the whole space*, not a single range.

use serde::{Deserialize, Serialize};

use crate::geometry::{CacheGeometry, WORD_SIZE};

/// A half-open address range `[start, start + size)` naming one virtual line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VirtualRange {
    /// First byte covered.
    pub start: u64,
    /// Length in bytes.
    pub size: u64,
}

impl VirtualRange {
    /// True if `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.start + self.size
    }

    /// Last byte covered (inclusive).
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.size - 1
    }
}

impl std::fmt::Display for VirtualRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.start + self.size)
    }
}

/// A partition of the address space into virtual cache lines.
///
/// Both predictive scenarios are uniform partitions, so a single `index`
/// function covers them; the detector keeps one history table per virtual
/// line index during verification (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VirtualGeometry {
    /// Virtual line = two consecutive physical lines, first index even
    /// (the paper's doubled-line scenario).
    Doubled(CacheGeometry),
    /// Extension: virtual line = `2^factor_log2` consecutive physical
    /// lines, first index a multiple of the factor — predicts line sizes
    /// beyond one doubling (e.g. 64 B → 256 B). `Scaled { factor_log2: 1 }`
    /// is equivalent to [`VirtualGeometry::Doubled`].
    Scaled {
        /// Underlying physical geometry.
        geom: CacheGeometry,
        /// log2 of how many physical lines form one virtual line (≥ 1).
        factor_log2: u32,
    },
    /// Virtual line = one physical line size, shifted by `delta` bytes
    /// (`0 ≤ delta < line_size`).
    Offset {
        /// Underlying physical geometry.
        geom: CacheGeometry,
        /// Shift of every virtual line start relative to physical lines.
        delta: u64,
    },
}

impl VirtualGeometry {
    /// Index of the virtual line containing `addr`.
    ///
    /// For the offset geometry, addresses below `delta` (which cannot occur
    /// for real heap addresses — the simulated heap base is far above any
    /// line size) saturate into line 0.
    #[inline]
    pub fn index(&self, addr: u64) -> u64 {
        match self {
            VirtualGeometry::Doubled(g) => g.line_index(addr) >> 1,
            VirtualGeometry::Scaled { geom, factor_log2 } => geom.line_index(addr) >> factor_log2,
            VirtualGeometry::Offset { geom, delta } => {
                addr.saturating_sub(*delta) >> geom.line_shift()
            }
        }
    }

    /// The address range of virtual line `idx`.
    #[inline]
    pub fn range(&self, idx: u64) -> VirtualRange {
        match self {
            VirtualGeometry::Doubled(g) => VirtualRange {
                start: g.line_start(idx << 1),
                size: g.line_size() * 2,
            },
            VirtualGeometry::Scaled { geom, factor_log2 } => VirtualRange {
                start: geom.line_start(idx << factor_log2),
                size: geom.line_size() << factor_log2,
            },
            VirtualGeometry::Offset { geom, delta } => VirtualRange {
                start: (idx << geom.line_shift()) + delta,
                size: geom.line_size(),
            },
        }
    }

    /// True when `a` and `b` fall on the same virtual line.
    #[inline]
    pub fn same_vline(&self, a: u64, b: u64) -> bool {
        self.index(a) == self.index(b)
    }

    /// The shift applied to line starts (0 for the scaled geometries).
    pub fn delta(&self) -> u64 {
        match self {
            VirtualGeometry::Doubled(_) | VirtualGeometry::Scaled { .. } => 0,
            VirtualGeometry::Offset { delta, .. } => *delta,
        }
    }
}

/// Could two accesses at `x` and `y` share a `2^factor_log2`-line virtual
/// line without sharing a `2^(factor_log2 - 1)`-line one? (Each scale is
/// only a *new* sharing opportunity at the first factor that merges them.)
#[inline]
pub fn scaled_vline_possible(x: u64, y: u64, geom: CacheGeometry, factor_log2: u32) -> bool {
    debug_assert!(factor_log2 >= 1);
    let (lx, ly) = (geom.line_index(x), geom.line_index(y));
    (lx >> factor_log2) == (ly >> factor_log2)
        && (lx >> (factor_log2 - 1)) != (ly >> (factor_log2 - 1))
}

/// Could two accesses at `x` and `y` *possibly* share a virtual line of the
/// offset kind? Exactly when they are closer than a line size: some shift of
/// the partition then covers both (§3.3 condition (1)).
#[inline]
pub fn offset_vline_possible(x: u64, y: u64, geom: CacheGeometry) -> bool {
    x.abs_diff(y) < geom.line_size()
}

/// Could two accesses at `x` and `y` share a *doubled* virtual line without
/// already sharing a physical line? Exactly when they live in the two halves
/// of an even/odd physical line pair.
#[inline]
pub fn doubled_vline_possible(x: u64, y: u64, geom: CacheGeometry) -> bool {
    let (lx, ly) = (geom.line_index(x), geom.line_index(y));
    lx != ly && (lx >> 1) == (ly >> 1)
}

/// Figure 4's virtual-line placement rule.
///
/// Given two hot word addresses `x ≤ y` with `d = y + WORD_SIZE − x ≤ sz`
/// (both words must fit in one virtual line of size `sz`), choose the
/// partition shift such that the tracked virtual line starts at
/// `x − (sz − d)/2`, leaving equal slack before `x` and after `y`. The start
/// is rounded down to word granularity so word trackers stay aligned, and the
/// resulting `delta` is the start modulo the line size — applying it
/// uniformly adjusts *all* lines of the object at once, as §3.4 requires.
///
/// Returns the offset [`VirtualGeometry`] to verify with.
pub fn place_offset_vline(x: u64, y: u64, geom: CacheGeometry) -> VirtualGeometry {
    let (x, y) = if x <= y { (x, y) } else { (y, x) };
    let sz = geom.line_size();
    // Span of the two hot words, measured to the end of Y's word.
    let d = (y + WORD_SIZE - x).min(sz);
    let slack = (sz - d) / 2;
    let start = (x.saturating_sub(slack)) & !(WORD_SIZE - 1);
    let delta = start & (sz - 1);
    VirtualGeometry::Offset { geom, delta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g64() -> CacheGeometry {
        CacheGeometry::new(64)
    }

    #[test]
    fn doubled_pairs_even_odd_lines() {
        let v = VirtualGeometry::Doubled(g64());
        assert_eq!(v.range(0).size, 128);
        // Lines 0 and 1 pair up; lines 2 and 3 pair up.
        assert_eq!(v.index(0), v.index(127));
        assert_ne!(v.index(127), v.index(128));
        assert_eq!(v.index(128), v.index(255));
        let r = v.range(1);
        assert_eq!(
            r,
            VirtualRange {
                start: 128,
                size: 128
            }
        );
    }

    #[test]
    fn scaled_generalizes_doubled() {
        let d = VirtualGeometry::Doubled(g64());
        let s = VirtualGeometry::Scaled {
            geom: g64(),
            factor_log2: 1,
        };
        for addr in [0u64, 63, 64, 127, 128, 4096, 0x4000_0038] {
            assert_eq!(d.index(addr), s.index(addr));
        }
        assert_eq!(d.range(0).size, s.range(0).size);
        assert_eq!(d.range(3), s.range(3));
    }

    #[test]
    fn scaled_quadruple_lines() {
        let v = VirtualGeometry::Scaled {
            geom: g64(),
            factor_log2: 2,
        };
        assert_eq!(v.range(0).size, 256);
        assert!(v.same_vline(0, 255));
        assert!(!v.same_vline(255, 256));
        assert_eq!(
            v.range(1),
            VirtualRange {
                start: 256,
                size: 256
            }
        );
        assert_eq!(v.delta(), 0);
    }

    #[test]
    fn scaled_possible_only_at_first_merging_factor() {
        let g = g64();
        // Lines 1 and 2: merge first at factor 4 (indices 0b01, 0b10 —
        // differ at scale 2, equal at scale 4).
        let (x, y) = (64 + 8, 128 + 8);
        assert!(!doubled_vline_possible(x, y, g));
        assert!(!scaled_vline_possible(x, y, g, 1));
        assert!(scaled_vline_possible(x, y, g, 2));
        assert!(!scaled_vline_possible(x, y, g, 3), "already merged at 4x");
        // Lines 0 and 1 merge at factor 2.
        assert!(scaled_vline_possible(0, 64, g, 1));
        assert!(!scaled_vline_possible(0, 64, g, 2));
        // Same line: never a new opportunity.
        assert!(!scaled_vline_possible(0, 8, g, 1));
    }

    #[test]
    fn offset_partition_shifts_boundaries() {
        let v = VirtualGeometry::Offset {
            geom: g64(),
            delta: 8,
        };
        assert_eq!(v.range(0).size, 64);
        // [8, 72) is one line: 8 and 71 share; 71 and 72 do not.
        assert!(v.same_vline(8, 71));
        assert!(!v.same_vline(71, 72));
        let idx = v.index(100);
        assert!(v.range(idx).contains(100));
    }

    #[test]
    fn zero_delta_offset_matches_physical_lines() {
        let v = VirtualGeometry::Offset {
            geom: g64(),
            delta: 0,
        };
        let g = g64();
        for addr in [0u64, 63, 64, 4096, 0x4000_0038] {
            assert_eq!(v.index(addr), g.line_index(addr));
        }
    }

    #[test]
    fn offset_vline_possible_iff_distance_lt_line() {
        let g = g64();
        assert!(offset_vline_possible(0x100, 0x13f, g)); // 63 apart
        assert!(!offset_vline_possible(0x100, 0x140, g)); // 64 apart
        assert!(offset_vline_possible(0x13f, 0x100, g)); // order-insensitive
    }

    #[test]
    fn doubled_vline_possible_only_across_even_odd_boundary() {
        let g = g64();
        // Lines 0|1 pair: addrs 60 and 70.
        assert!(doubled_vline_possible(60, 70, g));
        // Same physical line: not a *new* sharing opportunity.
        assert!(!doubled_vline_possible(0, 63, g));
        // Lines 1|2 do NOT pair (boundary between virtual lines 0 and 1).
        assert!(!doubled_vline_possible(120, 130, g));
    }

    #[test]
    fn figure4_placement_centers_the_pair() {
        let g = g64();
        // X at 0x1000, Y at 0x1018 (d = 0x18 + 8 = 32): slack = 16.
        let v = place_offset_vline(0x1000, 0x1018, g);
        let idx = v.index(0x1000);
        let r = v.range(idx);
        assert_eq!(r.start, 0x1000 - 16);
        assert!(r.contains(0x1000) && r.contains(0x1018 + WORD_SIZE - 1));
        // Equal slack on both sides.
        assert_eq!(0x1000 - r.start, r.end() + 1 - (0x1018 + WORD_SIZE));
    }

    #[test]
    fn figure4_placement_is_order_insensitive() {
        let g = g64();
        assert_eq!(
            place_offset_vline(0x1000, 0x1018, g),
            place_offset_vline(0x1018, 0x1000, g)
        );
    }

    #[test]
    fn figure4_adjacent_words_get_maximal_slack() {
        let g = g64();
        // X and Y in adjacent words across a line boundary: 0x103f is in line
        // 0x40, 0x1040 in line 0x41.
        let v = place_offset_vline(0x1038, 0x1040, g);
        assert!(v.same_vline(0x1038, 0x1040));
        // d = 16, slack = 24, start = 0x1038 - 24 = 0x1020.
        assert_eq!(v.range(v.index(0x1038)).start, 0x1020);
    }

    #[test]
    fn display_of_range() {
        let r = VirtualRange {
            start: 0x40,
            size: 0x40,
        };
        assert_eq!(r.to_string(), "[0x40, 0x80)");
    }

    proptest! {
        /// Every address belongs to exactly the virtual line whose range
        /// contains it, for both geometries.
        #[test]
        fn prop_index_consistent_with_range(
            addr in 0x1000u64..1 << 32,
            delta in 0u64..64,
            doubled in prop::bool::ANY
        ) {
            let v = if doubled {
                VirtualGeometry::Doubled(g64())
            } else {
                VirtualGeometry::Offset { geom: g64(), delta }
            };
            let idx = v.index(addr);
            prop_assert!(v.range(idx).contains(addr),
                "addr {addr:#x} not in {} (idx {idx})", v.range(idx));
            // Ranges tile the space: next line starts right after this one.
            prop_assert_eq!(v.range(idx + 1).start, v.range(idx).start + v.range(idx).size);
        }

        /// Figure 4 placement always produces a line containing both hot
        /// words whenever that is possible (x, y within a line size).
        #[test]
        fn prop_placement_covers_both_words(
            x in (0x1000u64..1 << 30).prop_map(|a| a & !7),
            gap in 0u64..8
        ) {
            let g = g64();
            let y = x + gap * 8;
            prop_assume!(y + WORD_SIZE - x <= g.line_size());
            let v = place_offset_vline(x, y, g);
            prop_assert!(v.same_vline(x, y));
            prop_assert!(v.same_vline(x, y + WORD_SIZE - 1));
            prop_assert!(v.delta() < g.line_size());
            // delta is word-aligned so word trackers stay aligned.
            prop_assert_eq!(v.delta() % WORD_SIZE, 0);
        }
    }
}
