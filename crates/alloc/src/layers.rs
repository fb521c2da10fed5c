//! Composable allocation layers (the Heap Layers analogue).
//!
//! The paper's allocator is "built with Heap Layers using a
//! 'per-thread-heap' mechanism similar to that used by Hoard" (§2.3.2).
//! Heap Layers composes allocators from small single-purpose templates; here
//! the same idea is expressed with generic Rust types:
//!
//! * [`BumpSource`] — the bottom layer: a monotone bump pointer over a fixed
//!   address range, with arbitrary power-of-two alignment;
//! * [`SegmentSource`] — carves whole line-multiple *segments* out of a bump
//!   source; per-thread heaps draw disjoint segments from it, which is what
//!   guarantees objects of different threads never share a cache line;
//! * [`SegmentChunks`] — a per-thread source that refills itself with
//!   segments from a shared [`SegmentSource`] behind a mutex (taken only on
//!   refill, so the common path is uncontended);
//! * [`SizeClassLayer`] — segregated power-of-two size classes with
//!   per-class free lists over any [`AllocSource`].
//!
//! Objects are always aligned to `min(size_class, line_size)`, so a
//! power-of-two-sized object never straddles a cache line it doesn't have to.

use std::sync::{Arc, Mutex};

/// Anything that can hand out aligned ranges of simulated addresses.
pub trait AllocSource {
    /// Allocates `size` bytes aligned to `align` (a power of two). Returns
    /// the starting simulated address or `None` when exhausted.
    fn alloc_aligned(&mut self, size: u64, align: u64) -> Option<u64>;
}

/// Bottom layer: bump allocation over `[next, end)`.
#[derive(Debug, Clone)]
pub struct BumpSource {
    next: u64,
    end: u64,
}

impl BumpSource {
    /// Creates a bump source over `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted range");
        BumpSource { next: start, end }
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }

    /// The next address that would be returned (before alignment).
    pub fn cursor(&self) -> u64 {
        self.next
    }

    /// One-past-the-end of the range.
    pub fn end(&self) -> u64 {
        self.end
    }
}

impl AllocSource for BumpSource {
    fn alloc_aligned(&mut self, size: u64, align: u64) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        let start = (self.next + align - 1) & !(align - 1);
        let new_next = start.checked_add(size)?;
        if new_next > self.end {
            return None;
        }
        self.next = new_next;
        Some(start)
    }
}

/// Carves whole segments (line-multiple, fixed size) from a bump source.
///
/// Shared between threads behind a mutex; each segment belongs to exactly
/// one thread heap afterwards.
#[derive(Debug)]
pub struct SegmentSource {
    bump: BumpSource,
    segment_size: u64,
}

impl SegmentSource {
    /// Creates a segment source over `[start, end)` with `segment_size`-byte
    /// segments (must be a multiple of `line_size`; `start` must be
    /// line-aligned).
    pub fn new(start: u64, end: u64, segment_size: u64, line_size: u64) -> Self {
        assert!(segment_size >= line_size && segment_size.is_multiple_of(line_size));
        assert_eq!(start % line_size, 0, "segment region must be line-aligned");
        SegmentSource {
            bump: BumpSource::new(start, end),
            segment_size,
        }
    }

    /// Size of each carved segment.
    pub fn segment_size(&self) -> u64 {
        self.segment_size
    }

    /// Bytes not yet carved.
    pub fn remaining(&self) -> u64 {
        self.bump.remaining()
    }

    /// Takes one segment; returns its `[start, end)` range.
    pub fn take_segment(&mut self) -> Option<(u64, u64)> {
        let start = self
            .bump
            .alloc_aligned(self.segment_size, self.segment_size)?;
        Some((start, start + self.segment_size))
    }

    /// Takes a contiguous run big enough for `size` bytes (for large
    /// objects), rounded up to whole segments.
    pub fn take_span(&mut self, size: u64) -> Option<(u64, u64)> {
        let span = size.div_ceil(self.segment_size) * self.segment_size;
        let start = self.bump.alloc_aligned(span, self.segment_size)?;
        Some((start, start + span))
    }
}

/// Per-thread source: bump-allocates inside the thread's current segment and
/// refills from the shared [`SegmentSource`] when it runs dry.
#[derive(Debug)]
pub struct SegmentChunks {
    current: Option<BumpSource>,
    shared: Arc<Mutex<SegmentSource>>,
}

impl SegmentChunks {
    /// Creates an empty per-thread source backed by `shared`.
    pub fn new(shared: Arc<Mutex<SegmentSource>>) -> Self {
        SegmentChunks {
            current: None,
            shared,
        }
    }

    /// Access to the shared segment pool (for large allocations).
    pub fn shared(&self) -> &Arc<Mutex<SegmentSource>> {
        &self.shared
    }
}

impl AllocSource for SegmentChunks {
    fn alloc_aligned(&mut self, size: u64, align: u64) -> Option<u64> {
        if let Some(cur) = &mut self.current {
            if let Some(addr) = cur.alloc_aligned(size, align) {
                return Some(addr);
            }
        }
        // Refill with a fresh segment. Requests bigger than a segment must go
        // through `SegmentSource::take_span` at a higher layer.
        let (start, end) = self.shared.lock().unwrap().take_segment()?;
        let mut bump = BumpSource::new(start, end);
        let addr = bump.alloc_aligned(size, align);
        self.current = Some(bump);
        addr
    }
}

/// Number of segregated size classes: 8, 16, …, [`MAX_SMALL`].
pub const NUM_CLASSES: usize = 12;
/// Largest size served from size classes; bigger requests are "large".
pub const MAX_SMALL: u64 = 8 << (NUM_CLASSES - 1); // 16 KiB

/// Size-class index for a request of `size` bytes (`size ≤ MAX_SMALL`).
#[inline]
pub fn size_class(size: u64) -> usize {
    debug_assert!(size <= MAX_SMALL);
    let rounded = size.max(8).next_power_of_two();
    (rounded.trailing_zeros() - 3) as usize
}

/// Allocation size of class `idx`.
#[inline]
pub fn class_size(idx: usize) -> u64 {
    8 << idx
}

/// Segregated-fit layer: per-class free lists over an [`AllocSource`].
#[derive(Debug)]
pub struct SizeClassLayer<S> {
    source: S,
    free_lists: [Vec<u64>; NUM_CLASSES],
    line_size: u64,
}

impl<S: AllocSource> SizeClassLayer<S> {
    /// Wraps `source` with size-class free lists; `line_size` caps object
    /// alignment.
    pub fn new(source: S, line_size: u64) -> Self {
        SizeClassLayer {
            source,
            free_lists: Default::default(),
            line_size,
        }
    }

    /// Allocates a small object (`size ≤ MAX_SMALL`), preferring the free
    /// list. Returns the address; the usable size is the class size.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        let class = size_class(size);
        if let Some(addr) = self.free_lists[class].pop() {
            return Some(addr);
        }
        let csize = class_size(class);
        self.source.alloc_aligned(csize, csize.min(self.line_size))
    }

    /// Returns an object of `size` bytes at `addr` to its class free list.
    pub fn free(&mut self, addr: u64, size: u64) {
        self.free_lists[size_class(size)].push(addr);
    }

    /// Number of blocks currently cached in free lists.
    pub fn cached_blocks(&self) -> usize {
        self.free_lists.iter().map(Vec::len).sum()
    }

    /// The rounded allocation size a request of `size` bytes receives.
    pub fn usable_size(size: u64) -> u64 {
        class_size(size_class(size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bump_respects_alignment_and_bounds() {
        let mut b = BumpSource::new(0x1000, 0x1100);
        assert_eq!(b.alloc_aligned(8, 8), Some(0x1000));
        assert_eq!(b.alloc_aligned(8, 64), Some(0x1040));
        assert_eq!(b.remaining(), 0x1100 - 0x1048);
        // Exhaustion.
        assert_eq!(b.alloc_aligned(0x200, 8), None);
        // Exact fit.
        assert_eq!(b.alloc_aligned(0x1100 - 0x1048, 8), Some(0x1048));
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn bump_rejects_overflowing_requests() {
        let mut b = BumpSource::new(u64::MAX - 16, u64::MAX);
        assert_eq!(b.alloc_aligned(u64::MAX, 8), None);
    }

    #[test]
    fn segments_are_disjoint_and_aligned() {
        let mut s = SegmentSource::new(0, 1 << 20, 64 << 10, 64);
        let (a0, e0) = s.take_segment().unwrap();
        let (a1, _e1) = s.take_segment().unwrap();
        assert_eq!(e0, a1);
        assert_eq!(a0 % (64 << 10), 0);
        assert_eq!(s.remaining(), (1 << 20) - 2 * (64 << 10));
    }

    #[test]
    fn take_span_rounds_to_segments() {
        let mut s = SegmentSource::new(0, 1 << 20, 64 << 10, 64);
        let (start, end) = s.take_span(100_000).unwrap();
        assert_eq!(end - start, 128 << 10);
    }

    #[test]
    fn size_class_mapping() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(8), 0);
        assert_eq!(size_class(9), 1);
        assert_eq!(size_class(16), 1);
        assert_eq!(size_class(200), 5); // rounds to 256
        assert_eq!(class_size(5), 256);
        assert_eq!(size_class(MAX_SMALL), NUM_CLASSES - 1);
        assert_eq!(SizeClassLayer::<BumpSource>::usable_size(200), 256);
    }

    #[test]
    fn size_class_alloc_and_recycle() {
        let src = BumpSource::new(0, 1 << 16);
        let mut l = SizeClassLayer::new(src, 64);
        let a = l.alloc(24).unwrap(); // class 32
        let b = l.alloc(24).unwrap();
        assert_ne!(a, b);
        assert_eq!(a % 32, 0, "32-byte class aligned to 32");
        l.free(a, 24);
        assert_eq!(l.cached_blocks(), 1);
        let c = l.alloc(30).unwrap(); // same class → recycled
        assert_eq!(c, a);
        assert_eq!(l.cached_blocks(), 0);
    }

    #[test]
    fn large_class_aligned_to_line_not_size() {
        let src = BumpSource::new(0, 1 << 16);
        let mut l = SizeClassLayer::new(src, 64);
        let a = l.alloc(4096).unwrap();
        assert_eq!(a % 64, 0);
    }

    #[test]
    fn segment_chunks_refills_from_shared() {
        let shared = Arc::new(Mutex::new(SegmentSource::new(0, 1 << 20, 4096, 64)));
        let mut chunks = SegmentChunks::new(shared.clone());
        let a = chunks.alloc_aligned(64, 64).unwrap();
        // Fill the rest of the segment, forcing a refill.
        let mut last = a;
        for _ in 0..4096 / 64 {
            last = chunks.alloc_aligned(64, 64).unwrap();
        }
        assert!(last >= 4096, "second segment reached");
        assert_eq!(shared.lock().unwrap().remaining(), (1 << 20) - 2 * 4096);
    }

    #[test]
    fn two_chunk_users_never_share_a_line() {
        let shared = Arc::new(Mutex::new(SegmentSource::new(0, 1 << 20, 4096, 64)));
        let mut t0 = SegmentChunks::new(shared.clone());
        let mut t1 = SegmentChunks::new(shared);
        let mut lines0 = std::collections::HashSet::new();
        let mut lines1 = std::collections::HashSet::new();
        for _ in 0..200 {
            lines0.insert(t0.alloc_aligned(8, 8).unwrap() / 64);
            lines1.insert(t1.alloc_aligned(8, 8).unwrap() / 64);
        }
        assert!(
            lines0.is_disjoint(&lines1),
            "per-thread segments must isolate lines"
        );
    }

    proptest! {
        /// Bump allocations never overlap and never exceed bounds.
        #[test]
        fn prop_bump_disjoint(
            reqs in proptest::collection::vec((1u64..512, 0u32..7), 1..64)
        ) {
            let mut b = BumpSource::new(0x1000, 0x1000 + (1 << 16));
            let mut got: Vec<(u64, u64)> = Vec::new();
            for (size, ashift) in reqs {
                let align = 1u64 << ashift;
                if let Some(addr) = b.alloc_aligned(size, align) {
                    prop_assert_eq!(addr % align, 0);
                    prop_assert!(addr + size <= 0x1000 + (1 << 16));
                    for &(s, e) in &got {
                        prop_assert!(addr >= e || addr + size <= s, "overlap");
                    }
                    got.push((addr, addr + size));
                }
            }
        }

        /// A pow-2 object ≤ line size never straddles a line boundary.
        #[test]
        fn prop_small_objects_do_not_straddle(
            sizes in proptest::collection::vec(1u64..=64, 1..128)
        ) {
            let src = BumpSource::new(0, 1 << 20);
            let mut l = SizeClassLayer::new(src, 64);
            for size in sizes {
                let addr = l.alloc(size).unwrap();
                let usable = SizeClassLayer::<BumpSource>::usable_size(size);
                prop_assert_eq!(addr / 64, (addr + usable - 1) / 64,
                    "object [{:#x},{:#x}) straddles a line", addr, addr + usable);
            }
        }
    }
}
