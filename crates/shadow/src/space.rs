//! The simulated application address space.
//!
//! PREDATOR's custom allocator "uses a predefined starting address and fixed
//! size for its heap" (§2.3.2) so metadata lookup is plain address
//! arithmetic. [`SimSpace`] plays that role here: a fixed-base, fixed-size
//! region with real backing storage.
//!
//! Workloads under test intentionally race on nearby (and sometimes the
//! same) locations. To keep that well-defined in Rust, the backing store is a
//! slab of `AtomicU64` words; scalar accesses go through relaxed atomic
//! operations on the containing word. Relaxed ordering is deliberate — the
//! space models *plain data* memory, not synchronization, and the detector
//! itself never reads application data, only access events.

use std::sync::atomic::{AtomicU64, Ordering};

/// The default heap starting address, matching the report addresses in the
/// paper's Figure 5 (`0x40000038`, …).
pub const DEFAULT_BASE: u64 = 0x4000_0000;

/// A scalar type that can live in a [`SimSpace`].
///
/// Implementations exist for the integer and float types workloads use. The
/// trait converts values to/from the bits of the containing 8-byte word.
pub trait Scalar: Copy {
    /// Size in bytes (1, 2, 4 or 8); accesses must be naturally aligned.
    const SIZE: u8;
    /// Converts to raw (zero-extended) bits.
    fn to_bits(self) -> u64;
    /// Recovers a value from raw bits (low `SIZE` bytes).
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: u8 = std::mem::size_of::<$t>() as u8;
            #[inline]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}
impl_scalar_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

impl Scalar for f64 {
    const SIZE: u8 = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Scalar for f32 {
    const SIZE: u8 = 4;
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl Scalar for bool {
    const SIZE: u8 = 1;
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits & 0xff != 0
    }
}

/// Fixed-base simulated address space with atomic backing storage.
///
/// All addresses handed to [`SimSpace`] methods are *simulated* addresses in
/// `[base, base + size)`. Out-of-range or misaligned accesses panic — they
/// indicate a workload bug, and a crashing simulator beats silent corruption.
pub struct SimSpace {
    base: u64,
    words: Box<[AtomicU64]>,
}

impl SimSpace {
    /// Creates a space of `size` bytes (rounded up to a multiple of 8) at
    /// [`DEFAULT_BASE`].
    pub fn new(size: usize) -> Self {
        Self::with_base(DEFAULT_BASE, size)
    }

    /// Creates a space of `size` bytes at `base` (must be 8-byte aligned).
    pub fn with_base(base: u64, size: usize) -> Self {
        assert_eq!(base % 8, 0, "space base must be 8-byte aligned");
        let words = crate::zeroed(size.div_ceil(8));
        SimSpace { base, words }
    }

    /// First valid simulated address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        (self.words.len() as u64) * 8
    }

    /// One-past-the-last valid address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.size()
    }

    /// True if `addr` is a valid simulated address.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    #[inline]
    fn word(&self, addr: u64, size: u8) -> (&AtomicU64, u32) {
        assert!(
            addr >= self.base && addr + size as u64 <= self.end(),
            "simulated access out of range: addr={addr:#x} size={size} space=[{:#x},{:#x})",
            self.base,
            self.end()
        );
        assert_eq!(
            addr % size as u64,
            0,
            "misaligned simulated access: addr={addr:#x} size={size}"
        );
        let off = addr - self.base;
        let shift = ((off % 8) * 8) as u32;
        (&self.words[(off / 8) as usize], shift)
    }

    /// Loads a scalar at `addr` (naturally aligned).
    #[inline]
    pub fn load<T: Scalar>(&self, addr: u64) -> T {
        let (word, shift) = self.word(addr, T::SIZE);
        let bits = word.load(Ordering::Relaxed) >> shift;
        let mask = mask_for(T::SIZE);
        T::from_bits(bits & mask)
    }

    /// Stores a scalar at `addr` (naturally aligned).
    #[inline]
    pub fn store<T: Scalar>(&self, addr: u64, value: T) {
        let (word, shift) = self.word(addr, T::SIZE);
        let mask = mask_for(T::SIZE);
        let bits = (value.to_bits() & mask) << shift;
        if T::SIZE == 8 {
            word.store(bits, Ordering::Relaxed);
        } else {
            let keep = !(mask << shift);
            // Read-modify-write on the containing word; relaxed is fine, the
            // space models plain data.
            word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                Some((w & keep) | bits)
            })
            .unwrap();
        }
    }

    /// Atomic fetch-add on an 8-byte word — used by workloads that model
    /// real atomic counters (true sharing patterns).
    #[inline]
    pub fn fetch_add_u64(&self, addr: u64, delta: u64) -> u64 {
        let (word, shift) = self.word(addr, 8);
        debug_assert_eq!(shift, 0);
        word.fetch_add(delta, Ordering::Relaxed)
    }

    /// Atomic compare-exchange on an 8-byte word — used by workloads that
    /// model locks (e.g. the Boost spinlock pool).
    #[inline]
    pub fn compare_exchange_u64(&self, addr: u64, current: u64, new: u64) -> Result<u64, u64> {
        let (word, shift) = self.word(addr, 8);
        debug_assert_eq!(shift, 0);
        word.compare_exchange(current, new, Ordering::Acquire, Ordering::Relaxed)
    }

    /// Zeroes `len` bytes starting at `addr` (8-aligned, whole words).
    pub fn zero(&self, addr: u64, len: u64) {
        assert_eq!(addr % 8, 0, "zero() start must be word-aligned");
        assert_eq!(len % 8, 0, "zero() length must be whole words");
        let mut a = addr;
        while a < addr + len {
            self.store::<u64>(a, 0);
            a += 8;
        }
    }
}

#[inline]
fn mask_for(size: u8) -> u64 {
    match size {
        8 => u64::MAX,
        s => (1u64 << (s as u32 * 8)) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_u64_roundtrip() {
        let s = SimSpace::new(4096);
        s.store::<u64>(DEFAULT_BASE, 0xdead_beef_cafe_f00d);
        assert_eq!(s.load::<u64>(DEFAULT_BASE), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn subword_store_preserves_neighbors() {
        let s = SimSpace::new(64);
        s.store::<u64>(DEFAULT_BASE, u64::MAX);
        s.store::<u8>(DEFAULT_BASE + 3, 0);
        let got = s.load::<u64>(DEFAULT_BASE);
        assert_eq!(got, !(0xffu64 << 24));
        assert_eq!(s.load::<u8>(DEFAULT_BASE + 3), 0);
        assert_eq!(s.load::<u8>(DEFAULT_BASE + 2), 0xff);
        assert_eq!(s.load::<u8>(DEFAULT_BASE + 4), 0xff);
    }

    #[test]
    fn typed_roundtrips() {
        let s = SimSpace::new(64);
        s.store::<f64>(DEFAULT_BASE, -1.5);
        assert_eq!(s.load::<f64>(DEFAULT_BASE), -1.5);
        s.store::<f32>(DEFAULT_BASE + 8, 2.25);
        assert_eq!(s.load::<f32>(DEFAULT_BASE + 8), 2.25);
        s.store::<i32>(DEFAULT_BASE + 12, -7);
        assert_eq!(s.load::<i32>(DEFAULT_BASE + 12), -7);
        assert_eq!(s.load::<f32>(DEFAULT_BASE + 8), 2.25, "neighbor untouched");
        s.store::<bool>(DEFAULT_BASE + 16, true);
        assert!(s.load::<bool>(DEFAULT_BASE + 16));
        s.store::<i64>(DEFAULT_BASE + 24, i64::MIN);
        assert_eq!(s.load::<i64>(DEFAULT_BASE + 24), i64::MIN);
    }

    #[test]
    fn size_rounds_up_to_words() {
        let s = SimSpace::new(13);
        assert_eq!(s.size(), 16);
        assert!(s.contains(DEFAULT_BASE + 15));
        assert!(!s.contains(DEFAULT_BASE + 16));
    }

    #[test]
    fn custom_base() {
        let s = SimSpace::with_base(0x1000, 64);
        s.store::<u64>(0x1000, 1);
        assert_eq!(s.load::<u64>(0x1000), 1);
        assert_eq!(s.base(), 0x1000);
        assert_eq!(s.end(), 0x1040);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let s = SimSpace::new(64);
        s.load::<u64>(DEFAULT_BASE + 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_below_base() {
        let s = SimSpace::new(64);
        s.load::<u8>(DEFAULT_BASE - 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn rejects_misaligned() {
        let s = SimSpace::new(64);
        s.load::<u64>(DEFAULT_BASE + 4);
    }

    #[test]
    fn fetch_add_and_cas() {
        let s = SimSpace::new(64);
        assert_eq!(s.fetch_add_u64(DEFAULT_BASE, 5), 0);
        assert_eq!(s.fetch_add_u64(DEFAULT_BASE, 3), 5);
        assert_eq!(s.load::<u64>(DEFAULT_BASE), 8);
        assert_eq!(s.compare_exchange_u64(DEFAULT_BASE, 8, 100), Ok(8));
        assert_eq!(s.compare_exchange_u64(DEFAULT_BASE, 8, 200), Err(100));
    }

    #[test]
    fn zero_clears_words() {
        let s = SimSpace::new(64);
        for i in 0..8 {
            s.store::<u64>(DEFAULT_BASE + i * 8, u64::MAX);
        }
        s.zero(DEFAULT_BASE + 8, 16);
        assert_eq!(s.load::<u64>(DEFAULT_BASE), u64::MAX);
        assert_eq!(s.load::<u64>(DEFAULT_BASE + 8), 0);
        assert_eq!(s.load::<u64>(DEFAULT_BASE + 16), 0);
        assert_eq!(s.load::<u64>(DEFAULT_BASE + 24), u64::MAX);
    }

    #[test]
    fn concurrent_disjoint_writes_are_preserved() {
        // The exact pattern a false-sharing workload produces: adjacent words
        // hammered by different threads.
        let s = std::sync::Arc::new(SimSpace::new(128));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    let addr = DEFAULT_BASE + t * 8;
                    for i in 0..10_000u64 {
                        s.store::<u64>(addr, i);
                    }
                });
            }
        });
        for t in 0..4u64 {
            assert_eq!(s.load::<u64>(DEFAULT_BASE + t * 8), 9_999);
        }
    }

    proptest! {
        #[test]
        fn prop_scalar_roundtrip_u32(off in 0u64..15, v in any::<u32>()) {
            let s = SimSpace::new(128);
            let addr = DEFAULT_BASE + off * 4;
            s.store::<u32>(addr, v);
            prop_assert_eq!(s.load::<u32>(addr), v);
        }

        #[test]
        fn prop_byte_writes_independent(
            writes in proptest::collection::vec((0u64..64, any::<u8>()), 1..64)
        ) {
            let s = SimSpace::new(64);
            let mut model = [0u8; 64];
            for (off, v) in writes {
                s.store::<u8>(DEFAULT_BASE + off, v);
                model[off as usize] = v;
            }
            for (i, &m) in model.iter().enumerate() {
                prop_assert_eq!(s.load::<u8>(DEFAULT_BASE + i as u64), m);
            }
        }
    }
}
