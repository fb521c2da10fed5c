//! [`Session`]: the ergonomic front door tying space, heap, and detector
//! together.
//!
//! A session models one instrumented program execution: workloads allocate
//! through it (callsites captured), register globals, spawn threads, and
//! perform typed reads/writes that both touch the simulated memory and
//! notify the detector — exactly what the compiler instrumentation of §2.2
//! arranges for a real program.
//!
//! A session belongs to the thread that built it, like the [`Predator`]
//! inside it: that thread runs the workload and asks for the report, and the
//! detector charges it no atomic read-modify-write. A session moved to
//! another thread is [`claim`](Session::claim)ed there; one that several
//! threads drive at once (`std::thread::scope`, `Arc`) is built with
//! [`into_shared`](Session::into_shared). An instrumented access or a report
//! from any other thread panics rather than risk a lost update.

use predator_alloc::{AllocError, Callsite, FreeError, ObjectInfo, TrackedHeap};
use predator_shadow::{Scalar, SimSpace};
use predator_sim::{AccessKind, ThreadId};

use crate::builder::build_report;
use crate::config::DetectorConfig;
use crate::registry::ThreadRegistry;
use crate::report::Report;
use crate::runtime::Predator;

/// Default simulated heap size (64 MiB).
pub const DEFAULT_HEAP_BYTES: u64 = 64 << 20;

/// One instrumented execution: simulated memory + allocator + detector.
pub struct Session {
    space: SimSpace,
    heap: TrackedHeap,
    runtime: Predator,
    threads: ThreadRegistry,
}

impl Session {
    /// Creates a session with `heap_bytes` of simulated memory under `cfg`.
    pub fn new(cfg: DetectorConfig, heap_bytes: u64) -> Self {
        let space = SimSpace::new(heap_bytes as usize);
        let runtime = Predator::for_space(cfg, &space);
        let heap = TrackedHeap::new(
            space.base(),
            space.size(),
            cfg.geometry.line_size(),
            predator_alloc::heap::DEFAULT_SEGMENT,
        );
        Session {
            space,
            heap,
            runtime,
            threads: ThreadRegistry::new(),
        }
    }

    /// A session with the default heap size.
    pub fn with_config(cfg: DetectorConfig) -> Self {
        Self::new(cfg, DEFAULT_HEAP_BYTES)
    }

    /// Re-homes the session's detector to the calling thread
    /// ([`Predator::claim`]).
    pub fn claim(&mut self) {
        self.runtime.claim();
    }

    /// Opens the session to every thread ([`Predator::into_shared`]).
    pub fn into_shared(mut self) -> Self {
        self.runtime = self.runtime.into_shared();
        self
    }

    /// The simulated address space.
    pub fn space(&self) -> &SimSpace {
        &self.space
    }

    /// The tracked allocator.
    pub fn heap(&self) -> &TrackedHeap {
        &self.heap
    }

    /// The detector runtime.
    pub fn runtime(&self) -> &Predator {
        &self.runtime
    }

    /// Registers the calling workload thread, returning its dense id.
    pub fn register_thread(&self) -> ThreadId {
        self.threads.register()
    }

    /// Allocates `size` bytes for `tid`, recording `callsite`.
    pub fn malloc(
        &self,
        tid: ThreadId,
        size: u64,
        callsite: Callsite,
    ) -> Result<ObjectInfo, AllocError> {
        self.heap.malloc(tid, size, callsite)
    }

    /// Frees the object starting at `addr`, applying the §2.3.2 reuse rules:
    /// objects involved in (observed or predicted) false sharing are
    /// quarantined; otherwise the object's line metadata is refreshed and
    /// the block recycled.
    pub fn free(&self, tid: ThreadId, addr: u64) -> Result<(), FreeError> {
        let info = self
            .heap
            .object_at(addr)
            .filter(|o| o.start == addr)
            .ok_or(FreeError::UnknownObject(addr))?;
        let involved = self.runtime.object_freed(info.start, info.usable);
        if involved {
            self.heap.mark_no_reuse(info.start);
        }
        self.heap.free(tid, addr).map(|_| ())
    }

    /// Reallocates the object at `addr` to `new_size` bytes: allocates a
    /// new block, copies the overlapping prefix, then frees the old block
    /// under the usual lifecycle rules (metadata refresh or quarantine).
    ///
    /// The copy is *uninstrumented*, matching the paper's toolchain: libc's
    /// `memcpy` is not compiled by the instrumenting pass, so its accesses
    /// never reach the runtime.
    pub fn realloc(
        &self,
        tid: ThreadId,
        addr: u64,
        new_size: u64,
        callsite: Callsite,
    ) -> Result<ObjectInfo, FreeError> {
        let old = self
            .heap
            .object_at(addr)
            .filter(|o| o.start == addr)
            .ok_or(FreeError::UnknownObject(addr))?;
        let new = self
            .heap
            .malloc(tid, new_size, callsite)
            .expect("simulated heap exhausted during realloc");
        let copy_words = old.size.min(new_size) / 8;
        for w in 0..copy_words {
            let v = self.space.load::<u64>(old.start + w * 8);
            self.space.store::<u64>(new.start + w * 8, v);
        }
        self.free(tid, addr)?;
        Ok(new)
    }

    /// Allocates and registers a named global variable, returning its
    /// address. Globals are attributed by name in reports.
    pub fn global(&self, name: &str, size: u64) -> u64 {
        let info = self
            .heap
            .malloc(ThreadId::MAIN, size, Callsite::from_frames(vec![]))
            .expect("global allocation failed");
        self.runtime.register_global(name, info.start, size);
        info.start
    }

    /// Instrumented typed load: notifies the detector, then reads memory.
    #[inline]
    pub fn read<T: Scalar>(&self, tid: ThreadId, addr: u64) -> T {
        self.runtime
            .handle_access(tid, addr, T::SIZE, AccessKind::Read);
        self.space.load(addr)
    }

    /// Instrumented typed store.
    #[inline]
    pub fn write<T: Scalar>(&self, tid: ThreadId, addr: u64, value: T) {
        self.runtime
            .handle_access(tid, addr, T::SIZE, AccessKind::Write);
        self.space.store(addr, value)
    }

    /// Instrumented read-modify-write (`addr += delta`), reported as a
    /// write — models an atomic counter or uninstrumented `x += v`.
    #[inline]
    pub fn fetch_add(&self, tid: ThreadId, addr: u64, delta: u64) -> u64 {
        self.runtime.handle_access(tid, addr, 8, AccessKind::Write);
        self.space.fetch_add_u64(addr, delta)
    }

    /// Instrumented compare-exchange, reported as a write (models a lock
    /// acquisition attempt, e.g. a spinlock in a pool).
    #[inline]
    pub fn compare_exchange(
        &self,
        tid: ThreadId,
        addr: u64,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.runtime.handle_access(tid, addr, 8, AccessKind::Write);
        self.space.compare_exchange_u64(addr, current, new)
    }

    /// Uninstrumented store — models initialization code the compiler pass
    /// skips (or a blacklisted module, §2.4.2).
    #[inline]
    pub fn write_untracked<T: Scalar>(&self, addr: u64, value: T) {
        self.space.store(addr, value)
    }

    /// Uninstrumented load.
    #[inline]
    pub fn read_untracked<T: Scalar>(&self, addr: u64) -> T {
        self.space.load(addr)
    }

    /// Builds the ranked report for everything observed/predicted so far.
    pub fn report(&self) -> Report {
        build_report(&self.runtime, Some(&self.heap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FindingKind;

    fn session() -> Session {
        Session::new(DetectorConfig::sensitive(), 4 << 20)
    }

    #[test]
    fn typed_rw_roundtrip_is_instrumented() {
        let s = session();
        let tid = s.register_thread();
        let obj = s.malloc(tid, 64, Callsite::here()).unwrap();
        s.write::<u64>(tid, obj.start, 77);
        assert_eq!(s.read::<u64>(tid, obj.start), 77);
        assert_eq!(s.runtime().events(), 2);
    }

    #[test]
    fn untracked_accesses_bypass_the_detector() {
        let s = session();
        s.write_untracked::<u64>(s.space().base(), 5);
        assert_eq!(s.read_untracked::<u64>(s.space().base()), 5);
        assert_eq!(s.runtime().events(), 0);
    }

    #[test]
    fn end_to_end_false_sharing_detection() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s.malloc(t0, 64, Callsite::here()).unwrap();
        // Interleaved writes to adjacent words — classic false sharing.
        for _ in 0..300 {
            s.write::<u64>(t0, obj.start, 1);
            s.write::<u64>(t1, obj.start + 8, 2);
        }
        let r = s.report();
        assert!(r.has_observed_false_sharing());
        let f = r.false_sharing().next().unwrap();
        assert_eq!(f.object.start, obj.start);
    }

    #[test]
    fn end_to_end_prediction_across_lines() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        // 128-byte object: t0 at the end of its first line, t1 at the start
        // of its second.
        let obj = s.malloc(t0, 128, Callsite::here()).unwrap();
        assert_eq!(obj.start % 64, 0);
        for _ in 0..600 {
            s.write::<u64>(t0, obj.start + 56, 1);
            s.write::<u64>(t1, obj.start + 64, 2);
        }
        let r = s.report();
        assert!(!r.has_observed_false_sharing());
        assert!(r.has_predicted_false_sharing());
    }

    #[test]
    fn quarantine_applies_to_falsely_shared_objects() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s.malloc(t0, 64, Callsite::here()).unwrap();
        for _ in 0..300 {
            s.write::<u64>(t0, obj.start, 1);
            s.write::<u64>(t1, obj.start + 8, 2);
        }
        s.free(t0, obj.start).unwrap();
        assert!(s.heap().is_quarantined(obj.start));
        // Metadata persists: the report still shows the problem.
        assert!(s.report().has_false_sharing());
    }

    #[test]
    fn clean_free_resets_and_recycles() {
        let s = session();
        let tid = s.register_thread();
        let obj = s.malloc(tid, 64, Callsite::here()).unwrap();
        for i in 0..100u64 {
            s.write::<u64>(tid, obj.start + (i % 8) * 8, i);
        }
        s.free(tid, obj.start).unwrap();
        assert!(!s.heap().is_quarantined(obj.start));
        let again = s.malloc(tid, 64, Callsite::here()).unwrap();
        assert_eq!(again.start, obj.start, "clean blocks recycle");
    }

    #[test]
    fn realloc_copies_and_applies_lifecycle_rules() {
        let s = session();
        let tid = s.register_thread();
        let obj = s.malloc(tid, 64, Callsite::here()).unwrap();
        for w in 0..8u64 {
            s.write::<u64>(tid, obj.start + w * 8, w + 100);
        }
        let grown = s.realloc(tid, obj.start, 256, Callsite::here()).unwrap();
        assert_eq!(grown.size, 256);
        assert_ne!(grown.start, obj.start);
        for w in 0..8u64 {
            assert_eq!(s.read_untracked::<u64>(grown.start + w * 8), w + 100);
        }
        // The old clean block was recycled (not quarantined).
        assert!(!s.heap().is_quarantined(obj.start));
        let next = s.malloc(tid, 64, Callsite::here()).unwrap();
        assert_eq!(next.start, obj.start);
        // Shrinking copies only the prefix.
        let shrunk = s.realloc(tid, grown.start, 16, Callsite::here()).unwrap();
        assert_eq!(s.read_untracked::<u64>(shrunk.start), 100);
        assert_eq!(s.read_untracked::<u64>(shrunk.start + 8), 101);
    }

    #[test]
    fn realloc_of_falsely_shared_object_quarantines_the_old_block() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let obj = s.malloc(t0, 64, Callsite::here()).unwrap();
        for _ in 0..300 {
            s.write::<u64>(t0, obj.start, 1);
            s.write::<u64>(t1, obj.start + 8, 2);
        }
        s.realloc(t0, obj.start, 128, Callsite::here()).unwrap();
        assert!(s.heap().is_quarantined(obj.start));
    }

    #[test]
    fn realloc_of_unknown_pointer_fails() {
        let s = session();
        let tid = s.register_thread();
        assert!(s.realloc(tid, 0xdead, 64, Callsite::here()).is_err());
    }

    #[test]
    fn free_of_interior_pointer_fails() {
        let s = session();
        let tid = s.register_thread();
        let obj = s.malloc(tid, 64, Callsite::here()).unwrap();
        assert!(s.free(tid, obj.start + 8).is_err());
    }

    #[test]
    fn globals_are_reported_by_name() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let g = s.global("shared_counters", 64);
        for _ in 0..300 {
            s.write::<u64>(t0, g, 1);
            s.write::<u64>(t1, g + 8, 2);
        }
        let r = s.report();
        let f = r.false_sharing().next().unwrap();
        assert!(
            matches!(&f.object.site, crate::report::SiteKind::Global { name } if name == "shared_counters")
        );
    }

    #[test]
    fn fetch_add_counts_as_write() {
        let s = session();
        let t0 = s.register_thread();
        let t1 = s.register_thread();
        let g = s.global("c", 8);
        for _ in 0..300 {
            s.fetch_add(t0, g, 1);
            s.fetch_add(t1, g, 1);
        }
        assert_eq!(s.read_untracked::<u64>(g), 600);
        let r = s.report();
        // Same word from two threads: true sharing, not false.
        assert!(!r.has_false_sharing());
        assert!(r.findings.iter().any(|f| f.kind == FindingKind::Observed));
    }

    #[test]
    fn compare_exchange_is_instrumented() {
        let s = session();
        let tid = s.register_thread();
        let g = s.global("lock", 8);
        assert_eq!(s.compare_exchange(tid, g, 0, 1), Ok(0));
        assert_eq!(s.compare_exchange(tid, g, 0, 1), Err(1));
        assert_eq!(s.runtime().events(), 2);
    }

    #[test]
    fn multithreaded_session_usage() {
        let s = session().into_shared();
        let g = s.global("array", 256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let tid = s.register_thread();
                    let slot = g + tid.0 as u64 * 8;
                    for i in 0..5_000u64 {
                        s.write::<u64>(tid, slot, i);
                    }
                });
            }
        });
        assert_eq!(s.threads.count(), 4);
        let r = s.report();
        // 4 threads × adjacent words in a 256-byte object: lines 0..3 each
        // hold words of 2+ threads? No — 8-byte slots, threads 0..3 all in
        // the first line (32 bytes). Observed false sharing.
        assert!(r.has_observed_false_sharing());
    }
}
