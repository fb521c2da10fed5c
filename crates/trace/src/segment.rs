//! Contention-free event collection via thread-local segments.
//!
//! The old recorder took one global `Mutex<Vec<Access>>` on *every* event;
//! under four recording threads the lock is contended on every access.
//! Here each thread appends to its own segment — reached through TLS, and
//! guarded by a mutex only that thread and an occasional global flush ever
//! touch, so the lock is uncontended on the hot path — and the shared
//! [`BatchSink`]'s lock is taken once per [`SEGMENT_CAPACITY`] events
//! instead of once per event.
//!
//! ## Ordering guarantee
//!
//! Events from one thread reach the sink in issue order (all flushes of a
//! segment are serialised by its mutex and drain FIFO). Across threads
//! there is **no** ordering guarantee: segments arrive when they happen to
//! fill, so two threads' events interleave at segment granularity, not
//! access granularity. (The old mutex recorder never promised more — lock
//! handoff order is scheduler whim — it just interleaved finer.) The
//! detector doesn't care: its state is per cache line and an offline
//! analysis replays whatever order the file holds.
//!
//! ## Visibility
//!
//! A thread's unflushed tail is invisible to the sink until that segment
//! flushes: on fill, at thread exit, or — the one callers may rely on —
//! when [`SegmentedSink::flush_all`] drains every registered segment.
//! Thread-exit flushes are best-effort only: `std::thread::scope` (and
//! `join`) signal completion when the spawned *closure* returns, which can
//! be before the thread's TLS destructors run, so always `flush_all`
//! before reading results.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use predator_sim::{Access, AccessKind, AccessSink, ThreadId};

/// Events per thread-local segment before it is flushed to the sink.
pub const SEGMENT_CAPACITY: usize = 4096;

/// Receives filled segments. The `Vec` is drained (left empty, capacity
/// intact) so the owning thread keeps appending without reallocating.
pub trait BatchSink: Send + Sync {
    /// Consumes `events`, leaving it empty.
    fn batch(&self, events: &mut Vec<Access>);
}

type SegBuf = Arc<Mutex<Vec<Access>>>;

struct Shared {
    id: u64,
    capacity: usize,
    sink: Box<dyn BatchSink>,
    /// Every live thread's segment, so `flush_all` can drain them without
    /// waiting on TLS destructors.
    registry: Mutex<Vec<SegBuf>>,
}

impl Shared {
    fn flush_seg(&self, seg: &Mutex<Vec<Access>>) {
        let mut buf = seg.lock().unwrap_or_else(|e| e.into_inner());
        if !buf.is_empty() {
            self.sink.batch(&mut buf);
        }
    }
}

/// An [`AccessSink`] that buffers events in thread-local segments and
/// forwards them to a [`BatchSink`] in batches.
pub struct SegmentedSink {
    shared: Arc<Shared>,
}

struct LocalSeg {
    id: u64,
    shared: Weak<Shared>,
    buf: SegBuf,
}

impl Drop for LocalSeg {
    fn drop(&mut self) {
        // Thread exit (TLS destructor) or registry pruning: hand over the
        // tail if the sink still exists, and unregister. Best-effort — the
        // registry keeps correctness even if this never runs.
        if let Some(shared) = self.shared.upgrade() {
            shared.flush_seg(&self.buf);
            shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|s| !Arc::ptr_eq(s, &self.buf));
        }
    }
}

thread_local! {
    /// Segments of every live `SegmentedSink` this thread has pushed to.
    /// A small linear registry: one entry per concurrently-live sink.
    static SEGMENTS: RefCell<Vec<LocalSeg>> = const { RefCell::new(Vec::new()) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

impl SegmentedSink {
    /// Wraps `sink` with the default segment capacity.
    pub fn new(sink: Box<dyn BatchSink>) -> Self {
        Self::with_capacity(sink, SEGMENT_CAPACITY)
    }

    /// Wraps `sink`, flushing thread-local segments every `capacity` events.
    pub fn with_capacity(sink: Box<dyn BatchSink>, capacity: usize) -> Self {
        assert!(capacity > 0, "segment capacity must be positive");
        SegmentedSink {
            shared: Arc::new(Shared {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                capacity,
                sink,
                registry: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Appends one event to the calling thread's segment, flushing it to
    /// the batch sink if full.
    #[inline]
    pub fn push(&self, a: Access) {
        SEGMENTS.with(|cell| {
            let mut segs = cell.borrow_mut();
            let seg = match segs.iter_mut().find(|s| s.id == self.shared.id) {
                Some(seg) => seg,
                None => {
                    // Drop registry entries for dead sinks, then register
                    // this thread's segment with the live one.
                    segs.retain(|s| s.shared.strong_count() > 0);
                    let buf: SegBuf =
                        Arc::new(Mutex::new(Vec::with_capacity(self.shared.capacity)));
                    self.shared.registry.lock().unwrap().push(buf.clone());
                    segs.push(LocalSeg {
                        id: self.shared.id,
                        shared: Arc::downgrade(&self.shared),
                        buf,
                    });
                    segs.last_mut().unwrap()
                }
            };
            // Uncontended except against a concurrent flush_all; held
            // across the sink handoff so flushes of this segment serialise
            // and per-thread order survives.
            let mut buf = seg.buf.lock().unwrap_or_else(|e| e.into_inner());
            buf.push(a);
            if buf.len() >= self.shared.capacity {
                self.shared.sink.batch(&mut buf);
            }
        });
    }

    /// Flushes the *calling thread's* segment to the batch sink.
    pub fn flush_thread(&self) {
        SEGMENTS.with(|cell| {
            let segs = cell.borrow();
            if let Some(seg) = segs.iter().find(|s| s.id == self.shared.id) {
                self.shared.flush_seg(&seg.buf);
            }
        });
    }

    /// Drains **every** thread's segment to the batch sink. After this
    /// returns, all events pushed before the call (on any thread) have
    /// reached the sink. Threads still pushing concurrently may of course
    /// leave new events behind.
    pub fn flush_all(&self) {
        let segs: Vec<SegBuf> = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        for seg in segs {
            self.shared.flush_seg(&seg);
        }
    }
}

impl AccessSink for SegmentedSink {
    #[inline]
    fn access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        self.push(Access {
            tid,
            addr,
            size,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Store(Arc<Mutex<Vec<Access>>>);
    impl BatchSink for Store {
        fn batch(&self, events: &mut Vec<Access>) {
            self.0.lock().unwrap().append(events);
        }
    }

    fn store_sink(capacity: usize) -> (SegmentedSink, Arc<Mutex<Vec<Access>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            SegmentedSink::with_capacity(Box::new(Store(store.clone())), capacity),
            store,
        )
    }

    #[test]
    fn events_invisible_until_flush_then_ordered() {
        let (sink, store) = store_sink(1024);
        sink.access(ThreadId(0), 0x100, 8, AccessKind::Write);
        sink.access(ThreadId(0), 0x108, 4, AccessKind::Read);
        assert!(store.lock().unwrap().is_empty(), "buffered in the segment");
        sink.flush_thread();
        let got = store.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                Access::write(ThreadId(0), 0x100, 8),
                Access::read(ThreadId(0), 0x108, 4)
            ]
        );
    }

    #[test]
    fn full_segment_auto_flushes() {
        let (sink, store) = store_sink(4);
        for i in 0..9u64 {
            sink.access(ThreadId(0), i * 8, 8, AccessKind::Write);
        }
        assert_eq!(
            store.lock().unwrap().len(),
            8,
            "two full segments handed over"
        );
        sink.flush_thread();
        assert_eq!(store.lock().unwrap().len(), 9);
    }

    #[test]
    fn flush_all_sees_every_threads_tail() {
        let (sink, store) = store_sink(1 << 20); // never auto-flushes
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        sink.access(ThreadId(t), i * 8, 8, AccessKind::Write);
                    }
                });
            }
        });
        sink.flush_all();
        let got = store.lock().unwrap();
        assert_eq!(got.len(), 4000);
        // Per-thread order survives batching.
        for t in 0..4u16 {
            let addrs: Vec<u64> = got
                .iter()
                .filter(|a| a.tid == ThreadId(t))
                .map(|a| a.addr)
                .collect();
            assert!(
                addrs.windows(2).all(|w| w[1] > w[0]),
                "thread {t} out of order"
            );
        }
    }

    #[test]
    fn flush_all_is_idempotent() {
        let (sink, store) = store_sink(64);
        sink.access(ThreadId(0), 1, 1, AccessKind::Write);
        sink.flush_all();
        sink.flush_all();
        assert_eq!(store.lock().unwrap().len(), 1);
    }

    #[test]
    fn two_sinks_on_one_thread_do_not_mix() {
        let (a, sa) = store_sink(16);
        let (b, sb) = store_sink(16);
        a.access(ThreadId(0), 1, 1, AccessKind::Write);
        b.access(ThreadId(0), 2, 1, AccessKind::Write);
        a.flush_all();
        b.flush_all();
        assert_eq!(sa.lock().unwrap().len(), 1);
        assert_eq!(sa.lock().unwrap()[0].addr, 1);
        assert_eq!(sb.lock().unwrap().len(), 1);
        assert_eq!(sb.lock().unwrap()[0].addr, 2);
    }
}
