//! Access-trace recording and replay.
//!
//! Decouples event collection from analysis: record a run once (to memory,
//! or to a binary `.ptrace` file via [`predator_trace`]), replay it into
//! differently-configured detectors — e.g. to compare sampling rates
//! (Figure 10) or prediction on/off (Figure 7) on *identical* access
//! streams, something the paper's live-only runtime cannot do.
//!
//! [`TraceRecorder`] buffers events in thread-local segments
//! ([`predator_trace::SegmentedSink`]) instead of taking one global mutex
//! per event, so recording threads no longer contend on the hot path. The
//! trade: cross-thread event order is now segment-granular — each thread's
//! events stay in issue order, but two threads' events interleave only
//! where their segments happened to flush. The per-line detector state
//! never depends on cross-thread order, so replay results are unaffected;
//! tests asserting global interleavings would be (none do — the
//! concurrency test asserts counts).

use std::sync::{Arc, Mutex};

use predator_core::Predator;
use predator_sim::{Access, AccessKind, ThreadId};
use predator_trace::{BatchSink, SegmentedSink};

use crate::interp::AccessSink;

/// Append-only store the segments drain into; one lock per *segment*, not
/// per event.
struct StoreBatch(Arc<Mutex<Vec<Access>>>);

impl BatchSink for StoreBatch {
    fn batch(&self, events: &mut Vec<Access>) {
        self.0.lock().unwrap().append(events);
    }
}

/// An [`AccessSink`] that appends every event to an in-memory trace,
/// buffered through thread-local segments.
///
/// Readers ([`events`](Self::events), [`len`](Self::len),
/// [`into_events`](Self::into_events)) drain every thread's segment first,
/// so anything recorded before the call is visible — no explicit flush
/// needed. See the module docs for the cross-thread ordering caveat.
pub struct TraceRecorder {
    store: Arc<Mutex<Vec<Access>>>,
    seg: SegmentedSink,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        let store = Arc::new(Mutex::new(Vec::new()));
        let seg = SegmentedSink::new(Box::new(StoreBatch(store.clone())));
        TraceRecorder { store, seg }
    }

    /// A copy of the recorded events (all threads' segments drained first).
    pub fn events(&self) -> Vec<Access> {
        self.seg.flush_all();
        self.store.lock().unwrap().clone()
    }

    /// Number of recorded events (all threads' segments drained first).
    pub fn len(&self) -> usize {
        self.seg.flush_all();
        self.store.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_events(self) -> Vec<Access> {
        self.seg.flush_all();
        drop(self.seg); // releases the sink's clone of the store
        match Arc::try_unwrap(self.store) {
            Ok(m) => m.into_inner().unwrap(),
            Err(arc) => arc.lock().unwrap().clone(),
        }
    }
}

impl AccessSink for TraceRecorder {
    #[inline]
    fn access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        self.seg.access(tid, addr, size, kind);
    }
}

/// Replays a trace into a detector runtime, in order.
pub fn replay(events: &[Access], rt: &Predator) {
    for e in events {
        rt.handle_access(e.tid, e.addr, e.size, e.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::DetectorConfig;

    fn ping_pong_trace(n: u64, base: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::write(ThreadId((i % 2) as u16), base + (i % 2) * 8, 8))
            .collect()
    }

    #[test]
    fn recorder_preserves_order() {
        let rec = TraceRecorder::new();
        rec.access(ThreadId(0), 0x100, 8, AccessKind::Write);
        rec.access(ThreadId(1), 0x108, 4, AccessKind::Read);
        let ev = rec.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0], Access::write(ThreadId(0), 0x100, 8));
        assert_eq!(ev[1], Access::read(ThreadId(1), 0x108, 4));
        assert_eq!(rec.into_events().len(), 2);
    }

    #[test]
    fn replay_reproduces_detection() {
        let base = 0x4000_0000;
        let trace = ping_pong_trace(400, base);
        let rt = Predator::new(DetectorConfig::sensitive(), base, 1 << 16);
        replay(&trace, &rt);
        let snap = rt.line_snapshot(0).unwrap();
        // 4 pre-threshold writes, then strict alternation.
        assert_eq!(snap.invalidations, 395);
        assert_eq!(rt.events(), 400);
    }

    #[test]
    fn same_trace_different_configs() {
        // The decoupling the module exists for: one trace, two detectors.
        let base = 0x4000_0000;
        let trace = ping_pong_trace(400, base);
        let with = Predator::new(DetectorConfig::sensitive(), base, 1 << 16);
        let mut cfg = DetectorConfig::sensitive();
        cfg.instrument_reads = false;
        let without_reads = Predator::new(cfg, base, 1 << 16);
        replay(&trace, &with);
        replay(&trace, &without_reads);
        // All-write trace: identical results either way.
        assert_eq!(
            with.line_snapshot(0).unwrap().invalidations,
            without_reads.line_snapshot(0).unwrap().invalidations
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Cross-thread *order* is segment-granular (see module docs); the
        // count is exact: len() drains every thread's segment first.
        let rec = std::sync::Arc::new(TraceRecorder::new());
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        rec.access(ThreadId(t), 0x100, 8, AccessKind::Write);
                    }
                });
            }
        });
        assert_eq!(rec.len(), 4000);
    }

    #[test]
    fn recorder_keeps_per_thread_order_across_segments() {
        let rec = TraceRecorder::new();
        std::thread::scope(|s| {
            for t in 0..2u16 {
                let rec = &rec;
                s.spawn(move || {
                    // Far more than one segment's worth, to force flushes.
                    for i in 0..10_000u64 {
                        rec.access(ThreadId(t), i * 8, 8, AccessKind::Write);
                    }
                });
            }
        });
        let ev = rec.into_events();
        assert_eq!(ev.len(), 20_000);
        for t in 0..2u16 {
            let addrs: Vec<u64> = ev
                .iter()
                .filter(|a| a.tid == ThreadId(t))
                .map(|a| a.addr)
                .collect();
            assert!(
                addrs.windows(2).all(|w| w[1] > w[0]),
                "thread {t} reordered"
            );
        }
    }
}
