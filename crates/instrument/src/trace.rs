//! Access-trace recording and replay.
//!
//! Decouples event collection from analysis: record a run once (to memory,
//! or to a binary `.ptrace` file via `predator-trace`), replay it into
//! differently-configured detectors — e.g. to compare sampling rates
//! (Figure 10) or prediction on/off (Figure 7) on *identical* access
//! streams, something the paper's live-only runtime cannot do.
//!
//! [`TraceRecorder`] is one locked buffer: the interpreter steps every
//! simulated thread on one OS thread, so the events land in issue order.

use std::sync::{Mutex, MutexGuard, PoisonError};

use predator_core::Predator;
use predator_sim::{Access, AccessKind, ThreadId};

use crate::interp::AccessSink;

/// An [`AccessSink`] that appends every event to an in-memory trace.
#[derive(Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<Access>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Access>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the recorded events.
    pub fn events(&self) -> Vec<Access> {
        self.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_events(self) -> Vec<Access> {
        self.events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl AccessSink for TraceRecorder {
    #[inline]
    fn access(&self, tid: ThreadId, addr: u64, size: u8, kind: AccessKind) {
        self.lock().push(Access {
            tid,
            addr,
            size,
            kind,
        });
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
        // The recorder stays `Sync`: threads racing on it lose no event.
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
    fn recorder_keeps_per_thread_order_across_threads() {
        let rec = TraceRecorder::new();
        std::thread::scope(|s| {
            for t in 0..2u16 {
                let rec = &rec;
                s.spawn(move || {
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
