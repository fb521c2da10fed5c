//! RAII phase timers.

use crate::metrics::{global, Histogram};
use crate::timeline::{host_lane, timeline};
use std::time::Instant;

/// An in-flight phase timing from [`span`]; records on drop.
pub struct Span {
    hist: Histogram,
    start: Instant,
    /// Set when the trace timeline was armed at open: the phase name whose
    /// `E` event must be emitted on drop (on the same host lane).
    tl_phase: Option<String>,
}

/// Times a pipeline phase: elapsed wall nanoseconds are recorded into the
/// global histogram `span_<phase>_ns` when the returned guard drops, and —
/// when the trace timeline is armed — a `B`/`E` pair lands on the calling
/// host thread's timeline lane.
///
/// ```
/// {
///     let _span = predator_obs::span("detect");
///     // ... phase work ...
/// } // recorded here
/// ```
///
/// Phases are coarse (a handful per run), so the name lookup per call is
/// fine; per-event hot paths should cache a [`Histogram`] handle and use
/// [`Histogram::start_timer`] instead.
pub fn span(phase: &str) -> Span {
    let tl_phase = if timeline().enabled() {
        timeline().begin(phase, "phase", host_lane());
        Some(phase.to_string())
    } else {
        None
    };
    Span {
        hist: global().histogram(&format!("span_{phase}_ns")),
        start: Instant::now(),
        tl_phase,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
        if let Some(phase) = self.tl_phase.take() {
            timeline().end(&phase, "phase", host_lane());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_named_histogram() {
        {
            let _s = span("unit_test_phase");
        }
        let h = global().histogram("span_unit_test_phase_ns");
        assert!(h.count() >= 1);
    }
}
