//! Process-wide graceful-shutdown flag.
//!
//! Long-running modes (`predator serve`, and any workload driver that wants
//! to stop between passes) poll [`requested`]; the CLI's signal handler sets
//! it from SIGINT/SIGTERM. The flag lives here rather than in the CLI so
//! library layers — the serve pass loop, bench drivers — can observe it
//! without a dependency on the binary.
//!
//! A signal handler may only do async-signal-safe work, and a relaxed store
//! to a static atomic is exactly that. Everything else (flushing sinks,
//! writing timelines) happens on normal threads that notice the flag.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests a graceful shutdown. Async-signal-safe; idempotent.
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// True once a shutdown has been requested.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Clears the flag — for tests that simulate a shutdown round-trip.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn request_sets_and_reset_clears() {
        super::reset();
        assert!(!super::requested());
        super::request();
        super::request(); // idempotent
        assert!(super::requested());
        super::reset();
        assert!(!super::requested());
    }
}
