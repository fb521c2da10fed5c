//! Dense thread-id assignment.
//!
//! The runtime identifies accesses by small dense [`ThreadId`]s (history
//! tables store them in two bytes). Real workload threads register here once
//! at spawn; the id is passed explicitly through the workload code, mirroring
//! how the paper's runtime tags accesses with the issuing thread.

use std::sync::atomic::{AtomicU16, Ordering};

use predator_sim::ThreadId;

/// Hands out dense thread ids, starting at 0 (conventionally the main
/// thread).
#[derive(Debug, Default)]
pub struct ThreadRegistry {
    next: AtomicU16,
}

impl ThreadRegistry {
    /// Threads [`ThreadRegistry::register`] can number: ids `0..CAPACITY`.
    pub const CAPACITY: usize = u16::MAX as usize;

    /// Creates a registry with no threads registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new thread, returning its dense id.
    pub fn register(&self) -> ThreadId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!((id as usize) < Self::CAPACITY, "thread id space exhausted");
        ThreadId(id)
    }

    /// Number of threads registered so far.
    pub fn count(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_unique() {
        let r = ThreadRegistry::new();
        assert_eq!(r.register(), ThreadId(0));
        assert_eq!(r.register(), ThreadId(1));
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn concurrent_registration_yields_unique_ids() {
        let r = std::sync::Arc::new(ThreadRegistry::new());
        let ids: Vec<ThreadId> = std::thread::scope(|s| {
            (0..16)
                .map(|_| {
                    let r = r.clone();
                    s.spawn(move || r.register())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut raw: Vec<u16> = ids.iter().map(|t| t.0).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 16);
        assert_eq!(r.count(), 16);
    }
}
