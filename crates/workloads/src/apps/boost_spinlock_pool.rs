//! Boost analogue — the `boost::detail::spinlock_pool` false sharing.
//!
//! `spinlock_pool<2>` backs `shared_ptr` atomics with a static array of 41
//! one-word spinlocks; objects hash to locks by address. Eight or more
//! locks share every cache line, so threads spinning on *different* locks
//! invalidate each other constantly — the Stack Overflow report the paper
//! cites, worth ~40% when fixed by padding each lock to its own line.
//!
//! The pool is a *global*, so this workload also exercises PREDATOR's
//! global-variable reporting path (name/address/size, §2.3).

use predator_core::ThreadId;
use rand::rngs::SmallRng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

/// Boost's pool size.
const POOL_SIZE: usize = 41;

fn stride_words(variant: Variant) -> u64 {
    match variant {
        Variant::Broken => 1,
        Variant::Fixed => 8,
    }
}

/// Each thread's dedicated lock index (distinct objects hash to distinct
/// locks; collisions would be true sharing, which is not the bug here).
fn lock_of(thread: usize) -> u64 {
    ((thread * 7) % POOL_SIZE) as u64
}

/// The Boost-spinlock-pool workload.
pub struct BoostSpinlockPool;

/// Its memory: the lock pool and one refcount per thread.
pub struct State {
    pool: u64,
    stride: u64,
    refcounts: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for BoostSpinlockPool {
    const NAME: &'static str = "boost";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let stride = stride_words(cfg.variant);
        // The static pool — registered as a global variable.
        let pool = m.global(
            "boost::detail::spinlock_pool<2>::pool_",
            POOL_SIZE as u64 * stride * 8,
        );
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Per-thread refcount words the locks protect (padded, private).
        let refcounts = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(65)))
            .collect();
        State {
            pool,
            stride,
            refcounts,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let lock = s.pool + lock_of(at.t) * s.stride * 8;
        // spinlock::lock() — CAS on the lock word (a write). Each thread has
        // its own lock, so the first attempt succeeds.
        while m.compare_exchange(tid, lock, 0, 1).is_err() {
            std::hint::spin_loop();
        }
        // Critical section: shared_ptr refcount update.
        let rc = s.refcounts[at.t];
        let cur = m.read::<u64>(tid, rc);
        m.write::<u64>(tid, rc, cur + 1);
        // spinlock::unlock() — store release.
        m.write::<u64>(tid, lock, 0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session, SiteKind};

    #[test]
    fn broken_pool_reported_as_global_false_sharing() {
        let r = run_and_report(
            &BoostSpinlockPool,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(r.has_observed_false_sharing(), "{r}");
        let f = r.false_sharing().next().unwrap();
        match &f.object.site {
            SiteKind::Global { name } => {
                assert!(name.contains("spinlock_pool"), "{name}");
            }
            other => panic!("expected global attribution, got {other:?}"),
        }
        assert!(f.to_string().contains("GLOBAL VARIABLE"));
    }

    #[test]
    fn padded_pool_is_clean() {
        let r = run_and_report(
            &BoostSpinlockPool,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn distinct_threads_use_distinct_locks() {
        let locks: std::collections::HashSet<u64> = (0..8).map(lock_of).collect();
        assert_eq!(locks.len(), 8, "hash must spread threads across locks");
    }

    #[test]
    fn refcounts_reflect_all_iterations() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 50,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        BoostSpinlockPool.run_tracked(&s, &cfg);
        let rcs: Vec<_> = s
            .heap()
            .live_objects()
            .into_iter()
            .filter(|o| o.size == 64 && o.owner.0 > 0)
            .collect();
        assert_eq!(rcs.len(), 2);
        for rc in rcs {
            assert_eq!(s.read_untracked::<u64>(rc.start), 50);
        }
    }
}
