//! MySQL analogue — the InnoDB-style per-thread statistics false sharing.
//!
//! The MySQL scalability collapse the paper cites came from hot per-thread
//! counters packed into shared structures inside InnoDB: every transaction
//! bumped a thread-indexed slot, and the slots of many threads shared cache
//! lines. The fix — one line per counter — was part of the "6×" scalability
//! work. This analogue models a transaction loop over a packed `srv_stats`
//! counter array (broken) vs a padded one (fixed).

use predator_core::{Callsite, Frame, ThreadId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

fn stride_words(variant: Variant) -> usize {
    match variant {
        Variant::Broken => 1,
        Variant::Fixed => 16,
    }
}

/// Rows touched per simulated transaction.
const ROWS_PER_TXN: usize = 8;

/// The MySQL-like workload.
pub struct MysqlLike;

/// Its memory: the `srv_stats` counters and the buffer pool.
pub struct State {
    stats: u64,
    stride: u64,
    pages: u64,
    tids: Vec<ThreadId>,
}

impl Body for MysqlLike {
    const NAME: &'static str = "mysql";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let stride = stride_words(cfg.variant) as u64 * 8;
        // The packed per-thread transaction counters inside "srv_stats".
        let stats = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![
                Frame::new("storage/innobase/srv/srv0srv.cc", 781),
                Frame::new("storage/innobase/trx/trx0trx.cc", 1408),
            ]),
        );
        // A buffer-pool-ish page area, read-heavy, per-thread pages.
        let pages = m.malloc(main, (cfg.threads * 4096) as u64, site!(62));
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State {
            stats,
            stride,
            pages,
            tids,
        }
    }

    /// One transaction per index.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        // Row reads from the thread's page region.
        let page = s.pages + t * 4096;
        let mut checksum = 0u64;
        for _ in 0..ROWS_PER_TXN {
            let off = rng.gen_range(0..512u64) * 8;
            checksum = checksum.wrapping_add(m.read::<u64>(tid, page + off));
        }
        std::hint::black_box(checksum);
        // Commit: bump this thread's packed counter.
        let c = s.stats + t * s.stride;
        let cur = m.read::<u64>(tid, c);
        m.write::<u64>(tid, c, cur + 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session};

    #[test]
    fn broken_variant_observed_with_innodb_callsite() {
        let r = run_and_report(
            &MysqlLike,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(r.has_observed_false_sharing(), "{r}");
        let text = r.false_sharing().next().unwrap().to_string();
        assert!(text.contains("srv0srv.cc:781"), "{text}");
    }

    #[test]
    fn fixed_variant_is_clean() {
        let r = run_and_report(
            &MysqlLike,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn transactions_all_committed() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 100,
            threads: 3,
            ..WorkloadConfig::quick()
        };
        MysqlLike.run_tracked(&s, &cfg);
        let stats = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 3 * 8)
            .expect("stats object");
        for t in 0..3u64 {
            assert_eq!(s.read_untracked::<u64>(stats.start + t * 8), 100);
        }
    }
}
