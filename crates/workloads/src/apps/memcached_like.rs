//! Memcached analogue — clean (the paper found no severe false sharing).
//!
//! Worker threads serve get/set requests against a sharded hash table;
//! per-worker statistics blocks are line-padded (memcached pads its
//! `thread_stats` with a mutex per worker), so the heavy counter traffic is
//! thread-local.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Hash-table slots per shard; one shard per worker.
const SHARD_SLOTS: u64 = 512;
/// Padded stats block per worker: get_hits, get_misses, set_cmds + pad.
const STATS_WORDS: usize = 8;

/// The memcached-like workload.
pub struct MemcachedLike;

/// Its memory: one shard and one stats block per worker.
pub struct State {
    shards: Vec<u64>,
    stats: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for MemcachedLike {
    const NAME: &'static str = "memcached";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let shards = tids
            .iter()
            .map(|&tid| m.malloc(tid, SHARD_SLOTS * 8, site!(43)))
            .collect();
        let stats = tids
            .iter()
            .map(|&tid| m.malloc(tid, (STATS_WORDS * 8) as u64, site!(51)))
            .collect();
        State {
            shards,
            stats,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let key: u64 = rng.gen_range(0..4096);
        let slot = s.shards[at.t] + (key % SHARD_SLOTS) * 8;
        let c = if key.is_multiple_of(4) {
            // set
            m.write::<u64>(tid, slot, key);
            s.stats[at.t] + 16
        } else {
            // get
            let v = m.read::<u64>(tid, slot);
            s.stats[at.t] + if v == key { 0 } else { 8 }
        };
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
    fn no_false_sharing_reported() {
        let r = run_and_report(
            &MemcachedLike,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn stats_account_for_every_request() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 200,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        MemcachedLike.run_tracked(&s, &cfg);
        let stats: Vec<_> = s
            .heap()
            .live_objects()
            .into_iter()
            .filter(|o| o.size == (STATS_WORDS * 8) as u64)
            .collect();
        assert_eq!(stats.len(), 2);
        for st in stats {
            let total: u64 = (0..3)
                .map(|w| s.read_untracked::<u64>(st.start + w * 8))
                .sum();
            assert_eq!(total, 200);
        }
    }
}
