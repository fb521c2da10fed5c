//! pbzip2 analogue — clean.
//!
//! Parallel block compression: each worker pulls a block, transforms it in
//! a large private buffer, and publishes the compressed length into a
//! line-padded result slot. All heavy traffic is private; the paper found
//! no problems and low detector overhead (I/O-bound tier of Figure 7).

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Words per compression block.
const BLOCK_WORDS: u64 = 512;

/// A mock "compression": RLE-flavoured mixing that returns a length.
fn compress_word(w: u64) -> u64 {
    (w ^ (w >> 7)).wrapping_mul(0x0101_0101_0101_0101) >> 56
}

/// The pbzip2-like workload.
pub struct Pbzip2Like;

/// Its memory: one block buffer and one result slot per worker.
pub struct State {
    blocks: Vec<u64>,
    results: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for Pbzip2Like {
    const NAME: &'static str = "pbzip2";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let blocks = tids
            .iter()
            .map(|&tid| m.malloc(tid, BLOCK_WORDS * 8, site!(46)))
            .collect();
        // Per-thread result slots, owner-allocated (per-thread segments
        // guarantee line isolation).
        let results = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(56)))
            .collect();
        State {
            blocks,
            results,
            tids,
        }
    }

    /// One block word per index, `iters / BLOCK_WORDS` blocks.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each((cfg.iters / BLOCK_WORDS).max(1) * BLOCK_WORDS)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let addr = s.blocks[at.t] + (at.i % BLOCK_WORDS) * 8;
        let raw: u64 = rng.gen();
        m.write::<u64>(tid, addr, raw);
        let len = compress_word(m.read::<u64>(tid, addr));
        let slot = s.results[at.t];
        let cur = m.read::<u64>(tid, slot);
        m.write::<u64>(tid, slot, cur.wrapping_add(len));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_and_report;
    use predator_core::DetectorConfig;

    #[test]
    fn no_false_sharing_reported() {
        let cfg = WorkloadConfig {
            iters: 1_024,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&Pbzip2Like, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }
}
