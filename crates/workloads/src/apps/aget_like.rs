//! aget analogue — clean, tiny footprint.
//!
//! The download accelerator splits a file into per-thread byte ranges;
//! each worker writes its own large contiguous chunk. Chunks are
//! kilobytes, so only the two boundary lines between adjacent chunks are
//! ever shared — and each is written once per run, far below any
//! threshold. aget's other role in the paper is Figure 9's *relative
//! memory overhead* outlier: its footprint is sub-megabyte.

use predator_core::ThreadId;
use rand::rngs::SmallRng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Bytes per download chunk (per thread).
const CHUNK: usize = 4096;
/// Words per chunk.
const WORDS: u64 = (CHUNK / 8) as u64;

/// The aget-like workload.
pub struct AgetLike;

/// Its memory: the download buffer.
pub struct State {
    file: u64,
    tids: Vec<ThreadId>,
}

impl Body for AgetLike {
    const NAME: &'static str = "aget";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let file = m.malloc(main, (cfg.threads * CHUNK) as u64, site!(39));
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State { file, tids }
    }

    /// "Receive" the file: each worker fills its own range sequentially,
    /// one 8-byte word per index, `iters / WORDS` times over.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each((cfg.iters / WORDS).max(1) * WORDS)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (t, w) = (at.t as u64, at.i % WORDS);
        m.write::<u64>(s.tids[at.t], s.file + (t * WORDS + w) * 8, w ^ t);
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
        let cfg = WorkloadConfig {
            iters: 2_048,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&AgetLike, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn footprint_is_small() {
        let s = Session::with_config(DetectorConfig::sensitive());
        AgetLike.run_tracked(&s, &WorkloadConfig::quick());
        assert!(s.heap().live_bytes() < 64 * 1024);
    }

    #[test]
    fn file_fully_written() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 1_024,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        AgetLike.run_tracked(&s, &cfg);
        let file = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == (2 * CHUNK) as u64)
            .unwrap();
        // Spot-check both chunks (CHUNK/8 words per chunk).
        let wpc = (CHUNK / 8) as u64;
        assert_eq!(s.read_untracked::<u64>(file.start + 5 * 8), 5);
        assert_eq!(s.read_untracked::<u64>(file.start + (wpc + 5) * 8), 5 ^ 1);
    }
}
