//! The `swaptions` benchmark — no false sharing, tiny footprint.
//!
//! Monte-Carlo-ish swaption pricing with one padded result slot per thread.
//! The interesting property for the paper is the *sub-megabyte footprint*:
//! in Figure 9 swaptions shows one of the largest *relative* memory
//! overheads simply because the application allocates almost nothing.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// The `swaptions` workload.
pub struct Swaptions;

/// Its memory: one result slot per thread.
pub struct State {
    results: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for Swaptions {
    const NAME: &'static str = "swaptions";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // One result slot per thread, allocated by its owner: the whole
        // footprint. Owner allocation puts slots in per-thread segments.
        let results = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(39)))
            .collect();
        State { results, tids }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let (tid, slot) = (s.tids[at.t], s.results[at.t]);
        // Simulated HJM path step: pure compute, one accumulation.
        let draw: u64 = rng.gen_range(0..1_000);
        let payoff = draw.wrapping_mul(draw) >> 4;
        let cur = m.read::<u64>(tid, slot);
        m.write::<u64>(tid, slot, cur.wrapping_add(payoff));
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
            &Swaptions,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn footprint_is_tiny() {
        let s = Session::with_config(DetectorConfig::sensitive());
        Swaptions.run_tracked(&s, &WorkloadConfig::quick());
        // The swaptions profile: app bytes minuscule vs detector metadata.
        let r = s.report();
        assert!(r.stats.app_live_bytes < 4096, "{}", r.stats.app_live_bytes);
        assert!(r.stats.relative_memory_overhead().unwrap() > 1.0);
    }
}
