//! The `ferret` benchmark — no false sharing, high tracking overhead.
//!
//! Similarity-search pipeline: each stage thread maintains busy private
//! feature buffers (the Figure 7 overhead profile, like bodytrack) and
//! passes work along a line-padded ring of stage queues. Queue slots are
//! padded, so the hand-off is true sharing on a single word per slot at
//! most, not false sharing.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Feature vector length per query (words).
const FEATURES: u64 = 64;

/// The `ferret` workload.
pub struct Ferret;

/// Its memory: one hand-off slot and one feature buffer per stage thread.
pub struct State {
    queues: Vec<u64>,
    features: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for Ferret {
    const NAME: &'static str = "ferret";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Hand-off slots between stages, each owner-allocated (the real
        // pipeline embeds the queue in each stage's own struct).
        let queues = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(44)))
            .collect();
        let features = tids
            .iter()
            .map(|&tid| m.malloc(tid, FEATURES * 8, site!(52)))
            .collect();
        State {
            queues,
            features,
            tids,
        }
    }

    /// One query per index.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each((cfg.iters / FEATURES).max(1))]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        // Stage work: extract + rank features into the private buffer.
        let mut acc = 0u64;
        for f in 0..FEATURES {
            let v: u64 = rng.gen_range(0..1 << 16);
            let a = s.features[at.t] + f * 8;
            let cur = m.read::<u64>(tid, a);
            let nv = cur.wrapping_mul(13).wrapping_add(v);
            m.write::<u64>(tid, a, nv);
            acc = acc.wrapping_add(nv);
        }
        // Hand the digest to the next stage's padded slot.
        m.write::<u64>(tid, s.queues[at.t], acc ^ at.i);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use predator_core::{DetectorConfig, Session};

    #[test]
    fn no_false_sharing_but_busy_tracking() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 2_048,
            ..WorkloadConfig::quick()
        };
        Ferret.run_tracked(&s, &cfg);
        let r = s.report();
        assert!(!r.has_false_sharing(), "{r}");
        assert!(s.runtime().tracked_lines() > 8);
    }
}
