//! The `bodytrack` benchmark — no false sharing, high tracking overhead.
//!
//! The paper notes bodytrack (with ferret) suffers >8× detector overhead
//! despite having no sharing problem: its threads legitimately write large
//! private buffers hard enough that many lines cross the TrackingThreshold
//! and pay for detailed tracking. This analogue reproduces that pressure:
//! per-thread particle-weight buffers rewritten every frame.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Particles per thread (each an 8-byte weight).
const PARTICLES: u64 = 256;

/// The `bodytrack` workload.
pub struct BodyTrack;

/// Its memory: one particle buffer per thread.
pub struct State {
    buffers: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for BodyTrack {
    const NAME: &'static str = "bodytrack";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let _main = m.register_thread();
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Each thread owns its particle buffer (allocated by itself → the
        // allocator guarantees line isolation).
        let buffers = tids
            .iter()
            .map(|&tid| m.malloc(tid, PARTICLES * 8, site!(44)))
            .collect();
        State { buffers, tids }
    }

    /// Per frame: the weight update pass, then the normalization pass.
    fn phases(&self, _: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(PARTICLES), Phase::Each(PARTICLES)]
    }

    fn rounds(&self, cfg: &WorkloadConfig) -> u64 {
        (cfg.iters / PARTICLES).max(1)
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let (tid, addr) = (s.tids[at.t], s.buffers[at.t] + at.i * 8);
        if at.phase == 0 {
            // Every particle rewritten (heavy writes).
            let noise: u64 = rng.gen_range(0..1 << 20);
            let cur = m.read::<u64>(tid, addr);
            m.write::<u64>(tid, addr, cur.wrapping_mul(31).wrapping_add(noise));
        } else {
            let w = m.read::<u64>(tid, addr);
            m.write::<u64>(tid, addr, w >> 1);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session};

    #[test]
    fn no_false_sharing_but_many_tracked_lines() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 2_048,
            ..WorkloadConfig::quick()
        };
        BodyTrack.run_tracked(&s, &cfg);
        let r = s.report();
        assert!(!r.has_false_sharing(), "{r}");
        // The overhead profile: many lines in detailed tracking.
        assert!(
            s.runtime().tracked_lines() >= 4 * PARTICLES as usize / 8,
            "tracked: {}",
            s.runtime().tracked_lines()
        );
    }

    #[test]
    fn detector_report_stays_empty_at_paper_thresholds() {
        let r = run_and_report(
            &BodyTrack,
            DetectorConfig::paper(),
            &WorkloadConfig {
                iters: 2_048,
                ..WorkloadConfig::quick()
            },
        );
        assert!(r.findings.is_empty(), "{r}");
    }
}
