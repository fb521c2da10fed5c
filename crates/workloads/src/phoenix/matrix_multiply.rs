//! The `matrix_multiply` benchmark — no false sharing.
//!
//! Classic row-partitioned `C = A × B`: every worker writes a disjoint band
//! of output rows, and a row (≥ 8 doubles) spans whole cache lines, so no
//! line has two writers. The paper lists it among the low-overhead,
//! problem-free workloads ("I/O-bound" tier of Figure 7).

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, thread_rng, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Matrix dimension (square): small enough to keep tracked runs quick,
/// large enough that a row spans multiple cache lines.
const N: usize = 24;

/// The `matrix_multiply` workload.
pub struct MatrixMultiply;

/// Its memory: `A`, `B` and `C`.
pub struct State {
    a: u64,
    b: u64,
    c: u64,
    tids: Vec<ThreadId>,
}

impl Body for MatrixMultiply {
    const NAME: &'static str = "matrix_multiply";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let bytes = (N * N * 8) as u64;
        let a = m.malloc(main, bytes, site!(39));
        let b = m.malloc(main, bytes, site!(40));
        let c = m.malloc(main, bytes, site!(41));
        let mut rng = thread_rng(cfg.seed, 0);
        for i in 0..(N * N) as u64 {
            m.init::<u64>(a + i * 8, rng.gen_range(0..64));
            m.init::<u64>(b + i * 8, rng.gen_range(0..64));
        }
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State { a, b, c, tids }
    }

    /// One output row per index.
    fn phases(&self, _: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Split(N as u64)]
    }

    /// `iters` controls how many times the multiply repeats (the Phoenix
    /// benchmark loops over blocks; repetition models the access volume).
    fn rounds(&self, cfg: &WorkloadConfig) -> u64 {
        (cfg.iters / 64).max(1)
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (tid, row) = (s.tids[at.t], at.i as usize);
        for col in 0..N {
            let mut acc = 0u64;
            for k in 0..N {
                let av = m.read::<u64>(tid, s.a + ((row * N + k) as u64) * 8);
                let bv = m.read::<u64>(tid, s.b + ((k * N + col) as u64) * 8);
                acc = acc.wrapping_add(av.wrapping_mul(bv));
            }
            m.write::<u64>(tid, s.c + ((row * N + col) as u64) * 8, acc);
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
    fn no_false_sharing_reported() {
        let cfg = WorkloadConfig {
            iters: 128,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&MatrixMultiply, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn result_matches_reference() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 64,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        MatrixMultiply.run_tracked(&s, &cfg);
        // Identify A, B, C by allocation order among the three N×N objects.
        let objs = s.heap().live_objects();
        let mut mats: Vec<_> = objs
            .iter()
            .filter(|o| o.size == (N * N * 8) as u64)
            .collect();
        mats.sort_by_key(|o| o.seq);
        assert_eq!(mats.len(), 3);
        let read = |o: &predator_core::ObjectInfo, i: usize| {
            s.read_untracked::<u64>(o.start + (i as u64) * 8)
        };
        // Reference multiply for one element.
        let (row, col) = (3, 5);
        let mut acc = 0u64;
        for k in 0..N {
            acc = acc
                .wrapping_add(read(mats[0], row * N + k).wrapping_mul(read(mats[1], k * N + col)));
        }
        assert_eq!(read(mats[2], row * N + col), acc);
    }
}
