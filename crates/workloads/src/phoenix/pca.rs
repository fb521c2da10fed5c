//! The `pca` benchmark — no false sharing.
//!
//! Principal-component analysis over a generated matrix: workers compute
//! column means and covariance contributions into per-thread, line-padded
//! partial-sum buffers, then the main thread reduces. All heavy write
//! traffic is thread-local; only reads are shared.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, thread_rng, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Columns in the data matrix.
const COLS: u64 = 16;
/// Rows in the data matrix.
const ROWS: u64 = 256;
/// Padded per-thread partial buffer: COLS sums + pad, in whole lines.
const PARTIAL_WORDS: usize = 24; // 16 used + 8 pad = 3 lines exactly

/// The `pca` workload.
pub struct Pca;

/// Its memory: the data matrix, the per-thread partials and the means.
pub struct State {
    data: u64,
    partials: Vec<u64>,
    means: u64,
    main: ThreadId,
    threads: u64,
    tids: Vec<ThreadId>,
}

impl Body for Pca {
    const NAME: &'static str = "pca";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let data = m.malloc(main, ROWS * COLS * 8, site!(41));
        let mut rng = thread_rng(cfg.seed, 0);
        for i in 0..ROWS * COLS {
            m.init::<u64>(data + i * 8, rng.gen_range(0..1000));
        }
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Per-thread padded partials — allocated by each owner thread, so
        // the allocator guarantees line disjointness too.
        let partials = tids
            .iter()
            .map(|&tid| m.malloc(tid, (PARTIAL_WORDS * 8) as u64, site!(54)))
            .collect();
        let means = m.malloc(main, COLS * 8, site!(73));
        State {
            data,
            partials,
            means,
            main,
            threads: cfg.threads as u64,
            tids,
        }
    }

    /// Row sums into the partials, then the main thread's reduction into
    /// the means, one column per index (single-writer, no sharing).
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters), Phase::Main(COLS)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        if at.phase == 0 {
            let tid = s.tids[at.t];
            let row = (at.i * s.threads + at.t as u64) % ROWS;
            for col in 0..COLS {
                let v = m.read::<u64>(tid, s.data + (row * COLS + col) * 8);
                let p = s.partials[at.t] + col * 8;
                let cur = m.read::<u64>(tid, p);
                m.write::<u64>(tid, p, cur.wrapping_add(v));
            }
        } else {
            let col = at.i;
            let mut acc = 0u64;
            for &p in &s.partials {
                acc = acc.wrapping_add(m.read::<u64>(s.main, p + col * 8));
            }
            m.write::<u64>(s.main, s.means + col * 8, acc);
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
            iters: 400,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&Pca, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn reduction_totals_all_rows_processed() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 64,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        Pca.run_tracked(&s, &cfg);
        let objs = s.heap().live_objects();
        let means = objs.iter().find(|o| o.size == COLS * 8).expect("means");
        // Every column mean accumulated something.
        for col in 0..COLS {
            assert!(s.read_untracked::<u64>(means.start + col * 8) > 0);
        }
    }
}
