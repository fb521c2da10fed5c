//! The `blackscholes` benchmark — no false sharing, low overhead.
//!
//! Each worker prices a large contiguous block of options and writes the
//! results into its own span of the output array. Spans are thousands of
//! elements, so interior lines have a single writer; the paper groups
//! blackscholes with the low-overhead workloads of Figure 7.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, thread_rng, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Options per thread block.
const BLOCK: u64 = 1024;

/// Fixed-point Black-Scholes-flavoured kernel: enough arithmetic to look
/// like the real pricing loop, fully deterministic.
fn price(spot: u64, strike: u64, vol: u64) -> u64 {
    let m = spot.wrapping_mul(1_000).wrapping_div(strike.max(1));
    let v = vol.wrapping_mul(vol) / 100 + 1;
    m.wrapping_mul(v) ^ (m >> 3)
}

/// The `blackscholes` workload.
pub struct BlackScholes;

/// Its memory: the options and the prices.
pub struct State {
    inputs: u64,
    prices: u64,
    tids: Vec<ThreadId>,
}

impl Body for BlackScholes {
    const NAME: &'static str = "blackscholes";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let n = cfg.threads as u64 * BLOCK;
        let inputs = m.malloc(main, n * 24, site!(47));
        let mut rng = thread_rng(cfg.seed, 0);
        for i in 0..n {
            m.init::<u64>(inputs + i * 24, rng.gen_range(50..150));
            m.init::<u64>(inputs + i * 24 + 8, rng.gen_range(50..150));
            m.init::<u64>(inputs + i * 24 + 16, rng.gen_range(1..40));
        }
        let prices = m.malloc(main, n * 8, site!(56));
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State {
            inputs,
            prices,
            tids,
        }
    }

    /// Each thread prices its block, `iters / BLOCK` times over.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each((cfg.iters / BLOCK).max(1) * BLOCK)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let idx = at.t as u64 * BLOCK + at.i % BLOCK;
        let spot = m.read::<u64>(tid, s.inputs + idx * 24);
        let strike = m.read::<u64>(tid, s.inputs + idx * 24 + 8);
        let vol = m.read::<u64>(tid, s.inputs + idx * 24 + 16);
        m.write::<u64>(tid, s.prices + idx * 8, price(spot, strike, vol));
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
            iters: 1024,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&BlackScholes, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn prices_are_deterministic() {
        assert_eq!(price(100, 100, 20), price(100, 100, 20));
        assert_ne!(price(100, 100, 20), price(120, 100, 20));
    }
}
