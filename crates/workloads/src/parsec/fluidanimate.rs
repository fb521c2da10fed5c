//! The `fluidanimate` benchmark — no false sharing.
//!
//! Grid-partitioned particle simulation: each worker updates the cells of
//! its own spatial partition; borders are handled by a second, serialized
//! pass (the real benchmark uses border locks). Cell records are padded to
//! a full line, so partitions never share lines.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Cells per thread partition; each cell is one 64-byte line
/// (density, vx, vy, vz + padding).
const CELLS: u64 = 64;
/// Cells per partition including its two ghost cells.
const PART: u64 = CELLS + 2;

/// The `fluidanimate` workload.
pub struct FluidAnimate;

/// Its memory: the grid, the border statistics and the border slots.
pub struct State {
    grid: u64,
    border_stats: u64,
    border_out: Vec<u64>,
    main: ThreadId,
    tids: Vec<ThreadId>,
}

impl Body for FluidAnimate {
    const NAME: &'static str = "fluidanimate";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        // One ghost cell between partitions (the real benchmark keeps ghost
        // planes at partition borders), so no two partitions have updatable
        // cells within a cache line — or a doubled/remapped virtual line.
        let grid = m.malloc(main, cfg.threads as u64 * PART * 64, site!(43));
        let border_stats = m.malloc(main, 64, site!(46));
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Each worker publishes its border densities into its own padded
        // slot (owner-allocated: per-thread segments keep them line-apart);
        // the main thread reduces from the slots, never touching grid lines
        // other threads write — the benchmark's ghost-plane protocol.
        let border_out = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(57)))
            .collect();
        State {
            grid,
            border_stats,
            border_out,
            main,
            tids,
        }
    }

    /// Per time step: the cell updates, the border exchange, then the main
    /// thread's reduction, one slot per index.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        let threads = cfg.threads as u64;
        vec![Phase::Each(CELLS), Phase::Each(1), Phase::Main(threads)]
    }

    fn rounds(&self, cfg: &WorkloadConfig) -> u64 {
        (cfg.iters / CELLS).max(1)
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        match at.phase {
            // Density + velocity update of cell `i` of the partition (cells
            // 1..=CELLS of each part; cells 0 and CELLS+1 are ghosts).
            0 => {
                let cell = s.grid + (t * PART + 1 + at.i) * 64;
                let kick: u64 = rng.gen_range(0..128);
                for field in 0..4u64 {
                    let a = cell + field * 8;
                    let cur = m.read::<u64>(tid, a);
                    m.write::<u64>(tid, a, cur.wrapping_add(kick + field));
                }
            }
            // Each worker publishes its first and last cell densities…
            1 => {
                let f = m.read::<u64>(tid, s.grid + (t * PART + 1) * 64);
                let l = m.read::<u64>(tid, s.grid + ((t + 1) * PART - 2) * 64);
                m.write::<u64>(tid, s.border_out[at.t], f);
                m.write::<u64>(tid, s.border_out[at.t] + 8, l);
            }
            // …and the main thread reduces from the slots.
            _ => {
                let slot = s.border_out[at.i as usize];
                let f = m.read::<u64>(s.main, slot);
                let l = m.read::<u64>(s.main, slot + 8);
                let cur = m.read::<u64>(s.main, s.border_stats);
                m.write::<u64>(s.main, s.border_stats, cur.wrapping_add(f / 2 + l / 2));
            }
        }
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
            iters: 512,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&FluidAnimate, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }
}
