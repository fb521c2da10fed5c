//! The `kmeans` benchmark — no false sharing, but heavy tracked traffic.
//!
//! Lloyd's iterations with per-thread, line-padded centroid accumulators.
//! The paper singles kmeans out for high *detector overhead* (Figure 7,
//! >8×) without any sharing problem: many lines cross the tracking
//! > threshold from legitimate single-thread write volume. This workload
//! > reproduces that profile.

use predator_core::ThreadId;
use rand::rngs::SmallRng;

use crate::common::{gen_points, site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Number of clusters.
const K: usize = 8;
/// Points per round.
const POINTS: usize = 512;
/// Words per padded per-thread accumulator block: K × (sum_x, sum_y, count)
/// rounded up to whole lines.
const ACC_WORDS: usize = 3 * K + (8 - (3 * K) % 8) % 8;

fn dist2(ax: i64, ay: i64, bx: i64, by: i64) -> i64 {
    let (dx, dy) = (ax - bx, ay - by);
    dx * dx + dy * dy
}

/// The `kmeans` workload.
pub struct KMeans;

/// Its memory: points, centroids and one accumulator block per thread.
pub struct State {
    points: u64,
    centroids: u64,
    accs: Vec<u64>,
    main: ThreadId,
    tids: Vec<ThreadId>,
}

impl Body for KMeans {
    const NAME: &'static str = "kmeans";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let pts = gen_points(cfg.seed, POINTS);
        let points = m.malloc(main, (POINTS * 16) as u64, site!(48));
        for (i, &(x, y)) in pts.iter().enumerate() {
            m.init::<i64>(points + (i as u64) * 16, x);
            m.init::<i64>(points + (i as u64) * 16 + 8, y);
        }
        // Centroids, updated only by the main thread between rounds.
        let centroids = m.malloc(main, (K * 16) as u64, site!(57));
        for c in 0..K {
            let (x, y) = pts[c * 13 % POINTS];
            m.init::<i64>(centroids + (c as u64) * 16, x);
            m.init::<i64>(centroids + (c as u64) * 16 + 8, y);
        }
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let accs = tids
            .iter()
            .map(|&tid| m.malloc(tid, (ACC_WORDS * 8) as u64, site!(71)))
            .collect();
        State {
            points,
            centroids,
            accs,
            main,
            tids,
        }
    }

    /// Assignment + accumulation over the points, then the main thread's
    /// reduction and centroid update, one centroid per index.
    fn phases(&self, _: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Split(POINTS as u64), Phase::Main(K as u64)]
    }

    fn rounds(&self, cfg: &WorkloadConfig) -> u64 {
        (cfg.iters / POINTS as u64).max(1)
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        if at.phase == 0 {
            let (tid, p) = (s.tids[at.t], s.points + at.i * 16);
            let px = m.read::<i64>(tid, p);
            let py = m.read::<i64>(tid, p + 8);
            let mut best = 0u64;
            let mut best_d = i64::MAX;
            for c in 0..K as u64 {
                let cx = m.read::<i64>(tid, s.centroids + c * 16);
                let cy = m.read::<i64>(tid, s.centroids + c * 16 + 8);
                let d = dist2(px, py, cx, cy);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            let a = s.accs[at.t] + best * 24;
            for (off, v) in [(0, px as u64), (8, py as u64), (16, 1u64)] {
                let cur = m.read::<u64>(tid, a + off);
                m.write::<u64>(tid, a + off, cur.wrapping_add(v));
            }
        } else {
            let (c, main) = (at.i, s.main);
            let (mut sx, mut sy, mut n) = (0u64, 0u64, 0u64);
            for (&acc, &tid) in s.accs.iter().zip(&s.tids) {
                let a = acc + c * 24;
                sx = sx.wrapping_add(m.read::<u64>(main, a));
                sy = sy.wrapping_add(m.read::<u64>(main, a + 8));
                n += m.read::<u64>(main, a + 16);
                // Clear for next round.
                for off in [0, 8, 16] {
                    m.write::<u64>(tid, a + off, 0);
                }
            }
            if let (Some(cx), Some(cy)) = (sx.checked_div(n), sy.checked_div(n)) {
                m.write::<i64>(main, s.centroids + c * 16, cx as i64);
                m.write::<i64>(main, s.centroids + c * 16 + 8, cy as i64);
            }
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
            iters: 1024,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&KMeans, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn tracks_many_lines_without_problems() {
        // The kmeans overhead profile: plenty of tracked lines, no findings.
        let s = Session::with_config(DetectorConfig::sensitive());
        KMeans.run_tracked(
            &s,
            &WorkloadConfig {
                iters: 1024,
                ..WorkloadConfig::quick()
            },
        );
        assert!(s.runtime().tracked_lines() > 0);
    }
}
