//! The `linear_regression` benchmark — the paper's flagship prediction case
//! (Figures 2, 5, 6; §4.1.3).
//!
//! The main thread allocates an array of per-thread `lreg_args` elements —
//! 64 bytes each on a 64-bit build (Figure 6):
//!
//! ```c
//! struct {
//!     pthread_t tid;        // word 0
//!     POINT_T *points;      // word 1
//!     int num_elems;        // word 2
//!     long long SX;         // word 3   ← hot
//!     long long SY;         // word 4   ← hot
//!     long long SXX;        // word 5   ← hot
//!     long long SYY;        // word 6   ← hot
//!     long long SXY;        // word 7   ← hot
//! } lreg_args;
//! ```
//!
//! Each thread updates only its own element in a tight loop. Whether this
//! falsely shares depends entirely on where the array lands relative to
//! cache-line boundaries: at offsets 0 and 56 (hot tail within one line)
//! there is none; at offset 24 the hot words straddle lines and performance
//! drops ~15× (Figure 2). Under PREDATOR's isolating allocator the array is
//! line-aligned, so no false sharing *manifests* — only prediction (virtual
//! lines) catches the latent problem. That is this workload's expectation:
//! [`Expectation::PredictedOnly`].

use std::time::Duration;

use predator_core::{Callsite, Frame, ThreadId};
use rand::rngs::SmallRng;

use crate::common::{gen_points, run_native, site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

/// Words per element: broken = exactly the 64-byte struct; fixed = padded
/// to two lines (the standard fix).
fn stride_words(variant: Variant) -> usize {
    match variant {
        Variant::Broken => 8,
        Variant::Fixed => 16,
    }
}

/// Word indices of the hot accumulator fields within an element.
const SX: u64 = 3;
const SY: u64 = 4;
const SXX: u64 = 5;
const SYY: u64 = 6;
const SXY: u64 = 7;

/// Input points.
const POINTS: u64 = 1024;

/// The `linear_regression` workload.
pub struct LinearRegression;

impl LinearRegression {
    /// Native run with every object — the `lreg_args` array among them —
    /// starting `offset` bytes past a cache-line boundary: the Figure 2
    /// sweep. `offset` must be a multiple of 8 in `[0, 56]`.
    pub fn run_native_offset(&self, cfg: &WorkloadConfig, offset: usize) -> Duration {
        run_native(self, cfg, offset as u64)
    }
}

/// Its memory: the input points and the `lreg_args` array.
pub struct State {
    points: u64,
    args: u64,
    stride: u64,
    iters: u64,
    tids: Vec<ThreadId>,
}

impl Body for LinearRegression {
    const NAME: &'static str = "linear_regression";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::PredictedOnly;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        // Input points, shared read-only.
        let points = m.malloc(main, POINTS * 16, site!(100));
        for (i, &(x, y)) in gen_points(cfg.seed, POINTS as usize).iter().enumerate() {
            m.init::<i64>(points + (i as u64) * 16, x);
            m.init::<i64>(points + (i as u64) * 16 + 8, y);
        }
        // The lreg_args array — the Figure 5 victim object, allocated with
        // the paper's callsite stack.
        let stride = stride_words(cfg.variant) as u64 * 8;
        let args = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![
                Frame::new("./stddefines.h", 53),
                Frame::new("./linear_regression-pthread.c", 133),
            ]),
        );
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State {
            points,
            args,
            stride,
            iters: cfg.iters,
            tids,
        }
    }

    /// Each thread fills in its element's header, then runs the Figure 6
    /// loop.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(1), Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let e = s.args + at.t as u64 * s.stride;
        if at.phase == 0 {
            m.write(tid, e, tid.0 as u64); // tid field
            m.write(tid, e + 8, s.points); // points pointer
            m.write(tid, e + 16, s.iters); // num_elems
            return true;
        }
        // The Figure 6 loop body: bounds check reads num_elems, then point
        // loads and five read-modify-write accumulations.
        let _n = m.read::<u64>(tid, e + 16);
        let p = s.points + (at.i % POINTS) * 16;
        let x = m.read::<i64>(tid, p) as u64;
        let y = m.read::<i64>(tid, p + 8) as u64;
        for (w, v) in [
            (SX, x),
            (SXX, x.wrapping_mul(x)),
            (SY, y),
            (SYY, y.wrapping_mul(y)),
            (SXY, x.wrapping_mul(y)),
        ] {
            let cur = m.read::<u64>(tid, e + w * 8);
            m.write::<u64>(tid, e + w * 8, cur.wrapping_add(v));
        }
        true
    }

    /// Broken: the unlucky placement Figure 2 identifies as worst (offset
    /// 24); fixed: padded elements at a clean offset.
    fn native_offset(&self, cfg: &WorkloadConfig) -> u64 {
        match cfg.variant {
            Variant::Broken => 24,
            Variant::Fixed => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session};

    fn quick() -> WorkloadConfig {
        WorkloadConfig {
            iters: 600,
            ..WorkloadConfig::quick()
        }
    }

    #[test]
    fn broken_variant_is_predicted_not_observed() {
        let r = run_and_report(&LinearRegression, DetectorConfig::sensitive(), &quick());
        assert!(
            !r.has_observed_false_sharing(),
            "isolating allocator hides the physical sharing"
        );
        assert!(
            r.has_predicted_false_sharing(),
            "prediction must catch it:\n{r}"
        );
        // The report attributes the paper's callsite.
        let f = r.false_sharing().next().unwrap();
        let text = f.to_string();
        assert!(text.contains("linear_regression-pthread.c:133"), "{text}");
    }

    #[test]
    fn broken_variant_missed_without_prediction() {
        // The whole point of the paper: PREDATOR-NP cannot see this.
        let mut det = DetectorConfig::sensitive();
        det.prediction = false;
        let r = run_and_report(&LinearRegression, det, &quick());
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn fixed_variant_is_clean() {
        let r = run_and_report(
            &LinearRegression,
            DetectorConfig::sensitive(),
            &quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn tracked_run_computes_correct_sums() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 100,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        LinearRegression.run_tracked(&s, &cfg);
        // Recompute SX for thread 0 from the same deterministic input.
        let data = gen_points(cfg.seed, 1024);
        let expect_sx: u64 = (0..100).map(|i| data[i % 1024].0 as u64).sum();
        let args = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 2 * 64)
            .expect("lreg_args object");
        assert_eq!(s.read_untracked::<u64>(args.start + SX * 8), expect_sx);
    }
}
