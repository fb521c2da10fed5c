//! The `histogram` benchmark — one of the two false-sharing problems the
//! paper was first to report (Table 1, `histogram-pthread.c:213`; ~46%
//! improvement from the fix).
//!
//! "Multiple threads simultaneously modify different locations of the same
//! heap object, `thread_arg_t`." Each worker's argument record carries its
//! private red/green/blue pixel counters; the records are only 24 bytes, so
//! two to three workers land on every cache line of the argument array, and
//! every pixel processed writes the shared line. Padding the structure to a
//! full line eliminates the sharing.

use predator_core::{Callsite, Frame, ThreadId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, thread_rng, At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

/// Words per `thread_arg_t`: broken = 3 (r/g/b counters, 24 bytes);
/// fixed = 16 (padded to two 64-byte lines).
fn stride_words(variant: Variant) -> usize {
    match variant {
        Variant::Broken => 3,
        Variant::Fixed => 16,
    }
}

/// Pixels in the input image.
const PIXELS: u64 = 4096;

/// The `histogram` workload.
pub struct Histogram;

/// Its memory: the image and the `thread_arg_t` array.
pub struct State {
    img: u64,
    args: u64,
    stride: u64,
    tids: Vec<ThreadId>,
}

impl Body for Histogram {
    const NAME: &'static str = "histogram";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        // Input "image": one byte per pixel, shared read-only.
        let img = m.malloc(main, PIXELS, site!(51));
        let mut rng = thread_rng(cfg.seed, 0);
        for i in 0..PIXELS {
            m.init::<u8>(img + i, rng.gen());
        }
        // The thread_arg_t array — the paper's victim.
        let stride = stride_words(cfg.variant) as u64 * 8;
        let args = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![Frame::new("histogram-pthread.c", 213)]),
        );
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State {
            img,
            args,
            stride,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        let e = s.args + t * s.stride;
        let px = m.read::<u8>(tid, s.img + (at.i * 7 + t) % PIXELS) as u64;
        // Bucket by channel value, bump the thread's private counter — which
        // lives on a line shared with its neighbors.
        let w = px % 3;
        let cur = m.read::<u64>(tid, e + w * 8);
        m.write::<u64>(tid, e + w * 8, cur + 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, FindingKind, Session};

    #[test]
    fn broken_variant_observed_without_prediction() {
        let mut det = DetectorConfig::sensitive();
        det.prediction = false;
        let r = run_and_report(&Histogram, det, &WorkloadConfig::quick());
        assert!(r.has_observed_false_sharing(), "{r}");
        let f = r.false_sharing().next().unwrap();
        assert_eq!(f.kind, FindingKind::Observed);
        assert!(f.to_string().contains("histogram-pthread.c:213"));
    }

    #[test]
    fn broken_variant_observed_with_prediction_too() {
        // Table 1 checks both columns for histogram.
        let r = run_and_report(
            &Histogram,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(r.has_observed_false_sharing(), "{r}");
    }

    #[test]
    fn fixed_variant_is_clean() {
        let r = run_and_report(
            &Histogram,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn counters_total_matches_work() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 500,
            threads: 3,
            ..WorkloadConfig::quick()
        };
        Histogram.run_tracked(&s, &cfg);
        let args = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 3 * 24)
            .expect("args object");
        let total: u64 = (0..9)
            .map(|w| s.read_untracked::<u64>(args.start + w * 8))
            .sum();
        assert_eq!(total, 500 * 3, "every pixel counted exactly once");
    }
}
