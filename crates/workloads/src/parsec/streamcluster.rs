//! The `streamcluster` benchmark — two distinct false-sharing findings
//! (Table 1 rows `streamcluster.cpp:985` and `streamcluster.cpp:1907`).
//!
//! **Site 985 — `work_mem`:** per-thread scratch areas padded with the
//! benchmark's own `CACHE_LINE` macro, whose default is **32 bytes** —
//! smaller than the real 64-byte line, so two threads' scratch areas share
//! every other line. Fixing the macro to 64 bytes gave the paper ~7.5%.
//!
//! **Site 1907 — `switch_membership`:** a `bool` array with one flag per
//! point; threads own contiguous point ranges and set flags as points
//! switch clusters. 64 one-byte flags per cache line means the boundary
//! lines between thread ranges are written by two threads. Widening the
//! element to `long` (8 bytes) cuts the per-line flag count — and with it
//! the sharing traffic — 8×; the paper measured ~4.8%. This is a
//! *reduction*, not an elimination: the detector distinguishes the two by
//! invalidation volume against its reporting threshold.

use predator_core::{Callsite, Frame, ThreadId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

/// Scratch doubles per thread in `work_mem`.
const WORK_DOUBLES: u64 = 3;
/// Points per thread range in the membership phase.
const RANGE: u64 = 512;

/// Per-thread `work_mem` stride in bytes: the benchmark rounds up to its
/// `CACHE_LINE` macro — 32 in the broken default, 64 when fixed.
fn work_stride(variant: Variant) -> u64 {
    let pad = match variant {
        Variant::Broken => 32,
        Variant::Fixed => 64,
    };
    (WORK_DOUBLES * 8).div_ceil(pad) * pad
}

/// Membership flag element size: `bool` broken, `long` fixed.
fn flag_size(variant: Variant) -> u64 {
    match variant {
        Variant::Broken => 1,
        Variant::Fixed => 8,
    }
}

/// The `streamcluster` workload (both sites run in sequence).
pub struct StreamCluster;

/// Its memory: `work_mem` and `switch_membership`.
pub struct State {
    work_mem: u64,
    stride: u64,
    membership: u64,
    flag: u64,
    tids: Vec<ThreadId>,
}

impl Body for StreamCluster {
    const NAME: &'static str = "streamcluster";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let stride = work_stride(cfg.variant);
        let work_mem = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![Frame::new("streamcluster.cpp", 985)]),
        );
        let flag = flag_size(cfg.variant);
        let membership = m.malloc(
            main,
            cfg.threads as u64 * RANGE * flag,
            Callsite::from_frames(vec![Frame::new("streamcluster.cpp", 1907)]),
        );
        State {
            work_mem,
            stride,
            membership,
            flag,
            tids,
        }
    }

    /// Site 985's scratch updates, then site 1907's membership switches.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters), Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        if at.phase == 0 {
            // pgain-style scratch updates: lower/gl_lower cost cells.
            let base = s.work_mem + t * s.stride;
            for d in 0..WORK_DOUBLES {
                let cur = m.read::<u64>(tid, base + d * 8);
                m.write::<u64>(tid, base + d * 8, cur.wrapping_add(at.i ^ d));
            }
        } else {
            // A random point in this thread's range switches membership.
            let p = rng.gen_range(0..RANGE as usize) as u64;
            let addr = s.membership + (t * RANGE + p) * s.flag;
            match s.flag {
                1 => m.write::<u8>(tid, addr, 1),
                _ => m.write::<u64>(tid, addr, 1),
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

    /// Thresholded like a real run: membership traffic must clear a bar the
    /// fixed (8× less shared) variant misses.
    fn det() -> DetectorConfig {
        DetectorConfig {
            report_threshold: 60,
            ..DetectorConfig::sensitive()
        }
    }

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            iters: 2_000,
            ..WorkloadConfig::quick()
        }
    }

    #[test]
    fn broken_variant_reports_both_sites() {
        let r = run_and_report(&StreamCluster, det(), &cfg());
        assert!(r.has_observed_false_sharing(), "{r}");
        let texts: Vec<String> = r.false_sharing().map(|f| f.to_string()).collect();
        assert!(
            texts.iter().any(|t| t.contains("streamcluster.cpp:985")),
            "work_mem site missing: {texts:?}"
        );
        assert!(
            texts.iter().any(|t| t.contains("streamcluster.cpp:1907")),
            "switch_membership site missing: {texts:?}"
        );
    }

    #[test]
    fn fixed_variant_shows_no_observed_false_sharing() {
        // The paper's fix (CACHE_LINE = 64, long flags) eliminates sharing
        // on the current hardware's 64-byte lines.
        let r = run_and_report(&StreamCluster, det(), &cfg().with_variant(Variant::Fixed));
        assert!(!r.has_observed_false_sharing(), "{r}");
    }

    #[test]
    fn fixed_variant_still_predicted_latent_for_doubled_lines() {
        // …but PREDATOR's whole point (§3) is that padding to exactly one
        // line is alignment/line-size fragile: with 128-byte lines the
        // 64-byte-strided work_mem areas share again. The detector predicts
        // precisely that residual risk on the "fixed" layout.
        let r = run_and_report(&StreamCluster, det(), &cfg().with_variant(Variant::Fixed));
        assert!(r.has_predicted_false_sharing(), "{r}");
        // And with prediction off (a plain detector), the fixed layout is
        // fully clean — matching what every prior tool would say.
        let mut np = det();
        np.prediction = false;
        let r = run_and_report(&StreamCluster, np, &cfg().with_variant(Variant::Fixed));
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn work_mem_stride_matches_macro_semantics() {
        assert_eq!(work_stride(Variant::Broken), 32, "CACHE_LINE=32 default");
        assert_eq!(work_stride(Variant::Fixed), 64);
    }
}
