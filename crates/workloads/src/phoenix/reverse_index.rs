//! The `reverse_index` benchmark (Table 1, `reverseindex-pthread.c:511`).
//!
//! Workers scan generated documents for links and append them to private
//! buckets, but bump a per-thread length counter in a shared, packed
//! `use_len` array on every insertion. The counters are 8 bytes apiece, so
//! all workers share one or two lines — real false sharing, though with
//! most time spent hashing links the measured improvement from fixing it is
//! tiny (0.09% in the paper). Fixed variant pads the counters.

use predator_core::{Callsite, Frame, ThreadId};
use rand::rngs::SmallRng;

use crate::common::{gen_words, site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, Variant, WorkloadConfig};

fn stride_words(variant: Variant) -> usize {
    match variant {
        Variant::Broken => 1,
        Variant::Fixed => 16,
    }
}

/// Cheap stand-in for the benchmark's link hashing.
fn hash_word(w: &str) -> u64 {
    w.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The `reverse_index` workload.
pub struct ReverseIndex;

/// Its memory: the `use_len` counters and one bucket per thread.
pub struct State {
    links: Vec<String>,
    use_len: u64,
    stride: u64,
    buckets: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for ReverseIndex {
    const NAME: &'static str = "reverse_index";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let stride = stride_words(cfg.variant) as u64 * 8;
        // The packed use_len counter array.
        let use_len = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![Frame::new("reverseindex-pthread.c", 511)]),
        );
        // Private per-thread buckets (large, line-disjoint by allocator).
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let buckets = tids
            .iter()
            .map(|&tid| m.malloc(tid, 4096, site!(65)))
            .collect();
        State {
            links: gen_words(cfg.seed, 512),
            use_len,
            stride,
            buckets,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        let h = hash_word(&s.links[((at.i * 3 + t) % 512) as usize]);
        // Append into the private bucket…
        m.write::<u64>(tid, s.buckets[at.t] + (h % 512) * 8, h);
        // …and bump the shared, packed length counter.
        let c = s.use_len + t * s.stride;
        let cur = m.read::<u64>(tid, c);
        m.write::<u64>(tid, c, cur + 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session};

    #[test]
    fn broken_variant_observed() {
        let r = run_and_report(
            &ReverseIndex,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(r.has_observed_false_sharing(), "{r}");
        assert!(r
            .false_sharing()
            .next()
            .unwrap()
            .to_string()
            .contains("reverseindex-pthread.c:511"));
    }

    #[test]
    fn fixed_variant_is_clean() {
        let r = run_and_report(
            &ReverseIndex,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn counters_add_up() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 300,
            threads: 4,
            ..WorkloadConfig::quick()
        };
        ReverseIndex.run_tracked(&s, &cfg);
        let use_len = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 4 * 8)
            .expect("use_len object");
        for t in 0..4u64 {
            assert_eq!(s.read_untracked::<u64>(use_len.start + t * 8), 300);
        }
    }
}
