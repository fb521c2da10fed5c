//! The `word_count` benchmark (Table 1, `word_count-pthread.c:136`).
//!
//! Workers tokenize chunks of generated text and maintain private hash
//! tables, but the per-thread `words_count` totals live packed in one shared
//! array — the same mild false sharing as `reverse_index` (0.14% improvement
//! in the paper). Fixed variant pads the totals to a line each.

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

fn hash_word(w: &str) -> u64 {
    w.bytes()
        .fold(5381u64, |h, b| h.wrapping_mul(33) ^ b as u64)
}

/// The `word_count` workload.
pub struct WordCount;

/// Its memory: the packed totals and one hash table per thread.
pub struct State {
    words: Vec<String>,
    totals: u64,
    stride: u64,
    tables: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for WordCount {
    const NAME: &'static str = "word_count";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Observed;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let stride = stride_words(cfg.variant) as u64 * 8;
        let totals = m.malloc(
            main,
            cfg.threads as u64 * stride,
            Callsite::from_frames(vec![Frame::new("word_count-pthread.c", 136)]),
        );
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        let tables = tids
            .iter()
            .map(|&tid| m.malloc(tid, 8192, site!(59)))
            .collect();
        State {
            words: gen_words(cfg.seed, 1024),
            totals,
            stride,
            tables,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        let h = hash_word(&s.words[((at.i * 5 + t * 11) % 1024) as usize]);
        // Count in the private table…
        let slot = s.tables[at.t] + (h % 1024) * 8;
        let cur = m.read::<u64>(tid, slot);
        m.write::<u64>(tid, slot, cur + 1);
        // …and bump the packed shared total.
        let c = s.totals + t * s.stride;
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
            &WordCount,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(r.has_observed_false_sharing(), "{r}");
        assert!(r
            .false_sharing()
            .next()
            .unwrap()
            .to_string()
            .contains("word_count-pthread.c:136"));
    }

    #[test]
    fn fixed_variant_is_clean() {
        let r = run_and_report(
            &WordCount,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick().with_variant(Variant::Fixed),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn totals_match_private_tables() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 200,
            threads: 2,
            ..WorkloadConfig::quick()
        };
        WordCount.run_tracked(&s, &cfg);
        let totals = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 2 * 8)
            .expect("totals object");
        assert_eq!(s.read_untracked::<u64>(totals.start), 200);
        assert_eq!(s.read_untracked::<u64>(totals.start + 8), 200);
    }
}
