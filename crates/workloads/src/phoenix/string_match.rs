//! The `string_match` benchmark — no false sharing (absent from Table 1).
//!
//! Workers compare generated candidate strings against a small key set and
//! record at most a handful of match flags. Writes to shared memory are so
//! rare that no cache line ever crosses the tracking threshold: the workload
//! is the detector's *negative control* for write-starved programs.

use predator_core::ThreadId;
use rand::rngs::SmallRng;

use crate::common::{gen_words, site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Candidate strings.
const CANDIDATES: u64 = 1024;

/// The first 8 bytes (zero-padded) of `w`, as a word.
fn prefix_word(w: &str) -> u64 {
    let mut b = [0u8; 8];
    for (j, c) in w.bytes().take(8).enumerate() {
        b[j] = c;
    }
    u64::from_le_bytes(b)
}

/// The `string_match` workload.
pub struct StringMatch;

/// Its memory: the candidates and the match flags.
pub struct State {
    keys: Vec<u64>,
    buf: u64,
    flags: u64,
    tids: Vec<ThreadId>,
}

impl Body for StringMatch {
    const NAME: &'static str = "string_match";
    const SUITE: Suite = Suite::Phoenix;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let keys = gen_words(cfg.seed ^ 0x6b65, 4)
            .iter()
            .map(|k| prefix_word(k))
            .collect();
        // Store candidates in simulated memory so scanning produces reads.
        let buf = m.malloc(main, CANDIDATES * 8, site!(39));
        for (i, c) in gen_words(cfg.seed, CANDIDATES as usize).iter().enumerate() {
            m.init::<u64>(buf + (i as u64) * 8, prefix_word(c));
        }
        // Per-thread match flags: written at most once per key — far below
        // any tracking threshold.
        let flags = m.malloc(main, cfg.threads as u64 * 8, site!(63));
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State {
            keys,
            buf,
            flags,
            tids,
        }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let (t, tid) = (at.t as u64, s.tids[at.t]);
        let c = m.read::<u64>(tid, s.buf + ((at.i + t * 13) % CANDIDATES) * 8);
        if s.keys.contains(&c) {
            m.write::<u64>(tid, s.flags + t * 8, at.i);
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
        let r = run_and_report(
            &StringMatch,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn read_heavy_lines_stay_untracked() {
        let s = Session::with_config(DetectorConfig::sensitive());
        StringMatch.run_tracked(&s, &WorkloadConfig::quick());
        // The candidate buffer is only read; reads never advance the
        // threshold, so the whole workload tracks (almost) nothing.
        assert_eq!(
            s.runtime().tracked_lines(),
            0,
            "no line should reach the threshold"
        );
    }
}
