//! pfscan analogue — clean of *false* sharing, with deliberate *true*
//! sharing.
//!
//! The parallel file scanner pulls work units off a shared queue cursor —
//! one word that every worker atomically bumps. That is textbook true
//! sharing: heavy invalidation traffic on a single word, unfixable by
//! padding. The paper reports no false sharing for pfscan; this workload
//! doubles as the discrimination test (§2.3.2) at application scale.

use predator_core::ThreadId;
use rand::rngs::SmallRng;

use crate::common::{gen_words, site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Lines of "file" scanned per work unit.
const UNIT: u64 = 16;
/// Words in the scanned "file".
const FILE_WORDS: u64 = 2048;

fn hash_word(w: &str) -> u64 {
    w.bytes().fold(0u64, |a, b| a.wrapping_mul(131) + b as u64)
}

/// The pfscan-like workload.
pub struct PfscanLike;

/// Its memory: the queue cursor, the file and one match counter per thread.
pub struct State {
    cursor: u64,
    file: u64,
    needle: u64,
    total_units: u64,
    matches: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl Body for PfscanLike {
    const NAME: &'static str = "pfscan";
    const SUITE: Suite = Suite::App;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        // The shared queue cursor (one padded line — the sharing is on the
        // single word itself).
        let cursor = m.malloc(main, 64, site!(41));
        // The scanned "file": read-only words derived from generated text.
        let corpus = gen_words(cfg.seed, FILE_WORDS as usize);
        let file = m.malloc(main, FILE_WORDS * 8, site!(46));
        for (i, w) in corpus.iter().enumerate() {
            m.init::<u64>(file + (i as u64) * 8, hash_word(w));
        }
        let tids: Vec<ThreadId> = (0..cfg.threads).map(|_| m.register_thread()).collect();
        // Padded per-thread match counters.
        let matches = tids
            .iter()
            .map(|&tid| m.malloc(tid, 64, site!(59)))
            .collect();
        State {
            cursor,
            file,
            needle: hash_word(&corpus[7]),
            total_units: cfg.iters / UNIT,
            matches,
            tids,
        }
    }

    /// Threads pull units until the queue is empty.
    fn phases(&self, _: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(u64::MAX)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, _: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        // Grab a unit: true sharing on the cursor word.
        let unit = m.fetch_add(tid, s.cursor, 1);
        if unit >= s.total_units {
            return false;
        }
        for k in 0..UNIT {
            let idx = (unit * UNIT + k) % FILE_WORDS;
            if m.read::<u64>(tid, s.file + idx * 8) == s.needle {
                let cur = m.read::<u64>(tid, s.matches[at.t]);
                m.write::<u64>(tid, s.matches[at.t], cur + 1);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_and_report, Workload};
    use predator_core::{DetectorConfig, Session, SharingClass};

    #[test]
    fn queue_cursor_is_true_sharing_not_false() {
        let cfg = WorkloadConfig {
            iters: 4_096,
            ..WorkloadConfig::quick()
        };
        let r = run_and_report(&PfscanLike, DetectorConfig::sensitive(), &cfg);
        assert!(!r.has_false_sharing(), "no false positives allowed: {r}");
        // The cursor shows up as true sharing at sensitive thresholds.
        assert!(
            r.findings
                .iter()
                .any(|f| f.class == SharingClass::TrueSharing),
            "expected the queue cursor as true sharing: {r}"
        );
    }

    #[test]
    fn all_units_processed_exactly_once() {
        let s = Session::with_config(DetectorConfig::sensitive());
        let cfg = WorkloadConfig {
            iters: 640,
            threads: 4,
            ..WorkloadConfig::quick()
        };
        PfscanLike.run_tracked(&s, &cfg);
        let cursor = s
            .heap()
            .live_objects()
            .into_iter()
            .find(|o| o.size == 64 && o.owner.0 == 0)
            .unwrap();
        // Cursor ends ≥ total units (threads may over-grab at the end).
        assert!(s.read_untracked::<u64>(cursor.start) >= 640 / UNIT);
    }
}
