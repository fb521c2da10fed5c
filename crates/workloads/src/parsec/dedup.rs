//! The `dedup` benchmark — no false sharing.
//!
//! Pipeline compression with a sharded hash table of chunk fingerprints.
//! Each bucket record (lock word + count + head pointer) is padded to a
//! cache line, so concurrent inserts into different buckets never share.

use predator_core::ThreadId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{site, At, Body, Mem, Phase};
use crate::{Expectation, Suite, WorkloadConfig};

/// Hash buckets (each one padded line).
const BUCKETS: u64 = 128;

fn fingerprint(chunk: u64) -> u64 {
    chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// The `dedup` workload.
pub struct Dedup;

/// Its memory: the hash table.
pub struct State {
    table: u64,
    tids: Vec<ThreadId>,
}

impl Body for Dedup {
    const NAME: &'static str = "dedup";
    const SUITE: Suite = Suite::Parsec;
    const EXPECTATION: Expectation = Expectation::Clean;
    type State = State;

    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> State {
        let main = m.register_thread();
        let table = m.malloc(main, BUCKETS * 64, site!(41));
        let tids = (0..cfg.threads).map(|_| m.register_thread()).collect();
        State { table, tids }
    }

    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase> {
        vec![Phase::Each(cfg.iters)]
    }

    #[inline(always)]
    fn step<M: Mem>(&self, m: &M, s: &State, rng: &mut SmallRng, at: At) -> bool {
        let tid = s.tids[at.t];
        let fp = fingerprint(rng.gen());
        let bucket = s.table + (fp % BUCKETS) * 64;
        // Bucket probe: read count, insert fingerprint, bump count.
        let count = m.read::<u64>(tid, bucket);
        m.write::<u64>(tid, bucket + 8 + (count % 6) * 8, fp);
        m.write::<u64>(tid, bucket, count + 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_and_report;
    use predator_core::DetectorConfig;

    #[test]
    fn padded_buckets_report_no_false_sharing() {
        // Different threads do hit the same buckets occasionally (true
        // sharing on the count word), but no cross-bucket false sharing —
        // buckets are line-padded. At paper thresholds nothing is reported.
        let r = run_and_report(&Dedup, DetectorConfig::paper(), &WorkloadConfig::quick());
        assert!(!r.has_false_sharing(), "{r}");
    }

    #[test]
    fn collisions_are_true_sharing_not_false() {
        // At ultra-sensitive thresholds the shared bucket counters may
        // surface — but must classify as true sharing, never false.
        let r = run_and_report(
            &Dedup,
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(!r.has_false_sharing(), "{r}");
    }
}
