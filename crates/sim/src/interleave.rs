//! Deterministic interleaving: one [`Schedule`] and its turn picker.
//!
//! PREDATOR "conservatively assumes that accesses from different threads
//! occur in an interleaved manner; that is, it assumes that the schedule
//! exposes false sharing" (§3.3). Tests assert exact invalidation counts, so
//! every simulated interleaving is reproducible: [`Turns`] picks the turns
//! of a [`Schedule`], and each driver keeps its own unit of a turn —
//! [`interleave`] merges per-thread scripts one access per unit,
//! `predator-instrument`'s interpreter steps one instruction per unit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::Access;

/// How threads take turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Each live thread runs up to `quantum` units, then the next live
    /// thread after it, cyclically. `quantum: 1` is the adversarial
    /// interleaving §3.3 assumes; `u64::MAX` runs each thread to completion,
    /// the schedule that hides sharing.
    RoundRobin {
        /// Units per turn, at least 1.
        quantum: u64,
    },
    /// Seeded uniform choice among the live threads, one unit per turn.
    Seeded(u64),
}

/// The turn picker: which live thread runs next, and for how many units.
/// A driver calls [`Turns::retire`] once the picked thread has finished.
#[derive(Debug)]
pub struct Turns {
    /// The live threads, in index order.
    live: Vec<usize>,
    /// Position in `live` after the last pick.
    next: usize,
    quantum: u64,
    rng: Option<SmallRng>,
}

impl Turns {
    /// A picker over `live`, in increasing order. Panics on a zero quantum.
    pub fn new(schedule: Schedule, live: impl IntoIterator<Item = usize>) -> Self {
        let (quantum, rng) = match schedule {
            Schedule::RoundRobin { quantum } => {
                assert!(quantum >= 1, "a round-robin turn runs at least one unit");
                (quantum, None)
            }
            Schedule::Seeded(seed) => (1, Some(SmallRng::seed_from_u64(seed))),
        };
        let live = live.into_iter().collect();
        Turns {
            live,
            next: 0,
            quantum,
            rng,
        }
    }

    /// The next turn: a thread and the most units it may run, or `None`
    /// once every thread has retired.
    pub fn pick(&mut self) -> Option<(usize, u64)> {
        if self.live.is_empty() {
            return None;
        }
        let at = match &mut self.rng {
            Some(rng) => rng.gen_range(0..self.live.len()),
            None => self.next % self.live.len(),
        };
        self.next = at + 1;
        Some((self.live[at], self.quantum))
    }

    /// The thread of the last pick has finished: it gets no more turns.
    /// Call it at most once per pick.
    pub fn retire(&mut self) {
        self.next -= 1;
        self.live.remove(self.next);
    }
}

/// A per-thread list of accesses; index in the outer vector is *not*
/// necessarily the thread id — each inner script carries thread ids in its
/// [`Access`] records — but by convention script `i` belongs to thread `i`.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// One access list per thread.
    pub per_thread: Vec<Vec<Access>>,
}

impl Script {
    /// Creates an empty script for `n` threads.
    pub fn new(n: usize) -> Self {
        Script {
            per_thread: vec![Vec::new(); n],
        }
    }

    /// Appends an access to thread `i`'s script.
    pub fn push(&mut self, i: usize, a: Access) {
        self.per_thread[i].push(a);
    }

    /// Total number of accesses across all threads.
    pub fn len(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }

    /// True when no thread has any accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Merges `script` into a single global access order under `schedule`, one
/// access per unit of a turn.
///
/// The relative order of each thread's own accesses is always preserved
/// (program order); only the inter-thread interleaving varies.
pub fn interleave(script: &Script, schedule: Schedule) -> Vec<Access> {
    let mut rest: Vec<&[Access]> = script.per_thread.iter().map(Vec::as_slice).collect();
    let mut turns = Turns::new(schedule, (0..rest.len()).filter(|&i| !rest[i].is_empty()));
    let mut out = Vec::with_capacity(script.len());
    while let Some((i, quantum)) = turns.pick() {
        let n = (rest[i].len() as u64).min(quantum) as usize;
        let (now, later) = rest[i].split_at(n);
        out.extend_from_slice(now);
        rest[i] = later;
        if later.is_empty() {
            turns.retire();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadId};
    use proptest::prelude::*;

    fn mk_script(lens: &[usize]) -> Script {
        let mut s = Script::new(lens.len());
        for (i, &l) in lens.iter().enumerate() {
            for k in 0..l {
                s.push(
                    i,
                    Access::write(ThreadId(i as u16), (i * 1000 + k) as u64, 8),
                );
            }
        }
        s
    }

    fn tids(lens: &[usize], schedule: Schedule) -> Vec<u16> {
        interleave(&mk_script(lens), schedule)
            .iter()
            .map(|a| a.tid.0)
            .collect()
    }

    #[test]
    fn round_robin_alternates() {
        let rr = Schedule::RoundRobin { quantum: 1 };
        assert_eq!(tids(&[2, 2], rr), vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_skips_exhausted_threads() {
        let rr = Schedule::RoundRobin { quantum: 1 };
        assert_eq!(tids(&[3, 1], rr), vec![0, 1, 0, 0]);
    }

    #[test]
    fn round_robin_resumes_after_the_thread_that_finished() {
        // Thread 0 finishes on its first turn: the next turn is thread 1's,
        // the live thread after it, not the second entry of what is left.
        let rr = |quantum| Schedule::RoundRobin { quantum };
        assert_eq!(tids(&[1, 3, 3], rr(1)), vec![0, 1, 2, 1, 2, 1, 2]);
        assert_eq!(tids(&[1, 4, 4], rr(2)), vec![0, 1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn a_quantum_counts_units_per_turn() {
        let rr = |quantum| Schedule::RoundRobin { quantum };
        assert_eq!(tids(&[3, 3], rr(2)), vec![0, 0, 1, 1, 0, 1]);
        // A turn longer than any script runs each thread to completion.
        assert_eq!(tids(&[2, 2], rr(u64::MAX)), vec![0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn a_zero_quantum_is_refused() {
        Turns::new(Schedule::RoundRobin { quantum: 0 }, [0]);
    }

    #[test]
    fn seeded_is_reproducible() {
        let s = mk_script(&[10, 10, 10]);
        let a = interleave(&s, Schedule::Seeded(42));
        let b = interleave(&s, Schedule::Seeded(42));
        assert_eq!(a, b);
        let c = interleave(&s, Schedule::Seeded(43));
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn empty_script_yields_nothing() {
        let s = Script::new(0);
        assert!(interleave(&s, Schedule::RoundRobin { quantum: 1 }).is_empty());
        let s2 = Script::new(3);
        assert!(interleave(&s2, Schedule::Seeded(1)).is_empty());
        assert!(s2.is_empty());
    }

    proptest! {
        /// Every schedule is a permutation preserving per-thread order.
        #[test]
        fn prop_program_order_preserved(
            lens in proptest::collection::vec(0usize..20, 1..5),
            seed in 0u64..1000,
            quantum in prop_oneof![Just(1u64), Just(2u64), Just(7u64), Just(u64::MAX)],
            seeded in any::<bool>()
        ) {
            let s = mk_script(&lens);
            let sched = if seeded {
                Schedule::Seeded(seed)
            } else {
                Schedule::RoundRobin { quantum }
            };
            let out = interleave(&s, sched);
            prop_assert_eq!(out.len(), s.len());
            // Per-thread subsequence must equal the original script.
            for (i, orig) in s.per_thread.iter().enumerate() {
                let got: Vec<Access> = out.iter()
                    .filter(|a| a.tid == ThreadId(i as u16))
                    .copied()
                    .collect();
                prop_assert_eq!(&got, orig);
            }
            // Sanity: all writes.
            prop_assert!(out.iter().all(|a| a.kind == AccessKind::Write));
        }
    }
}
