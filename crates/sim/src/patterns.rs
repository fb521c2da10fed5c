//! Synthetic access-pattern generators.
//!
//! Canonical sharing shapes as reusable trace generators — the vocabulary
//! the false-sharing literature (and this workspace's tests and benches)
//! keeps reaching for:
//!
//! * [`Pattern::PingPong`] — distinct threads hammering distinct words of
//!   one line: textbook false sharing;
//! * [`Pattern::TrueShare`] — every thread hammering the *same* word: true
//!   sharing, the false-positive bait;
//! * [`Pattern::Striped`] — per-thread regions at a stride: false sharing
//!   iff the stride packs several threads into a line;
//! * [`Pattern::ReaderWriter`] — one writer, many readers of a neighboring
//!   word: read-write false sharing (invisible to write-only detectors);
//! * [`Pattern::RandomMix`] — seeded uniform traffic for robustness tests.
//!
//! Generators produce per-thread [`Script`]s; combine with
//! [`crate::interleave`] to pick the adversarial or any other schedule.

use rand::Rng;

use crate::access::{Access, AccessKind, ThreadId};
use crate::geometry::WORD_SIZE;
use crate::interleave::Script;

/// A canonical synthetic sharing pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// `threads` threads each write their own word of the line at `base`.
    PingPong {
        /// Number of threads (≤ words per line for distinct words).
        threads: usize,
        /// Line-aligned base address.
        base: u64,
    },
    /// `threads` threads all write the word at `addr`.
    TrueShare {
        /// Number of threads.
        threads: usize,
        /// The contended word.
        addr: u64,
    },
    /// Thread `t` writes the word at `base + t * stride`.
    Striped {
        /// Number of threads.
        threads: usize,
        /// Base address.
        base: u64,
        /// Per-thread stride in bytes (≥ line size ⇒ clean).
        stride: u64,
    },
    /// Thread 0 writes `base`; threads 1.. read `base + WORD_SIZE`.
    ReaderWriter {
        /// Total threads (1 writer + N−1 readers).
        threads: usize,
        /// The written word; readers touch the next word.
        base: u64,
    },
    /// Seeded uniform traffic over `lines` lines from `base`.
    RandomMix {
        /// Number of threads.
        threads: usize,
        /// Base address.
        base: u64,
        /// Lines covered.
        lines: u64,
        /// Probability numerator (out of 100) that an access is a write.
        write_pct: u8,
        /// RNG seed.
        seed: u64,
    },
}

/// Generates `per_thread` accesses for each thread under `pattern`.
pub fn generate(pattern: Pattern, per_thread: usize) -> Script {
    match pattern {
        Pattern::PingPong { threads, base } => {
            let mut s = Script::new(threads);
            for t in 0..threads {
                let addr = base + (t as u64) * WORD_SIZE;
                for _ in 0..per_thread {
                    s.push(t, Access::write(ThreadId(t as u16), addr, 8));
                }
            }
            s
        }
        Pattern::TrueShare { threads, addr } => {
            let mut s = Script::new(threads);
            for t in 0..threads {
                for _ in 0..per_thread {
                    s.push(t, Access::write(ThreadId(t as u16), addr, 8));
                }
            }
            s
        }
        Pattern::Striped {
            threads,
            base,
            stride,
        } => {
            let mut s = Script::new(threads);
            for t in 0..threads {
                let addr = base + (t as u64) * stride;
                for _ in 0..per_thread {
                    s.push(t, Access::write(ThreadId(t as u16), addr, 8));
                }
            }
            s
        }
        Pattern::ReaderWriter { threads, base } => {
            let mut s = Script::new(threads);
            for _ in 0..per_thread {
                s.push(0, Access::write(ThreadId(0), base, 8));
            }
            for t in 1..threads {
                for _ in 0..per_thread {
                    s.push(t, Access::read(ThreadId(t as u16), base + WORD_SIZE, 8));
                }
            }
            s
        }
        Pattern::RandomMix {
            threads,
            base,
            lines,
            write_pct,
            seed,
        } => {
            let mut s = Script::new(threads);
            for t in 0..threads {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(
                    seed ^ ((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                for _ in 0..per_thread {
                    let line = rng.gen_range(0..lines);
                    let word = rng.gen_range(0..8u64);
                    let addr = base + line * 64 + word * 8;
                    let kind = if rng.gen_range(0..100u8) < write_pct {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    s.push(
                        t,
                        Access {
                            tid: ThreadId(t as u16),
                            addr,
                            size: 8,
                            kind,
                        },
                    );
                }
            }
            s
        }
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{interleave, Schedule};

    const BASE: u64 = 0x4000_0000;

    #[test]
    fn ping_pong_targets_distinct_words_of_one_line() {
        let s = generate(
            Pattern::PingPong {
                threads: 4,
                base: BASE,
            },
            10,
        );
        assert_eq!(s.len(), 40);
        for (t, ops) in s.per_thread.iter().enumerate() {
            assert!(ops.iter().all(|a| a.addr == BASE + t as u64 * 8));
            assert!(ops.iter().all(|a| a.kind == AccessKind::Write));
            assert!(ops.iter().all(|a| a.addr >> 6 == BASE >> 6), "same line");
        }
    }

    #[test]
    fn true_share_targets_one_word() {
        let s = generate(
            Pattern::TrueShare {
                threads: 3,
                addr: BASE + 8,
            },
            5,
        );
        let merged = interleave(&s, Schedule::RoundRobin { quantum: 1 });
        assert!(merged.iter().all(|a| a.addr == BASE + 8));
    }

    #[test]
    fn striped_with_line_stride_is_line_disjoint() {
        let s = generate(
            Pattern::Striped {
                threads: 4,
                base: BASE,
                stride: 64,
            },
            5,
        );
        let mut lines: Vec<u64> = s.per_thread.iter().map(|ops| ops[0].addr >> 6).collect();
        lines.dedup();
        assert_eq!(lines.len(), 4, "each thread on its own line");
    }

    #[test]
    fn reader_writer_mixes_kinds() {
        let s = generate(
            Pattern::ReaderWriter {
                threads: 3,
                base: BASE,
            },
            4,
        );
        assert!(s.per_thread[0].iter().all(|a| a.kind == AccessKind::Write));
        assert!(s.per_thread[1].iter().all(|a| a.kind == AccessKind::Read));
        assert_eq!(s.per_thread[1][0].addr, BASE + 8);
    }

    #[test]
    fn random_mix_is_deterministic_and_in_range() {
        let p = Pattern::RandomMix {
            threads: 2,
            base: BASE,
            lines: 4,
            write_pct: 50,
            seed: 9,
        };
        let a = generate(p, 100);
        let b = generate(p, 100);
        for t in 0..2 {
            assert_eq!(a.per_thread[t], b.per_thread[t]);
            for acc in &a.per_thread[t] {
                assert!(acc.addr >= BASE && acc.addr < BASE + 4 * 64);
            }
        }
        let writes = a
            .per_thread
            .iter()
            .flatten()
            .filter(|x| x.kind == AccessKind::Write)
            .count();
        assert!(writes > 50 && writes < 150, "~50%: {writes}");
    }
}
