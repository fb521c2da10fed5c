//! Shared workload infrastructure: the [`Body`] every workload writes once,
//! the two [`Mem`]s it runs against — `Tracked` and [`Native`] — with one
//! scheduler each, and deterministic input generation.

use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use predator_core::{Callsite, Session, ThreadId};
use predator_shadow::Scalar;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Expectation, Suite, WorkloadConfig};

/// The callsite of an allocation the modelled program gives no source line
/// of its own: `file:line` in the workload's source, as
/// `Callsite::here()` would capture it. The line is a fixed label, not the
/// macro's position: recordings carry every callsite in their metadata and
/// `tests/trace_pipeline.rs` pins those bytes.
macro_rules! site {
    ($line:literal) => {
        predator_core::Callsite::from_frames(vec![predator_core::Frame::new(file!(), $line)])
    };
}
pub(crate) use site;

/// Memory a workload runs against. Setup (`&mut self`) allocates and fills
/// inputs; steps (`&self`) make the accesses under study. Every access names
/// the logical thread that makes it.
pub trait Mem {
    /// Registers a logical thread and returns its id.
    fn register_thread(&mut self) -> ThreadId;
    /// Allocates `size` bytes for `tid` and returns the start address.
    fn malloc(&mut self, tid: ThreadId, size: u64, site: Callsite) -> u64;
    /// Allocates a named global variable and returns its address.
    fn global(&mut self, name: &str, size: u64) -> u64;
    /// Stores input data the detector never sees (initialisation code the
    /// instrumentation skips).
    fn init<T: Scalar>(&mut self, addr: u64, value: T);
    /// Load.
    fn read<T: Scalar>(&self, tid: ThreadId, addr: u64) -> T;
    /// Store.
    fn write<T: Scalar>(&self, tid: ThreadId, addr: u64, value: T);
    /// Atomic `+= delta` on a word, returning the old value.
    fn fetch_add(&self, tid: ThreadId, addr: u64, delta: u64) -> u64;
    /// Atomic compare-exchange on a word (a lock acquisition attempt).
    fn compare_exchange(
        &self,
        tid: ThreadId,
        addr: u64,
        current: u64,
        new: u64,
    ) -> Result<u64, u64>;
}

/// One phase of a workload: an index count and who steps through it.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Every logical thread steps through every index.
    Each(u64),
    /// Index `i` belongs to logical thread `i % threads` alone.
    Split(u64),
    /// The program's main thread steps through every index, between the
    /// workers' phases. The step is called with `t = 0`.
    Main(u64),
}

/// Where a step runs: phase index, logical thread, index within the phase.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// Index into [`Body::phases`].
    pub phase: usize,
    /// Logical thread, `0..threads`.
    pub t: usize,
    /// Index within the phase.
    pub i: u64,
}

/// A workload's program, written once and run by both schedulers.
///
/// `setup` makes the allocations (with their callsites), globals, thread
/// registrations and input writes; `phases` lists what runs after it,
/// `rounds` times over; `step` is one logical thread's work at one index.
/// Both are generic over [`Mem`], so the tracked and the native run issue the
/// same accesses by construction.
pub trait Body: Sync {
    /// Short name (matches the paper's tables).
    const NAME: &'static str;
    /// Which suite the workload belongs to.
    const SUITE: Suite;
    /// Ground-truth expectation for the broken variant.
    const EXPECTATION: Expectation;
    /// What `setup` hands every step: addresses, thread ids, inputs.
    type State: Sync;

    /// Allocates and fills the workload's memory.
    fn setup<M: Mem>(&self, m: &mut M, cfg: &WorkloadConfig) -> Self::State;

    /// The phases one round runs, in order.
    fn phases(&self, cfg: &WorkloadConfig) -> Vec<Phase>;

    /// How many times the phases run.
    fn rounds(&self, _cfg: &WorkloadConfig) -> u64 {
        1
    }

    /// One step. `rng` is logical thread `at.t`'s own stream
    /// ([`thread_rng`]). Returning `false` ends a [`Phase::Each`]: for
    /// every thread in a tracked run, for the calling one in a native run.
    /// Implementations are `#[inline(always)]`: a step is the body of both
    /// schedulers' loops, and a call per step would triple a native run's
    /// time.
    fn step<M: Mem>(&self, m: &M, s: &Self::State, rng: &mut SmallRng, at: At) -> bool;

    /// Bytes past a line boundary at which the native run places objects.
    fn native_offset(&self, _cfg: &WorkloadConfig) -> u64 {
        0
    }
}

/// The tracked [`Mem`]: every call is the [`Session`] call of the same name.
struct Tracked<'s>(&'s Session);

impl Mem for Tracked<'_> {
    fn register_thread(&mut self) -> ThreadId {
        self.0.register_thread()
    }

    fn malloc(&mut self, tid: ThreadId, size: u64, site: Callsite) -> u64 {
        self.0
            .malloc(tid, size, site)
            .expect("simulated heap exhausted")
            .start
    }

    fn global(&mut self, name: &str, size: u64) -> u64 {
        self.0.global(name, size)
    }

    fn init<T: Scalar>(&mut self, addr: u64, value: T) {
        self.0.write_untracked(addr, value)
    }

    fn read<T: Scalar>(&self, tid: ThreadId, addr: u64) -> T {
        self.0.read(tid, addr)
    }

    fn write<T: Scalar>(&self, tid: ThreadId, addr: u64, value: T) {
        self.0.write(tid, addr, value)
    }

    fn fetch_add(&self, tid: ThreadId, addr: u64, delta: u64) -> u64 {
        self.0.fetch_add(tid, addr, delta)
    }

    fn compare_exchange(
        &self,
        tid: ThreadId,
        addr: u64,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.0.compare_exchange(tid, addr, current, new)
    }
}

/// Runs `b` inside `s`.
///
/// The schedule: every logical thread runs on the calling OS thread, one
/// step per turn, `predator_sim::Schedule::RoundRobin { quantum: 1 }` (a
/// loop of its own, not `predator_sim::Turns`: it is every live run's hot
/// path). For each index of a [`Phase::Each`], threads `0, 1, …` take one
/// step each, in order; a [`Phase::Split`] index goes to thread
/// `i % threads` alone, a [`Phase::Main`] one to the main thread.
/// Runs are deterministic — one configuration, one access stream — and the
/// interleaving is the finest the workloads can express. §3.3 assumes that
/// interleaving for *prediction*; *detection* (§2) counts what the run did,
/// so observed invalidation counts depend on it: give each thread several
/// consecutive steps per turn and they fall.
pub fn run_tracked<B: Body>(b: &B, s: &Session, cfg: &WorkloadConfig) {
    let mut m = Tracked(s);
    let st = b.setup(&mut m, cfg);
    let mut rngs: Vec<SmallRng> = (0..cfg.threads).map(|t| thread_rng(cfg.seed, t)).collect();
    let phases = b.phases(cfg);
    for _ in 0..b.rounds(cfg) {
        for (phase, &p) in phases.iter().enumerate() {
            let (Phase::Each(n) | Phase::Split(n) | Phase::Main(n)) = p;
            'phase: for i in 0..n {
                let turns = match p {
                    Phase::Each(_) => 0..cfg.threads,
                    Phase::Split(_) => {
                        let t = i as usize % cfg.threads;
                        t..t + 1
                    }
                    Phase::Main(_) => 0..1,
                };
                for t in turns {
                    if !b.step(&m, &st, &mut rngs[t], At { phase, t, i }) {
                        break 'phase;
                    }
                }
            }
        }
    }
}

/// One cache line of the native arena.
#[repr(align(64))]
#[derive(Default)]
struct Line([AtomicU64; 8]);

/// A narrow atomic inside `word`, at byte offset `addr % 8`.
macro_rules! narrow {
    ($atomic:ty, $word:expr, $addr:expr) => {{
        let at = $addr as usize % 8;
        assert!(
            at.is_multiple_of(size_of::<$atomic>()),
            "unaligned access at {}",
            $addr
        );
        // SAFETY: the pointer is derived from `$word`, and the `$atomic` at
        // the aligned offset `at` lies inside it. The arena's bytes are only
        // ever accessed through atomics.
        unsafe { <$atomic>::from_ptr($word.as_ptr().cast::<u8>().add(at).cast()) }
    }};
}

/// The native [`Mem`]: an arena of relaxed atomics, addressed by byte
/// offset, with a bump allocator that starts every object on a fresh cache
/// line plus the run's offset (Figure 2's misplaced `lreg_args`, zero
/// otherwise) — no two objects share a line, as under the isolating
/// allocator. Relaxed loads and stores compile to plain `mov`s on x86-64,
/// so racy patterns stay defined behaviour and the coherence traffic is the
/// experiment's. A narrow access goes through the word that holds it; no
/// byte is accessed at two widths, because every workload object is
/// accessed at one width only. Relaxed is enough: no workload publishes
/// data to another thread through the arena except across a phase barrier.
/// Thread ids and callsites are dropped.
pub struct Native {
    lines: Vec<Line>,
    offset: u64,
    next: u64,
    threads: u16,
    objects: Vec<u64>,
}

impl Native {
    /// An empty arena placing objects `offset` bytes past a line boundary.
    pub fn new(offset: u64) -> Self {
        assert!(offset < 64 && offset.is_multiple_of(8), "offset {offset}");
        Native {
            lines: Vec::new(),
            offset,
            next: 0,
            threads: 0,
            objects: Vec::new(),
        }
    }

    /// The address in memory of every object placed so far.
    pub fn placements(&self) -> Vec<u64> {
        let base = self.lines.as_ptr() as u64;
        self.objects.iter().map(|&a| base + a).collect()
    }

    fn word(&self, addr: u64) -> &AtomicU64 {
        let a = addr as usize;
        &self.lines[a / 64].0[a % 64 / 8]
    }
}

impl Mem for Native {
    fn register_thread(&mut self) -> ThreadId {
        self.threads += 1;
        ThreadId(self.threads - 1)
    }

    fn malloc(&mut self, _tid: ThreadId, size: u64, _site: Callsite) -> u64 {
        let start = self.next.next_multiple_of(64) + self.offset;
        self.next = start + size.max(1);
        self.lines
            .resize_with(self.next.div_ceil(64) as usize, Line::default);
        self.objects.push(start);
        start
    }

    fn global(&mut self, _name: &str, size: u64) -> u64 {
        self.malloc(ThreadId::MAIN, size, Callsite::unknown())
    }

    fn init<T: Scalar>(&mut self, addr: u64, value: T) {
        self.write(ThreadId::MAIN, addr, value)
    }

    fn read<T: Scalar>(&self, _tid: ThreadId, addr: u64) -> T {
        let w = self.word(addr);
        T::from_bits(match T::SIZE {
            1 => narrow!(AtomicU8, w, addr).load(Relaxed) as u64,
            2 => narrow!(AtomicU16, w, addr).load(Relaxed) as u64,
            4 => narrow!(AtomicU32, w, addr).load(Relaxed) as u64,
            _ => w.load(Relaxed),
        })
    }

    fn write<T: Scalar>(&self, _tid: ThreadId, addr: u64, value: T) {
        let (w, bits) = (self.word(addr), value.to_bits());
        match T::SIZE {
            1 => narrow!(AtomicU8, w, addr).store(bits as u8, Relaxed),
            2 => narrow!(AtomicU16, w, addr).store(bits as u16, Relaxed),
            4 => narrow!(AtomicU32, w, addr).store(bits as u32, Relaxed),
            _ => w.store(bits, Relaxed),
        }
    }

    fn fetch_add(&self, _tid: ThreadId, addr: u64, delta: u64) -> u64 {
        self.word(addr).fetch_add(delta, Relaxed)
    }

    fn compare_exchange(
        &self,
        _tid: ThreadId,
        addr: u64,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.word(addr)
            .compare_exchange(current, new, Relaxed, Relaxed)
    }
}

/// Runs `b` natively and returns the wall time of its phases.
///
/// Each logical thread is an OS thread ([`run_threads`]) with its own
/// [`thread_rng`] stream; a barrier ends every phase, so a phase starts
/// when the last thread has finished the one before, as in the tracked run.
/// Setup is not timed.
pub fn run_native<B: Body>(b: &B, cfg: &WorkloadConfig, offset: u64) -> Duration {
    let mut m = Native::new(offset);
    let st = b.setup(&mut m, cfg);
    let (phases, rounds, threads) = (b.phases(cfg), b.rounds(cfg), cfg.threads);
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    run_threads(threads, |t| {
        let mut rng = thread_rng(cfg.seed, t);
        for _ in 0..rounds {
            for (phase, &p) in phases.iter().enumerate() {
                let (mut i, by, n) = match p {
                    Phase::Each(n) => (0, 1, n),
                    Phase::Split(n) => (t as u64, threads as u64, n),
                    Phase::Main(n) => (0, 1, if t == 0 { n } else { 0 }),
                };
                while i < n && b.step(&m, &st, &mut rng, At { phase, t, i }) {
                    i += by;
                }
                barrier.wait();
            }
        }
    });
    start.elapsed()
}

/// Runs `f(0..n)` on `n` scoped threads and waits for all of them.
pub fn run_threads<F: Fn(usize) + Sync>(n: usize, f: F) {
    std::thread::scope(|s| {
        for t in 0..n {
            let f = &f;
            s.spawn(move || f(t));
        }
    });
}

/// Deterministic per-thread RNG: same (seed, thread) → same stream.
pub fn thread_rng(seed: u64, thread: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ ((thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Generates `n` deterministic pseudo-random `(x, y)` i64 point pairs in
/// a small range (the linear_regression / kmeans input shape).
pub fn gen_points(seed: u64, n: usize) -> Vec<(i64, i64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0..256), rng.gen_range(0..256)))
        .collect()
}

/// Generates deterministic lowercase "words" of 3–8 chars (word_count /
/// reverse_index input shape).
pub fn gen_words(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(3..=8);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_arena_keeps_each_width() {
        let mut m = Native::new(0);
        let a = m.malloc(ThreadId(0), 16, Callsite::unknown());
        m.init::<u64>(a, 7);
        let w = m.read::<u64>(ThreadId(0), a) + 5;
        m.write::<u64>(ThreadId(0), a, w);
        assert_eq!(m.read::<u64>(ThreadId(0), a), 12);
        for (k, b) in [3u8, 1, 4].into_iter().enumerate() {
            m.write::<u8>(ThreadId(1), a + 9 + k as u64, b);
        }
        assert_eq!(m.read::<u8>(ThreadId(1), a + 10), 1);
        assert_eq!(m.read::<u16>(ThreadId(1), a + 12), 0);
        assert_eq!(m.fetch_add(ThreadId(0), a, 1), 12);
        assert_eq!(m.compare_exchange(ThreadId(0), a, 13, 0), Ok(13));
    }

    #[test]
    fn native_objects_start_on_their_own_line_plus_offset() {
        for offset in [0u64, 8, 24, 56] {
            let mut m = Native::new(offset);
            for size in [1u64, 24, 64, 65, 4096] {
                m.malloc(ThreadId(0), size, Callsite::unknown());
            }
            let lines: Vec<u64> = m.placements().iter().map(|a| a / 64).collect();
            assert!(
                m.placements().iter().all(|a| a % 64 == offset),
                "offset {offset}"
            );
            assert!(lines.windows(2).all(|w| w[0] < w[1]), "one line each");
        }
    }

    #[test]
    fn run_threads_runs_each_index_once() {
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        run_threads(8, |t| {
            hits[t].fetch_add(1, Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Relaxed) == 1));
    }

    #[test]
    fn deterministic_inputs() {
        assert_eq!(gen_points(1, 10), gen_points(1, 10));
        assert_ne!(gen_points(1, 10), gen_points(2, 10));
        assert_eq!(gen_words(1, 10), gen_words(1, 10));
        assert!(gen_words(1, 100).iter().all(|w| (3..=8).contains(&w.len())));
        let mut a = thread_rng(1, 0);
        let mut b = thread_rng(1, 0);
        let mut c = thread_rng(1, 1);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let _ = c.gen::<u64>();
    }
}
