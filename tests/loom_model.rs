//! Model-checked interleavings for the lock-free tracked-line transitions.
//!
//! The lock-free tracked line rests on one claim: the packed two-entry
//! history table CAS loop is *linearizable* — every concurrent execution is
//! equivalent to some serial order of the same accesses, so no invalidation
//! is ever lost or double-counted. These tests prove that claim for all
//! 2–3-thread interleavings at atomic-op granularity, using the vendored
//! `loom` shim (exhaustive DFS over schedules; see `shims/loom`).
//!
//! The pattern for history transitions is set-equality in both directions:
//! enumerate every serialization of the access multiset with the *pure*
//! transition function, run every schedule of the *atomic* implementation,
//! and require the observed outcome set to equal the enumerated one. ⊆
//! proves linearizability (nothing unserialisable happens); ⊇ proves the
//! scheduler actually explores every order (the test has teeth).
//!
//! **Which instantiation.** The algorithms take a `Mode`; these models run
//! [`Shared`], the one that meets other threads. The owner-thread
//! instantiation (`Exclusive`: load and store on the same cells) is never
//! interleaved by construction — `Predator` panics on a second driver — and
//! is proven against this one and against the sequential model by
//! `tests/differential_modes.rs`.
//!
//! **How much.** By default each model gets [`BUDGET`] schedules depth-first
//! — the whole tree for five of the seven — plus as many sampled ones when
//! the tree is bigger, which bounds tier-1; `PREDATOR_LOOM_EXHAUSTIVE=1`
//! (set by `scripts/ci.sh` and CI) walks every tree to the end. The ⊇
//! direction is asserted only where the walk was exhaustive.

use std::collections::HashSet;
use std::sync::Mutex;

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;

use predator::core::lockfree::{self, batch, crosses_threshold, Offer, RawU64, Shared};
use predator::obs::recorder::{Rec, RecKind, Ring};
use predator::sim::{AccessKind, HistoryTable, ThreadId};

/// The loom-scheduled atomic word: same `RawU64` algorithms as production
/// (`std::sync::atomic::AtomicU64`), different substrate. A newtype because
/// both the trait and loom's atomic live outside this crate.
#[derive(Default)]
struct LoomCell(AtomicU64);

impl RawU64 for LoomCell {
    fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn cas(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
    }

    fn fetch_add(&self, val: u64) -> u64 {
        self.0.fetch_add(val, Ordering::Relaxed)
    }

    fn store(&self, val: u64) {
        self.0.store(val, Ordering::Relaxed)
    }
}

/// Depth-first schedules per model before sampling takes over (the two
/// largest trees hold 15 k and 202 k).
const BUDGET: usize = 2_000;

/// Runs `f` under loom: every schedule when `PREDATOR_LOOM_EXHAUSTIVE` is
/// set, a bounded number otherwise. True when every schedule was run.
fn check(f: impl Fn() + Send + Sync + 'static) -> bool {
    if std::env::var_os("PREDATOR_LOOM_EXHAUSTIVE").is_some_and(|v| v == "1") {
        loom::model(f);
        return true;
    }
    loom::model_bounded(BUDGET, f)
}

type Op = (u16, AccessKind);

/// Every serialization of the per-thread op sequences (program order kept
/// within a thread), folded through the pure `HistoryTable::record`. Returns
/// the set of reachable (final packed table, total invalidations) pairs.
fn enumerate_serial(threads: &[Vec<Op>]) -> HashSet<(u64, u64)> {
    fn rec(
        threads: &[Vec<Op>],
        pos: &mut Vec<usize>,
        bits: u64,
        inv: u64,
        out: &mut HashSet<(u64, u64)>,
    ) {
        let mut done = true;
        for t in 0..threads.len() {
            if pos[t] < threads[t].len() {
                done = false;
                let (tid, kind) = threads[t][pos[t]];
                let mut next = HistoryTable(bits);
                let invalidated = next.record(ThreadId(tid), kind);
                pos[t] += 1;
                rec(threads, pos, next.0, inv + invalidated as u64, out);
                pos[t] -= 1;
            }
        }
        if done {
            out.insert((bits, inv));
        }
    }
    let mut out = HashSet::new();
    rec(
        threads,
        &mut vec![0; threads.len()],
        HistoryTable::new().0,
        0,
        &mut out,
    );
    out
}

/// Runs the same op sequences through the atomic CAS implementation under
/// loom; returns the observed (final table, Σ invalidations) set and whether
/// every schedule produced it.
fn model_history(threads: Vec<Vec<Op>>) -> (HashSet<(u64, u64)>, bool) {
    let observed: std::sync::Arc<Mutex<HashSet<(u64, u64)>>> =
        std::sync::Arc::new(Mutex::new(HashSet::new()));
    let obs = std::sync::Arc::clone(&observed);
    let exhaustive = check(move || {
        let hist = Arc::new(LoomCell::default());
        let handles: Vec<_> = threads
            .iter()
            .map(|ops| {
                let hist = Arc::clone(&hist);
                let ops = ops.clone();
                loom::thread::spawn(move || {
                    let mut inv = 0u64;
                    for (tid, kind) in ops {
                        inv +=
                            lockfree::record_history(Shared, &*hist, ThreadId(tid), kind).1 as u64;
                    }
                    inv
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        obs.lock().unwrap().insert((hist.load(), total));
    });
    let observed = std::sync::Arc::try_unwrap(observed).unwrap();
    (observed.into_inner().unwrap(), exhaustive)
}

fn assert_history_linearizable(threads: Vec<Vec<Op>>) {
    let serial = enumerate_serial(&threads);
    let (modeled, exhaustive) = model_history(threads.clone());
    assert!(
        modeled.is_subset(&serial),
        "atomic history reached unserializable outcomes for {threads:?}: {:?}",
        modeled.difference(&serial)
    );
    assert!(
        !exhaustive || modeled == serial,
        "every schedule ran, yet some serializable outcome of {threads:?} was never reached"
    );
}

const W: AccessKind = AccessKind::Write;
const R: AccessKind = AccessKind::Read;

/// Three single-write threads: every serialization invalidates exactly
/// twice (writes 2 and 3 always hit a remote-owned table), so any lost CAS
/// update shows up as an unreachable count.
#[test]
fn three_writers_never_lose_invalidations() {
    assert_history_linearizable(vec![vec![(0, W)], vec![(1, W)], vec![(2, W)]]);
}

/// Two threads, two writes each — outcome depends on the interleaving
/// (alternating orders invalidate 3×, blocked orders 1×); the atomic
/// implementation must cover that whole spectrum and nothing else.
#[test]
fn two_writers_two_writes_each_match_serializations() {
    assert_history_linearizable(vec![vec![(0, W), (0, W)], vec![(1, W), (1, W)]]);
}

/// The §2.3.1 read path: reads fill the second history slot (for a remote
/// thread) and never invalidate, but they arm the table so a later write
/// does. Mixed read/write program orders across three threads.
#[test]
fn readers_arm_the_table_in_every_order() {
    assert_history_linearizable(vec![vec![(0, W)], vec![(1, R), (1, W)], vec![(2, R)]]);
}

/// The history push itself: a redundant access (same thread, same kind
/// already owning the table) must be a no-op in every schedule — the CAS
/// fast path may not corrupt a concurrent writer's update.
#[test]
fn redundant_accesses_commute() {
    assert_history_linearizable(vec![vec![(0, W), (0, W), (0, W)], vec![(1, W)]]);
}

/// Threshold promotion edge: concurrent relaxed `fetch_add`s with
/// `crosses_threshold` on the returned previous value. fetch_add hands each
/// thread a distinct `prev`, so exactly ⌊total/T⌋ crossings fire — no
/// schedule may double-fire or drop a promotion.
#[test]
fn promotion_edge_fires_exactly_once_per_multiple() {
    // 2 threads × 2 increments, threshold 2 → exactly 2 crossings (at 2, 4).
    check(|| {
        let counter = Arc::new(LoomCell::default());
        let crossings = Arc::new(LoomCell::default());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let crossings = Arc::clone(&crossings);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        let prev = counter.fetch_add(1);
                        if crosses_threshold(prev, 1, 2) {
                            crossings.fetch_add(1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            crossings.load(),
            2,
            "threshold 2 over 4 writes fires exactly twice"
        );
    });
}

/// Batch slot conservation: under every interleaving of two threads
/// offering accesses into one slot (plus the final drain), each access is
/// counted exactly once — either inside a displaced batch handed to a
/// claimer, or as the claimer's own direct apply, or in the leftover batch.
#[test]
fn batch_displacement_conserves_every_access() {
    check(|| {
        let slot = Arc::new(LoomCell::default());
        let applied = Arc::new(LoomCell::default()); // reads<<32 | writes
        let tally = |b: u64| (batch::reads(b) << 32) | batch::writes(b);
        let handles: Vec<_> = (0..2u16)
            .map(|t| {
                let slot = Arc::clone(&slot);
                let applied = Arc::clone(&applied);
                loom::thread::spawn(move || {
                    for kind in [W, R] {
                        match lockfree::offer_batch(Shared, &*slot, t, 0, kind == W, u64::MAX) {
                            Offer::Deferred => {}
                            Offer::Claimed { displaced } => {
                                let own = if kind == W { 1 } else { 1 << 32 };
                                applied.fetch_add(tally(displaced) + own);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let leftover = lockfree::take_batch(Shared, &*slot);
        let total = applied.load() + tally(leftover);
        assert_eq!(total >> 32, 2, "both reads accounted exactly once");
        assert_eq!(total & 0xffff_ffff, 2, "both writes accounted exactly once");
    });
}

/// Publish-once: the CAS pattern used by `TrackSlots`/`UnitList` to install
/// a line — exactly one of two racing publishers wins in every schedule,
/// and the loser observes the winner's value.
#[test]
fn publish_once_has_a_single_winner() {
    check(|| {
        let slot = Arc::new(LoomCell::default());
        let handles: Vec<_> = (1..=2u64)
            .map(|v| {
                let slot = Arc::clone(&slot);
                loom::thread::spawn(move || slot.cas(0, v).is_ok())
            })
            .collect();
        let won: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            won.iter().filter(|&&w| w).count(),
            1,
            "exactly one publisher wins"
        );
        let published = slot.load();
        assert!(
            published == 1 || published == 2,
            "losers leave the winner's value intact"
        );
    });
}

/// The loom cell as a flight-recorder ring's lock word sees it: a failed
/// compare-exchange is a spin-wait's miss, so it yields (the shim parks the
/// thread until the word changes). The ring issues no other compare-exchange.
#[derive(Default)]
struct SpinCell(LoomCell);

impl RawU64 for SpinCell {
    fn load(&self) -> u64 {
        self.0.load()
    }

    fn cas(&self, current: u64, new: u64) -> Result<u64, u64> {
        let res = self.0.cas(current, new);
        if res.is_err() {
            loom::thread::yield_now();
        }
        res
    }

    fn fetch_add(&self, val: u64) -> u64 {
        self.0.fetch_add(val)
    }

    fn store(&self, val: u64) {
        self.0.store(val)
    }
}

/// A shared detector's flight-recorder ring: two threads push one record
/// each into a ring of depth 1 (the second evicts the first) while a third
/// reads it. The ring's lock word comes before the clock, so every record
/// the reader sees is whole — the seq, thread and word of one push — and
/// the ring ends up holding the push with the later timestamp.
#[test]
fn ring_records_stay_whole_under_concurrent_pushes() {
    check(|| {
        let ring = Arc::new(Ring::<SpinCell>::new(0, 1));
        let clock = Arc::new(SpinCell::default());
        let pushers: Vec<_> = (0..2u16)
            .map(|t| {
                let (ring, clock) = (Arc::clone(&ring), Arc::clone(&clock));
                loom::thread::spawn(move || {
                    let seq = ring.push(Shared, &*clock, t, 10 + t as u8, &[RecKind::Write]);
                    (seq, t)
                })
            })
            .collect();
        let seen = ring.records(Shared);
        let pushed: Vec<(u64, u16)> = pushers.into_iter().map(|h| h.join().unwrap()).collect();
        let whole = |r: &Rec| {
            r.kind == RecKind::Write
                && r.word == 10 + r.tid as u8
                && pushed.contains(&(r.seq, r.tid))
        };
        assert!(
            seen.len() <= 1 && seen.iter().all(whole),
            "read {seen:?} of {pushed:?}"
        );
        let last = pushed.iter().max().unwrap();
        let kept = ring.records(Shared);
        assert_eq!(kept.len(), 1);
        assert!(whole(&kept[0]) && (kept[0].seq, kept[0].tid) == *last);
        assert_eq!(ring.counts(Shared), (2, 1));
    });
}
