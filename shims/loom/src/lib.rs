//! Vendored stand-in for the `loom` model checker (offline builds; see
//! `shims/README.md`).
//!
//! [`model`] runs a closure under **every** thread interleaving at
//! atomic-operation granularity: the spawned threads are real OS threads,
//! but a token scheduler lets exactly one run at a time and inserts a
//! scheduling decision immediately before every atomic operation (and at
//! spawn starts, joins, and thread exits). Exploration is depth-first over
//! the decision tree with choice-vector replay: execution *n* replays a
//! recorded prefix of decisions and takes the first untried branch at its
//! deepest branching point, so the whole tree is visited exactly once and
//! every execution is deterministic.
//!
//! ## Fidelity
//!
//! Unlike real loom this shim models **sequential consistency**: memory
//! orderings are accepted and passed through to the underlying `std`
//! atomics, but no weak-memory reorderings are explored. Interleaving bugs
//! — lost updates, racy check-then-act windows, missed wakeups, broken CAS
//! retry loops — are found exhaustively; `Relaxed`-vs-`Acquire` mistakes
//! are not. That is the right trade for this workspace: the lock-free
//! structures under test carry their own ordering arguments in
//! `DESIGN.md`, and what wants machine-checking is the transition logic.
//!
//! A panic on any model thread aborts the current execution, and [`model`]
//! re-raises it annotated (on stderr) with the decision prefix that
//! reproduces the failing schedule.
//!
//! ## Spin-waits
//!
//! [`thread::yield_now`] parks the caller until another thread modifies the
//! atomic the caller last touched: a spin loop that yields after each
//! failed attempt is explored as a wait for that cell to change, not as an
//! unbounded run of retries (under sequential consistency a retry before
//! then fails again, and a failed attempt changes nothing).

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Hard cap on explored executions; hitting it means the modelled test is
/// too big (shrink the thread count or ops per thread), not that the shim
/// should silently stop short of exhaustiveness.
const MAX_EXECUTIONS: usize = 250_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    /// Has work to do; a scheduling candidate.
    Active,
    /// Waiting inside `join` for the given thread to finish.
    Joining(usize),
    Done,
}

struct State {
    threads: Vec<Run>,
    /// Per thread: the address of the atomic it touched last.
    last: Vec<usize>,
    /// Per thread: the atomic it is parked on by `yield_now`, if any.
    parked: Vec<Option<usize>>,
    /// Which thread currently holds the run token.
    current: usize,
    /// Decisions taken so far this execution, as (chosen index, #candidates).
    decisions: Vec<(usize, usize)>,
    /// Replay prefix: decision indices to take before exploring fresh ones.
    prefix: Vec<usize>,
    /// Fresh decisions take candidate 0 when this is 0 (depth-first), else
    /// a pseudo-random candidate drawn from this xorshift state (sampling).
    rng: u64,
    failed: bool,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Scheduler {
    st: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    /// (scheduler, my thread id) for threads managed by an active model run.
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// A scheduling decision point. No-op outside [`model`], so the shim's
/// atomic wrappers behave as plain atomics in ordinary code.
pub(crate) fn sched_point() {
    if let Some((sched, me)) = ctx() {
        sched.yield_at(me);
    }
}

/// The decision point before an operation on the atomic at `cell`.
pub(crate) fn sched_at(cell: usize) {
    if let Some((sched, me)) = ctx() {
        sched.st.lock().unwrap().last[me] = cell;
        sched.yield_at(me);
    }
}

/// After a modification of the atomic at `cell`: threads parked on it may
/// run again.
pub(crate) fn modified(cell: usize) {
    if let Some((sched, _)) = ctx() {
        let mut st = sched.st.lock().unwrap();
        for p in st.parked.iter_mut().filter(|p| **p == Some(cell)) {
            *p = None;
        }
    }
}

impl Scheduler {
    fn new(prefix: Vec<usize>, rng: u64) -> Self {
        Scheduler {
            st: Mutex::new(State {
                threads: vec![Run::Active],
                last: vec![usize::MAX],
                parked: vec![None],
                current: 0,
                decisions: Vec::new(),
                prefix,
                rng,
                failed: false,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Picks the next thread to run among the Active ones (sorted by id, so
    /// replay is deterministic) and records the decision. Lock held.
    fn decide(st: &mut State) -> Option<usize> {
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|&(i, r)| *r == Run::Active && st.parked[i].is_none())
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let k = st.decisions.len();
        let fresh = if st.rng == 0 {
            0
        } else {
            st.rng ^= st.rng << 13;
            st.rng ^= st.rng >> 7;
            st.rng ^= st.rng << 17;
            (st.rng >> 32) as usize % runnable.len()
        };
        let choice = st
            .prefix
            .get(k)
            .copied()
            .unwrap_or(fresh)
            .min(runnable.len() - 1);
        st.decisions.push((choice, runnable.len()));
        Some(runnable[choice])
    }

    fn abort_if_failed(st: &State) {
        if st.failed {
            panic!("loom model execution aborted (another thread failed)");
        }
    }

    /// The decision point before every atomic operation: choose who
    /// performs their next operation, hand over the token if it isn't us,
    /// and block until it comes back.
    fn yield_at(&self, me: usize) {
        let mut st = self.st.lock().unwrap();
        Self::abort_if_failed(&st);
        let Some(next) = Self::decide(&mut st) else {
            st.failed = true;
            self.cv.notify_all();
            panic!("loom model livelock: every running thread waits on a cell nobody changes");
        };
        if next == me {
            return;
        }
        st.current = next;
        self.cv.notify_all();
        while st.current != me {
            st = self.cv.wait(st).unwrap();
            Self::abort_if_failed(&st);
        }
    }

    /// Parks a freshly spawned thread until a decision schedules it.
    fn wait_turn(&self, me: usize) {
        let mut st = self.st.lock().unwrap();
        while st.current != me {
            st = self.cv.wait(st).unwrap();
            Self::abort_if_failed(&st);
        }
    }

    fn register(&self) -> usize {
        let mut st = self.st.lock().unwrap();
        st.threads.push(Run::Active);
        st.last.push(usize::MAX);
        st.parked.push(None);
        st.threads.len() - 1
    }

    /// Parks `me` on the atomic it touched last, then decides.
    fn park(&self, me: usize) {
        {
            let mut st = self.st.lock().unwrap();
            let last = st.last[me];
            st.parked[me] = (last != usize::MAX).then_some(last);
        }
        self.yield_at(me);
    }

    /// Blocks `me` until `target` finishes (model-level join).
    fn join_on(&self, me: usize, target: usize) {
        let mut st = self.st.lock().unwrap();
        Self::abort_if_failed(&st);
        if st.threads[target] == Run::Done {
            return;
        }
        st.threads[me] = Run::Joining(target);
        match Self::decide(&mut st) {
            Some(next) => st.current = next,
            None => {
                st.failed = true;
                self.cv.notify_all();
                panic!("loom model deadlock: every thread is blocked in join");
            }
        }
        self.cv.notify_all();
        while st.current != me {
            st = self.cv.wait(st).unwrap();
            Self::abort_if_failed(&st);
        }
    }

    /// Marks `me` finished, wakes its joiners, and hands the token on.
    fn finish(&self, me: usize) {
        let mut st = self.st.lock().unwrap();
        st.threads[me] = Run::Done;
        for i in 0..st.threads.len() {
            if st.threads[i] == Run::Joining(me) {
                st.threads[i] = Run::Active;
            }
        }
        if let Some(next) = Self::decide(&mut st) {
            st.current = next;
        } else {
            // Everyone done (or everyone blocked — impossible once joiners
            // of `me` were woken, and other joins deadlock in join_on), or
            // the rest are parked on cells nobody is left to change.
            st.current = usize::MAX;
            if st.threads.contains(&Run::Active) && !st.failed {
                st.failed = true;
                st.panic = Some(Box::new(
                    "loom model livelock: the remaining threads wait on cells nobody changes",
                ));
            }
        }
        self.cv.notify_all();
    }

    /// Records the first panic and releases every parked thread; they abort
    /// at their next decision point.
    fn fail(&self, payload: Box<dyn std::any::Any + Send>, me: usize) {
        let mut st = self.st.lock().unwrap();
        st.failed = true;
        if st.panic.is_none() {
            st.panic = Some(payload);
        }
        st.threads[me] = Run::Done;
        self.cv.notify_all();
    }

    /// Controller side: wait until every registered thread is Done.
    fn wait_all(&self) {
        let mut st = self.st.lock().unwrap();
        while !st.threads.iter().all(|r| *r == Run::Done) {
            if st.failed
                && st
                    .threads
                    .iter()
                    .all(|r| matches!(r, Run::Done | Run::Joining(_)))
            {
                // Joiners of a failed run never get woken by finish(); they
                // abort via the failed flag, but belt-and-braces: release.
                self.cv.notify_all();
            }
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// Advances DFS to the next unexplored schedule: bump the deepest decision
/// that still has an untried sibling, drop everything after it.
fn next_prefix(decisions: &[(usize, usize)]) -> Option<Vec<usize>> {
    for k in (0..decisions.len()).rev() {
        let (choice, n) = decisions[k];
        if choice + 1 < n {
            let mut p: Vec<usize> = decisions[..k].iter().map(|&(c, _)| c).collect();
            p.push(choice + 1);
            return Some(p);
        }
    }
    None
}

/// Runs `f` under every interleaving of its threads' atomic operations.
///
/// `f` is re-invoked once per schedule; build all shared state inside it.
/// Panics (assertion failures) on any model thread are re-raised from here
/// after printing the decision prefix of the failing schedule.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        explore(MAX_EXECUTIONS, false, f),
        "loom shim: more than {MAX_EXECUTIONS} schedules; shrink the modelled test"
    );
}

/// [`model`] on a budget: explores depth-first for up to `budget` schedules
/// and returns true if that was the whole tree. A bigger tree gets `budget`
/// more schedules drawn pseudo-randomly (a truncated depth-first walk only
/// ever varies the last few decisions) — the same ones on every run — and
/// the answer false: nothing was found, but not everything was tried.
pub fn model_bounded<F>(budget: usize, f: F) -> bool
where
    F: Fn() + Send + Sync + 'static,
{
    explore(budget, true, f)
}

/// Depth-first over `f`'s schedule tree for up to `budget` executions; true
/// when that exhausted it. Otherwise false, after `budget` sampled
/// executions more if `sample`.
fn explore<F>(budget: usize, sample: bool, f: F) -> bool
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        let sampling = executions > budget;
        // Any odd constant times the index: a distinct non-zero seed each.
        let rng = sampling as u64 * (executions as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sched = Arc::new(Scheduler::new(prefix.clone(), rng));

        let s0 = Arc::clone(&sched);
        let f0 = Arc::clone(&f);
        let root = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&s0), 0)));
            match catch_unwind(AssertUnwindSafe(|| f0())) {
                Ok(()) => s0.finish(0),
                Err(p) => s0.fail(p, 0),
            }
            CTX.with(|c| *c.borrow_mut() = None);
        });

        sched.wait_all();
        root.join().expect("loom root thread wrapper never panics");

        let mut st = sched.st.lock().unwrap();
        if let Some(payload) = st.panic.take() {
            let schedule: Vec<usize> = st.decisions.iter().map(|&(c, _)| c).collect();
            eprintln!("loom shim: schedule {schedule:?} failed after {executions} execution(s)");
            resume_unwind(payload);
        }
        if sampling {
            if executions == 2 * budget {
                return false;
            }
            continue;
        }
        match next_prefix(&st.decisions) {
            Some(_) if executions == budget => {
                if !sample {
                    return false;
                }
                prefix = Vec::new();
            }
            Some(p) => prefix = p,
            None => return true,
        }
    }
}

pub mod thread {
    use super::*;

    /// Model-aware `std::thread::spawn`: the child is a real OS thread, but
    /// it parks until a scheduling decision starts it, and every one of its
    /// atomic operations is a decision point.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sched, _me) = ctx().expect("loom::thread::spawn outside loom::model");
        let id = sched.register();
        let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));

        let r2 = Arc::clone(&result);
        let s2 = Arc::clone(&sched);
        let os = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&s2), id)));
            s2.wait_turn(id);
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(v) => {
                    *r2.lock().unwrap() = Some(Ok(v));
                    s2.finish(id);
                }
                Err(p) => {
                    *r2.lock().unwrap() = Some(Err(Box::new("loom model thread panicked")));
                    s2.fail(p, id);
                }
            }
            CTX.with(|c| *c.borrow_mut() = None);
        });

        JoinHandle {
            id,
            sched,
            result,
            os: Some(os),
        }
    }

    /// Parks the caller until another thread modifies the atomic the
    /// caller touched last (see "Spin-waits" in the crate docs), then is a
    /// decision point.
    pub fn yield_now() {
        if let Some((sched, me)) = ctx() {
            sched.park(me);
        }
    }

    pub struct JoinHandle<T> {
        id: usize,
        sched: Arc<Scheduler>,
        result: Arc<Mutex<Option<std::thread::Result<T>>>>,
        os: Option<std::thread::JoinHandle<()>>,
    }

    impl<T> JoinHandle<T> {
        /// Model-level join: blocks (as a scheduling decision) until the
        /// target thread finishes, then reaps the OS thread.
        pub fn join(mut self) -> std::thread::Result<T> {
            let (sched, me) = ctx().expect("loom JoinHandle::join outside loom::model");
            debug_assert!(Arc::ptr_eq(&sched, &self.sched));
            sched.join_on(me, self.id);
            if let Some(os) = self.os.take() {
                let _ = os.join();
            }
            self.result
                .lock()
                .unwrap()
                .take()
                .expect("joined thread stored its result")
        }
    }
}

pub mod sync {
    pub use std::sync::Arc;

    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        /// Atomics are accepted with their stated orderings but explored
        /// under sequential consistency (see crate docs).
        macro_rules! model_atomic {
            ($name:ident, $std:ty, $int:ty) => {
                #[derive(Debug, Default)]
                pub struct $name(pub(crate) $std);

                impl $name {
                    pub fn new(v: $int) -> Self {
                        Self(<$std>::new(v))
                    }

                    fn cell(&self) -> usize {
                        self as *const Self as usize
                    }

                    pub fn load(&self, order: Ordering) -> $int {
                        crate::sched_at(self.cell());
                        self.0.load(order)
                    }

                    pub fn store(&self, val: $int, order: Ordering) {
                        crate::sched_at(self.cell());
                        self.0.store(val, order);
                        crate::modified(self.cell());
                    }

                    pub fn fetch_add(&self, val: $int, order: Ordering) -> $int {
                        crate::sched_at(self.cell());
                        let prev = self.0.fetch_add(val, order);
                        crate::modified(self.cell());
                        prev
                    }

                    pub fn fetch_or(&self, val: $int, order: Ordering) -> $int {
                        crate::sched_at(self.cell());
                        let prev = self.0.fetch_or(val, order);
                        crate::modified(self.cell());
                        prev
                    }

                    pub fn swap(&self, val: $int, order: Ordering) -> $int {
                        crate::sched_at(self.cell());
                        let prev = self.0.swap(val, order);
                        crate::modified(self.cell());
                        prev
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        crate::sched_at(self.cell());
                        let res = self.0.compare_exchange(current, new, success, failure);
                        if res.is_ok() {
                            crate::modified(self.cell());
                        }
                        res
                    }

                    pub fn compare_exchange_weak(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        // Strong under the shim: spurious failures would
                        // multiply schedules without adding coverage for
                        // the retry loops under test.
                        self.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        model_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        /// A fence is a pure decision point under sequential consistency.
        pub fn fence(order: Ordering) {
            crate::sched_point();
            std::sync::atomic::fence(order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::Arc;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// The canonical lost-update race: two unsynchronised load-then-store
    /// increments. The model must find the interleaving where one update is
    /// lost — i.e. observe final values {1, 2}, not just 2.
    #[test]
    fn finds_lost_update() {
        let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        super::model(move || {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        let v = n.load(Ordering::Relaxed);
                        n.store(v + 1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            seen2.lock().unwrap().insert(n.load(Ordering::Relaxed));
        });
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([1, 2]),
            "exhaustive exploration must hit both the racy and the clean schedule"
        );
    }

    /// A tree inside the budget is walked whole; a bigger one is sampled,
    /// reproducibly, and reported as not exhausted.
    #[test]
    fn a_budget_smaller_than_the_tree_samples_and_says_so() {
        let run = |budget: usize| {
            let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            let whole = super::model_bounded(budget, move || {
                let n = Arc::new(AtomicU64::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let n = Arc::clone(&n);
                        super::thread::spawn(move || {
                            let v = n.load(Ordering::Relaxed);
                            n.store(v + 1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                seen2.lock().unwrap().push(n.load(Ordering::Relaxed));
            });
            let seen = seen.lock().unwrap().clone();
            (whole, seen)
        };
        let (whole, seen) = run(10_000);
        assert!(whole);
        assert_eq!(HashSet::from_iter(seen), HashSet::from([1, 2]));
        let (whole, seen) = run(8);
        assert!(!whole);
        assert_eq!(seen.len(), 16, "the budget again, sampled");
        assert_eq!(run(8).1, seen, "the same schedules on every run");
        assert!(seen[8..].contains(&1), "sampling reaches the racy schedule");
    }

    /// fetch_add is atomic: no schedule may lose an increment.
    #[test]
    fn fetch_add_never_loses() {
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 3);
        });
    }

    /// Exploration is exhaustive over op orders: with two threads doing one
    /// store each of distinct values, both final values are observed.
    #[test]
    fn explores_both_store_orders() {
        let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        super::model(move || {
            let n = Arc::new(AtomicU64::new(0));
            let a = {
                let n = Arc::clone(&n);
                super::thread::spawn(move || n.store(1, Ordering::Relaxed))
            };
            let b = {
                let n = Arc::clone(&n);
                super::thread::spawn(move || n.store(2, Ordering::Relaxed))
            };
            a.join().unwrap();
            b.join().unwrap();
            seen2.lock().unwrap().insert(n.load(Ordering::Relaxed));
        });
        assert_eq!(*seen.lock().unwrap(), HashSet::from([1, 2]));
    }

    /// A spin lock whose failed attempts yield: every schedule terminates,
    /// and the critical sections never overlap.
    #[test]
    fn spin_waits_park_until_the_cell_changes() {
        let finals = Arc::new(Mutex::new(HashSet::new()));
        let f2 = Arc::clone(&finals);
        crate::model(move || {
            let lock = Arc::new(AtomicU64::new(0));
            let count = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, count) = (Arc::clone(&lock), Arc::clone(&count));
                    crate::thread::spawn(move || {
                        while lock
                            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                            .is_err()
                        {
                            crate::thread::yield_now();
                        }
                        let n = count.load(Ordering::Relaxed);
                        count.store(n + 1, Ordering::Relaxed);
                        lock.store(0, Ordering::Release);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            f2.lock().unwrap().insert(count.load(Ordering::Relaxed));
        });
        assert_eq!(*finals.lock().unwrap(), HashSet::from([2]));
    }

    /// A model assertion failure propagates out of model().
    #[test]
    #[should_panic(expected = "deliberate")]
    fn panics_propagate() {
        super::model(|| {
            let h = super::thread::spawn(|| {});
            h.join().unwrap();
            panic!("deliberate");
        });
    }
}
