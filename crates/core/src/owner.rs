//! Who drives a detector: the thread that owns it, or anyone.
//!
//! A detector is born owned by the thread that built it. Its owner updates
//! it with plain loads and stores ([`predator_shadow::mode::Exclusive`]);
//! once [shared](Owner::share) every thread updates it with hardware RMWs;
//! and a thread that is neither panics at the entry point, so the cheap
//! path cannot lose an update to a thread nobody declared. Resolving that
//! costs one thread-local load and one compare per call.
//!
//! The recording sink (`predator_trace::TraceSink`) keeps the same rule
//! with the same [`Owner`]: its owner appends without a lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// [`Owner`] of a detector every thread may drive.
const SHARED: u64 = u64::MAX;

thread_local! {
    /// This thread's token: 0 until it first builds or claims a detector,
    /// which no `Owner` ever holds — a thread that never did either is
    /// nobody's owner without a check for it.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// The next token. Never reused, so a detector that outlives its owner
/// thread cannot be mistaken for a later thread's.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn my_token() -> u64 {
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TOKEN.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The owner field of a detector. Changed only through `&mut`, which is the
/// proof that no other thread is inside the detector while it changes hands.
#[derive(Debug)]
pub struct Owner(u64);

impl Owner {
    /// Owned by the calling thread.
    pub fn me() -> Self {
        Owner(my_token())
    }

    /// Re-homes to the calling thread; a shared detector stays shared.
    pub fn claim(&mut self) {
        if self.0 != SHARED {
            self.0 = my_token();
        }
    }

    /// Lets every thread drive the detector, for good.
    pub fn share(&mut self) {
        self.0 = SHARED;
    }

    /// True when the calling thread owns the detector and may update it with
    /// loads and stores, false when the detector is shared.
    ///
    /// # Panics
    /// When another thread owns the detector.
    #[inline]
    pub fn exclusive(&self) -> bool {
        if self.0 == TOKEN.with(Cell::get) {
            true
        } else if self.0 == SHARED {
            false
        } else {
            foreign_driver()
        }
    }
}

#[cold]
#[inline(never)]
fn foreign_driver() -> ! {
    panic!(
        "a detector owned by one thread was driven from another: `claim()` it on the thread it \
         moved to, or build it with `into_shared()` if several threads drive it"
    )
}
