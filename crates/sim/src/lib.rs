//! # predator-sim
//!
//! Cache-modelling substrate for the PREDATOR predictive false-sharing
//! detector (Liu, Tian, Hu, Berger — PPoPP 2014).
//!
//! This crate contains the *pure* (side-effect free, single-threaded) data
//! structures and models that the concurrent detector runtime in
//! `predator-core` is built from:
//!
//! * [`geometry`] — cache-line and word address arithmetic,
//! * [`access`] — the event vocabulary (`ThreadId`, `AccessKind`, `Access`),
//! * [`history`] — the paper's two-entry per-line cache history table and its
//!   invalidation rules (§2.3.1),
//! * [`word`] — word-granularity access tracking used to discriminate false
//!   from true sharing (§2.3.2),
//! * [`vline`] — *virtual cache lines*: contiguous ranges spanning physical
//!   lines, used to predict false sharing under doubled line sizes or shifted
//!   object placement (§3.3, §3.4),
//! * [`mesi`] — a full MESI multi-core coherence simulator used as ground
//!   truth to validate the two-entry-history approximation,
//! * [`interleave`] — the one thread [`Schedule`] and its turn picker
//!   [`Turns`], driven by the script merger and by `predator-instrument`'s
//!   IR interpreter, for exact, reproducible counts in tests.
//!
//! Everything here is deterministic and lock-free by construction, which is
//! what makes the exact-count unit and property tests in this workspace
//! possible.

pub mod access;
pub mod geometry;
pub mod history;
pub mod interleave;
pub mod mesi;
pub mod patterns;
pub mod vline;
pub mod word;

pub use access::{Access, AccessKind, AccessSink, NullSink, ThreadId};
pub use geometry::{CacheGeometry, WORD_SHIFT, WORD_SIZE};
pub use history::{HistoryEntry, HistoryTable};
pub use interleave::{Schedule, Turns};
pub use vline::{VirtualGeometry, VirtualRange};
pub use word::{Owner, WordState, WordTracker};
