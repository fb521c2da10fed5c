//! # predator-core
//!
//! A Rust reproduction of **PREDATOR: Predictive False Sharing Detection**
//! (Tongping Liu, Chen Tian, Ziang Hu, Emery D. Berger — PPoPP 2014).
//!
//! False sharing — distinct objects updated by distinct threads landing on
//! one cache line — can degrade performance by an order of magnitude while
//! being invisible in source code. PREDATOR detects it by counting *cache
//! invalidations* per line with a two-entry history table, discriminates
//! false from true sharing with word-granularity access data, and — its key
//! contribution — **predicts** false sharing that is latent in the current
//! run but would appear with a doubled cache-line size or a shifted object
//! placement, by verifying invalidations on *virtual cache lines*.
//!
//! ## Quick start
//!
//! ```
//! use predator_core::{Callsite, DetectorConfig, Session};
//!
//! let session = Session::new(DetectorConfig::sensitive(), 1 << 20);
//! let t0 = session.register_thread();
//! let t1 = session.register_thread();
//!
//! // Two threads hammer adjacent words of one heap object.
//! let obj = session.malloc(t0, 64, Callsite::here()).unwrap();
//! for _ in 0..300 {
//!     session.write::<u64>(t0, obj.start, 1);
//!     session.write::<u64>(t1, obj.start + 8, 2);
//! }
//!
//! let report = session.report();
//! assert!(report.has_observed_false_sharing());
//! println!("{report}");
//! ```
//!
//! ## Crate layout
//!
//! * [`config`] — thresholds, sampling, prediction switches;
//! * [`runtime`] — the concurrent `HandleAccess` pipeline (paper Figure 1);
//! * [`track`] — per-line detailed tracking (history table + word counters
//!   + sampling window);
//! * [`predict`] — hot-access-pair search and virtual-line verification
//!   (§3.3–3.4);
//! * [`detect`] — false-vs-true sharing classification (§2.3.2);
//! * [`report`] — ranked, source-attributed findings (Figure 5 format):
//!   the data model, built by [`builder`] and printed by [`render`];
//! * [`api`] — [`Session`], bundling simulated memory, the per-thread-heap
//!   allocator, and the detector;
//! * [`adaptive`] — the self-overhead watchdog: calibrated cost model plus
//!   tiered backoff controller driving dynamic sampling (`predator serve`);
//! * [`shutdown`] — the process-wide graceful-shutdown flag set by signal
//!   handlers and polled by long-running loops;
//! * [`registry`], [`stats`] — thread ids and run statistics.

pub mod adaptive;
pub mod api;
pub mod builder;
pub mod config;
pub mod detect;
pub mod fixes;
pub mod lockfree;
pub mod owner;
pub mod predict;
pub mod registry;
pub mod render;
pub mod report;
pub mod runtime;
pub mod shutdown;
pub mod stats;
pub mod track;

pub use adaptive::{
    BackoffAction, BackoffConfig, BackoffController, Decision, SelfCostModel, TickOutcome, Watchdog,
};
pub use api::Session;
pub use builder::{build_report, build_report_with, Attribution, ObjectDirectory};
pub use config::DetectorConfig;
pub use detect::SharingClass;
pub use fixes::{lower_fix, suggest_fixes, FixSuggestion, LayoutEdit};
pub use predict::{HotPair, PredictionUnit, UnitKind, UnitSnapshot};
pub use report::{
    Finding, FindingKind, FixVerdict, GeometryDelta, InvalidationTrace, ObjectReport, Report,
    SiteKind, TimelineOp, TimelineRecord, VerifiedFix, WordReport,
};
pub use runtime::{GlobalInfo, Predator};
pub use stats::RunStats;
pub use track::{CacheTrack, TrackSnapshot};

// Re-export the vocabulary types callers need.
pub use predator_alloc::{Callsite, Frame, ObjectInfo, TrackedHeap};
/// The metric snapshot embedded in every [`Report`] as `obs`.
pub use predator_obs::Snapshot as ObsSnapshot;
pub use predator_sim::{Access, AccessKind, CacheGeometry, ThreadId};
