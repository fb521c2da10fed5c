//! # PREDATOR — predictive false sharing detection
//!
//! A Rust reproduction of *"PREDATOR: Predictive False Sharing Detection"*
//! (Tongping Liu, Chen Tian, Ziang Hu, Emery D. Berger — PPoPP 2014).
//!
//! This umbrella crate re-exports the whole system:
//!
//! * [`core`] — the detector runtime: invalidation tracking
//!   with two-entry history tables, false/true sharing discrimination,
//!   virtual-cache-line **prediction** of latent false sharing, ranked
//!   Figure-5-style reports;
//! * [`sim`] — cache geometry, history tables, virtual lines,
//!   a MESI ground-truth simulator, deterministic interleaving;
//! * [`shadow`] — fixed-base simulated address space and
//!   O(1) shadow metadata;
//! * [`alloc`] — the Hoard-style per-thread-heap allocator
//!   with callsite tracking;
//! * [`instrument`] — a mini-IR with the paper's
//!   selective instrumentation pass, a deterministic multithreaded
//!   interpreter, and trace record/replay;
//! * [`trace`] — the compact binary `.ptrace` trace format
//!   (CRC-framed, delta-encoded, corruption-tolerant) and the offline
//!   analysis pass;
//! * [`workloads`] — the paper's Phoenix / PARSEC /
//!   real-application evaluation workloads;
//! * [`fleet`] — the `.ptrace` corpus store: cross-run merged
//!   reports deduped by stable callsite key, trend/regression deltas
//!   against a baseline corpus, and retention via compaction;
//! * [`policy`] — the policy engine between detection and output:
//!   severity classification behind a pluggable [`policy::Policy`] trait,
//!   per-site suppressions, baseline files, `--fail-on` gating, the
//!   shared comparison engine, and the SARIF/HTML reporters;
//! * [`obs`] — the zero-dependency observability layer: metrics
//!   registry, structured events, snapshot deltas, and the hand-rolled
//!   HTTP telemetry server behind `predator serve`.
//!
//! ## Quick start
//!
//! ```
//! use predator::{Callsite, DetectorConfig, Session};
//!
//! let session = Session::new(DetectorConfig::sensitive(), 1 << 20);
//! let t0 = session.register_thread();
//! let t1 = session.register_thread();
//!
//! let obj = session.malloc(t0, 64, Callsite::here()).unwrap();
//! for _ in 0..300 {
//!     session.write::<u64>(t0, obj.start, 1); // two threads, two words,
//!     session.write::<u64>(t1, obj.start + 8, 2); // one cache line
//! }
//!
//! let report = session.report();
//! assert!(report.has_observed_false_sharing());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

pub use predator_alloc as alloc;
pub use predator_core as core;
pub use predator_fleet as fleet;
pub use predator_instrument as instrument;
pub use predator_obs as obs;
pub use predator_policy as policy;
pub use predator_shadow as shadow;
pub use predator_sim as sim;
pub use predator_trace as trace;
pub use predator_workloads as workloads;

// The most common entry points, flattened for convenience.
pub use predator_core::{
    build_report, Callsite, DetectorConfig, Finding, FindingKind, Frame, Report, Session,
    SharingClass, SiteKind,
};
pub use predator_sim::{Access, AccessKind, CacheGeometry, ThreadId};
