//! # predator-fleet — `.ptrace` corpus store and cross-run reports
//!
//! One trace answers "does this *run* false-share?". A fleet of traces —
//! nightly CI runs, per-machine captures, different workloads of the same
//! binary — answers the question developers actually have: *which callsites
//! keep hurting us, across runs, and are they getting worse?* This crate is
//! that layer:
//!
//! - **[`ingest`]** — stream `.ptrace` files through the offline analyzer
//!   into a corpus directory (raw traces + a schema-versioned `corpus.json`
//!   manifest). Content-addressed ids make re-ingestion a no-op; corrupted
//!   traces degrade to loss accounting, never errors.
//! - **[`merge`]** — dedupe findings across runs by stable callsite key and
//!   rank the merged aggregates by fleet-wide invalidation impact, with
//!   per-trace provenance. The merge is associative and commutative, so the
//!   report is a pure function of the member *set*.
//! - **[`trend`]** — delta two corpora: new / fixed / regressed / improved
//!   callsites by per-run mean invalidations, with CI gating semantics.
//! - **[`compact`]** — retention: keep the newest N raw traces, fold older
//!   runs into merged aggregates, reclaim the bytes.
//!
//! Everything is observable through `predator-obs`: ingest counters
//! (`fleet_traces_ingested_total`, `fleet_events_ingested_total`,
//! `fleet_bytes_ingested_total`), per-phase spans (`fleet_ingest`,
//! `fleet_merge`, `fleet_trend`, `fleet_compact`), and an [`ObsSnapshot`]
//! embedded in every [`FleetReport`].
//!
//! [`ObsSnapshot`]: predator_core::ObsSnapshot

pub mod compact;
pub mod ingest;
pub mod manifest;
pub mod merge;
pub mod trend;

pub use compact::{compact, CompactOutcome};
pub use ingest::{content_id, ingest, ingest_trace, IngestOutcome};
pub use manifest::{Compacted, Manifest, TraceEntry, CORPUS_SCHEMA, MANIFEST_FILE};
pub use merge::{
    build_fleet_report, CallsiteAggregate, FleetReport, LossTotals, Provenance, FLEET_REPORT_SCHEMA,
};
pub use trend::{trend, TrendEntry, TrendReport, TrendStatus, DEFAULT_TOLERANCE, TREND_SCHEMA};
