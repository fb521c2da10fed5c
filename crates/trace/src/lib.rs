//! `predator-trace`: the compact binary `.ptrace` access-trace format and
//! the offline analysis pass.
//!
//! The live detector pays its overhead while the workload runs. This crate
//! splits that cost in two: **record** the raw access stream cheaply
//! (one buffer, delta-compressed chunks — no detector work at all), then
//! **analyze** the trace offline, as many times and with as many
//! configurations as wanted.
//!
//! * [`format`] — the `.ptrace` byte layout: magic + versioned header,
//!   CRC-framed chunks with varint delta-encoded records, a JSON metadata
//!   sidecar chunk, and a footer index for random access.
//! * [`writer`] — streaming writers: [`TraceWriter`] (framing) and
//!   [`TraceSink`] (the recording [`predator_sim::AccessSink`]).
//! * [`reader`] — corruption-tolerant streaming reader: bad chunks are
//!   skipped with counted, reported loss ([`LossStats`]), never a panic.
//!   [`TraceReader::open`] is the one door through which a file becomes
//!   events; it refuses anything that is not a `.ptrace` with a sane header.
//! * [`jsonl`] — JSON-lines text at the edge: [`import_jsonl`] converts it
//!   to a `.ptrace` (`predator trace import`), `trace cat` converts back.
//!   No analysis reads it.
//! * [`analyze`] — the offline pass: decode once into one detector and
//!   build the [`predator_core::Report`] a sequential replay would, with
//!   the trace's line clusters, strays and loss counted beside it.
//! * [`remap`] — injective, order-preserving address remaps: layout fixes
//!   (padding, alignment) expressed as pure functions on trace addresses.
//! * [`whatif`] — fix verification by replay: re-analyze the remapped
//!   trace at every portfolio geometry, cross-check against MESI, and
//!   annotate findings with measured before/after invalidation deltas.

pub mod analyze;
pub mod crc32;
pub mod format;
pub mod jsonl;
pub mod reader;
pub mod remap;
pub mod varint;
pub mod whatif;
pub mod writer;

pub use analyze::{analyze_events, analyze_file, AnalyzeConfig, AnalyzeOutcome};
pub use format::{Header, MetaFrame, MetaGlobal, MetaObject, TraceMeta, VERSION};
pub use jsonl::{import_jsonl, load_jsonl, save_jsonl, JsonlIter};
pub use reader::{read_info, read_info_scan, LossStats, TraceError, TraceInfo, TraceReader};
pub use remap::AddressRemap;
pub use whatif::{whatif_events, WhatIfFix, WhatIfOutcome};
pub use writer::{TraceSink, TraceWriter, WriteSummary};
