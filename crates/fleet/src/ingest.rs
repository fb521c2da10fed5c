//! Corpus ingestion: stream a `.ptrace` file through the offline analyzer
//! and record the run in the manifest.
//!
//! Ingest is content-addressed: a trace's id is its file stem plus the
//! CRC32 of its raw bytes, so ingesting the same file twice (from any path)
//! is a no-op and the corpus is a set. Corrupted traces are NOT errors —
//! the analyzer's loss accounting (skipped chunks, lost records, truncated
//! tails) rides along into the manifest and surfaces in every report.

use std::path::Path;

use predator_trace::crc32::crc32;
use predator_trace::{analyze_file, AnalyzeConfig, TraceReader};

use crate::manifest::{Manifest, TraceEntry};

/// What one `fleet ingest` of one file did.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// Content id of the trace.
    pub id: String,
    /// False when the corpus already held this content (dedup hit).
    pub added: bool,
    /// Events delivered to the analyzer (0 on a dedup hit).
    pub events: u64,
    /// Findings the run produced (0 on a dedup hit).
    pub findings: usize,
    /// Raw trace size in bytes.
    pub bytes: u64,
}

/// Content id for a trace file: `<stem>-<crc32 hex>` of the raw bytes.
pub fn content_id(path: &Path, bytes: &[u8]) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    format!("{stem}-{:08x}", crc32(bytes))
}

/// Ingests one `.ptrace` file into the corpus at `dir`, creating the corpus
/// if needed. Returns the outcome; the manifest is saved by the caller (so
/// a multi-file ingest writes `corpus.json` once).
pub fn ingest_trace(
    m: &mut Manifest,
    dir: &Path,
    path: &Path,
    cfg: &AnalyzeConfig,
) -> Result<IngestOutcome, String> {
    let _span = predator_obs::span("fleet_ingest");
    // Refused at the door, under its own name, before the corpus holds a copy.
    TraceReader::open(path)?;
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let id = content_id(path, &bytes);
    predator_obs::global()
        .counter("fleet_bytes_ingested_total")
        .add(bytes.len() as u64);
    if m.find(&id).is_some() {
        return Ok(IngestOutcome {
            id,
            added: false,
            events: 0,
            findings: 0,
            bytes: bytes.len() as u64,
        });
    }

    // Copy the raw trace in before analyzing, so the corpus member and the
    // analysis results always describe the same bytes.
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let file = format!("{id}.ptrace");
    let dest = dir.join(&file);
    std::fs::write(&dest, &bytes).map_err(|e| format!("cannot write {}: {e}", dest.display()))?;

    let outcome = analyze_file(&dest, cfg, 0, 0)?;
    predator_obs::global()
        .counter("fleet_traces_ingested_total")
        .add(1);
    predator_obs::global()
        .counter("fleet_events_ingested_total")
        .add(outcome.events);

    let seq = m.seq;
    m.seq += 1;
    let findings = outcome.report.findings.len();
    m.traces.push(TraceEntry {
        id: id.clone(),
        file,
        seq,
        events: outcome.events,
        loss: outcome.loss,
        findings: outcome.report.findings,
        stats: outcome.report.stats,
    });
    Ok(IngestOutcome {
        id,
        added: true,
        events: outcome.events,
        findings,
        bytes: bytes.len() as u64,
    })
}

/// Ingests many files, saving the manifest once at the end.
pub fn ingest(
    dir: &Path,
    paths: &[std::path::PathBuf],
    cfg: &AnalyzeConfig,
) -> Result<Vec<IngestOutcome>, String> {
    let mut m = match Manifest::load(dir)? {
        Some(m) => {
            m.check_config(&cfg.det)?;
            m
        }
        None => Manifest::new(cfg.det),
    };
    let mut outcomes = Vec::with_capacity(paths.len());
    for p in paths {
        outcomes.push(ingest_trace(&mut m, dir, p, cfg)?);
    }
    m.save(dir)?;
    Ok(outcomes)
}
