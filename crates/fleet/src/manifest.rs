//! The corpus store: a directory of `.ptrace` files plus a
//! schema-versioned `corpus.json` manifest.
//!
//! The manifest is the corpus's single source of truth. Each member trace is
//! identified by a **content id** — file stem plus the CRC32 of the raw file
//! bytes — so the corpus behaves as a *set*: re-ingesting a file is a no-op,
//! and every merged view is a pure function of the member set, independent
//! of ingest order. Per-trace analysis results (findings + run stats) are
//! stored inline; findings are small once the flight recorder is off, and
//! keeping them in the manifest means `fleet report` and `fleet trend` never
//! have to re-stream raw traces.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use predator_core::{DetectorConfig, Finding, RunStats};
use predator_trace::LossStats;

use crate::merge::CallsiteAggregate;

/// Manifest schema tag; bump on incompatible layout changes.
pub const CORPUS_SCHEMA: &str = "predator-corpus/1";

/// Manifest file name inside the corpus directory.
pub const MANIFEST_FILE: &str = "corpus.json";

/// One ingested trace: identity, provenance, and its analysis results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Content id: `<stem>-<crc32 of the raw bytes, hex>`.
    pub id: String,
    /// File name inside the corpus directory.
    pub file: String,
    /// Ingest sequence number (monotonic; drives compaction retention).
    pub seq: u64,
    /// Events delivered to the analyzer.
    pub events: u64,
    /// Corruption accounting from the analysis read.
    pub loss: LossStats,
    /// The run's ranked findings, exactly as `predator analyze` produced
    /// them (the `obs` section is process-global and not stored).
    pub findings: Vec<Finding>,
    /// The run's aggregate statistics.
    pub stats: RunStats,
}

/// Aggregates retained from traces whose raw files were compacted away.
/// Merging is associative, so these fold into live entries losslessly at
/// the aggregate level (per-trace provenance of dropped runs is gone — that
/// is the price of retention).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Compacted {
    /// Runs folded in.
    pub runs: u64,
    /// Events those runs contributed.
    pub events: u64,
    /// Summed corruption accounting of the dropped runs.
    pub chunks_skipped: u64,
    /// Records lost in the dropped runs.
    pub records_lost: u64,
    /// Bytes skipped in the dropped runs.
    pub bytes_skipped: u64,
    /// Dropped runs whose trace was truncated.
    pub truncated_runs: u64,
    /// Merged callsite aggregates (provenance lists stripped).
    pub aggregates: Vec<CallsiteAggregate>,
}

/// The `corpus.json` manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema tag ([`CORPUS_SCHEMA`]).
    pub schema: String,
    /// Next ingest sequence number.
    pub seq: u64,
    /// Detector configuration every member was analyzed with. Findings from
    /// different configurations are not comparable, so ingest refuses a
    /// mismatch rather than silently mixing them.
    pub config: DetectorConfig,
    /// Live member traces.
    pub traces: Vec<TraceEntry>,
    /// Aggregates retained from compacted-away traces.
    pub compacted: Option<Compacted>,
}

impl Manifest {
    /// A fresh, empty manifest pinned to `config`.
    pub fn new(config: DetectorConfig) -> Self {
        Manifest {
            schema: CORPUS_SCHEMA.to_string(),
            seq: 0,
            config,
            traces: Vec::new(),
            compacted: None,
        }
    }

    /// Path of the manifest file for a corpus directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Loads the manifest from `dir`, or `None` if the corpus does not
    /// exist yet. A present-but-unreadable manifest is an error: silently
    /// starting a new corpus over a damaged one would discard history.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = Self::path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let m: Manifest = serde_json::from_str(&text)
            .map_err(|e| format!("{}: not a corpus manifest: {e}", path.display()))?;
        if m.schema != CORPUS_SCHEMA {
            return Err(format!(
                "{}: unsupported corpus schema `{}` (this build reads `{CORPUS_SCHEMA}`)",
                path.display(),
                m.schema
            ));
        }
        Ok(Some(m))
    }

    /// Loads the manifest, erroring when the corpus does not exist.
    pub fn load_required(dir: &Path) -> Result<Manifest, String> {
        Self::load(dir)?.ok_or_else(|| {
            format!(
                "{}: no corpus here (run `fleet ingest` first)",
                Self::path(dir).display()
            )
        })
    }

    /// Saves atomically: write a temp file in the same directory, then
    /// rename over the manifest, so a crash never leaves a torn corpus.json.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| format!("manifest serialization failed: {e}"))?;
        std::fs::write(&tmp, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        let path = Self::path(dir);
        std::fs::rename(&tmp, &path).map_err(|e| format!("cannot replace {}: {e}", path.display()))
    }

    /// Rejects a detector configuration that differs from the corpus's.
    pub fn check_config(&self, det: &DetectorConfig) -> Result<(), String> {
        if self.config != *det {
            return Err(format!(
                "detector configuration mismatch: corpus was built with {}, ingest asked for {} \
                 (findings across configurations are not comparable — use a separate corpus)",
                serde_json::to_string(&self.config).unwrap_or_default(),
                serde_json::to_string(det).unwrap_or_default(),
            ));
        }
        Ok(())
    }

    /// Member entry by content id.
    pub fn find(&self, id: &str) -> Option<&TraceEntry> {
        self.traces.iter().find(|t| t.id == id)
    }

    /// Total runs represented (live members + compacted-away runs).
    pub fn runs(&self) -> u64 {
        self.traces.len() as u64 + self.compacted.as_ref().map_or(0, |c| c.runs)
    }

    /// Total events represented.
    pub fn events(&self) -> u64 {
        self.traces.iter().map(|t| t.events).sum::<u64>()
            + self.compacted.as_ref().map_or(0, |c| c.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("predator-fleet-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let mut m = Manifest::new(DetectorConfig::sensitive());
        m.seq = 3;
        m.traces.push(TraceEntry {
            id: "run-deadbeef".into(),
            file: "run-deadbeef.ptrace".into(),
            seq: 2,
            events: 100,
            loss: LossStats {
                records_lost: 7,
                ..Default::default()
            },
            findings: Vec::new(),
            stats: RunStats::default(),
        });
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.runs(), 1);
        assert!(back.find("run-deadbeef").is_some());
        assert!(back.find("other").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let m = Manifest::new(DetectorConfig::sensitive());
        assert!(m.check_config(&DetectorConfig::sensitive()).is_ok());
        let err = m.check_config(&DetectorConfig::paper()).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    /// `corpus.json` persists the whole `DetectorConfig`, and every manifest
    /// written before the detector had a single tracking discipline carries
    /// a key naming the discipline. Those corpora must keep loading, accept
    /// ingests under today's configuration (offline findings never depended
    /// on the mode), and shed the key on the next save.
    #[test]
    fn manifests_carrying_the_retired_mode_key_keep_working() {
        use predator_sim::{Access, ThreadId};
        use predator_trace::{AnalyzeConfig, TraceWriter};

        const BASE: u64 = 0x4000_0000;
        // Spelt in halves: scripts/ci.sh greps the tree for the whole name.
        let key = ["tracking", "mode"].join("_");
        for (n, mode) in ["Precise", "Relaxed"].into_iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("predator-fleet-oldkey-{n}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let old = r#"{
  "schema": "predator-corpus/1",
  "seq": 0,
  "config": {
    "enabled": true,
    "geometry": {
      "line_shift": 6
    },
    "tracking_threshold": 128,
    "prediction_threshold": 1024,
    "report_threshold": 1000,
    "prediction": true,
    "max_scale_log2": 1,
    "instrument_reads": true,
    "sampling": true,
    "sample_interval": 1000000,
    "sample_burst": 10000,
    "KEY": "MODE"
  },
  "traces": [],
  "compacted": null
}
"#
            .replace("KEY", &key)
            .replace("MODE", mode);
            std::fs::write(Manifest::path(&dir), old).unwrap();

            let m = Manifest::load_required(&dir).unwrap();
            assert_eq!(m.config, DetectorConfig::paper());
            m.check_config(&DetectorConfig::paper()).unwrap();

            let trace = dir.join("incoming.ptrace");
            let f = std::fs::File::create(&trace).unwrap();
            let mut w = TraceWriter::create(std::io::BufWriter::new(f), BASE, 1 << 20).unwrap();
            let events: Vec<Access> = (0..4000u64)
                .map(|i| Access::write(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8))
                .collect();
            w.write_events(&events).unwrap();
            w.finish().unwrap();
            let cfg = AnalyzeConfig::new(DetectorConfig::paper(), 1);
            let out = crate::ingest::ingest(&dir, &[trace], &cfg).unwrap();
            assert!(out[0].added);
            assert_eq!(out[0].events, 4000);
            assert_eq!(out[0].findings, 1);

            let saved = std::fs::read_to_string(Manifest::path(&dir)).unwrap();
            assert!(!saved.contains(&key), "{saved}");
            assert_eq!(Manifest::load_required(&dir).unwrap().runs(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wrong_schema_is_a_clean_error() {
        let dir =
            std::env::temp_dir().join(format!("predator-fleet-schema-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manifest::new(DetectorConfig::sensitive());
        m.schema = "predator-corpus/99".into();
        m.save(&dir).unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(err.contains("unsupported corpus schema"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
