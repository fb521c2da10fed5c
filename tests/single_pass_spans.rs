//! How many passes an offline analysis makes, read off the process-global
//! span histograms — hence one test alone in its own binary:
//! any other analysis running in this process would move the counts.

use predator::core::DetectorConfig;
use predator::sim::{Access, ThreadId};
use predator::trace::{analyze_events, analyze_file, AnalyzeConfig, TraceWriter};

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 22;

/// Two threads ping-pong on adjacent words in `regions` distant regions.
fn trace(regions: u64) -> Vec<Access> {
    (0..4_000u64)
        .map(|i| {
            let region = i % regions;
            let t = (i / regions) % 2;
            Access::write(ThreadId(t as u16), BASE + region * 0x10000 + t * 8, 8)
        })
        .collect()
}

/// Observations per span series recorded so far, by phase name.
fn span_counts() -> std::collections::BTreeMap<String, u64> {
    let hists = predator::obs::global().snapshot().histograms;
    let spans = hists.into_iter().filter_map(|h| {
        let phase = h.name.strip_prefix("span_")?.strip_suffix("_ns")?;
        Some((phase.to_string(), h.count))
    });
    spans.collect()
}

#[test]
fn every_analysis_is_one_pass_whatever_shard_count_is_asked() {
    let det = DetectorConfig::sensitive();
    let path = std::env::temp_dir().join(format!("predator-spans-{}.ptrace", std::process::id()));
    let many = trace(5);
    let mut w = TraceWriter::create(Vec::new(), BASE, SIZE).unwrap();
    w.write_events(&many).unwrap();
    std::fs::write(&path, w.finish().unwrap().1).unwrap();

    // Five clusters, and a shard count that is ignored: each analysis is one
    // `shard_analyze` span on the caller's thread, and no series exists for
    // a planning decode or a dispatcher.
    let mut analyses = 0;
    for shards in [1usize, 4, 8] {
        let cfg = AnalyzeConfig::new(det, shards);
        let out = analyze_events(&many, BASE, SIZE, None, &cfg);
        assert_eq!((out.clusters, out.shards_used), (5, 1), "shards={shards}");
        let out = analyze_file(&path, &cfg, 0, 0).unwrap();
        assert_eq!((out.clusters, out.shards_used), (5, 1), "shards={shards}");
        analyses += 2;
        let spans = span_counts();
        assert_eq!(
            spans.get("shard_analyze"),
            Some(&analyses),
            "shards={shards}"
        );
        for retired in ["trace_scan", "shard_dispatch"] {
            assert!(!spans.contains_key(retired), "shards={shards}: {retired}");
        }
    }
    std::fs::remove_file(&path).ok();
}
