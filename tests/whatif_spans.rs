//! What a what-if replay walks, read off the process-global span histograms
//! and counters — hence one test alone in its own binary, like
//! `single_pass_spans.rs`: any other replay in this process would move them.

use predator::core::DetectorConfig;
use predator::sim::{Access, ThreadId};
use predator::trace::{whatif_events, AnalyzeConfig, WhatIfFix};

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 20;

/// The golden what-if trace (`crates/trace/tests/golden_whatif.rs`): false
/// sharing on line 0, which one padding edit list fixes, and true sharing on
/// line 16, whose advice lowers to no edit at all.
fn golden_events() -> Vec<Access> {
    let mut events = Vec::new();
    for i in 0..400u64 {
        let t = (i % 2) as u16;
        events.push(Access::write(ThreadId(t), BASE + (i % 2) * 8, 8));
        events.push(Access::write(ThreadId(t), BASE + 1024, 8));
    }
    events
}

#[test]
fn every_walk_of_a_replay_is_counted_and_under_a_span() {
    let obs = predator::obs::global();
    let spans = |phase: &str| obs.histogram(&format!("span_{phase}_ns")).count();
    let cfg = AnalyzeConfig::new(DetectorConfig::sensitive(), 1);
    let out = whatif_events(
        &golden_events(),
        BASE,
        SIZE,
        None,
        &cfg,
        &WhatIfFix::Suggested,
    );
    assert_eq!(out.verified, 2);
    let edit_lists = 1;
    // The report's own analysis, then four geometries of baseline and of
    // each edit list's replay — less the baseline the report already is.
    let detector_walks = 1 + 4 * (1 + edit_lists) - 1;
    assert_eq!(
        obs.counter("whatif_detector_walks_total").get(),
        detector_walks
    );
    assert_eq!(
        spans("shard_analyze"),
        detector_walks,
        "one shard: a walk is one span"
    );
    // MESI has no report to reuse: every geometry, baseline and replay.
    let mesi_walks = 4 * (1 + edit_lists);
    assert_eq!(obs.counter("whatif_mesi_walks_total").get(), mesi_walks);
    assert_eq!(spans("whatif_mesi"), mesi_walks);
    assert_eq!(
        spans("whatif_remap"),
        edit_lists,
        "one remapped hull pass per list"
    );
}
