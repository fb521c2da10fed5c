//! Which threads and passes an offline analysis actually uses, read off the
//! process-global span histograms — hence one test alone in its own binary:
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

/// `[trace_scan, shard_dispatch, shard_analyze]` spans recorded so far.
fn spans() -> [u64; 3] {
    ["trace_scan", "shard_dispatch", "shard_analyze"].map(|phase| {
        predator::obs::global()
            .histogram(&format!("span_{phase}_ns"))
            .count()
    })
}

#[test]
fn the_reader_works_alone_unless_the_plan_gives_other_shards_work() {
    let det = DetectorConfig::sensitive();
    let path = std::env::temp_dir().join(format!("predator-spans-{}.ptrace", std::process::id()));
    let write = |events: &[Access]| {
        let mut w = TraceWriter::create(Vec::new(), BASE, SIZE).unwrap();
        w.write_events(events).unwrap();
        std::fs::write(&path, w.finish().unwrap().1).unwrap();
    };

    // One shard: no planning pass, no dispatch, one worker — the caller.
    let many = trace(5);
    write(&many);
    let cfg = AnalyzeConfig::new(det, 1);
    let out = analyze_events(&many, BASE, SIZE, None, &cfg);
    assert_eq!((out.clusters, out.shards_used), (5, 1));
    let out = analyze_file(&path, &cfg, 0, 0).unwrap();
    assert_eq!((out.clusters, out.shards_used), (5, 1));
    assert_eq!(
        spans(),
        [0, 0, 2],
        "one shard: the file is decoded exactly once"
    );

    // One cluster at eight shards: the plan is made, finds nothing to hand
    // out, and the replay is again the caller's alone — no worker thread
    // (each would record a `shard_analyze` span), no dispatch.
    let one = trace(1);
    write(&one);
    let cfg = AnalyzeConfig::new(det, 8);
    let out = analyze_events(&one, BASE, SIZE, None, &cfg);
    assert_eq!((out.clusters, out.shards_used), (1, 1));
    let out = analyze_file(&path, &cfg, 0, 0).unwrap();
    assert_eq!((out.clusters, out.shards_used), (1, 1));
    assert_eq!(
        spans(),
        [2, 0, 4],
        "one cluster: planned, then replayed inline"
    );

    // Five clusters at four shards: the caller dispatches and works shard 0
    // itself; only the three other shards get a thread.
    write(&many);
    let out = analyze_file(&path, &AnalyzeConfig::new(det, 4), 0, 0).unwrap();
    assert_eq!((out.clusters, out.shards_used), (5, 4));
    assert_eq!(
        spans(),
        [3, 1, 7],
        "four shards: one dispatcher-worker, three workers"
    );
    std::fs::remove_file(&path).ok();
}
