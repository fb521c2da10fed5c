//! What a what-if replay's MESI walks tell the process: the `mesi_*_total`
//! counters and the timeline's `mesi_invalidation` instants. Both are
//! process-global, hence one test alone in its own binary.

use predator::core::{DetectorConfig, LayoutEdit};
use predator::sim::mesi::{MesiSim, MesiStats};
use predator::sim::{Access, CacheGeometry, ThreadId};
use predator::trace::{whatif_events, AddressRemap, AnalyzeConfig, WhatIfFix};

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 20;

/// Ping-pong on line 0 (one straddling write per round), true sharing on
/// line 16 and a reader that joins both.
fn events() -> Vec<Access> {
    let mut events = Vec::new();
    for i in 0..300u64 {
        let t = ThreadId((i % 2) as u16);
        events.push(Access::write(t, BASE + (i % 2) * 8, 8));
        events.push(Access::write(t, BASE + 1024, 8));
        if i % 10 == 0 {
            events.push(Access::read(ThreadId(2), BASE + 28, 8));
            events.push(Access::write(ThreadId(2), BASE + 60, 8));
        }
    }
    events
}

/// `(writer lane, line_start, copies_lost)` of every `mesi_invalidation`
/// instant in a Chrome trace.
fn instants(json: &str) -> Vec<(u64, u64, u64)> {
    let field = |ev: &str, key: &str| -> u64 {
        let at = ev.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits: String = ev[at..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect(key)
    };
    json.split("{\"name\":\"mesi_invalidation\"")
        .skip(1)
        .map(|ev| {
            (
                field(ev, "tid"),
                field(ev, "line_start"),
                field(ev, "copies_lost"),
            )
        })
        .collect()
}

#[test]
fn walk_publishes_what_access_counts() {
    let obs = predator::obs::global();
    let counter = |name: &str| obs.counter(name).get();
    let tl = predator::obs::timeline();
    tl.install(1 << 20);
    let (events, edits) = (
        events(),
        vec![LayoutEdit {
            at: BASE + 8,
            pad: 512,
        }],
    );
    let cfg = AnalyzeConfig::new(DetectorConfig::sensitive(), 1);
    let out = whatif_events(
        &events,
        BASE,
        SIZE,
        None,
        &cfg,
        &WhatIfFix::Edits(edits.clone()),
    );
    assert_eq!(out.verified, out.report.findings.len());
    let published = [
        counter("mesi_accesses_total"),
        counter("mesi_invalidation_events_total"),
        counter("mesi_lines_invalidated_total"),
    ];
    let mut json = Vec::new();
    tl.write_json(&mut json).unwrap();
    let instants = instants(&String::from_utf8(json).unwrap());

    // The walks a replay makes: every portfolio geometry over the recorded
    // events and over the one edit list's remapped copy.
    let mapped = AddressRemap::from_edits(&edits).apply_events(&events);
    let mut sum = MesiStats::default();
    for slice in [&events, &mapped] {
        for geom in CacheGeometry::portfolio() {
            let mut sim = MesiSim::new(3, geom);
            for a in slice.iter() {
                sim.access(a.tid, a.addr, a.size, a.kind);
            }
            let s = sim.stats();
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.invalidation_events += s.invalidation_events;
            sum.lines_invalidated += s.lines_invalidated;
        }
    }
    assert!(sum.invalidation_events > 0);
    assert_eq!(
        published,
        [
            sum.hits + sum.misses,
            sum.invalidation_events,
            sum.lines_invalidated
        ]
    );

    // One instant per invalidation event, on the writer's lane, naming a
    // touched line's start and how many copies died.
    assert_eq!(instants.len() as u64, sum.invalidation_events);
    let copies: u64 = instants.iter().map(|&(_, _, lost)| lost).sum();
    assert_eq!(copies, sum.lines_invalidated);
    for &(lane, line_start, lost) in &instants {
        assert!(lane <= 2 && (1..=2).contains(&lost), "{lane} {lost}");
        assert_eq!(line_start % 32, 0);
        assert!((BASE..BASE + 2048).contains(&line_start), "{line_start:#x}");
    }
}
