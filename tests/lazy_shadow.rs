//! The shadow is sized by address arithmetic but paid for by use (§2.4.1):
//! set-up, resident memory and report cost follow the lines a run writes,
//! not the range it shadows. Resident memory is process-global — hence one
//! test alone in its own binary — and read from `/proc/self/statm`, so the
//! test is Linux-only.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use predator::core::{build_report, DetectorConfig, Predator};
use predator::shadow::SimSpace;
use predator::sim::{AccessKind::Write, ThreadId};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// Resident set size in bytes (`statm` field 2 is in pages; 4 KiB on every
/// target CI runs).
fn resident() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("statm is readable");
    let pages: u64 = statm.split(' ').nth(1).unwrap().parse().unwrap();
    pages * 4096
}

#[test]
fn a_gibibyte_of_shadow_costs_nothing_until_lines_are_written() {
    let before = resident();
    let start = Instant::now();
    let space = SimSpace::new(GIB as usize);
    let rt = Predator::new(DetectorConfig::sensitive(), space.base(), GIB);
    let setup = start.elapsed();
    let after_setup = resident();
    // Eagerly zeroed, this is 1 GiB of space + 192 MiB of shadow.
    let grown = after_setup.saturating_sub(before);
    assert!(grown < 64 * MIB, "set-up made {} MiB resident", grown / MIB);
    assert!(setup < Duration::from_millis(100), "set-up took {setup:?}");
    // The accounting is still the paper's 12 B per shadowed line, backed or
    // not (nothing is tracked yet, so there is no track box to add).
    assert_eq!(rt.metadata_fixed_bytes() as u64, GIB / 64 * 12);

    // Three scattered lines, ping-ponged into tracking, then a full report.
    let lines = [0, GIB / 2, GIB - 64].map(|off| space.base() + off);
    for line in lines {
        for i in 0..200u64 {
            let t = i % 2;
            space.store::<u64>(line + t * 8, i);
            rt.handle_access(ThreadId(t as u16), line + t * 8, 8, Write);
        }
    }
    let report = build_report(&rt, None);
    assert_eq!(report.findings.len(), 3);
    // Each line and its §3.2 neighbours inside the range.
    assert_eq!(report.stats.tracked_lines, 3 + 2 + 1 + 1);
    // The walk over the shadow faulted in nothing but the touched pages.
    let grown = resident().saturating_sub(after_setup);
    assert!(
        grown < 8 * MIB,
        "three lines and a report made {} MiB resident",
        grown / MIB
    );

    // A live run backs its write counters up front, and only those: 4 B per
    // line of a 64 MiB space is 4 MiB, the 8 B pointer slots stay unbacked.
    let before_live = resident();
    let live = SimSpace::new(64 * MIB as usize);
    let _rt = Predator::for_space(DetectorConfig::sensitive(), &live);
    let grown = resident().saturating_sub(before_live);
    assert!(
        (4 * MIB..6 * MIB).contains(&grown),
        "a live 64 MiB session made {} KiB resident",
        grown / 1024
    );
}
