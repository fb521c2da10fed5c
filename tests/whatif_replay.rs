//! Property tests for the what-if remap layer (the `predator whatif`
//! foundation): identity remaps change nothing, line-multiple padding never
//! makes the MESI ground truth worse, remapped traces survive the
//! `.ptrace` encode/decode round trip losslessly, and the tight range
//! what-if's own walks shadow finds what the header range finds.

use std::io::{BufReader, Cursor};

use proptest::prelude::*;

use predator::core::{DetectorConfig, LayoutEdit, Report};
use predator::sim::mesi::MesiSim;
use predator::sim::{Access, CacheGeometry, ThreadId};
use predator::trace::whatif::tight_range;
use predator::trace::{analyze_events, AddressRemap, AnalyzeConfig, TraceReader, TraceWriter};

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 20;

/// Findings + run stats, serialised. The `obs` section is excluded: it
/// snapshots process-global telemetry that accumulates across tests.
fn essence(r: &Report) -> String {
    format!(
        "{}\n{}",
        serde_json::to_string(&r.findings).unwrap(),
        serde_json::to_string(&r.stats).unwrap()
    )
}

fn cfg() -> AnalyzeConfig {
    AnalyzeConfig::new(DetectorConfig::sensitive(), 2)
}

/// Word-granular traffic from a handful of threads over a small region:
/// distinct threads on distinct words of shared lines — false-sharing-heavy
/// by construction.
fn arb_events() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec((0u16..4, 0u64..64, prop::bool::ANY), 1..400).prop_map(|ops| {
        ops.into_iter()
            .map(|(tid, word, w)| {
                let addr = BASE + word * 8;
                if w {
                    Access::write(ThreadId(tid), addr, 8)
                } else {
                    Access::read(ThreadId(tid), addr, 8)
                }
            })
            .collect()
    })
}

/// Layout edits at word-aligned spots whose pads are multiples of 256 —
/// a whole-line multiple of every portfolio geometry, so the remap only
/// ever splits cache lines, never merges them.
fn arb_line_multiple_edits() -> impl Strategy<Value = Vec<LayoutEdit>> {
    proptest::collection::vec((0u64..64, 1u64..4), 0..6).prop_map(|pads| {
        pads.into_iter()
            .map(|(word, k)| LayoutEdit {
                at: BASE + word * 8,
                pad: k * 256,
            })
            .collect()
    })
}

/// What a header's edges see, one group per bit of `mask`: two threads
/// ping-ponging on adjacent words that straddle the low end of
/// `[base, base + size)`, that straddle its high end, that are strays below
/// it, strays just past its end (inside the line an odd-sized range ends
/// in) and strays far above.
fn edge_events(mask: u8, base: u64, size: u64) -> Vec<Access> {
    let end = base + size;
    let groups = [
        [base - 4, base + 8],
        [end - 4, end - 24],
        [base - 0x3000, base - 0x3000 + 8],
        [end + 40, end + 48],
        [end + 0x3000, end + 0x3008],
    ];
    let picked = (0..groups.len()).filter(|g| mask >> g & 1 == 1);
    let ping_pong = |g: usize| {
        (0..40).map(move |i| Access::write(ThreadId(i % 2), groups[g][i as usize % 2], 8))
    };
    picked.flat_map(ping_pong).collect()
}

/// Total remote copies killed — the MESI quantity that is provably monotone
/// under line-splitting remaps. (Distinct invalidation *events* are not:
/// splitting a line can spread the same — or fewer — copy kills over more
/// distinct writes, so the event count may go up while total damage drops.)
fn mesi_copies_killed(events: &[Access], geom: CacheGeometry) -> u64 {
    let mut sim = MesiSim::new(4, geom);
    for a in events {
        sim.access(a.tid, a.addr, a.size, a.kind);
    }
    sim.stats().lines_invalidated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The identity remap is a no-op end to end: re-analyzing the remapped
    /// event stream produces a byte-identical report to plain `analyze`.
    #[test]
    fn prop_identity_remap_reanalysis_is_byte_identical(events in arb_events()) {
        let remap = AddressRemap::identity();
        let mapped = remap.apply_events(&events);
        prop_assert_eq!(&mapped, &events);
        let plain = analyze_events(&events, BASE, SIZE, None, &cfg());
        let replay = analyze_events(&mapped, BASE, SIZE, None, &cfg());
        prop_assert_eq!(essence(&plain.report), essence(&replay.report));
    }

    /// A padding-fix remap on a false-sharing-only trace never makes MESI
    /// worse. "False-sharing-only" means every word is touched by exactly
    /// one thread (here: word owner = word index mod 4); the fix pads every
    /// ownership boundary by a whole-line multiple ≥ 512 bytes, separating
    /// any two different-owner words past the largest portfolio line. After
    /// the remap every cache line is single-threaded, so sharing traffic is
    /// not just non-increasing — it is zero at every geometry. (Arbitrary
    /// line-splitting remaps are NOT monotone: a coarse-line kill destroys
    /// a multi-sub-line copy in one event, where the split layout pays one
    /// kill per sub-line — see DESIGN.md for the counterexample.)
    #[test]
    fn prop_padding_fix_never_increases_mesi_on_false_sharing_trace(
        ops in proptest::collection::vec((0u64..64, prop::bool::ANY), 1..400),
        ks in proptest::collection::vec(1u64..3, 64),
    ) {
        let events: Vec<Access> = ops
            .into_iter()
            .map(|(word, w)| {
                let tid = ThreadId((word % 4) as u16); // owner-partitioned words
                let addr = BASE + word * 8;
                if w {
                    Access::write(tid, addr, 8)
                } else {
                    Access::read(tid, addr, 8)
                }
            })
            .collect();
        // Owners alternate every word, so every word boundary is an
        // ownership boundary: pad each one by k × 512 bytes.
        let edits: Vec<LayoutEdit> = (1..64)
            .map(|w| LayoutEdit { at: BASE + w * 8, pad: ks[w as usize] * 512 })
            .collect();
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        for ls in CacheGeometry::PORTFOLIO_LINE_SIZES {
            let geom = CacheGeometry::new(ls);
            let before = mesi_copies_killed(&events, geom);
            let after = mesi_copies_killed(&mapped, geom);
            prop_assert_eq!(
                after, 0,
                "{}B lines: separated footprints still share ({} kills)",
                ls, after
            );
            prop_assert!(after <= before);
        }
    }

    /// The detector finds over the tight range what it finds over the
    /// header range — whatever the header's edges see, at both ends of the
    /// `max_scale_log2` span, at every portfolio geometry, before and after
    /// a remap. (`stats` differ by design: they describe the shadow.)
    #[test]
    fn prop_tight_range_finds_what_the_header_range_finds(
        body in arb_events(),
        edits in arb_line_multiple_edits(),
        edges in 0u8..32,
        odd_size in prop::bool::ANY,
        interleave in prop::bool::ANY,
    ) {
        // The body sits mid-range; an odd size ends the range inside a line.
        let (base, size) = (BASE - 0x4_0000, 0x8_0000 + 72 * odd_size as u64);
        let mut events = edge_events(edges, base, size);
        if interleave {
            let at = events.len() / 2;
            events.splice(at..at, body);
        } else {
            events.extend(body);
        }
        let remap = AddressRemap::from_edits(&edits);
        let mapped = (remap.apply_events(&events), size + remap.total_pad());
        for (events, size) in [(events, size), mapped] {
            for max_scale_log2 in [1, 4] {
                for geometry in CacheGeometry::portfolio() {
                    let det = DetectorConfig { max_scale_log2, geometry, ..DetectorConfig::sensitive() };
                    let cfg = AnalyzeConfig::new(det, 2);
                    let findings = |(base, size)| {
                        let out = analyze_events(&events, base, size, None, &cfg);
                        serde_json::to_string(&out.report.findings).unwrap()
                    };
                    let tight = tight_range(&events, base, size, &det);
                    prop_assert!(tight.0 >= base && tight.0 + tight.1 <= base + size);
                    prop_assert_eq!(
                        findings(tight), findings((base, size)),
                        "{}B lines, scale 2^{}, tight {:#x?}", geometry.line_size(), max_scale_log2, tight
                    );
                }
            }
        }
    }

    /// A remapped trace written to `.ptrace` decodes back to exactly the
    /// remapped events, with the (grown) address range intact.
    #[test]
    fn prop_remapped_traces_round_trip_ptrace(
        events in arb_events(),
        edits in arb_line_multiple_edits(),
    ) {
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        let new_size = SIZE + remap.total_pad();

        let mut w = TraceWriter::create(Vec::new(), BASE, new_size).unwrap();
        w.write_events(&mapped).unwrap();
        let (summary, bytes) = w.finish().unwrap();
        prop_assert_eq!(summary.events, mapped.len() as u64);

        let mut r = TraceReader::new(BufReader::new(Cursor::new(bytes))).unwrap();
        prop_assert_eq!(r.base(), BASE);
        prop_assert_eq!(r.size(), new_size);
        let decoded: Vec<Access> = (&mut r).collect();
        prop_assert!(!r.stats().any(), "lossless round trip");
        prop_assert_eq!(decoded, mapped);
    }
}
