//! Integration tests for the compiler-instrumentation pipeline:
//! IR construction → instrumentation pass → deterministic execution →
//! detection, and the trace record/replay equivalence.

use predator::instrument::{
    instrument_module, replay, BinOp, FunctionBuilder, InstrumentMode, InstrumentOptions, Machine,
    Module, Operand, ThreadSpec, TraceRecorder,
};
use predator::sim::Schedule;
use predator::trace::{load_jsonl, save_jsonl};
use predator::{build_report, DetectorConfig, ThreadId};
use predator_core::Predator;
use predator_shadow::SimSpace;

/// `fn rmw(slot, n) { for i in 0..n { *slot = *slot + i } }`.
fn rmw_module() -> Module {
    let mut fb = FunctionBuilder::new("rmw", 2);
    let i = fb.reg();
    fb.mov(i, 0i64);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jmp(head);
    fb.select_block(head);
    let c = fb.bin(BinOp::Lt, i, Operand::Reg(1));
    fb.br(c, body, exit);
    fb.select_block(body);
    let cur = fb.load(0u32, 0);
    let nv = fb.bin(BinOp::Add, cur, i);
    fb.store(0u32, 0, Operand::Reg(nv));
    let i2 = fb.bin(BinOp::Add, i, 1i64);
    fb.mov(i, Operand::Reg(i2));
    fb.jmp(head);
    fb.select_block(exit);
    fb.ret(Some(Operand::Reg(nv)));
    Module {
        functions: vec![fb.finish().unwrap()],
    }
}

fn adjacent_threads(space: &SimSpace, n: i64) -> Vec<ThreadSpec> {
    vec![
        ThreadSpec {
            tid: ThreadId(0),
            function: "rmw".into(),
            args: vec![space.base() as i64, n],
        },
        ThreadSpec {
            tid: ThreadId(1),
            function: "rmw".into(),
            args: vec![(space.base() + 8) as i64, n],
        },
    ]
}

fn sensitive() -> DetectorConfig {
    DetectorConfig {
        tracking_threshold: 1,
        report_threshold: 1,
        sampling: false,
        ..DetectorConfig::sensitive()
    }
}

#[test]
fn instrumented_execution_detects_false_sharing() {
    let mut m = rmw_module();
    instrument_module(&mut m, &InstrumentOptions::default());
    let space = SimSpace::new(1 << 16);
    let rt = Predator::for_space(sensitive(), &space);
    let machine = Machine::new(&m, &space, &rt).unwrap();
    let results = machine
        .run(
            &adjacent_threads(&space, 2_000),
            Schedule::RoundRobin { quantum: 7 },
            10_000_000,
        )
        .unwrap();
    // Program correctness: final value is sum 0..n-1.
    assert_eq!(results[0], Some((0..2000i64).sum::<i64>()));
    let report = build_report(&rt, None);
    assert!(report.has_observed_false_sharing(), "{report}");
}

#[test]
fn write_only_instrumentation_still_detects_write_write_sharing() {
    let mut m = rmw_module();
    instrument_module(
        &mut m,
        &InstrumentOptions {
            mode: Some(InstrumentMode::WritesOnly),
            ..Default::default()
        },
    );
    let space = SimSpace::new(1 << 16);
    let rt = Predator::for_space(sensitive(), &space);
    let machine = Machine::new(&m, &space, &rt).unwrap();
    machine
        .run(
            &adjacent_threads(&space, 2_000),
            Schedule::RoundRobin { quantum: 7 },
            10_000_000,
        )
        .unwrap();
    let report = build_report(&rt, None);
    assert!(report.has_observed_false_sharing(), "{report}");
    // Only writes were delivered.
    assert_eq!(rt.events(), 2 * 2_000);
}

#[test]
fn uninstrumented_module_detects_nothing() {
    let mut m = rmw_module();
    instrument_module(
        &mut m,
        &InstrumentOptions {
            mode: Some(InstrumentMode::None),
            ..Default::default()
        },
    );
    let space = SimSpace::new(1 << 16);
    let rt = Predator::for_space(sensitive(), &space);
    let machine = Machine::new(&m, &space, &rt).unwrap();
    machine
        .run(
            &adjacent_threads(&space, 500),
            Schedule::RoundRobin { quantum: 7 },
            10_000_000,
        )
        .unwrap();
    assert_eq!(rt.events(), 0);
    assert!(!build_report(&rt, None).has_false_sharing());
}

#[test]
fn schedule_determines_what_is_observed() {
    // The same program under run-to-completion shows almost nothing —
    // exactly why the paper *predicts* rather than trusting one schedule.
    let mut m = rmw_module();
    instrument_module(&mut m, &InstrumentOptions::default());

    let interleaved = {
        let space = SimSpace::new(1 << 16);
        let rt = Predator::for_space(sensitive(), &space);
        Machine::new(&m, &space, &rt)
            .unwrap()
            .run(
                &adjacent_threads(&space, 1_000),
                Schedule::RoundRobin { quantum: 7 },
                10_000_000,
            )
            .unwrap();
        rt.total_invalidations()
    };
    let sequential = {
        let space = SimSpace::new(1 << 16);
        let rt = Predator::for_space(sensitive(), &space);
        Machine::new(&m, &space, &rt)
            .unwrap()
            .run(
                &adjacent_threads(&space, 1_000),
                Schedule::RoundRobin { quantum: u64::MAX },
                10_000_000,
            )
            .unwrap();
        rt.total_invalidations()
    };
    assert!(interleaved > 900, "interleaved: {interleaved}");
    assert!(sequential <= 2, "sequential: {sequential}");
}

#[test]
fn trace_replay_reproduces_the_live_report() {
    let mut m = rmw_module();
    instrument_module(&mut m, &InstrumentOptions::default());

    // Live run.
    let space = SimSpace::new(1 << 16);
    let rt_live = Predator::for_space(sensitive(), &space);
    Machine::new(&m, &space, &rt_live)
        .unwrap()
        .run(
            &adjacent_threads(&space, 1_000),
            Schedule::Seeded(7),
            10_000_000,
        )
        .unwrap();
    let live = build_report(&rt_live, None);

    // Recorded run with the same seed on a fresh space.
    let space2 = SimSpace::new(1 << 16);
    let rec = TraceRecorder::new();
    Machine::new(&m, &space2, &rec)
        .unwrap()
        .run(
            &adjacent_threads(&space2, 1_000),
            Schedule::Seeded(7),
            10_000_000,
        )
        .unwrap();

    // Roundtrip the trace through JSON and replay.
    let mut buf = Vec::new();
    save_jsonl(&rec.events(), &mut buf).unwrap();
    let events = load_jsonl(std::io::Cursor::new(buf)).unwrap();
    let rt_replay = Predator::new(sensitive(), space.base(), 1 << 16);
    replay(&events, &rt_replay);
    let replayed = build_report(&rt_replay, None);

    assert_eq!(
        live.findings, replayed.findings,
        "live and replayed reports agree"
    );
    assert_eq!(live.stats.events, replayed.stats.events);
}

#[test]
fn selective_instrumentation_does_not_change_the_verdict() {
    // §2.4.2: "less tracking inside a basic block … does not affect the
    // overall behavior of cache invalidations." Build a block with redundant
    // accesses and compare verdicts (not exact counts) between selective and
    // exhaustive instrumentation.
    let build = |no_selective: bool| {
        let mut m = {
            let mut fb = FunctionBuilder::new("noisy", 2);
            let i = fb.reg();
            fb.mov(i, 0i64);
            let head = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.jmp(head);
            fb.select_block(head);
            let c = fb.bin(BinOp::Lt, i, Operand::Reg(1));
            fb.br(c, body, exit);
            fb.select_block(body);
            // Redundant: read the slot three times, write twice.
            let a = fb.load(0u32, 0);
            let _b = fb.load(0u32, 0);
            let _c2 = fb.load(0u32, 0);
            let nv = fb.bin(BinOp::Add, a, i);
            fb.store(0u32, 0, Operand::Reg(nv));
            fb.store(0u32, 0, Operand::Reg(nv));
            let i2 = fb.bin(BinOp::Add, i, 1i64);
            fb.mov(i, Operand::Reg(i2));
            fb.jmp(head);
            fb.select_block(exit);
            fb.ret(None);
            Module {
                functions: vec![fb.finish().unwrap()],
            }
        };
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                no_selective,
                ..Default::default()
            },
        );
        (m, stats)
    };

    let (sel_m, sel_stats) = build(false);
    let (exh_m, exh_stats) = build(true);
    assert!(sel_stats.probes_inserted < exh_stats.probes_inserted);

    let verdict = |m: &Module| {
        let space = SimSpace::new(1 << 16);
        let rt = Predator::for_space(sensitive(), &space);
        Machine::new(m, &space, &rt)
            .unwrap()
            .run(
                &[
                    ThreadSpec {
                        tid: ThreadId(0),
                        function: "noisy".into(),
                        args: vec![space.base() as i64, 1_000],
                    },
                    ThreadSpec {
                        tid: ThreadId(1),
                        function: "noisy".into(),
                        args: vec![(space.base() + 8) as i64, 1_000],
                    },
                ],
                Schedule::RoundRobin { quantum: 11 },
                10_000_000,
            )
            .unwrap();
        build_report(&rt, None).has_observed_false_sharing()
    };
    assert!(verdict(&sel_m));
    assert!(verdict(&exh_m));
}
