//! Function-call machinery: multi-function programs through the whole
//! pipeline — argument passing, recursion with depth guards, per-function
//! instrumentation blacklists actually exercised at runtime, and the
//! textual format for calls.

use predator_core::{build_report, DetectorConfig, Predator};
use predator_instrument::{
    instrument_module, parse_module, print_module, BinOp, FunctionBuilder, Inst, InstrumentOptions,
    Machine, Module, NullSink, Operand, ThreadSpec, TraceRecorder,
};
use predator_shadow::SimSpace;
use predator_sim::{Schedule, ThreadId};

/// Module with: `bump(addr) -> *addr += 1` (index 0) and
/// `worker(base, n) { for i in 0..n { bump(base) } }` (index 1).
fn bump_module() -> Module {
    let mut bump = FunctionBuilder::new("bump", 1);
    let v = bump.load(0u32, 0);
    let v2 = bump.bin(BinOp::Add, v, 1i64);
    bump.store(0u32, 0, Operand::Reg(v2));
    bump.ret(Some(Operand::Reg(v2)));

    let mut worker = FunctionBuilder::new("worker", 2);
    let i = worker.reg();
    worker.mov(i, 0i64);
    let head = worker.new_block();
    let body = worker.new_block();
    let exit = worker.new_block();
    worker.jmp(head);
    worker.select_block(head);
    let c = worker.bin(BinOp::Lt, i, Operand::Reg(1));
    worker.br(c, body, exit);
    worker.select_block(body);
    let last = worker.call(0, &[Operand::Reg(0)]);
    let i2 = worker.bin(BinOp::Add, i, 1i64);
    worker.mov(i, Operand::Reg(i2));
    worker.jmp(head);
    worker.select_block(exit);
    worker.ret(Some(Operand::Reg(last)));

    Module {
        functions: vec![bump.finish().unwrap(), worker.finish().unwrap()],
    }
}

/// `fact(n) = n <= 1 ? 1 : n * fact(n - 1)` — self-recursive (index 0).
fn fact_module() -> Module {
    let mut fb = FunctionBuilder::new("fact", 1);
    let cond = fb.bin(BinOp::Le, Operand::Reg(0), 1i64);
    let base = fb.new_block();
    let rec = fb.new_block();
    fb.br(cond, base, rec);
    fb.select_block(base);
    fb.ret(Some(Operand::Imm(1)));
    fb.select_block(rec);
    let nm1 = fb.bin(BinOp::Sub, Operand::Reg(0), 1i64);
    let sub = fb.call(0, &[Operand::Reg(nm1)]);
    let prod = fb.bin(BinOp::Mul, Operand::Reg(0), Operand::Reg(sub));
    fb.ret(Some(Operand::Reg(prod)));
    Module {
        functions: vec![fb.finish().unwrap()],
    }
}

#[test]
fn calls_pass_arguments_and_return_values() {
    let m = bump_module();
    m.validate().unwrap();
    let space = SimSpace::new(4096);
    let machine = Machine::new(&m, &space, &NullSink).unwrap();
    let r = machine
        .run(
            &[ThreadSpec {
                tid: ThreadId(0),
                function: "worker".into(),
                args: vec![space.base() as i64, 100],
            }],
            Schedule::RoundRobin { quantum: 1 },
            1_000_000,
        )
        .unwrap();
    assert_eq!(space.load::<u64>(space.base()), 100);
    assert_eq!(r, vec![Some(100)], "worker returns bump's last value");
}

#[test]
fn recursion_computes_and_depth_guard_fires() {
    let m = fact_module();
    let space = SimSpace::new(64);
    let machine = Machine::new(&m, &space, &NullSink).unwrap();
    let run = |n: i64| {
        machine.run(
            &[ThreadSpec {
                tid: ThreadId(0),
                function: "fact".into(),
                args: vec![n],
            }],
            Schedule::RoundRobin { quantum: 1 },
            10_000_000,
        )
    };
    assert_eq!(run(10).unwrap(), vec![Some(3_628_800)]);
    // Depth 300 exceeds MAX_CALL_DEPTH (256).
    let err = run(300).unwrap_err();
    assert!(
        matches!(
            err,
            predator_instrument::ExecError::CallDepthExceeded { .. }
        ),
        "{err}"
    );
}

#[test]
fn false_sharing_detected_through_call_boundaries() {
    // Both threads do their writes inside the callee — attribution and
    // detection must be unaffected by the call indirection.
    let mut m = bump_module();
    instrument_module(&mut m, &InstrumentOptions::default());
    let space = SimSpace::new(4096);
    let cfg = DetectorConfig {
        tracking_threshold: 1,
        report_threshold: 1,
        sampling: false,
        ..DetectorConfig::sensitive()
    };
    let rt = Predator::for_space(cfg, &space);
    let machine = Machine::new(&m, &space, &rt).unwrap();
    machine
        .run(
            &[
                ThreadSpec {
                    tid: ThreadId(0),
                    function: "worker".into(),
                    args: vec![space.base() as i64, 1_000],
                },
                ThreadSpec {
                    tid: ThreadId(1),
                    function: "worker".into(),
                    args: vec![(space.base() + 8) as i64, 1_000],
                },
            ],
            Schedule::RoundRobin { quantum: 9 },
            10_000_000,
        )
        .unwrap();
    let report = build_report(&rt, None);
    assert!(report.has_observed_false_sharing(), "{report}");
}

#[test]
fn blacklisting_the_callee_silences_its_accesses() {
    // The §2.4.2 blacklist, end to end: bump does all the memory traffic;
    // blacklisting it leaves the program observable-silent.
    let mut m = bump_module();
    instrument_module(
        &mut m,
        &InstrumentOptions {
            blacklist: vec!["bump".into()],
            ..Default::default()
        },
    );
    let space = SimSpace::new(4096);
    let rec = TraceRecorder::new();
    let machine = Machine::new(&m, &space, &rec).unwrap();
    machine
        .run(
            &[ThreadSpec {
                tid: ThreadId(0),
                function: "worker".into(),
                args: vec![space.base() as i64, 50],
            }],
            Schedule::RoundRobin { quantum: 1 },
            1_000_000,
        )
        .unwrap();
    assert!(rec.is_empty(), "blacklisted callee must emit no events");
    // The program still ran.
    assert_eq!(space.load::<u64>(space.base()), 50);
}

#[test]
fn calls_roundtrip_through_the_textual_format() {
    let m = bump_module();
    let text = print_module(&m);
    assert!(text.contains("call r"), "{text}");
    assert!(text.contains("@0("), "{text}");
    let back = parse_module(&text).unwrap();
    assert_eq!(back, m);
    assert_eq!(print_module(&back), text);
}

#[test]
fn textual_call_without_destination() {
    let text = "\
fn noop(params=0) {
bb0:
  ret
}

fn main(params=0) {
bb0:
  call @0()
  ret
}
";
    let m = parse_module(text).unwrap();
    let main = m.function("main").unwrap();
    assert!(matches!(
        main.blocks[0].insts[0],
        Inst::Call {
            dst: None,
            func: 0,
            argc: 0,
            ..
        }
    ));
    assert_eq!(parse_module(&print_module(&m)).unwrap(), m);
}

#[test]
fn module_validation_rejects_bad_calls() {
    // Missing callee index.
    let mut fb = FunctionBuilder::new("f", 0);
    fb.call(7, &[]);
    fb.ret(None);
    let m = Module {
        functions: vec![fb.finish().unwrap()],
    };
    assert!(m.validate().unwrap_err().contains("missing function index"));

    // Too many arguments for the callee.
    let mut callee = FunctionBuilder::new("one_arg", 1);
    callee.ret(None);
    let mut caller = FunctionBuilder::new("caller", 0);
    caller.call(0, &[Operand::Imm(1), Operand::Imm(2)]);
    caller.ret(None);
    let m = Module {
        functions: vec![callee.finish().unwrap(), caller.finish().unwrap()],
    };
    assert!(m.validate().unwrap_err().contains("takes 1"));
}
