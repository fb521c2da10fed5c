//! The full compiler-instrumentation pipeline (§2.2, §2.4.2):
//! IR → instrumentation pass → deterministic multithreaded execution →
//! detector → report; plus trace record and replay.
//!
//! The program below is the IR equivalent of:
//!
//! ```c
//! void worker(long *slot, long n) {
//!     for (long i = 0; i < n; i++) { *slot += i; }
//! }
//! // two threads, slot0 and slot1 adjacent words of one line
//! ```
//!
//! The instrumentation pass inserts one probe per (address expression,
//! access type) per basic block — the paper's *selective instrumentation* —
//! and the interpreter interleaves the two threads one loop iteration at a
//! time, the adversarial schedule PREDATOR conservatively assumes.
//!
//! ```text
//! cargo run --example instrumented_ir
//! ```

use predator::instrument::{
    instrument_module, replay, BinOp, FunctionBuilder, InstrumentOptions, Machine, Module, Operand,
    ThreadSpec, TraceRecorder,
};
use predator::sim::Schedule;
use predator::trace::{load_jsonl, save_jsonl};
use predator::{build_report, DetectorConfig, ThreadId};
use predator_core::Predator;
use predator_shadow::SimSpace;

/// Builds `fn worker(slot, n) { for i in 0..n { *slot += i } }`.
fn build_worker() -> Module {
    let mut fb = FunctionBuilder::new("worker", 2);
    let i = fb.reg();
    fb.mov(i, 0i64);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jmp(head);
    fb.select_block(head);
    let cond = fb.bin(BinOp::Lt, i, Operand::Reg(1));
    fb.br(cond, body, exit);
    fb.select_block(body);
    let cur = fb.load(0u32, 0); // read *slot
    let next = fb.bin(BinOp::Add, cur, i);
    fb.store(0u32, 0, Operand::Reg(next)); // write *slot
    let i2 = fb.bin(BinOp::Add, i, 1i64);
    fb.mov(i, Operand::Reg(i2));
    fb.jmp(head);
    fb.select_block(exit);
    fb.ret(None);
    Module {
        functions: vec![fb.finish().unwrap()],
    }
}

fn main() {
    // 1. "Compile": run the instrumentation pass.
    let mut module = build_worker();
    let stats = instrument_module(&mut module, &InstrumentOptions::default());
    println!(
        "instrumentation: {} accesses seen, {} probes inserted, {} deduped in-block",
        stats.accesses_seen, stats.probes_inserted, stats.deduped
    );

    // 2. Execute two threads against the detector, recording a trace too.
    let space = SimSpace::new(1 << 16);
    let det = DetectorConfig::sensitive();
    let rt = Predator::for_space(det, &space);
    let recorder = TraceRecorder::new();

    // First run: straight into the detector.
    let machine = Machine::new(&module, &space, &rt).expect("valid module");
    let threads = vec![
        ThreadSpec {
            tid: ThreadId(0),
            function: "worker".into(),
            args: vec![space.base() as i64, 5_000],
        },
        ThreadSpec {
            tid: ThreadId(1),
            function: "worker".into(),
            args: vec![(space.base() + 8) as i64, 5_000], // adjacent word!
        },
    ];
    machine
        .run(&threads, Schedule::RoundRobin { quantum: 7 }, 10_000_000)
        .expect("execution");

    let report = build_report(&rt, None);
    println!("\n=== report from live execution ===\n{report}");
    assert!(report.has_observed_false_sharing());

    // 3. Record the same execution as a trace, save/load it, and replay it
    //    into a *fresh* detector — identical verdict.
    let replay_space = SimSpace::new(1 << 16);
    let machine = Machine::new(&module, &replay_space, &recorder).unwrap();
    machine
        .run(&threads, Schedule::RoundRobin { quantum: 7 }, 10_000_000)
        .expect("execution");
    let mut buf = Vec::new();
    save_jsonl(&recorder.events(), &mut buf).unwrap();
    println!(
        "trace: {} events, {} bytes of JSON lines",
        recorder.len(),
        buf.len()
    );

    let events = load_jsonl(std::io::Cursor::new(buf)).unwrap();
    let rt2 = Predator::new(DetectorConfig::sensitive(), space.base(), 1 << 16);
    replay(&events, &rt2);
    let replayed = build_report(&rt2, None);
    assert!(replayed.has_observed_false_sharing());
    println!("\nreplay into a fresh detector reproduces the finding ✓");
}
