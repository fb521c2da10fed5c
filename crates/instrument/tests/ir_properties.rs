//! Property tests over randomly generated IR programs: the textual format
//! is lossless and execution is deterministic.

use proptest::prelude::*;

use predator_instrument::{
    instrument_module, parse_module, print_module, BinOp, FunctionBuilder, InstrumentOptions,
    Machine, Module, Operand, ThreadSpec, TraceRecorder,
};
use predator_shadow::SimSpace;
use predator_sim::{Schedule, ThreadId};

/// One randomly chosen body instruction, in a closed form the generator can
/// always make valid.
#[derive(Debug, Clone)]
enum BodyOp {
    /// `dst_fresh = a <op> b` with operands drawn from live regs/immediates.
    Bin(BinOp, u8, u8),
    /// Fresh register = load from `[base + 8*slot]`.
    Load(u8),
    /// Store a live value to `[base + 8*slot]`.
    Store(u8, u8),
    /// Copy a live value into a fresh register.
    Mov(u8),
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    // Div/Rem excluded: a generated divisor could be zero, which is a
    // legitimate runtime error, not a property violation.
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Lt),
    ]
}

fn arb_body() -> impl Strategy<Value = Vec<BodyOp>> {
    proptest::collection::vec(
        prop_oneof![
            (arb_binop(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| BodyOp::Bin(o, a, b)),
            any::<u8>().prop_map(BodyOp::Load),
            (any::<u8>(), any::<u8>()).prop_map(|(s, v)| BodyOp::Store(s, v)),
            any::<u8>().prop_map(BodyOp::Mov),
        ],
        1..24,
    )
}

/// Lowers a random body into `fn worker(base, n) { for i in 0..n { body } }`.
fn build_program(body: &[BodyOp]) -> Module {
    let mut fb = FunctionBuilder::new("worker", 2);
    let i = fb.reg();
    fb.mov(i, 0i64);
    let head = fb.new_block();
    let bodyb = fb.new_block();
    let exit = fb.new_block();
    fb.jmp(head);
    fb.select_block(head);
    let c = fb.bin(BinOp::Lt, i, Operand::Reg(1));
    fb.br(c, bodyb, exit);
    fb.select_block(bodyb);

    // Live values the body can draw from; starts with the loop counter.
    let mut live: Vec<Operand> = vec![Operand::Reg(i), Operand::Imm(3)];
    let pick = |live: &[Operand], k: u8| live[k as usize % live.len()];
    for op in body {
        match *op {
            BodyOp::Bin(o, a, b) => {
                let dst = fb.bin(o, pick(&live, a), pick(&live, b));
                live.push(Operand::Reg(dst));
            }
            BodyOp::Load(slot) => {
                let dst = fb.load(0u32, (slot % 8) as i64 * 8);
                live.push(Operand::Reg(dst));
            }
            BodyOp::Store(slot, v) => {
                let val = pick(&live, v);
                fb.store(0u32, (slot % 8) as i64 * 8, val);
            }
            BodyOp::Mov(v) => {
                let dst = fb.reg();
                fb.mov(dst, pick(&live, v));
                live.push(Operand::Reg(dst));
            }
        }
    }
    let i2 = fb.bin(BinOp::Add, i, 1i64);
    fb.mov(i, Operand::Reg(i2));
    fb.jmp(head);
    fb.select_block(exit);
    let ret = *live.last().unwrap();
    fb.ret(Some(ret));
    Module {
        functions: vec![fb.finish().expect("generated module is valid")],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// print → parse is the identity on arbitrary (instrumented or not)
    /// generated modules.
    #[test]
    fn prop_textual_roundtrip(body in arb_body(), instrumented in any::<bool>()) {
        let mut m = build_program(&body);
        if instrumented {
            instrument_module(&mut m, &InstrumentOptions::default());
        }
        let text = print_module(&m);
        let back = parse_module(&text).expect("printed module parses");
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(print_module(&back), text);
    }

    /// Execution of instrumented programs is deterministic: two runs produce
    /// identical event traces.
    #[test]
    fn prop_execution_is_deterministic(body in arb_body()) {
        let mut m = build_program(&body);
        instrument_module(&mut m, &InstrumentOptions::default());
        let trace = |seed: u64| {
            let space = SimSpace::new(4096);
            let rec = TraceRecorder::new();
            let machine = Machine::new(&m, &space, &rec).unwrap();
            machine
                .run(
                    &[
                        ThreadSpec {
                            tid: ThreadId(0),
                            function: "worker".into(),
                            args: vec![space.base() as i64, 5],
                        },
                        ThreadSpec {
                            tid: ThreadId(1),
                            function: "worker".into(),
                            args: vec![(space.base() + 64) as i64, 5],
                        },
                    ],
                    Schedule::Seeded(seed),
                    5_000_000,
                )
                .unwrap();
            rec.into_events()
        };
        prop_assert_eq!(trace(11), trace(11));
    }
}
