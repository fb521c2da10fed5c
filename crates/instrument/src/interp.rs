//! A deterministic multi-threaded IR interpreter.
//!
//! Executes instrumented [`Module`]s against a [`SimSpace`], delivering every
//! [`Inst::Probe`] to an [`AccessSink`] (normally the detector runtime).
//! Threads take turns of a [`Schedule`], one instruction per unit, so the
//! adversarial interleaving PREDATOR conservatively assumes (§3.3) — or any
//! other — can be produced reproducibly, and tests can assert *exact*
//! invalidation counts through the compiler-instrumentation → runtime pipeline.

use predator_shadow::SimSpace;
use predator_sim::{Schedule, ThreadId, Turns};

use crate::ir::{BinOp, Function, Inst, Module, Operand};

// The sink interface lives with the event vocabulary in `predator-sim`
// (the detector runtime implements it in `predator-core`); re-exported here
// so existing `predator_instrument::interp::AccessSink` paths keep working.
pub use predator_sim::{AccessSink, NullSink};

/// One thread to run: entry function and arguments.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Detector-visible thread id.
    pub tid: ThreadId,
    /// Entry function name.
    pub function: String,
    /// Values for the function's parameter registers.
    pub args: Vec<i64>,
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A thread spec names a function the module lacks.
    UnknownFunction(String),
    /// Integer division or remainder by zero.
    DivByZero {
        /// Function name.
        function: String,
    },
    /// The global step budget ran out (likely an IR-level infinite loop).
    StepLimitExceeded,
    /// A thread exceeded the maximum call depth (runaway recursion).
    CallDepthExceeded {
        /// Function name at the top of the stack.
        function: String,
    },
    /// The module failed structural validation.
    Validation(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::DivByZero { function } => write!(f, "division by zero in `{function}`"),
            ExecError::StepLimitExceeded => f.write_str("step limit exceeded"),
            ExecError::CallDepthExceeded { function } => {
                write!(f, "call depth exceeded in `{function}`")
            }
            ExecError::Validation(e) => write!(f, "invalid module: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One activation record.
struct Frame<'m> {
    func: &'m Function,
    regs: Vec<i64>,
    block: usize,
    ip: usize,
    /// Caller register receiving the return value (None in the entry frame
    /// or for value-discarding calls).
    ret_to: Option<u32>,
}

/// Maximum call depth per thread (guards runaway recursion).
const MAX_CALL_DEPTH: usize = 256;

/// A thread has finished once its entry frame returned: its stack is empty.
struct ThreadState<'m> {
    tid: ThreadId,
    stack: Vec<Frame<'m>>,
    result: Option<i64>,
}

/// The interpreter: a module bound to a memory space and an event sink.
pub struct Machine<'a> {
    module: &'a Module,
    space: &'a SimSpace,
    sink: &'a dyn AccessSink,
}

impl<'a> Machine<'a> {
    /// Validates the module and builds a machine.
    pub fn new(
        module: &'a Module,
        space: &'a SimSpace,
        sink: &'a dyn AccessSink,
    ) -> Result<Self, ExecError> {
        module.validate().map_err(ExecError::Validation)?;
        Ok(Machine {
            module,
            space,
            sink,
        })
    }

    /// Runs `threads` to completion under `schedule`, one instruction per
    /// unit of a turn, with a global budget of `max_steps` instructions.
    /// Returns each thread's return value.
    pub fn run(
        &self,
        threads: &[ThreadSpec],
        schedule: Schedule,
        max_steps: u64,
    ) -> Result<Vec<Option<i64>>, ExecError> {
        let _span = predator_obs::span("interpret");
        let mut states: Vec<ThreadState<'_>> = threads
            .iter()
            .map(|spec| {
                let func = self
                    .module
                    .function(&spec.function)
                    .ok_or_else(|| ExecError::UnknownFunction(spec.function.clone()))?;
                let mut regs = vec![0i64; func.num_regs as usize];
                for (i, &a) in spec.args.iter().take(func.params as usize).enumerate() {
                    regs[i] = a;
                }
                Ok(ThreadState {
                    tid: spec.tid,
                    stack: vec![Frame {
                        func,
                        regs,
                        block: 0,
                        ip: 0,
                        ret_to: None,
                    }],
                    result: None,
                })
            })
            .collect::<Result<_, ExecError>>()?;

        let mut steps = 0u64;
        // Trace-timeline lanes: one duration span per simulated thread
        // (named after its entry function) plus an activity marker every
        // ACTIVITY_SLICE executed instructions, so interleaving is visible
        // without a per-instruction event flood. Both hooks are behind a
        // single boolean resolved once per run.
        let tl = predator_obs::timeline();
        let tl_on = tl.enabled();
        let mut executed = vec![0u64; states.len()];
        const ACTIVITY_SLICE: u64 = 256;
        let mut turns = Turns::new(schedule, 0..states.len());
        while let Some((pick, quantum)) = turns.pick() {
            let lane = states[pick].tid.index() as u64;
            for _ in 0..quantum {
                if states[pick].stack.is_empty() {
                    break;
                }
                if steps >= max_steps {
                    return Err(ExecError::StepLimitExceeded);
                }
                steps += 1;
                if tl_on {
                    if executed[pick] == 0 {
                        tl.begin(&threads[pick].function, "interp", lane);
                    }
                    executed[pick] += 1;
                    if executed[pick].is_multiple_of(ACTIVITY_SLICE) {
                        tl.instant(
                            "executed",
                            "interp",
                            lane,
                            vec![("steps", predator_obs::ArgVal::U64(executed[pick]))],
                        );
                    }
                }
                self.step(&mut states[pick])?;
            }
            // A turn runs at least one instruction: the lane has begun.
            if states[pick].stack.is_empty() {
                turns.retire();
                if tl_on {
                    tl.end(&threads[pick].function, "interp", lane);
                }
            }
        }
        predator_obs::static_counter!("interp_instructions_total").add(steps);
        Ok(states.into_iter().map(|s| s.result).collect())
    }

    fn step<'m>(&'m self, st: &mut ThreadState<'m>) -> Result<(), ExecError> {
        let tid = st.tid;
        let depth = st.stack.len();
        let frame = st.stack.last_mut().expect("live thread has a frame");
        let inst = frame.func.blocks[frame.block].insts[frame.ip];
        frame.ip += 1;
        match inst {
            Inst::Mov { dst, src } => {
                frame.regs[dst as usize] = eval(&frame.regs, src);
            }
            Inst::Bin { op, dst, a, b } => {
                let (a, b) = (eval(&frame.regs, a), eval(&frame.regs, b));
                frame.regs[dst as usize] = apply(op, a, b).ok_or_else(|| ExecError::DivByZero {
                    function: frame.func.name.clone(),
                })?;
            }
            Inst::Load {
                dst,
                base,
                offset,
                size,
            } => {
                let addr = mem_addr(&frame.regs, base, offset);
                frame.regs[dst as usize] = self.load_sized(addr, size);
            }
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => {
                let addr = mem_addr(&frame.regs, base, offset);
                self.store_sized(addr, size, eval(&frame.regs, src));
            }
            Inst::Probe {
                kind,
                base,
                offset,
                size,
            } => {
                let addr = mem_addr(&frame.regs, base, offset);
                self.sink.access(tid, addr, size, kind);
            }
            Inst::Jmp { target } => {
                frame.block = target as usize;
                frame.ip = 0;
            }
            Inst::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                frame.block = if eval(&frame.regs, cond) != 0 {
                    then_bb as usize
                } else {
                    else_bb as usize
                };
                frame.ip = 0;
            }
            Inst::Call {
                dst,
                func,
                args,
                argc,
            } => {
                if depth >= MAX_CALL_DEPTH {
                    return Err(ExecError::CallDepthExceeded {
                        function: frame.func.name.clone(),
                    });
                }
                let callee = &self.module.functions[func as usize];
                let mut regs = vec![0i64; callee.num_regs as usize];
                for (i, a) in args.iter().take(argc as usize).enumerate() {
                    regs[i] = eval(&frame.regs, *a);
                }
                st.stack.push(Frame {
                    func: callee,
                    regs,
                    block: 0,
                    ip: 0,
                    ret_to: dst,
                });
            }
            Inst::Ret { value } => {
                let v = value.map(|v| eval(&frame.regs, v));
                let ret_to = frame.ret_to;
                st.stack.pop();
                match st.stack.last_mut() {
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (ret_to, v) {
                            caller.regs[dst as usize] = v;
                        }
                    }
                    None => st.result = v,
                }
            }
        }
        Ok(())
    }

    fn load_sized(&self, addr: u64, size: u8) -> i64 {
        match size {
            1 => self.space.load::<u8>(addr) as i64,
            2 => self.space.load::<u16>(addr) as i64,
            4 => self.space.load::<u32>(addr) as i64,
            _ => self.space.load::<u64>(addr) as i64,
        }
    }

    fn store_sized(&self, addr: u64, size: u8, value: i64) {
        match size {
            1 => self.space.store::<u8>(addr, value as u8),
            2 => self.space.store::<u16>(addr, value as u16),
            4 => self.space.store::<u32>(addr, value as u32),
            _ => self.space.store::<u64>(addr, value as u64),
        }
    }
}

#[inline]
fn eval(regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => v,
    }
}

#[inline]
fn mem_addr(regs: &[i64], base: Operand, offset: i64) -> u64 {
    (eval(regs, base)).wrapping_add(offset) as u64
}

fn apply(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => (a as u64).wrapping_shr(b as u32 & 63) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FunctionBuilder;
    use crate::pass::{instrument_module, InstrumentOptions};
    use crate::trace::TraceRecorder;
    use predator_core::{DetectorConfig, Predator};
    use predator_sim::Access;

    /// `fn sum_to(n) -> 0+1+…+(n-1)` — pure compute, no memory.
    fn sum_to() -> Module {
        let mut fb = FunctionBuilder::new("sum_to", 1);
        let s = fb.reg();
        let i = fb.reg();
        fb.mov(s, 0i64);
        fb.mov(i, 0i64);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jmp(head);
        fb.select_block(head);
        let c = fb.bin(BinOp::Lt, i, Operand::Reg(0));
        fb.br(c, body, exit);
        fb.select_block(body);
        let s2 = fb.bin(BinOp::Add, s, i);
        fb.mov(s, Operand::Reg(s2));
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.mov(i, Operand::Reg(i2));
        fb.jmp(head);
        fb.select_block(exit);
        fb.ret(Some(Operand::Reg(s)));
        Module {
            functions: vec![fb.finish().unwrap()],
        }
    }

    /// `fn writer(base, n)` — stores `n` times to `mem[base]`.
    fn writer_module() -> Module {
        let mut fb = FunctionBuilder::new("writer", 2);
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
        fb.store(0u32, 0, i);
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.mov(i, Operand::Reg(i2));
        fb.jmp(head);
        fb.select_block(exit);
        fb.ret(None);
        Module {
            functions: vec![fb.finish().unwrap()],
        }
    }

    fn space() -> SimSpace {
        SimSpace::new(1 << 16)
    }

    #[test]
    fn computes_loop_sum() {
        let m = sum_to();
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        let r = machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "sum_to".into(),
                    args: vec![10],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100_000,
            )
            .unwrap();
        assert_eq!(r, vec![Some(45)]);
    }

    #[test]
    fn stores_reach_memory() {
        let m = writer_module();
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "writer".into(),
                    args: vec![sp.base() as i64, 5],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100_000,
            )
            .unwrap();
        assert_eq!(sp.load::<u64>(sp.base()), 4, "last stored value");
    }

    #[test]
    fn probes_fire_exactly_per_executed_access() {
        let mut m = writer_module();
        instrument_module(&mut m, &InstrumentOptions::default());
        let sp = space();
        let rec = TraceRecorder::new();
        let machine = Machine::new(&m, &sp, &rec).unwrap();
        machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(3),
                    function: "writer".into(),
                    args: vec![sp.base() as i64, 7],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100_000,
            )
            .unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 7, "one probe per loop iteration");
        assert!(events
            .iter()
            .all(|e| *e == Access::write(ThreadId(3), sp.base(), 8)));
    }

    #[test]
    fn quantum_one_interleaving_gives_exact_invalidations() {
        // Two writers ping-pong adjacent words of one line. Each loop body
        // is 4 instructions (probe, store, add, mov, jmp = 5 with jmp); with
        // quantum large enough to cover one iteration but not two, writes
        // strictly alternate. We use quantum exactly one body length.
        let mut m = writer_module();
        instrument_module(&mut m, &InstrumentOptions::default());
        let sp = space();
        let cfg = DetectorConfig {
            tracking_threshold: 1,
            report_threshold: 1,
            sampling: false,
            ..DetectorConfig::sensitive()
        };
        let rt = Predator::for_space(cfg, &sp);
        let machine = Machine::new(&m, &sp, &rt).unwrap();
        let n = 100i64;
        machine
            .run(
                &[
                    ThreadSpec {
                        tid: ThreadId(0),
                        function: "writer".into(),
                        args: vec![sp.base() as i64, n],
                    },
                    ThreadSpec {
                        tid: ThreadId(1),
                        function: "writer".into(),
                        args: vec![(sp.base() + 8) as i64, n],
                    },
                ],
                Schedule::RoundRobin { quantum: 7 },
                1_000_000,
            )
            .unwrap();
        let snap = rt.line_snapshot(0).unwrap();
        // The very first write is consumed by the CacheWrites threshold
        // counter (tracking_threshold = 1) before the track exists; the
        // remaining 199 alternating writes are all tracked.
        assert_eq!(snap.writes, 199);
        // Strict alternation: every tracked write after the first
        // invalidates the other thread's copy.
        assert_eq!(snap.invalidations, 198);
    }

    #[test]
    fn run_to_completion_schedule_hides_sharing() {
        let mut m = writer_module();
        instrument_module(&mut m, &InstrumentOptions::default());
        let sp = space();
        let cfg = DetectorConfig {
            tracking_threshold: 1,
            report_threshold: 1,
            sampling: false,
            ..DetectorConfig::sensitive()
        };
        let rt = Predator::for_space(cfg, &sp);
        let machine = Machine::new(&m, &sp, &rt).unwrap();
        machine
            .run(
                &[
                    ThreadSpec {
                        tid: ThreadId(0),
                        function: "writer".into(),
                        args: vec![sp.base() as i64, 100],
                    },
                    ThreadSpec {
                        tid: ThreadId(1),
                        function: "writer".into(),
                        args: vec![(sp.base() + 8) as i64, 100],
                    },
                ],
                Schedule::RoundRobin { quantum: u64::MAX },
                1_000_000,
            )
            .unwrap();
        // One hand-off → exactly one invalidation.
        assert_eq!(rt.line_snapshot(0).unwrap().invalidations, 1);
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let mut m = writer_module();
        instrument_module(&mut m, &InstrumentOptions::default());
        let runs: Vec<Vec<Access>> = (0..2)
            .map(|_| {
                let sp = space();
                let rec = TraceRecorder::new();
                let machine = Machine::new(&m, &sp, &rec).unwrap();
                machine
                    .run(
                        &[
                            ThreadSpec {
                                tid: ThreadId(0),
                                function: "writer".into(),
                                args: vec![sp.base() as i64, 50],
                            },
                            ThreadSpec {
                                tid: ThreadId(1),
                                function: "writer".into(),
                                args: vec![(sp.base() + 8) as i64, 50],
                            },
                        ],
                        Schedule::Seeded(1234),
                        1_000_000,
                    )
                    .unwrap();
                rec.events()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let m = sum_to();
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        let err = machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "nope".into(),
                    args: vec![],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100,
            )
            .unwrap_err();
        assert_eq!(err, ExecError::UnknownFunction("nope".into()));
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let mut fb = FunctionBuilder::new("spin", 0);
        let b = fb.current_block();
        fb.jmp(b);
        let m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        let err = machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "spin".into(),
                    args: vec![],
                }],
                Schedule::RoundRobin { quantum: 1 },
                1_000,
            )
            .unwrap_err();
        assert_eq!(err, ExecError::StepLimitExceeded);
    }

    #[test]
    fn div_by_zero_is_reported() {
        let mut fb = FunctionBuilder::new("crash", 0);
        let _ = fb.bin(BinOp::Div, 1i64, 0i64);
        fb.ret(None);
        let m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        let err = machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "crash".into(),
                    args: vec![],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::DivByZero {
                function: "crash".into()
            }
        );
    }

    #[test]
    fn invalid_module_rejected_at_construction() {
        let m = Module {
            functions: vec![crate::ir::Function {
                name: "bad".into(),
                params: 0,
                num_regs: 0,
                blocks: vec![],
            }],
        };
        let sp = space();
        assert!(matches!(
            Machine::new(&m, &sp, &NullSink),
            Err(ExecError::Validation(_))
        ));
    }

    #[test]
    fn sized_loads_and_stores_roundtrip() {
        let mut fb = FunctionBuilder::new("sizes", 1);
        fb.store_sized(0u32, 0, 0x1ffi64, 1); // truncates to 0xff
        let v = fb.load_sized(0u32, 0, 1);
        fb.ret(Some(Operand::Reg(v)));
        let m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let sp = space();
        let machine = Machine::new(&m, &sp, &NullSink).unwrap();
        let r = machine
            .run(
                &[ThreadSpec {
                    tid: ThreadId(0),
                    function: "sizes".into(),
                    args: vec![sp.base() as i64],
                }],
                Schedule::RoundRobin { quantum: 1 },
                100,
            )
            .unwrap();
        assert_eq!(r, vec![Some(0xff)]);
    }
}
