//! # predator-instrument
//!
//! The compiler-instrumentation substrate of the PREDATOR false-sharing
//! detector (§2.2, §2.4.2).
//!
//! The paper instruments memory accesses with an LLVM pass placed at the end
//! of the optimization pipeline, inserting a runtime call per surviving
//! access, with *selective instrumentation*: only one probe per (address,
//! access type) per basic block, optional write-only mode, and black/white
//! lists. Reproducing an LLVM pass verbatim is out of scope for a pure-Rust
//! build, so this crate provides the same pipeline over a miniature typed IR:
//!
//! * [`ir`] — modules, functions, basic blocks, a register machine with
//!   loads/stores/ALU/branches, and a builder API;
//! * [`pass`] — the instrumentation pass: walks every block and inserts
//!   [`ir::Inst::Probe`] before memory accesses, implementing exactly the
//!   §2.4.2 selection rules;
//! * [`interp`] — a multi-threaded interpreter executing instrumented IR
//!   against a `SimSpace` under a `predator_sim::Schedule`, so the
//!   interleaving the paper conservatively assumes can be produced on
//!   demand and exact invalidation counts asserted in tests;
//! * [`trace`] — in-memory access-trace recording and replay, decoupling
//!   trace collection from analysis.
//!
//! The detector consumes only the event stream `(thread, address, size,
//! kind)`; a program lowered to this IR and instrumented here produces the
//! same streams the LLVM pass would arrange for the equivalent C program.

pub mod interp;
pub mod ir;
pub mod pass;
pub mod textual;
pub mod trace;

pub use interp::{AccessSink, ExecError, Machine, NullSink, ThreadSpec};
pub use ir::{BinOp, Block, BlockId, Function, FunctionBuilder, Inst, Module, Operand, Reg};
pub use pass::{instrument_module, InstrumentMode, InstrumentOptions, InstrumentStats};
pub use textual::{parse_module, print_module, ParseError};
pub use trace::{replay, TraceRecorder};
