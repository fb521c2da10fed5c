//! A miniature typed IR: the stand-in for LLVM IR that the instrumentation
//! pass of [`crate::pass`] rewrites.
//!
//! The IR is a register machine over `i64` values. A [`Function`] is a list
//! of [`Block`]s; every block ends in exactly one terminator (`Jmp`, `Br`,
//! or `Ret`). Memory operands are `base + offset` with an explicit access
//! size, which is what gives the instrumentation pass its per-block
//! "(address expression, access type)" dedup key — the same notion of
//! redundancy LLVM-level PREDATOR uses inside a basic block.

use serde::{Deserialize, Serialize};

use predator_sim::AccessKind;

/// Virtual register index.
pub type Reg = u32;

/// Basic-block index within a function.
pub type BlockId = u32;

/// A value operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// A constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Binary ALU / comparison operations. Comparisons yield 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = a <op> b`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = mem[base + offset]` (`size` bytes, zero-extended).
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address operand.
        base: Operand,
        /// Constant byte offset.
        offset: i64,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// `mem[base + offset] = src` (`size` bytes).
    Store {
        /// Value to store.
        src: Operand,
        /// Base address operand.
        base: Operand,
        /// Constant byte offset.
        offset: i64,
        /// Access size in bytes.
        size: u8,
    },
    /// Runtime notification inserted by the instrumentation pass — the
    /// "function call to invoke the runtime system with the memory access
    /// address and access type" of §2.2. Never written by front ends.
    Probe {
        /// Read or write.
        kind: AccessKind,
        /// Base address operand (evaluated at probe time).
        base: Operand,
        /// Constant byte offset.
        offset: i64,
        /// Access size in bytes.
        size: u8,
    },
    /// Unconditional jump (terminator).
    Jmp {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch (terminator): nonzero → `then_bb`.
    Br {
        /// Condition operand.
        cond: Operand,
        /// Taken target.
        then_bb: BlockId,
        /// Fallthrough target.
        else_bb: BlockId,
    },
    /// Function return (terminator).
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
    /// Direct call: `dst = functions[func](args[..argc])`. Not a terminator;
    /// execution resumes at the next instruction when the callee returns.
    Call {
        /// Register receiving the return value (ignored if the callee
        /// returns nothing).
        dst: Option<Reg>,
        /// Callee index into [`Module::functions`].
        func: u32,
        /// Argument operands (first `argc` entries are meaningful).
        args: [Operand; MAX_CALL_ARGS],
        /// Number of arguments passed.
        argc: u8,
    },
}

/// Maximum arguments per [`Inst::Call`] (keeps `Inst: Copy`).
pub const MAX_CALL_ARGS: usize = 4;

impl Inst {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. })
    }

    /// The memory access this instruction performs, if any:
    /// `(kind, base, offset, size)`.
    pub fn memory_access(&self) -> Option<(AccessKind, Operand, i64, u8)> {
        match *self {
            Inst::Load {
                base, offset, size, ..
            } => Some((AccessKind::Read, base, offset, size)),
            Inst::Store {
                base, offset, size, ..
            } => Some((AccessKind::Write, base, offset, size)),
            _ => None,
        }
    }
}

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Instructions; the last one must be a terminator.
    pub insts: Vec<Inst>,
}

/// A function: `params` registers are pre-filled from thread arguments,
/// execution starts at block 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name (used by black/white lists).
    pub name: String,
    /// Number of leading registers filled from the caller's arguments.
    pub params: u32,
    /// Total virtual registers used.
    pub num_regs: u32,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Validates structural invariants: non-empty blocks, each ending in a
    /// terminator, with in-range targets and registers.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("function {}: no blocks", self.name));
        }
        let nblocks = self.blocks.len() as u32;
        let check_op = |op: Operand| -> Result<(), String> {
            if let Operand::Reg(r) = op {
                if r >= self.num_regs {
                    return Err(format!(
                        "function {}: register r{} out of range",
                        self.name, r
                    ));
                }
            }
            Ok(())
        };
        for (bi, b) in self.blocks.iter().enumerate() {
            let Some(last) = b.insts.last() else {
                return Err(format!("function {}: block {} is empty", self.name, bi));
            };
            if !last.is_terminator() {
                return Err(format!(
                    "function {}: block {} lacks a terminator",
                    self.name, bi
                ));
            }
            for (ii, inst) in b.insts.iter().enumerate() {
                if inst.is_terminator() && ii + 1 != b.insts.len() {
                    return Err(format!(
                        "function {}: block {} has a terminator mid-block",
                        self.name, bi
                    ));
                }
                match *inst {
                    Inst::Bin { dst, a, b, .. } => {
                        check_op(Operand::Reg(dst))?;
                        check_op(a)?;
                        check_op(b)?;
                    }
                    Inst::Mov { dst, src } => {
                        check_op(Operand::Reg(dst))?;
                        check_op(src)?;
                    }
                    Inst::Load {
                        dst, base, size, ..
                    } => {
                        check_op(Operand::Reg(dst))?;
                        check_op(base)?;
                        check_size(&self.name, size)?;
                    }
                    Inst::Store {
                        src, base, size, ..
                    } => {
                        check_op(src)?;
                        check_op(base)?;
                        check_size(&self.name, size)?;
                    }
                    Inst::Probe { base, size, .. } => {
                        check_op(base)?;
                        check_size(&self.name, size)?;
                    }
                    Inst::Jmp { target } => {
                        if target >= nblocks {
                            return Err(format!(
                                "function {}: jump to missing block {}",
                                self.name, target
                            ));
                        }
                    }
                    Inst::Br {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        check_op(cond)?;
                        if then_bb >= nblocks || else_bb >= nblocks {
                            return Err(format!("function {}: branch to missing block", self.name));
                        }
                    }
                    Inst::Ret { value } => {
                        if let Some(v) = value {
                            check_op(v)?;
                        }
                    }
                    Inst::Call {
                        dst, args, argc, ..
                    } => {
                        if argc as usize > MAX_CALL_ARGS {
                            return Err(format!(
                                "function {}: call passes {argc} args (max {MAX_CALL_ARGS})",
                                self.name
                            ));
                        }
                        if let Some(d) = dst {
                            check_op(Operand::Reg(d))?;
                        }
                        for a in args.iter().take(argc as usize) {
                            check_op(*a)?;
                        }
                        // Callee index validated at module level.
                    }
                }
            }
        }
        if self.params > self.num_regs {
            return Err(format!(
                "function {}: more params than registers",
                self.name
            ));
        }
        Ok(())
    }
}

fn check_size(fname: &str, size: u8) -> Result<(), String> {
    if matches!(size, 1 | 2 | 4 | 8) {
        Ok(())
    } else {
        Err(format!("function {fname}: invalid access size {size}"))
    }
}

/// A compilation unit: named functions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    /// The functions of the module.
    pub functions: Vec<Function>,
}

impl Module {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Validates every function, plus cross-function call targets and
    /// argument counts.
    pub fn validate(&self) -> Result<(), String> {
        self.functions.iter().try_for_each(Function::validate)?;
        for f in &self.functions {
            for inst in f.blocks.iter().flat_map(|b| &b.insts) {
                if let Inst::Call { func, argc, .. } = *inst {
                    let Some(callee) = self.functions.get(func as usize) else {
                        return Err(format!(
                            "function {}: call to missing function index {func}",
                            f.name
                        ));
                    };
                    if argc as u32 > callee.params {
                        return Err(format!(
                            "function {}: call passes {argc} args but `{}` takes {}",
                            f.name, callee.name, callee.params
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience builder producing structurally valid functions.
///
/// ```
/// use predator_instrument::ir::{BinOp, FunctionBuilder, Operand};
///
/// // fn sum_to(n) { s = 0; for i in 0..n { s += i }; return s }
/// let mut fb = FunctionBuilder::new("sum_to", 1);
/// let n = 0; // param register
/// let s = fb.reg();
/// let i = fb.reg();
/// fb.mov(s, 0i64);
/// fb.mov(i, 0i64);
/// let loop_head = fb.new_block();
/// fb.jmp(loop_head);
/// fb.select_block(loop_head);
/// let cond = fb.bin(BinOp::Lt, Operand::Reg(i), Operand::Reg(n));
/// let body = fb.new_block();
/// let exit = fb.new_block();
/// fb.br(cond, body, exit);
/// fb.select_block(body);
/// let s2 = fb.bin(BinOp::Add, Operand::Reg(s), Operand::Reg(i));
/// fb.mov(s, Operand::Reg(s2));
/// let i2 = fb.bin(BinOp::Add, Operand::Reg(i), 1i64);
/// fb.mov(i, Operand::Reg(i2));
/// fb.jmp(loop_head);
/// fb.select_block(exit);
/// fb.ret(Some(Operand::Reg(s)));
/// let f = fb.finish().unwrap();
/// assert_eq!(f.blocks.len(), 4);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: u32,
    next_reg: u32,
    blocks: Vec<Block>,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts a function with `params` argument registers (registers
    /// `0..params` are pre-filled at call time). The entry block is current.
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            params,
            next_reg: params,
            blocks: vec![Block::default()],
            current: 0,
        }
    }

    /// Allocates a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Creates a new (empty) block and returns its id; does not switch to it.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        (self.blocks.len() - 1) as BlockId
    }

    /// Makes `id` the insertion point.
    pub fn select_block(&mut self, id: BlockId) {
        assert!((id as usize) < self.blocks.len(), "no such block");
        self.current = id;
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Appends a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        self.blocks[self.current as usize].insts.push(inst);
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
    }

    /// `fresh = a <op> b`; returns the fresh destination register.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Inst::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// `fresh = mem[base + offset]` (8 bytes); returns the destination.
    pub fn load(&mut self, base: impl Into<Operand>, offset: i64) -> Reg {
        self.load_sized(base, offset, 8)
    }

    /// Sized load.
    pub fn load_sized(&mut self, base: impl Into<Operand>, offset: i64, size: u8) -> Reg {
        let dst = self.reg();
        self.push(Inst::Load {
            dst,
            base: base.into(),
            offset,
            size,
        });
        dst
    }

    /// `mem[base + offset] = src` (8 bytes).
    pub fn store(&mut self, base: impl Into<Operand>, offset: i64, src: impl Into<Operand>) {
        self.store_sized(base, offset, src, 8)
    }

    /// Sized store.
    pub fn store_sized(
        &mut self,
        base: impl Into<Operand>,
        offset: i64,
        src: impl Into<Operand>,
        size: u8,
    ) {
        self.push(Inst::Store {
            src: src.into(),
            base: base.into(),
            offset,
            size,
        });
    }

    /// Unconditional jump terminator.
    pub fn jmp(&mut self, target: BlockId) {
        self.push(Inst::Jmp { target });
    }

    /// Conditional branch terminator.
    pub fn br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.push(Inst::Br {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    /// Return terminator.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.push(Inst::Ret { value });
    }

    /// Direct call to function index `func`; returns the fresh destination
    /// register holding the callee's return value.
    pub fn call(&mut self, func: u32, args: &[Operand]) -> Reg {
        assert!(args.len() <= MAX_CALL_ARGS, "too many call arguments");
        let dst = self.reg();
        let mut padded = [Operand::Imm(0); MAX_CALL_ARGS];
        padded[..args.len()].copy_from_slice(args);
        self.push(Inst::Call {
            dst: Some(dst),
            func,
            args: padded,
            argc: args.len() as u8,
        });
        dst
    }

    /// Validates and produces the function.
    pub fn finish(self) -> Result<Function, String> {
        let f = Function {
            name: self.name,
            params: self.params,
            num_regs: self.next_reg,
            blocks: self.blocks,
        };
        f.validate()?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial() -> Function {
        let mut fb = FunctionBuilder::new("t", 0);
        fb.ret(None);
        fb.finish().unwrap()
    }

    #[test]
    fn builder_produces_valid_function() {
        let f = trivial();
        assert_eq!(f.name, "t");
        assert_eq!(f.blocks.len(), 1);
        f.validate().unwrap();
    }

    #[test]
    fn validation_rejects_missing_terminator() {
        let f = Function {
            name: "bad".into(),
            params: 0,
            num_regs: 1,
            blocks: vec![Block {
                insts: vec![Inst::Mov {
                    dst: 0,
                    src: Operand::Imm(1),
                }],
            }],
        };
        assert!(f.validate().unwrap_err().contains("terminator"));
    }

    #[test]
    fn validation_rejects_mid_block_terminator() {
        let f = Function {
            name: "bad".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![Block {
                insts: vec![Inst::Ret { value: None }, Inst::Ret { value: None }],
            }],
        };
        assert!(f.validate().unwrap_err().contains("mid-block"));
    }

    #[test]
    fn validation_rejects_out_of_range_register() {
        let f = Function {
            name: "bad".into(),
            params: 0,
            num_regs: 1,
            blocks: vec![Block {
                insts: vec![
                    Inst::Mov {
                        dst: 0,
                        src: Operand::Reg(5),
                    },
                    Inst::Ret { value: None },
                ],
            }],
        };
        assert!(f.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validation_rejects_bad_jump_target() {
        let f = Function {
            name: "bad".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![Block {
                insts: vec![Inst::Jmp { target: 7 }],
            }],
        };
        assert!(f.validate().unwrap_err().contains("missing block"));
    }

    #[test]
    fn validation_rejects_bad_access_size() {
        let f = Function {
            name: "bad".into(),
            params: 1,
            num_regs: 2,
            blocks: vec![Block {
                insts: vec![
                    Inst::Load {
                        dst: 1,
                        base: Operand::Reg(0),
                        offset: 0,
                        size: 3,
                    },
                    Inst::Ret { value: None },
                ],
            }],
        };
        assert!(f.validate().unwrap_err().contains("invalid access size"));
    }

    #[test]
    fn memory_access_extraction() {
        let l = Inst::Load {
            dst: 0,
            base: Operand::Reg(1),
            offset: 8,
            size: 4,
        };
        assert_eq!(
            l.memory_access(),
            Some((predator_sim::AccessKind::Read, Operand::Reg(1), 8, 4))
        );
        let s = Inst::Store {
            src: Operand::Imm(0),
            base: Operand::Reg(1),
            offset: 8,
            size: 4,
        };
        assert_eq!(
            s.memory_access().unwrap().0,
            predator_sim::AccessKind::Write
        );
        assert_eq!(Inst::Ret { value: None }.memory_access(), None);
    }

    #[test]
    fn module_lookup_and_counts() {
        let m = Module {
            functions: vec![trivial()],
        };
        assert!(m.function("t").is_some());
        assert!(m.function("nope").is_none());
        m.validate().unwrap();
    }

    #[test]
    fn operand_conversions() {
        let r: Operand = 3u32.into();
        assert_eq!(r, Operand::Reg(3));
        let i: Operand = (-5i64).into();
        assert_eq!(i, Operand::Imm(-5));
    }
}
