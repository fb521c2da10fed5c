//! The instrumentation pass (§2.2, §2.4.2).
//!
//! Walks every function and inserts an [`Inst::Probe`] immediately before
//! each memory access, so the interpreter notifies the runtime with the
//! access address and type — the IR analogue of PREDATOR's LLVM pass, which
//! runs "at the very end of the LLVM optimization passes so that only those
//! memory accesses surviving all previous LLVM optimization passes are
//! instrumented".
//!
//! Selection rules, straight from the paper:
//!
//! * **Per-block dedup** — "PREDATOR only adds instrumentation once for each
//!   type of memory access on each address in the same basic block." The
//!   dedup key is `(kind, base operand, offset, size)` — the static address
//!   expression.
//! * **Write-only mode** — instrument only stores; detects write-write
//!   false sharing at lower overhead, "as SHERIFF does".
//! * **Blacklist / whitelist** — skip named functions, or instrument only
//!   named functions.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use predator_sim::AccessKind;

use crate::ir::{Block, Inst, Module, Operand};

/// Which access kinds to instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstrumentMode {
    /// Probe reads and writes (full detection).
    ReadsAndWrites,
    /// Probe writes only (write-write false sharing, lower overhead).
    WritesOnly,
    /// Probe nothing (baseline for overhead measurements).
    None,
}

/// Pass options.
#[derive(Debug, Clone, Default)]
pub struct InstrumentOptions {
    /// Access kinds to probe.
    pub mode: Option<InstrumentMode>,
    /// Functions never instrumented.
    pub blacklist: Vec<String>,
    /// If set, only these functions are instrumented.
    pub whitelist: Option<Vec<String>>,
    /// Disable the per-block dedup (ablation switch; the paper's selective
    /// instrumentation corresponds to `false`).
    pub no_selective: bool,
}

impl InstrumentOptions {
    fn effective_mode(&self) -> InstrumentMode {
        self.mode.unwrap_or(InstrumentMode::ReadsAndWrites)
    }

    fn function_enabled(&self, name: &str) -> bool {
        if self.blacklist.iter().any(|b| b == name) {
            return false;
        }
        match &self.whitelist {
            Some(wl) => wl.iter().any(|w| w == name),
            None => true,
        }
    }
}

/// What the pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrumentStats {
    /// Memory accesses seen.
    pub accesses_seen: usize,
    /// Probes inserted.
    pub probes_inserted: usize,
    /// Accesses skipped by the per-block dedup.
    pub deduped: usize,
    /// Accesses skipped by mode/blacklist/whitelist.
    pub filtered: usize,
}

/// Instruments `module` in place; returns statistics.
pub fn instrument_module(module: &mut Module, opts: &InstrumentOptions) -> InstrumentStats {
    let _span = predator_obs::span("instrument");
    let mut stats = InstrumentStats::default();
    let mode = opts.effective_mode();
    for func in &mut module.functions {
        let enabled = opts.function_enabled(&func.name);
        for block in &mut func.blocks {
            instrument_block(block, mode, enabled, opts.no_selective, &mut stats);
        }
    }
    stats
}

fn instrument_block(
    block: &mut Block,
    mode: InstrumentMode,
    enabled: bool,
    no_selective: bool,
    stats: &mut InstrumentStats,
) {
    // Dedup key: static address expression + access type.
    type Key = (AccessKind, Operand, i64, u8);
    let mut seen: HashSet<Key> = HashSet::new();
    let mut out = Vec::with_capacity(block.insts.len());
    for inst in block.insts.drain(..) {
        if let Some((kind, base, offset, size)) = inst.memory_access() {
            stats.accesses_seen += 1;
            let mode_ok = match mode {
                InstrumentMode::ReadsAndWrites => true,
                InstrumentMode::WritesOnly => kind == AccessKind::Write,
                InstrumentMode::None => false,
            };
            if !enabled || !mode_ok {
                stats.filtered += 1;
            } else if !no_selective && !seen.insert((kind, base, offset, size)) {
                stats.deduped += 1;
            } else {
                out.push(Inst::Probe {
                    kind,
                    base,
                    offset,
                    size,
                });
                stats.probes_inserted += 1;
            }
        }
        out.push(inst);
    }
    block.insts = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Operand};

    /// A block with: load x2 from same address, store to same address,
    /// load from a different offset.
    fn sample_module() -> Module {
        let mut fb = FunctionBuilder::new("work", 1);
        let base = 0u32; // param
        fb.load(base, 0);
        fb.load(base, 0); // duplicate read, same block
        fb.store(base, 0, 7i64); // write to same address: different kind
        fb.load(base, 8); // different offset
        fb.ret(None);
        Module {
            functions: vec![fb.finish().unwrap()],
        }
    }

    #[test]
    fn inserts_probe_before_each_unique_access() {
        let mut m = sample_module();
        let stats = instrument_module(&mut m, &InstrumentOptions::default());
        assert_eq!(stats.accesses_seen, 4);
        assert_eq!(stats.probes_inserted, 3, "duplicate read deduped");
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.filtered, 0);
        m.validate().unwrap();
        // Each probe sits immediately before its access.
        let insts = &m.functions[0].blocks[0].insts;
        let probes = insts.iter().filter(|i| matches!(i, Inst::Probe { .. }));
        assert_eq!(probes.count(), 3);
        for (i, inst) in insts.iter().enumerate() {
            if matches!(inst, Inst::Probe { .. }) {
                assert!(insts[i + 1].memory_access().is_some());
            }
        }
    }

    #[test]
    fn dedup_is_per_block() {
        // Same access in two blocks: instrumented in both.
        let mut fb = FunctionBuilder::new("two_blocks", 1);
        fb.load(0u32, 0);
        let b1 = fb.new_block();
        fb.jmp(b1);
        fb.select_block(b1);
        fb.load(0u32, 0);
        fb.ret(None);
        let mut m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let stats = instrument_module(&mut m, &InstrumentOptions::default());
        assert_eq!(stats.probes_inserted, 2);
        assert_eq!(stats.deduped, 0);
    }

    #[test]
    fn different_sizes_are_distinct_accesses() {
        let mut fb = FunctionBuilder::new("sizes", 1);
        fb.load_sized(0u32, 0, 4);
        fb.load_sized(0u32, 0, 8);
        fb.ret(None);
        let mut m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let stats = instrument_module(&mut m, &InstrumentOptions::default());
        assert_eq!(stats.probes_inserted, 2);
    }

    #[test]
    fn writes_only_mode_filters_reads() {
        let mut m = sample_module();
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                mode: Some(InstrumentMode::WritesOnly),
                ..Default::default()
            },
        );
        assert_eq!(stats.probes_inserted, 1);
        assert_eq!(stats.filtered, 3);
        let probes: Vec<_> = m.functions[0].blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Probe { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(probes, vec![AccessKind::Write]);
    }

    #[test]
    fn none_mode_inserts_nothing() {
        let mut m = sample_module();
        let before = m.clone();
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                mode: Some(InstrumentMode::None),
                ..Default::default()
            },
        );
        assert_eq!(stats.probes_inserted, 0);
        assert_eq!(m, before, "module unchanged");
    }

    #[test]
    fn blacklist_skips_named_functions() {
        let mut m = sample_module();
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                blacklist: vec!["work".into()],
                ..Default::default()
            },
        );
        assert_eq!(stats.probes_inserted, 0);
        assert_eq!(stats.filtered, 4);
    }

    #[test]
    fn whitelist_restricts_to_named_functions() {
        let mut m = sample_module();
        m.functions.push({
            let mut fb = FunctionBuilder::new("other", 1);
            fb.load(0u32, 0);
            fb.ret(None);
            fb.finish().unwrap()
        });
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                whitelist: Some(vec!["other".into()]),
                ..Default::default()
            },
        );
        assert_eq!(stats.probes_inserted, 1, "only `other` instrumented");
    }

    #[test]
    fn no_selective_probes_every_access() {
        let mut m = sample_module();
        let stats = instrument_module(
            &mut m,
            &InstrumentOptions {
                no_selective: true,
                ..Default::default()
            },
        );
        assert_eq!(stats.probes_inserted, 4);
        assert_eq!(stats.deduped, 0);
    }

    #[test]
    fn register_bases_with_same_index_dedup() {
        // Two loads through the same register operand dedup even when the
        // register could hold different values — the pass is static, exactly
        // like the paper's (it reasons about address *expressions*).
        let mut fb = FunctionBuilder::new("dyn", 1);
        fb.load(0u32, 0);
        let t = fb.bin(crate::ir::BinOp::Add, Operand::Reg(0), 64i64);
        fb.mov(0, Operand::Reg(t));
        fb.load(0u32, 0); // same expression, new runtime value
        fb.ret(None);
        let mut m = Module {
            functions: vec![fb.finish().unwrap()],
        };
        let stats = instrument_module(&mut m, &InstrumentOptions::default());
        assert_eq!(stats.probes_inserted, 1);
        assert_eq!(stats.deduped, 1);
    }
}
