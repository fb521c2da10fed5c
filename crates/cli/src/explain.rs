//! `predator explain`: a report's embedded flight-recorder records for one
//! cache line, drawn as interleaved per-thread lanes.

use std::process::ExitCode;

use predator_core::{TimelineOp, TimelineRecord};

use crate::args::Args;
use crate::compare::load_report;

/// `explain`'s line operand: a decimal global line index, or a 0x-prefixed
/// byte address mapped to its 64-byte line.
fn parse_line_arg(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
            .map(|addr| addr >> 6)
            .map_err(|e| format!("bad address {s}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad line index {s}: {e}"))
    }
}

fn fmt_word(w: u8) -> String {
    if w == u8::MAX {
        "?".to_string()
    } else {
        w.to_string()
    }
}

pub(crate) fn cmd_explain(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    let report = load_report(path)?;

    let line = match args.operands.get(1) {
        Some(s) => parse_line_arg(s)?,
        // Default to the top finding's hottest line: the one its most
        // recent invalidation trace names, else its first timeline record.
        None => match report.findings.iter().find_map(|f| {
            f.invalidation_traces
                .last()
                .map(|t| t.line)
                .or_else(|| f.timeline.first().map(|r| r.line))
        }) {
            Some(l) => l,
            None => {
                println!("No flight-recorder data embedded in {path}.");
                println!(
                    "Re-run the workload with the recorder on (the default unless \
                     --no-recorder)."
                );
                return Ok(ExitCode::SUCCESS);
            }
        },
    };

    // Gather the line's records across all findings (a line can back both an
    // observed and a predicted finding), deduplicating shared records.
    let mut recs: Vec<&TimelineRecord> = report
        .findings
        .iter()
        .flat_map(|f| f.timeline.iter())
        .filter(|r| r.line == line)
        .collect();
    recs.sort_by_key(|r| (r.seq, r.tid.index(), r.word));
    recs.dedup_by(|a, b| a == b);
    if recs.is_empty() {
        println!("No flight-recorder records for line {line}.");
        let mut avail: Vec<u64> = report
            .findings
            .iter()
            .flat_map(|f| f.timeline.iter().map(|r| r.line))
            .collect();
        avail.sort_unstable();
        avail.dedup();
        if !avail.is_empty() {
            let lines: Vec<String> = avail.iter().map(u64::to_string).collect();
            println!("Lines with recorded data: {}", lines.join(", "));
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Header: prefer the observed finding for the line (directly witnessed)
    // over predicted findings sharing its records.
    let covers = |f: &&predator_core::Finding| f.timeline.iter().any(|r| r.line == line);
    let owner = report
        .findings
        .iter()
        .filter(covers)
        .find(|f| f.kind == predator_core::FindingKind::Observed)
        .or_else(|| report.findings.iter().find(covers));
    println!(
        "Timeline for cache line {} (bytes {:#x}..{:#x}):",
        line,
        line * 64,
        line * 64 + 64
    );
    if let Some(f) = owner {
        println!(
            "  object: {} — {}, {} ({} invalidations total)",
            f.object.label(),
            f.class,
            f.kind,
            f.invalidations
        );
    }
    println!();

    // Lanes: every thread that issued a record or was invalidated.
    let mut tids: Vec<usize> = recs
        .iter()
        .flat_map(|r| {
            let victim = match r.op {
                TimelineOp::Invalidation { victim, .. } => Some(victim.index()),
                _ => None,
            };
            std::iter::once(r.tid.index()).chain(victim)
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();

    // One row per (seq, issuer); multi-victim invalidations share a row.
    struct Row {
        seq: u64,
        tid: usize,
        cell: String,
        notes: Vec<String>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for r in &recs {
        let tid = r.tid.index();
        match r.op {
            TimelineOp::Read => {
                rows.push(Row {
                    seq: r.seq,
                    tid,
                    cell: format!("r{}", r.word),
                    notes: vec![],
                });
            }
            TimelineOp::Write => {
                rows.push(Row {
                    seq: r.seq,
                    tid,
                    cell: format!("W{}", r.word),
                    notes: vec![],
                });
            }
            TimelineOp::Invalidation {
                victim,
                victim_word,
            } => {
                let note = format!(
                    "invalidated t{}'s copy (last word {})",
                    victim.index(),
                    fmt_word(victim_word)
                );
                match rows.last_mut() {
                    Some(last) if last.seq == r.seq && last.tid == tid => {
                        last.notes.push(note);
                    }
                    _ => {
                        rows.push(Row {
                            seq: r.seq,
                            tid,
                            cell: format!("W{}!", r.word),
                            notes: vec![note],
                        });
                    }
                }
            }
        }
    }

    const LANE: usize = 6;
    let mut hdr = format!("  {:>8}", "seq");
    for t in &tids {
        hdr.push_str(&format!("  {:<LANE$}", format!("t{t}")));
    }
    println!("{hdr}");
    println!("  {}", "-".repeat(hdr.len()));
    for row in rows {
        let mut out = format!("  {:>8}", row.seq);
        for t in &tids {
            let cell = if *t == row.tid { row.cell.as_str() } else { "" };
            out.push_str(&format!("  {cell:<LANE$}"));
        }
        if !row.notes.is_empty() {
            out.push_str(&format!("  {}", row.notes.join("; ")));
        }
        println!("{}", out.trim_end());
    }
    println!("\n  (rN = read, WN = write, WN! = invalidating write; N = word offset)");

    if let Some(f) = owner {
        let traces: Vec<_> = f
            .invalidation_traces
            .iter()
            .filter(|t| t.line == line)
            .collect();
        if !traces.is_empty() {
            println!("\nCausal traces (last {}):", traces.len());
            for t in traces {
                println!("  {t}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
