//! `predator trace info|cat|import`: looking inside a `.ptrace`, and the one
//! way JSONL becomes one.

use std::path::Path;
use std::process::ExitCode;

use predator_trace::{import_jsonl, read_info, read_info_scan, LossStats, TraceReader};

use crate::args::Args;

pub(crate) fn warn_loss(path: &str, loss: &LossStats) {
    if loss.any() {
        eprintln!(
            "warning: {path} is damaged: {} chunk(s) skipped, {} record(s) lost, \
             {} byte(s) skipped{}",
            loss.chunks_skipped,
            loss.records_lost,
            loss.bytes_skipped,
            if loss.truncated {
                ", file truncated"
            } else {
                ""
            }
        );
    }
}

/// Events outside the header range reach no detector state: say how many.
pub(crate) fn warn_strays(events: u64) {
    if events > 0 {
        eprintln!(
            "warning: {events} event(s) touched lines outside the trace's header range \
             and were not analysed"
        );
    }
}

pub(crate) fn cmd_trace_info(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands[0];
    // The footer index summarises without CRC-checking event payloads, so
    // --deep forces the full scan: the only way to surface mid-file
    // corruption in an otherwise intact-looking file.
    let info = if args.has("--deep") {
        read_info_scan(Path::new(path))?
    } else {
        read_info(Path::new(path))?
    };
    println!("{path}: .ptrace v{}", info.header.version);
    println!(
        "  range:   {:#x} .. {:#x} ({} bytes)",
        info.header.base,
        info.header.base + info.header.size,
        info.header.size
    );
    println!(
        "  events:  {} in {} event chunk(s) ({} chunk(s) total)",
        info.events, info.event_chunks, info.total_chunks
    );
    println!(
        "  size:    {} bytes ({:.2} bytes/event)",
        info.file_bytes,
        info.file_bytes as f64 / info.events.max(1) as f64
    );
    println!(
        "  footer:  {}",
        match (info.has_footer, info.via_index) {
            (true, true) => "intact (summarised via index, no scan)",
            (true, false) => "intact (index unusable, full scan)",
            (false, _) => "missing (file truncated; full scan)",
        }
    );
    match &info.meta {
        Some(m) => println!(
            "  meta:    {} global(s), {} heap object(s), {} app bytes live",
            m.globals.len(),
            m.objects.len(),
            m.app_live_bytes
        ),
        None => println!("  meta:    absent"),
    }
    // Corruption accounting is always printed in full — a zero is a
    // statement ("this scan saw no damage"), not an omission. Via the
    // index, zeros only cover what the index can see.
    println!(
        "  loss:    {} chunk(s) skipped, {} record(s) lost, {} byte(s) skipped, truncated: {}{}",
        info.loss.chunks_skipped,
        info.loss.records_lost,
        info.loss.bytes_skipped,
        if info.loss.truncated { "yes" } else { "no" },
        if info.via_index {
            " (index-derived; --deep CRC-checks every chunk)"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

pub(crate) fn cmd_trace_cat(args: &Args) -> Result<ExitCode, String> {
    use std::io::Write as _;
    let path = &args.operands[0];
    let limit: u64 = args.num("--limit", u64::MAX)?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut r = TraceReader::open(path)?;
    let mut cat = || -> std::io::Result<()> {
        let mut n = 0u64;
        while n < limit {
            let Some(a) = r.next() else {
                warn_loss(path, &r.stats());
                break;
            };
            serde_json::to_writer(&mut out, &a)?;
            out.write_all(b"\n")?;
            n += 1;
        }
        out.flush()
    };
    match cat() {
        // `trace cat big.ptrace | head`: the reader has what it wanted.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(ExitCode::SUCCESS),
    }
}

pub(crate) fn cmd_trace_import(args: &Args) -> Result<ExitCode, String> {
    let input = &args.operands[0];
    let out = args
        .get("--out")
        .ok_or("trace import: missing output path (-o <out.ptrace>)")?;
    let (summary, (base, size)) = import_jsonl(Path::new(input), Path::new(out))?;
    println!(
        "imported {} events from {input} to {out} (range {base:#x} .. {:#x}, {} bytes)",
        summary.events,
        base + size,
        summary.bytes
    );
    Ok(ExitCode::SUCCESS)
}
