//! JSON-lines trace text — an edge conversion, not an analysis input.
//!
//! One [`Access`] object per line: diffable, editable, trivially generated
//! by other tools. No analysis reads it. [`import_jsonl`] turns a JSONL
//! file into an ordinary `.ptrace`, which every verb then reads through
//! [`crate::TraceReader::open`]; `predator trace cat` is the way back, so
//! `cat | import` round-trips event for event.
//!
//! A `.ptrace` header names the `[base, base + size)` the shadow is laid
//! over and JSONL has no header, so the importer works the range out from
//! the events themselves: the page-aligned hull of every touched byte.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use predator_sim::Access;

use crate::format::{touched_hull, Header, PAGE, VERSION};
use crate::writer::{TraceWriter, WriteSummary, CHUNK_CAPACITY};

/// Writes a trace as JSON lines (one [`Access`] per line).
pub fn save_jsonl<W: Write>(events: &[Access], mut w: W) -> std::io::Result<()> {
    for e in events {
        serde_json::to_writer(&mut w, e)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Streaming JSONL reader: yields one record per non-blank line, erroring
/// on unparseable lines with their line number (garbage is a hard error
/// here, unlike `.ptrace` corruption — a text format has no resync marker
/// to recover at).
pub struct JsonlIter<R: BufRead> {
    lines: std::io::Lines<R>,
    line: u64,
}

impl<R: BufRead> JsonlIter<R> {
    /// Wraps a buffered reader.
    pub fn new(r: R) -> Self {
        JsonlIter {
            lines: r.lines(),
            line: 0,
        }
    }
}

impl<R: BufRead> Iterator for JsonlIter<R> {
    type Item = std::io::Result<Access>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line += 1;
            match self.lines.next()? {
                Err(e) => return Some(Err(e)),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    let n = self.line;
                    return Some(serde_json::from_str(&line).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("line {n}: {e}"),
                        )
                    }));
                }
            }
        }
    }
}

/// Reads a whole JSON-lines trace; blank lines are skipped.
pub fn load_jsonl<R: BufRead>(r: R) -> std::io::Result<Vec<Access>> {
    JsonlIter::new(r).collect()
}

/// The `(base, size)` a header must carry for `events`: the page-aligned
/// hull of every touched byte, straddlers' far ends included; `(0, 0)` for
/// no events. A hull no shadow can cover is refused by the door's own rule
/// ([`Header::validate`]), naming the lowest and highest address touched.
fn hull(events: &[Access]) -> Result<(u64, u64), String> {
    let Some((lo, hi)) = touched_hull(events, 0..=u64::MAX) else {
        return Ok((0, 0));
    };
    let base = lo & !(PAGE - 1);
    let size = ((hi | (PAGE - 1)) - base).saturating_add(1);
    let header = Header {
        version: VERSION,
        base,
        size,
    };
    header
        .validate()
        .map_err(|e| format!("events touch {lo:#x}..={hi:#x}: {e}; split the input by region"))?;
    Ok((base, size))
}

/// Converts the JSONL file `input` into the `.ptrace` file `output`: parses
/// the lines once (a bad line is an error naming file and line), derives
/// the header range (`hull`), and writes the events in stream order.
/// JSONL carries no attribution, so the result has no META chunk. Returns
/// the writer's summary and the derived `(base, size)`.
pub fn import_jsonl(input: &Path, output: &Path) -> Result<(WriteSummary, (u64, u64)), String> {
    let named = |p: &Path, e: &dyn std::fmt::Display| format!("{}: {e}", p.display());
    let text = std::fs::File::open(input).map_err(|e| named(input, &e))?;
    let events = load_jsonl(BufReader::new(text)).map_err(|e| named(input, &e))?;
    let (base, size) = hull(&events).map_err(|e| named(input, &e))?;
    let write = || {
        let file = BufWriter::new(std::fs::File::create(output)?);
        let mut w = TraceWriter::create(file, base, size)?;
        // The chunking `predator record` writes.
        events
            .chunks(CHUNK_CAPACITY)
            .try_for_each(|c| w.write_events(c))?;
        w.finish()
    };
    let (summary, _) = write().map_err(|e| named(output, &e))?;
    Ok((summary, (base, size)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MAX_SPAN;
    use crate::TraceReader;
    use predator_sim::ThreadId;

    #[test]
    fn iter_streams_and_skips_blanks() {
        let trace: Vec<Access> = (0..5)
            .map(|i| Access::write(ThreadId(i as u16), 0x100 + i * 8, 8))
            .collect();
        let mut buf = Vec::new();
        save_jsonl(&trace, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 5);
        buf.extend_from_slice(b"\n\n");
        assert_eq!(load_jsonl(std::io::Cursor::new(buf)).unwrap(), trace);
        assert!(load_jsonl(&b"\n\n"[..]).unwrap().is_empty());
    }

    #[test]
    fn iter_surfaces_garbage_as_error_with_its_line_number() {
        let mut it = JsonlIter::new(&b"\n{\"bad\": true}\n"[..]);
        let err = it.next().unwrap().unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        assert!(load_jsonl(&b"not json\n"[..]).is_err());
    }

    #[test]
    fn hull_is_page_aligned_covers_straddlers_and_refuses_what_the_door_would() {
        let w = |addr, size| Access::write(ThreadId(0), addr, size);
        assert_eq!(hull(&[]), Ok((0, 0)));
        assert_eq!(
            hull(&[w(0x7f00_0000_1008, 8)]),
            Ok((0x7f00_0000_1000, 4096))
        );
        // The straddler's last byte is on the next page.
        assert_eq!(hull(&[w(0x1ffc, 8)]), Ok((0x1000, 8192)));
        assert_eq!(hull(&[w(0, 1), w(MAX_SPAN - 1, 1)]), Ok((0, MAX_SPAN)));
        let err = hull(&[w(0x1000, 8), w(0x7f00_0000_1000, 8)]).unwrap_err();
        assert!(err.contains("0x1000..=0x7f0000001007"), "{err}");
        // The last page's hull would end past the address space.
        assert!(hull(&[w(u64::MAX - 7, 8)]).is_err());
        assert!(hull(&[w(u64::MAX - 4096, 1)]).is_ok());
    }

    #[test]
    fn import_writes_a_trace_the_door_reads_back_event_for_event() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let (text, out) = (
            dir.join(format!("predator-import-{tag}.jsonl")),
            dir.join(format!("predator-import-{tag}.ptrace")),
        );
        let events: Vec<Access> = (0..10_000u64)
            .map(|i| Access::write(ThreadId((i % 3) as u16), 0x5555_0000_0ff8 + i % 7 * 4, 8))
            .collect();
        save_jsonl(&events, std::fs::File::create(&text).unwrap()).unwrap();
        let (summary, range) = import_jsonl(&text, &out).unwrap();
        assert_eq!((summary.events, range), (10_000, (0x5555_0000_0000, 8192)));
        let mut r = TraceReader::open(&out).unwrap();
        assert_eq!((r.base(), r.size()), range);
        assert_eq!(r.by_ref().collect::<Vec<_>>(), events);
        assert!(!r.stats().any() && r.meta().is_none());
        std::fs::remove_file(&text).unwrap();
        std::fs::remove_file(&out).unwrap();
    }
}
