//! Bounded, sampled JSONL structured-event sink.
//!
//! Emission is a single relaxed atomic load while the sink is uninstalled
//! (the default), so leaving hooks in hot paths is safe. Once installed via
//! [`EventSink::install`], every `sample_every`-th offered event is written
//! as one JSON line, up to `capacity` lines; the rest are counted as
//! dropped. The format is one object per line:
//!
//! ```json
//! {"seq":12,"t_us":3400,"kind":"line_promoted","line_start":1073741824}
//! ```

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A typed event field value.
#[derive(Debug, Clone, Copy)]
pub enum FieldVal<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String (JSON-escaped on write).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

struct SinkState {
    out: Box<dyn Write + Send>,
    capacity: u64,
    sample_every: u64,
}

/// The global structured-event sink (see [`events`]).
pub struct EventSink {
    enabled: AtomicBool,
    seq: AtomicU64,
    written: AtomicU64,
    dropped: AtomicU64,
    /// Guards the one-shot `sink_summary` line per installed writer.
    summarized: AtomicBool,
    state: Mutex<Option<SinkState>>,
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Appends `s` JSON-string-escaped (without the surrounding quotes): the one
/// escaper behind the event sink and the timeline.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl EventSink {
    const fn new() -> Self {
        EventSink {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            written: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            summarized: AtomicBool::new(false),
            state: Mutex::new(None),
        }
    }

    /// Installs a writer: every `sample_every`-th offered event is written,
    /// up to `capacity` lines total. Replaces any previous writer.
    pub fn install(&self, out: Box<dyn Write + Send>, capacity: u64, sample_every: u64) {
        process_start(); // anchor t_us at (or before) installation
        let mut state = self.state.lock().unwrap();
        *state = Some(SinkState {
            out,
            capacity,
            sample_every: sample_every.max(1),
        });
        self.summarized.store(false, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// True once a writer is installed (cheap hot-path pre-check).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Offers one event. No-op until installed.
    pub fn emit(&self, kind: &str, fields: &[(&str, FieldVal)]) {
        if !self.enabled() {
            return;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_us = process_start().elapsed().as_micros() as u64;
        let mut state = self.state.lock().unwrap();
        let Some(sink) = state.as_mut() else { return };
        if !n.is_multiple_of(sink.sample_every) {
            return;
        }
        if self.written.load(Ordering::Relaxed) >= sink.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"seq\":{n},\"t_us\":{t_us},\"kind\":\"");
        escape_into(&mut line, kind);
        line.push('"');
        for (key, val) in fields {
            line.push_str(",\"");
            escape_into(&mut line, key);
            line.push_str("\":");
            match val {
                FieldVal::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldVal::I64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldVal::F64(v) if v.is_finite() => {
                    let _ = write!(line, "{v}");
                }
                FieldVal::F64(_) => line.push_str("null"),
                FieldVal::Str(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
                FieldVal::Bool(b) => {
                    let _ = write!(line, "{b}");
                }
            }
        }
        line.push_str("}\n");
        if sink.out.write_all(line.as_bytes()).is_ok() {
            self.written.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Flushes the underlying writer (call before process exit). The first
    /// flush per installed writer appends a `sink_summary` line with the
    /// written/dropped counts, so sampled-away or capacity-capped loss is
    /// visible in the trace itself rather than silent. The summary bypasses
    /// the capacity bound (it is accounting, not an event) and does not
    /// count toward `written`.
    pub fn flush(&self) {
        if let Some(sink) = self.state.lock().unwrap().as_mut() {
            if self.enabled() && !self.summarized.swap(true, Ordering::Relaxed) {
                let seq = self.seq.load(Ordering::Relaxed);
                let t_us = process_start().elapsed().as_micros() as u64;
                let written = self.written.load(Ordering::Relaxed);
                let dropped = self.dropped.load(Ordering::Relaxed);
                let line = format!(
                    "{{\"seq\":{seq},\"t_us\":{t_us},\"kind\":\"sink_summary\",\
                     \"written\":{written},\"dropped\":{dropped}}}\n"
                );
                let _ = sink.out.write_all(line.as_bytes());
            }
            let _ = sink.out.flush();
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Events suppressed by the capacity bound or write errors (sampling
    /// skips are not counted — they are policy, not loss).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The process-global event sink. Disabled (near-zero cost) until the CLI
/// installs a writer for `--trace-events`.
pub fn events() -> &'static EventSink {
    static SINK: EventSink = EventSink::new();
    &SINK
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handing bytes to a shared buffer, for assertions.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn uninstalled_sink_is_silent() {
        let sink = EventSink::new();
        sink.emit("nothing", &[]);
        assert_eq!(sink.written(), 0);
    }

    #[test]
    fn writes_jsonl_with_escaping_and_bounds() {
        let sink = EventSink::new();
        let buf = SharedBuf::default();
        sink.install(Box::new(buf.clone()), 2, 1);
        sink.emit(
            "line_promoted",
            &[
                ("line_start", FieldVal::U64(64)),
                ("note", FieldVal::Str("a\"b")),
            ],
        );
        sink.emit(
            "invalidation",
            &[("tid", FieldVal::I64(-1)), ("hot", FieldVal::Bool(true))],
        );
        sink.emit("over_capacity", &[]);
        let ls = lines(&buf);
        assert_eq!(ls.len(), 2);
        assert!(ls[0].contains("\"kind\":\"line_promoted\""));
        assert!(ls[0].contains("\"line_start\":64"));
        assert!(ls[0].contains("a\\\"b"));
        assert!(ls[1].contains("\"hot\":true"));
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn flush_appends_one_sink_summary() {
        let sink = EventSink::new();
        let buf = SharedBuf::default();
        sink.install(Box::new(buf.clone()), 1, 1);
        sink.emit("a", &[]);
        sink.emit("b", &[]); // over capacity: dropped
        sink.flush();
        sink.flush(); // idempotent: only one summary per install
        let ls = lines(&buf);
        assert_eq!(ls.len(), 2);
        assert!(ls[1].contains("\"kind\":\"sink_summary\""), "{}", ls[1]);
        assert!(ls[1].contains("\"written\":1"), "{}", ls[1]);
        assert!(ls[1].contains("\"dropped\":1"), "{}", ls[1]);
        // A fresh install re-arms the summary.
        let buf2 = SharedBuf::default();
        sink.install(Box::new(buf2.clone()), 10, 1);
        sink.flush();
        assert!(lines(&buf2)[0].contains("sink_summary"));
    }

    #[test]
    fn sampling_keeps_every_nth_event() {
        let sink = EventSink::new();
        let buf = SharedBuf::default();
        sink.install(Box::new(buf.clone()), 1000, 10);
        for _ in 0..95 {
            sink.emit("tick", &[]);
        }
        assert_eq!(lines(&buf).len(), 10, "events 0,10,...,90");
        assert_eq!(sink.dropped(), 0, "sampling skips are not drops");
    }
}
