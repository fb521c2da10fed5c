//! Chrome trace-event timeline: phase spans, per-thread interpreter
//! activity, and detector events as a Perfetto-loadable JSON file.
//!
//! Like the flight recorder, the timeline is a process-global singleton
//! that costs one relaxed atomic load until the CLI installs it
//! (`--trace-timeline <path>`), and it buffers into a *bounded* in-memory
//! vector with counted loss — a full buffer drops events and says so in the
//! emitted file instead of growing without bound or silently truncating.
//!
//! Lane model: simulated interpreter threads get `tid` lanes `0..1000`
//! (their detector-visible thread ids); host OS threads running pipeline
//! phases get dense lanes starting at [`HOST_LANE_BASE`]. Invalidations are
//! linked to their victims with `s`/`f` async flow arrows sharing an id, so
//! Perfetto draws an arrow from the invalidating write to the victim
//! thread's lane.
//!
//! [`Timeline::write_json`] post-processes the buffer so the output is
//! structurally valid even for truncated runs: events are sorted by
//! timestamp, unmatched `B` events are closed with synthesized `E`s,
//! orphaned `E`s (whose `B` fell to the capacity bound) are discarded, and
//! an `otherData` block carries the recorded/dropped accounting.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// First `tid` lane used for host OS threads; simulated-thread lanes are
/// the detector [`ThreadId`]s below this.
pub const HOST_LANE_BASE: u64 = 1000;

/// Default event-buffer capacity installed by the CLI.
pub const DEFAULT_CAPACITY: usize = 262_144;

/// A typed trace-event argument value.
#[derive(Debug, Clone)]
pub enum ArgVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String (JSON-escaped on write).
    Str(String),
}

/// Chrome trace-event phase of a buffered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ph {
    /// Duration begin (`"B"`).
    Begin,
    /// Duration end (`"E"`).
    End,
    /// Instant (`"i"`, thread scope).
    Instant,
    /// Async flow start (`"s"`).
    FlowStart,
    /// Async flow finish (`"f"`, binding point `e`).
    FlowFinish,
}

#[derive(Debug)]
struct Ev {
    name: String,
    cat: &'static str,
    ph: Ph,
    ts_ns: u64,
    tid: u64,
    /// Flow id for `s`/`f` events.
    id: u64,
    args: Vec<(&'static str, ArgVal)>,
}

struct State {
    events: Vec<Ev>,
    capacity: usize,
}

/// The global trace timeline (see [`timeline`]).
pub struct Timeline {
    enabled: AtomicBool,
    recorded: AtomicU64,
    dropped: AtomicU64,
    flow_ids: AtomicU64,
    state: Mutex<Option<State>>,
}

fn anchor() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

impl Timeline {
    const fn new() -> Self {
        Timeline {
            enabled: AtomicBool::new(false),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            flow_ids: AtomicU64::new(0),
            state: Mutex::new(None),
        }
    }

    /// Arms the timeline with a bounded event buffer. Replaces any
    /// previously buffered events.
    pub fn install(&self, capacity: usize) {
        anchor(); // pin t=0 at (or before) installation
        let capacity = capacity.max(16);
        let mut state = self.state.lock().unwrap();
        *state = Some(State {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
        });
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// True once installed (cheap hot-path pre-check).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        anchor().elapsed().as_nanos() as u64
    }

    fn push(&self, ev: Ev) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let Some(st) = state.as_mut() else { return };
        if st.events.len() >= st.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            st.events.push(ev);
            self.recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Opens a duration span named `name` on lane `tid`.
    pub fn begin(&self, name: &str, cat: &'static str, tid: u64) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.push(Ev {
            name: name.to_string(),
            cat,
            ph: Ph::Begin,
            ts_ns,
            tid,
            id: 0,
            args: Vec::new(),
        });
    }

    /// Closes the innermost open span named `name` on lane `tid`.
    pub fn end(&self, name: &str, cat: &'static str, tid: u64) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.push(Ev {
            name: name.to_string(),
            cat,
            ph: Ph::End,
            ts_ns,
            tid,
            id: 0,
            args: Vec::new(),
        });
    }

    /// Records a thread-scoped instant event on lane `tid`.
    pub fn instant(
        &self,
        name: &str,
        cat: &'static str,
        tid: u64,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.push(Ev {
            name: name.to_string(),
            cat,
            ph: Ph::Instant,
            ts_ns,
            tid,
            id: 0,
            args,
        });
    }

    /// Allocates a fresh flow-arrow id.
    pub fn new_flow(&self) -> u64 {
        self.flow_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Draws an async flow arrow `from_tid → to_tid` (e.g. invalidating
    /// write → victim thread). The finish is stamped 1ns after the start so
    /// the arrow always points forward in time.
    pub fn flow(&self, name: &str, cat: &'static str, from_tid: u64, to_tid: u64, id: u64) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.push(Ev {
            name: name.to_string(),
            cat,
            ph: Ph::FlowStart,
            ts_ns,
            tid: from_tid,
            id,
            args: Vec::new(),
        });
        self.push(Ev {
            name: name.to_string(),
            cat,
            ph: Ph::FlowFinish,
            ts_ns: ts_ns + 1,
            tid: to_tid,
            id,
            args: Vec::new(),
        });
    }

    /// Events buffered so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains the buffer into Chrome trace-event JSON and disarms the
    /// timeline. Structural guarantees for the emitted file:
    ///
    /// * `traceEvents` are sorted by timestamp (stable, so same-ts events
    ///   keep emission order) — `ts` is monotonic per lane;
    /// * every `B` has a matching `E` on its lane (unmatched opens from a
    ///   panic or truncation are closed with synthesized `E`s at the final
    ///   timestamp, counted in `otherData.synthesized_ends`);
    /// * `E`s whose `B` fell to the capacity bound are discarded
    ///   (`otherData.orphan_ends_discarded`);
    /// * lanes get `thread_name` metadata (`sim-thread-N` / `host-N`);
    /// * `otherData` carries `recorded` / `dropped` loss accounting.
    ///
    /// Writes a valid empty trace when nothing was installed (a run without
    /// `--trace-timeline`).
    pub fn write_json(&self, out: &mut dyn Write) -> io::Result<()> {
        self.enabled.store(false, Ordering::Release);
        let taken = self.state.lock().unwrap().take();
        let mut events = taken.map(|s| s.events).unwrap_or_default();
        events.sort_by_key(|e| e.ts_ns);

        // Per-lane open-span bookkeeping: close unmatched B, drop orphan E.
        let mut open: Vec<(u64, Vec<String>)> = Vec::new(); // (tid, stack of names)
        let mut orphans = 0u64;
        let mut keep: Vec<Ev> = Vec::with_capacity(events.len());
        let last_ts = events.last().map(|e| e.ts_ns).unwrap_or(0);
        for ev in events {
            let idx = match open.iter().position(|(t, _)| *t == ev.tid) {
                Some(i) => i,
                None => {
                    open.push((ev.tid, Vec::new()));
                    open.len() - 1
                }
            };
            let lane = &mut open[idx].1;
            match ev.ph {
                Ph::Begin => {
                    lane.push(ev.name.clone());
                    keep.push(ev);
                }
                Ph::End => {
                    // LIFO discipline: an E must close the innermost open B
                    // of the same name, else its B was dropped.
                    if lane.last().is_some_and(|n| *n == ev.name) {
                        lane.pop();
                        keep.push(ev);
                    } else {
                        orphans += 1;
                    }
                }
                _ => keep.push(ev),
            }
        }
        let mut synthesized = 0u64;
        for (tid, stack) in &mut open {
            while let Some(name) = stack.pop() {
                synthesized += 1;
                keep.push(Ev {
                    name,
                    cat: "phase",
                    ph: Ph::End,
                    ts_ns: last_ts,
                    tid: *tid,
                    id: 0,
                    args: Vec::new(),
                });
            }
        }

        let mut body = String::with_capacity(keep.len() * 96 + 256);
        body.push_str("{\"traceEvents\":[");
        // Lane metadata first: process name plus one thread_name per lane.
        body.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"predator\"}}",
        );
        let mut lanes: Vec<u64> = keep.iter().map(|e| e.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for tid in &lanes {
            let label = if *tid >= HOST_LANE_BASE {
                format!("host-{}", tid - HOST_LANE_BASE)
            } else {
                format!("sim-thread-{tid}")
            };
            let _ = write!(
                body,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for ev in &keep {
            body.push_str(",{\"name\":\"");
            escape_into(&mut body, &ev.name);
            let _ = write!(body, "\",\"cat\":\"{}\",\"ph\":\"", ev.cat);
            body.push_str(match ev.ph {
                Ph::Begin => "B",
                Ph::End => "E",
                Ph::Instant => "i",
                Ph::FlowStart => "s",
                Ph::FlowFinish => "f",
            });
            // ts is fractional microseconds; keep nanosecond precision.
            let _ = write!(
                body,
                "\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03}",
                ev.tid,
                ev.ts_ns / 1000,
                ev.ts_ns % 1000
            );
            match ev.ph {
                Ph::FlowStart => {
                    let _ = write!(body, ",\"id\":{}", ev.id);
                }
                Ph::FlowFinish => {
                    let _ = write!(body, ",\"id\":{},\"bp\":\"e\"", ev.id);
                }
                Ph::Instant => body.push_str(",\"s\":\"t\""),
                _ => {}
            }
            if !ev.args.is_empty() {
                body.push_str(",\"args\":{");
                for (i, (key, val)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push('"');
                    escape_into(&mut body, key);
                    body.push_str("\":");
                    match val {
                        ArgVal::U64(v) => {
                            let _ = write!(body, "{v}");
                        }
                        ArgVal::I64(v) => {
                            let _ = write!(body, "{v}");
                        }
                        ArgVal::Str(s) => {
                            body.push('"');
                            escape_into(&mut body, s);
                            body.push('"');
                        }
                    }
                }
                body.push('}');
            }
            body.push('}');
        }
        let _ = write!(
            body,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\
             \"recorded\":{},\"dropped\":{},\"synthesized_ends\":{synthesized},\
             \"orphan_ends_discarded\":{orphans}}}}}",
            self.recorded.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        );
        out.write_all(body.as_bytes())?;
        out.flush()
    }
}

/// Appends `s` JSON-string-escaped (without the surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
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

/// The process-global trace timeline. Disarmed (near-zero cost) until the
/// CLI installs it for `--trace-timeline`.
pub fn timeline() -> &'static Timeline {
    static TL: Timeline = Timeline::new();
    &TL
}

/// The host-thread lane for the calling OS thread: a dense id starting at
/// [`HOST_LANE_BASE`], assigned on first use.
pub fn host_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static LANE: u64 = HOST_LANE_BASE + NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Timeline {
        Timeline::new()
    }

    fn render(tl: &Timeline) -> String {
        let mut buf = Vec::new();
        tl.write_json(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn uninstalled_timeline_is_silent_but_valid() {
        let tl = fresh();
        tl.begin("x", "phase", 0);
        assert_eq!(tl.recorded(), 0);
        let json = render(&tl);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"recorded\":0"));
    }

    #[test]
    fn spans_round_trip_with_metadata() {
        let tl = fresh();
        tl.install(64);
        tl.begin("interpret", "phase", HOST_LANE_BASE);
        tl.instant(
            "invalidation",
            "detector",
            2,
            vec![("line", ArgVal::U64(64))],
        );
        tl.end("interpret", "phase", HOST_LANE_BASE);
        let json = render(&tl);
        assert!(json.contains("\"name\":\"interpret\",\"cat\":\"phase\",\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"sim-thread-2\""));
        assert!(json.contains("\"name\":\"host-0\""));
        assert!(json.contains("\"args\":{\"line\":64}"));
        assert!(json.contains("\"synthesized_ends\":0"));
    }

    #[test]
    fn unmatched_begin_is_closed_at_flush() {
        let tl = fresh();
        tl.install(64);
        tl.begin("detect", "phase", HOST_LANE_BASE);
        tl.instant("later", "detector", HOST_LANE_BASE, Vec::new());
        let json = render(&tl);
        assert!(json.contains("\"synthesized_ends\":1"), "{json}");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn orphan_end_is_discarded() {
        let tl = fresh();
        tl.install(64);
        tl.end("never_opened", "phase", 3);
        let json = render(&tl);
        assert!(json.contains("\"orphan_ends_discarded\":1"), "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
    }

    #[test]
    fn capacity_bound_counts_loss() {
        let tl = fresh();
        tl.install(16); // install clamps to >= 16
        for i in 0..40u64 {
            tl.instant("tick", "detector", i % 2, Vec::new());
        }
        assert_eq!(tl.recorded(), 16);
        assert_eq!(tl.dropped(), 24);
        let json = render(&tl);
        assert!(json.contains("\"recorded\":16,\"dropped\":24"), "{json}");
    }

    #[test]
    fn flow_arrows_share_an_id_and_point_forward() {
        let tl = fresh();
        tl.install(64);
        let id = tl.new_flow();
        tl.flow("invalidate", "detector", 0, 1, id);
        let json = render(&tl);
        assert!(
            json.contains("\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":"),
            "{json}"
        );
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        assert_eq!(json.matches(&format!("\"id\":{id}")).count(), 2);
    }

    #[test]
    fn names_and_string_args_are_escaped() {
        let tl = fresh();
        tl.install(64);
        let nasty = "q\"b\\n\nr\rt\tc\u{1}";
        tl.instant(
            nasty,
            "detector",
            0,
            vec![("note", ArgVal::Str(nasty.into()))],
        );
        let json = render(&tl);
        let want = "q\\\"b\\\\n\\nr\\rt\\tc\\u0001";
        assert_eq!(json.matches(want).count(), 2, "{json}");
        // ...and a JSON parser reads the original strings back.
        #[derive(serde::Deserialize)]
        struct Args {
            note: Option<String>,
        }
        #[derive(serde::Deserialize)]
        struct Event {
            name: String,
            args: Option<Args>,
        }
        #[derive(serde::Deserialize)]
        #[allow(non_snake_case)]
        struct Doc {
            traceEvents: Vec<Event>,
        }
        let doc: Doc = serde_json::from_str(&json).unwrap();
        let ev = doc.traceEvents.last().unwrap();
        assert_eq!(ev.name, nasty);
        assert_eq!(ev.args.as_ref().unwrap().note.as_deref(), Some(nasty));
    }

    #[test]
    fn write_json_disarms_and_drains() {
        let tl = fresh();
        tl.install(64);
        tl.instant("once", "detector", 0, Vec::new());
        let first = render(&tl);
        assert!(first.contains("\"name\":\"once\""));
        assert!(!tl.enabled());
        let second = render(&tl);
        assert!(!second.contains("\"name\":\"once\""), "buffer drained");
    }
}
