//! End-to-end validation of the `--trace-timeline` Chrome trace export.

use std::path::PathBuf;
use std::process::Command;

fn predator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predator"))
}

/// The checked-in example IR program (two writers false-sharing a line),
/// resolved relative to this crate's manifest so tests run from any CWD.
fn program() -> String {
    let p =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/false_sharing.pir");
    p.to_str().unwrap().to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predator-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The envelope fields shared by every Chrome trace event; per-event extras
/// (`args`, scopes) are ignored by the deserializer.
#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct TraceEv {
    name: Option<String>,
    ph: String,
    ts: Option<f64>,
    tid: Option<u64>,
    id: Option<u64>,
}

#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct OtherData {
    recorded: u64,
    dropped: u64,
    synthesized_ends: u64,
    orphan_ends_discarded: u64,
}

#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct TraceDoc {
    traceEvents: Vec<TraceEv>,
    otherData: OtherData,
}

#[test]
fn trace_timeline_is_structurally_valid_chrome_json() {
    let dir = temp_dir("timeline");
    let trace = dir.join("trace.json");
    let trace_s = trace.to_str().unwrap().to_string();

    let out = predator()
        .args(["ir", &program(), "--threads", "4", "--iters", "3000"])
        .args(["--trace-timeline", &trace_s])
        .output()
        .expect("spawn predator ir");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc: TraceDoc = serde_json::from_str(&text).expect("trace parses as Chrome JSON");

    assert!(
        doc.otherData.recorded > 0 && !doc.traceEvents.is_empty(),
        "an instrumented run emits events"
    );
    assert_eq!(
        doc.otherData.dropped, 0,
        "small run must not overflow the buffer"
    );
    assert_eq!(
        doc.otherData.synthesized_ends, 0,
        "clean exit closes every span"
    );
    assert_eq!(doc.otherData.orphan_ends_discarded, 0);

    // Per-lane invariants: timestamps never go backwards, and every E pops
    // the innermost matching B (spans nest properly within a lane).
    let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = Default::default();
    let mut flow_starts = std::collections::HashSet::new();
    let mut flow_finishes = std::collections::HashSet::new();
    for ev in &doc.traceEvents {
        if ev.ph == "M" {
            continue; // metadata carries no ts
        }
        let tid = ev.tid.expect("non-metadata events carry a tid");
        let ts = ev.ts.expect("non-metadata events carry a ts");
        let prev = last_ts.entry(tid).or_insert(ts);
        assert!(ts >= *prev, "ts regressed on lane {tid}: {ts} < {prev}");
        *prev = ts;
        match ev.ph.as_str() {
            "B" => stacks
                .entry(tid)
                .or_default()
                .push(ev.name.clone().unwrap()),
            "E" => {
                let popped = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(
                    popped.as_deref(),
                    ev.name.as_deref(),
                    "E must close the innermost B on lane {tid}"
                );
            }
            "s" => {
                flow_starts.insert(ev.id.expect("flow start has an id"));
            }
            "f" => {
                flow_finishes.insert(ev.id.expect("flow finish has an id"));
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "lane {tid} left open spans: {stack:?}");
    }
    assert_eq!(
        flow_starts, flow_finishes,
        "every flow id must start and finish"
    );
    assert!(
        !flow_starts.is_empty(),
        "false sharing must emit invalidation flows"
    );

    // Golden content: pipeline phases and detector moments are present.
    for needle in [
        "\"interpret\"",
        "\"detect\"",
        "invalidation",
        "report_emitted",
    ] {
        assert!(text.contains(needle), "trace must mention {needle}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
