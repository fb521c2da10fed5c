//! The traced run: the same inputs as the end-to-end run, broken into
//! layers.
//!
//! Three sources, kept apart on purpose:
//!
//! 1. a few CLI repetitions, as in the end-to-end run, for the `harness.*`
//!    numbers and for the counters and span sums the program itself exports
//!    in the `obs` block of every `--format json` report;
//! 2. in-process *mirrors* of the CLI verbs, built from a deliberately
//!    coarse set of public entry points, with a span around each layer
//!    call — the mirror's report must have the CLI's essence;
//! 3. extra probes (detection off, sequential replay, decode only, remap,
//!    MESI) that isolate one layer the verbs only use in combination.
//!
//! Every timed probe is best-of-`PASSES`. A metric a workload does not
//! exercise reads 0.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use predator_core::{DetectorConfig, LayoutEdit, ObsSnapshot, Predator, Report, Session};
use predator_policy::{evaluate_report, to_sarif_string, Evaluation, PolicyConfig};
use predator_sim::mesi::MesiSim;
use predator_sim::{Access, CacheGeometry};
use predator_trace::{
    analyze_events, analyze_file, whatif_events, AddressRemap, AnalyzeConfig, TraceMeta,
    TraceReader, WhatIfFix,
};
use predator_workloads::WorkloadConfig;
use serde::Serialize;

use crate::e2e::{measure, Gate, Measured, Tally};
use crate::host::{out_dir, Host};
use crate::spec::{Spec, Verb};
use crate::stats;

/// Every per-layer metric, in `BENCHMARK.json` order: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("harness.rep_wall_median_s", "s"),
    ("harness.rep_wall_iqr_rel", "ratio"),
    ("harness.loadavg_1m", "load"),
    ("harness.layers_cover_rel", "ratio"),
    ("cli.overhead_s", "s"),
    ("workloads.drive_s", "s"),
    ("workloads.tracked_s", "s"),
    ("core.runtime.handle_access_s", "s"),
    ("core.runtime.ns_per_access", "ns"),
    ("core.runtime.accesses", "count"),
    ("core.runtime.lines_promoted", "count"),
    ("core.track.sampled_accesses", "count"),
    ("core.track.sampled_share", "ratio"),
    ("core.track.invalidations", "count"),
    ("core.predict.analyses", "count"),
    ("core.predict.units_spawned", "count"),
    ("core.predict.verified_invalidations", "count"),
    ("core.predict.span_s", "s"),
    ("core.report.build_s", "s"),
    ("core.report.render_json_s", "s"),
    ("core.report.findings", "count"),
    ("policy.evaluate_s", "s"),
    ("policy.render_sarif_s", "s"),
    ("trace.writer.record_s", "s"),
    ("trace.writer.bytes_per_event", "B/event"),
    ("trace.reader.decode_s", "s"),
    ("trace.reader.mev_per_s", "Mev/s"),
    ("trace.reader.records_lost", "count"),
    ("trace.analyze.file_s", "s"),
    ("trace.analyze.replay_s", "s"),
    ("trace.analyze.pipeline_overhead_x", "x"),
    ("trace.analyze.scan_span_s", "s"),
    ("trace.analyze.dispatch_span_s", "s"),
    ("trace.analyze.shard_span_s", "s"),
    ("trace.analyze.clusters", "count"),
    ("trace.analyze.shards_used", "count"),
    ("trace.whatif.events_s", "s"),
    ("trace.whatif.analyze_events_s", "s"),
    ("trace.whatif.overhead_x", "x"),
    ("trace.whatif.verified_findings", "count"),
    ("trace.remap.apply_s", "s"),
    ("sim.mesi.access_s", "s"),
    ("sim.mesi.invalidations", "count"),
];

/// The flight-recorder ring depth `predator run` turns on by default (the
/// CLI's `RECORDER_DEPTH`), so its reports can embed timelines.
const RECORDER_DEPTH: usize = 64;

/// Each timed probe runs this often; the fastest pass is reported.
const PASSES: usize = 5;

/// One call into a layer.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Keeps spans in memory; they are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, a child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `pass` `PASSES` times, taking turns on the host's CPUs as the
    /// CLI repetitions do; returns the span range of each pass.
    fn passes(
        &mut self,
        host: &Host,
        mut pass: impl FnMut(&mut Tracer),
    ) -> Result<Vec<Range<usize>>, String> {
        (0..PASSES)
            .map(|turn| {
                host.pin(turn)?;
                let mark = self.spans.len();
                pass(self);
                Ok(mark..self.spans.len())
            })
            .collect()
    }

    /// Seconds the spans selected by `pick` took, in the fastest pass.
    fn best(&self, passes: &[Range<usize>], pick: impl Fn(&Span) -> bool) -> f64 {
        let sums: Vec<f64> = passes
            .iter()
            .map(|r| {
                self.spans[r.clone()]
                    .iter()
                    .filter(|s| pick(s))
                    .map(Span::seconds)
                    .sum()
            })
            .collect();
        stats::best_of(&sums)
    }

    fn best_named(&self, passes: &[Range<usize>], name: &str) -> f64 {
        self.best(passes, |s| s.name == name)
    }

    /// A span's duration minus the part its children cover.
    fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Per layer name: calls, total seconds, self seconds.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.seconds();
            e.2 += self.self_seconds(s.id);
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The detector configuration the CLI builds from the workload's flags.
fn detector(spec: &Spec) -> DetectorConfig {
    let det = DetectorConfig::paper();
    match spec.sampling {
        Some(rate) => det.with_sampling_rate(rate.parse().expect("frozen sampling rate parses")),
        None => det,
    }
}

/// What `emit_report` does after every verb with `--format json`.
fn emit(tr: &mut Tracer, report: &Report) -> Evaluation {
    let eval = tr.span("policy.evaluate", |_| {
        evaluate_report(report, &PolicyConfig::default())
    });
    let json = tr.span("core.report.render_json", |_| report.to_json());
    black_box(json.len());
    eval
}

/// A whole `.ptrace` in memory, as `whatif` holds it.
struct Loaded {
    events: Vec<Access>,
    base: u64,
    size: u64,
    meta: Option<TraceMeta>,
    records_lost: u64,
}

fn load_trace(path: &Path) -> Result<Loaded, String> {
    let mut r = open_trace(path)?;
    let (base, size) = (r.base(), r.size());
    let events: Vec<Access> = (&mut r).collect();
    Ok(Loaded {
        events,
        base,
        size,
        records_lost: r.stats().records_lost,
        meta: r.take_meta(),
    })
}

fn open_trace(path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    TraceReader::new(BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counts and sums the program exported in the `obs` blocks of one
/// repetition's reports.
struct Obs<'a>(&'a [ObsSnapshot]);

impl Obs<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .flat_map(|o| &o.counters)
            .filter(|c| c.name == name)
            .map(|c| c.value as f64)
            .sum()
    }

    fn gauge(&self, name: &str) -> f64 {
        self.0
            .iter()
            .flat_map(|o| &o.gauges)
            .filter(|g| g.name == name)
            .map(|g| g.value as f64)
            .sum()
    }

    fn span_seconds(&self, name: &str) -> f64 {
        self.0
            .iter()
            .flat_map(|o| &o.histograms)
            .filter(|h| h.name == name)
            .map(|h| h.sum as f64 / 1e9)
            .sum()
    }
}

/// The per-layer metrics of one traced run, every name present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        // A ratio over a layer that did no work is "not exercised", not NaN
        // (and an empty sum is 0, not the -0 `Sum` starts from).
        *slot = if value.is_finite() { value + 0.0 } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// (name, unit, value) in `BENCHMARK.json` order.
    pub fn rows(&self) -> Vec<crate::Row> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.0[name]))
            .collect()
    }
}

pub struct Traced {
    pub layers: Layers,
    pub tracer: Tracer,
    pub tally: Tally,
}

/// Runs the traced run of one workload. `seconds` bounds the CLI part.
pub fn traced_run(host: &Host, spec: &Spec, seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut m = measure(host, spec, seed, seconds, 1, Gate::for_spec(spec, seed)?)?;
    if m.reps.is_empty() {
        return Err(format!(
            "no CLI repetition completed: {:?}",
            m.gate.tally.errors
        ));
    }
    let mut tr = Tracer::new(spec.name);
    let mut layers = Layers::new();
    let cover = match spec.verb {
        Verb::Run => live_layers(&mut tr, &mut layers, spec, host, seed, &mut m.gate)?,
        Verb::Analyze => analyze_layers(&mut tr, &mut layers, spec, host, &mut m)?,
        Verb::Whatif => whatif_layers(&mut tr, &mut layers, spec, host, &mut m)?,
    };
    harness_layers(&mut layers, &m, cover);
    obs_layers(&mut layers, &m);
    if spec.needs_traces() {
        let bytes: u64 = m
            .traces
            .iter()
            .map(|t| std::fs::metadata(t).map(|md| md.len()).unwrap_or(0))
            .sum();
        layers.set("trace.writer.record_s", stats::best_of(&m.record_samples));
        layers.set(
            "trace.writer.bytes_per_event",
            bytes as f64 / m.events_per_rep() as f64,
        );
    }
    Ok(Traced {
        layers,
        tracer: tr,
        tally: m.gate.tally,
    })
}

/// The spans directly under a `cli.*` mirror: the layer calls a verb makes.
fn is_verb_layer(tr: &Tracer, s: &Span) -> bool {
    s.parent
        .is_some_and(|p| tr.spans[p].name.starts_with("cli."))
}

fn harness_layers(layers: &mut Layers, m: &Measured, cover_s: f64) {
    let walls = m.walls();
    let best = m.best_wall_s();
    layers.set("harness.rep_wall_median_s", stats::median(&walls));
    if walls.len() >= 2 {
        layers.set("harness.rep_wall_iqr_rel", stats::iqr_rel(&walls));
    }
    layers.set("harness.loadavg_1m", m.load_end);
    layers.set("harness.layers_cover_rel", cover_s / best);
    layers.set("cli.overhead_s", best - cover_s);
}

/// Counters are exact and identical in every repetition; span sums are
/// times, so they are best-of like every other time.
fn obs_layers(layers: &mut Layers, m: &Measured) {
    let last = Obs(&m
        .reps
        .last()
        .expect("traced_run checked for a repetition")
        .obs);
    let accesses = last.counter("runtime_accesses_total");
    let sampled = last.counter("track_sampled_accesses_total");
    layers.set("core.runtime.accesses", accesses);
    layers.set("core.track.sampled_accesses", sampled);
    layers.set("core.track.sampled_share", sampled / accesses);
    for (metric, counter) in [
        (
            "core.runtime.lines_promoted",
            "runtime_lines_promoted_total",
        ),
        ("core.track.invalidations", "track_invalidations_total"),
        ("core.predict.analyses", "predict_analyses_total"),
        ("core.predict.units_spawned", "predict_units_spawned_total"),
        (
            "core.predict.verified_invalidations",
            "predict_verified_invalidations_total",
        ),
    ] {
        layers.set(metric, last.counter(counter));
    }
    layers.set(
        "core.report.findings",
        last.gauge("predator_report_findings"),
    );
    for (metric, span) in [
        ("core.predict.span_s", "span_predict_ns"),
        ("trace.analyze.scan_span_s", "span_trace_scan_ns"),
        ("trace.analyze.dispatch_span_s", "span_shard_dispatch_ns"),
        ("trace.analyze.shard_span_s", "span_shard_analyze_ns"),
    ] {
        let per_rep: Vec<f64> = m
            .reps
            .iter()
            .map(|r| Obs(&r.obs).span_seconds(span))
            .collect();
        layers.set(metric, stats::best_of(&per_rep));
    }
    let handle = layers.get("core.runtime.handle_access_s");
    layers.set("core.runtime.ns_per_access", handle * 1e9 / accesses);
}

/// The parts every verb's mirror shares: report build is timed by the
/// caller; this fills the report/policy metrics from the mirror passes and
/// times SARIF rendering, which `--format json` never pays for.
fn report_layers(
    tr: &mut Tracer,
    layers: &mut Layers,
    spec: &Spec,
    host: &Host,
    mirror: &[Range<usize>],
    emitted: &[(Report, Evaluation)],
) -> Result<f64, String> {
    layers.set(
        "core.report.build_s",
        tr.best_named(mirror, "core.report.build"),
    );
    layers.set(
        "core.report.render_json_s",
        tr.best_named(mirror, "core.report.render_json"),
    );
    layers.set(
        "policy.evaluate_s",
        tr.best_named(mirror, "policy.evaluate"),
    );
    let geometry = detector(spec).geometry;
    let sarif = tr.passes(host, |tr| {
        for (report, eval) in emitted {
            let s = tr.span("policy.render_sarif", |_| {
                to_sarif_string(report, eval, geometry)
            });
            black_box(s.len());
        }
    })?;
    layers.set(
        "policy.render_sarif_s",
        tr.best_named(&sarif, "policy.render_sarif"),
    );
    Ok(tr.best(mirror, |s| is_verb_layer(tr, s)))
}

/// `live_*`: mirror of `predator run`, plus the same driver with detection
/// off. Returns the seconds the mirror's layer calls cover.
fn live_layers(
    tr: &mut Tracer,
    layers: &mut Layers,
    spec: &Spec,
    host: &Host,
    seed: u64,
    gate: &mut Gate,
) -> Result<f64, String> {
    let det = detector(spec);
    let inputs: Vec<_> = spec
        .inputs
        .iter()
        .map(|i| {
            let w = predator_workloads::by_name(i.program).expect("Gate::for_spec resolved it");
            let cfg = WorkloadConfig {
                iters: i.iters,
                seed,
                ..WorkloadConfig::default()
            };
            (i.program, w, cfg)
        })
        .collect();

    let recorder = predator_obs::recorder::recorder();
    let mut emitted = Vec::new();
    let mirror = tr.passes(host, |tr| {
        emitted.clear();
        for (_, w, cfg) in &inputs {
            emitted.push(tr.span("cli.run", |tr| {
                // Every CLI process starts with empty recorder rings.
                recorder.reset();
                recorder.enable(RECORDER_DEPTH);
                let session = Session::with_config(det);
                tr.span("workloads.run_tracked", |_| w.run_tracked(&session, cfg));
                let report = tr.span("core.report.build", |_| session.report());
                let eval = emit(tr, &report);
                (report, eval)
            }));
        }
    })?;
    for (i, (program, ..)) in inputs.iter().enumerate() {
        gate.admit(
            &format!("mirror run {program}"),
            i,
            Ok(emitted[i].0.clone()),
        );
    }

    let mut off = det;
    off.enabled = false;
    let drive = tr.passes(host, |tr| {
        for (_, w, cfg) in &inputs {
            let session = Session::with_config(off);
            tr.span("workloads.drive", |_| w.run_tracked(&session, cfg));
        }
    })?;
    recorder.disable();
    recorder.reset();

    let tracked_s = tr.best_named(&mirror, "workloads.run_tracked");
    let drive_s = tr.best_named(&drive, "workloads.drive");
    layers.set("workloads.tracked_s", tracked_s);
    layers.set("workloads.drive_s", drive_s);
    layers.set("core.runtime.handle_access_s", tracked_s - drive_s);
    report_layers(tr, layers, spec, host, &mirror, &emitted)
}

/// `analyze_suite`: mirror of `predator analyze`, plus decode alone and a
/// sequential replay of the same files into one `Predator`.
fn analyze_layers(
    tr: &mut Tracer,
    layers: &mut Layers,
    spec: &Spec,
    host: &Host,
    m: &mut Measured,
) -> Result<f64, String> {
    let det = detector(spec);
    let cfg = AnalyzeConfig::new(det, host.shards);
    let mut emitted = Vec::new();
    let (mut clusters, mut shards_used) = (0, 0);
    let mut failure = None;
    let mirror = tr.passes(host, |tr| {
        emitted.clear();
        (clusters, shards_used) = (0, 0);
        for trace in &m.traces {
            tr.span("cli.analyze", |tr| {
                match tr.span("trace.analyze.file", |_| analyze_file(trace, &cfg, 0, 0)) {
                    Ok(out) => {
                        clusters += out.clusters;
                        shards_used += out.shards_used;
                        let eval = emit(tr, &out.report);
                        emitted.push((out.report, eval));
                    }
                    Err(e) => failure = Some(e),
                }
            });
        }
    })?;
    if let Some(e) = failure {
        return Err(format!("analyze_file: {e}"));
    }
    for (i, input) in spec.inputs.iter().enumerate() {
        let what = format!("mirror analyze {}", input.program);
        m.gate.admit(&what, i, Ok(emitted[i].0.clone()));
    }

    let (mut decoded, mut lost) = (0u64, 0u64);
    let decode = tr.passes(host, |tr| {
        (decoded, lost) = (0, 0);
        for trace in &m.traces {
            let Ok(mut r) = open_trace(trace) else {
                continue;
            };
            tr.span("trace.reader.decode", |_| {
                for a in &mut r {
                    black_box(a);
                }
            });
            decoded += r.events_read();
            lost += r.stats().records_lost;
        }
    })?;
    let replay = tr.passes(host, |tr| {
        for trace in &m.traces {
            let Ok(mut r) = open_trace(trace) else {
                continue;
            };
            tr.span("trace.analyze.replay", |_| {
                let rt = Predator::new(det, r.base(), r.size());
                for a in &mut r {
                    rt.handle_access(a.tid, a.addr, a.size, a.kind);
                }
                black_box(rt.events());
            });
        }
    })?;
    let what = "decode delivers every recorded event";
    let events = m.events_per_rep();
    m.gate.tally.record(
        what,
        (decoded > 0 && lost == 0).then_some(()).ok_or(format!(
            "{decoded} decoded, {lost} lost, analyze saw {events}"
        )),
    );

    let file_s = tr.best_named(&mirror, "trace.analyze.file");
    let decode_s = tr.best_named(&decode, "trace.reader.decode");
    let replay_s = tr.best_named(&replay, "trace.analyze.replay");
    layers.set("trace.analyze.file_s", file_s);
    layers.set("trace.analyze.replay_s", replay_s);
    layers.set("trace.analyze.pipeline_overhead_x", file_s / replay_s);
    layers.set("trace.analyze.clusters", clusters as f64);
    layers.set("trace.analyze.shards_used", shards_used as f64);
    layers.set("trace.reader.decode_s", decode_s);
    layers.set("trace.reader.mev_per_s", decoded as f64 / 1e6 / decode_s);
    layers.set("trace.reader.records_lost", lost as f64);
    layers.set("core.runtime.handle_access_s", replay_s - decode_s);
    report_layers(tr, layers, spec, host, &mirror, &emitted)
}

/// `whatif_suite`: mirror of `predator whatif`, plus the pieces a what-if
/// replay is made of, each alone on the same in-memory slice.
fn whatif_layers(
    tr: &mut Tracer,
    layers: &mut Layers,
    spec: &Spec,
    host: &Host,
    m: &mut Measured,
) -> Result<f64, String> {
    let cfg = AnalyzeConfig::new(detector(spec), host.shards);
    let mut emitted = Vec::new();
    let (mut verified, mut decoded, mut lost) = (0usize, 0u64, 0u64);
    let mut failure = None;
    let mirror = tr.passes(host, |tr| {
        emitted.clear();
        (verified, decoded, lost) = (0, 0, 0);
        for trace in &m.traces {
            tr.span("cli.whatif", |tr| {
                let t = match tr.span("trace.reader.decode", |_| load_trace(trace)) {
                    Ok(loaded) => loaded,
                    Err(e) => {
                        failure = Some(e);
                        return;
                    }
                };
                decoded += t.events.len() as u64;
                lost += t.records_lost;
                let out = tr.span("trace.whatif.events", |_| {
                    let fix = WhatIfFix::Suggested;
                    whatif_events(&t.events, t.base, t.size, t.meta.as_ref(), &cfg, &fix)
                });
                verified += out.verified;
                let eval = emit(tr, &out.report);
                emitted.push((out.report, eval));
            });
        }
    })?;
    if let Some(e) = failure {
        return Err(e);
    }
    for (i, input) in spec.inputs.iter().enumerate() {
        let what = format!("mirror whatif {}", input.program);
        m.gate.admit(&what, i, Ok(emitted[i].0.clone()));
    }

    // The pieces, on slices decoded once outside any span.
    let loaded: Vec<_> = m
        .traces
        .iter()
        .map(|t| load_trace(t))
        .collect::<Result<_, _>>()?;
    let mut mesi_invalidations = 0u64;
    let pieces = tr.passes(host, |tr| {
        mesi_invalidations = 0;
        for (t, (report, _)) in loaded.iter().zip(&emitted) {
            let events = &t.events;
            let out = tr.span("trace.whatif.analyze_events", |_| {
                analyze_events(events, t.base, t.size, t.meta.as_ref(), &cfg)
            });
            black_box(out.events);
            // One cache line of padding in front of the worst finding: the
            // kind of edit a suggested fix lowers to.
            let at = report.findings.first().map_or(t.base, |f| f.object.start);
            let remap = AddressRemap::from_edits(&[LayoutEdit { at, pad: 64 }]);
            let mapped = tr.span("trace.remap.apply", |_| remap.apply_events(events));
            black_box(mapped.len());
            let cores = events.iter().map(|a| a.tid.index() + 1).max().unwrap_or(1);
            for geom in CacheGeometry::portfolio() {
                let mut sim = MesiSim::new(cores, geom);
                tr.span("sim.mesi.access", |_| {
                    for a in events {
                        sim.access(a.tid, a.addr, a.size, a.kind);
                    }
                });
                mesi_invalidations += sim.stats().invalidation_events;
            }
        }
    })?;

    let events_s = tr.best_named(&mirror, "trace.whatif.events");
    let analyze_s = tr.best_named(&pieces, "trace.whatif.analyze_events");
    let decode_s = tr.best_named(&mirror, "trace.reader.decode");
    layers.set("trace.whatif.events_s", events_s);
    layers.set("trace.whatif.analyze_events_s", analyze_s);
    layers.set("trace.whatif.overhead_x", events_s / analyze_s);
    layers.set("trace.whatif.verified_findings", verified as f64);
    layers.set(
        "trace.remap.apply_s",
        tr.best_named(&pieces, "trace.remap.apply"),
    );
    layers.set(
        "sim.mesi.access_s",
        tr.best_named(&pieces, "sim.mesi.access"),
    );
    layers.set("sim.mesi.invalidations", mesi_invalidations as f64);
    layers.set("trace.reader.decode_s", decode_s);
    layers.set("trace.reader.mev_per_s", decoded as f64 / 1e6 / decode_s);
    layers.set("trace.reader.records_lost", lost as f64);
    report_layers(tr, layers, spec, host, &mirror, &emitted)
}

/// Writes the spans to `benchmark/out/<workload>.trace.json`.
pub fn write_spans(spec: &Spec, seed: u64, tracer: &Tracer) -> Result<std::path::PathBuf, String> {
    #[derive(Serialize)]
    struct SpanFile {
        workload: &'static str,
        seed: u64,
        spans: Vec<Span>,
    }
    let path = out_dir().join(format!("{}.trace.json", spec.name));
    let file = SpanFile {
        workload: spec.name,
        seed,
        spans: tracer.spans().to_vec(),
    };
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Input, WORKLOADS};

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new("t");
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let (outer, inner) = (&tr.spans()[0], &tr.spans()[1]);
        assert_eq!((outer.parent, inner.parent), (None, Some(0)));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let by = tr.by_layer();
        let (calls, total, own) = by["outer"];
        assert_eq!(calls, 1);
        assert!(
            total >= 0.030 && own >= 0.010 && own < total - 0.019,
            "{by:?}"
        );
        assert!(
            (by["inner"].1 - by["inner"].2).abs() < 1e-12,
            "a leaf is all self time"
        );
    }

    #[test]
    fn best_picks_the_fastest_pass() {
        let host = Host {
            nproc: 2,
            shards: 1,
            cpus: crate::host::allowed_cpus().unwrap(),
            predator: std::path::PathBuf::new(),
        };
        let mut tr = Tracer::new("t");
        let mut ms = [30u64, 5, 15, 25, 20].into_iter();
        let passes = tr
            .passes(&host, |tr| {
                let d = std::time::Duration::from_millis(ms.next().unwrap());
                tr.span("probe", |_| std::thread::sleep(d));
            })
            .unwrap();
        assert_eq!(passes.len(), PASSES);
        let best = tr.best_named(&passes, "probe");
        assert!((0.005..0.015).contains(&best), "{best}");
    }

    /// The smoke the README promises: every layer probe runs once per pass
    /// on tiny inputs, against the real CLI, so an API drift in a linked
    /// entry point — or a mirror that no longer does what its verb does —
    /// fails loudly.
    #[test]
    fn every_probe_runs_on_tiny_inputs() {
        let host = Host::prepare().expect("host can run the benchmark");
        for spec in &WORKLOADS {
            let tiny = Spec {
                inputs: Box::leak(
                    spec.inputs
                        .iter()
                        .map(|i| Input { iters: 2_000, ..*i })
                        .collect(),
                ),
                ..*spec
            };
            // Not the blessed seed: `expected/` describes the frozen sizes.
            let t = traced_run(&host, &tiny, 7, 0.0).unwrap();
            assert_eq!(t.tally.failed, 0, "{}: {:?}", spec.name, t.tally.errors);
            for (name, _, v) in t.layers.rows() {
                assert!(v.is_finite(), "{}: {name} = {v}", spec.name);
            }
            let timed: &[&str] = match spec.verb {
                Verb::Run => &[
                    "workloads.drive_s",
                    "workloads.tracked_s",
                    "core.report.build_s",
                ],
                Verb::Analyze => &[
                    "trace.analyze.file_s",
                    "trace.analyze.replay_s",
                    "trace.reader.decode_s",
                ],
                Verb::Whatif => &[
                    "trace.whatif.events_s",
                    "trace.whatif.analyze_events_s",
                    "trace.remap.apply_s",
                    "sim.mesi.access_s",
                ],
            };
            let always = [
                "core.report.render_json_s",
                "policy.evaluate_s",
                "policy.render_sarif_s",
                "core.runtime.accesses",
                "harness.layers_cover_rel",
            ];
            for name in timed.iter().chain(&always) {
                assert!(
                    t.layers.get(name) > 0.0,
                    "{}: {name} must be measured",
                    spec.name
                );
            }
        }
    }
}
