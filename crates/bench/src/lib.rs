//! # predator-bench
//!
//! The paper-figure harness: regenerates every table and figure of the
//! PREDATOR paper's evaluation (§4). One function per experiment returns
//! typed rows, sized by its arguments; one binary per experiment prints
//! them through [`print`]; `tests/paper_figures.rs` holds the rows to the
//! paper's shapes, less the [`DEVIATIONS`].
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Figure 2 — alignment sensitivity of linear_regression | [`fig2_sim`] | `fig2_alignment` |
//! | Figure 5 — example detector report | — | (`predator run linear_regression --sensitive` in the CLI crate) |
//! | Table 1 — detection/prediction matrix + improvements | [`table1`] | `table1_detection` |
//! | §4.1.2 — real-application findings | [`apps`] | `table_apps` |
//! | Figure 7 — execution-time overhead | [`fig7`] | `fig7_overhead` |
//! | Figures 8–9 — absolute/relative memory overhead | [`fig8_9`] | `fig8_9_memory` |
//! | Figure 10 — sampling-rate sensitivity | [`fig10`] | `fig10_sampling` |
//!
//! The repo's performance record is not here: it is `BENCHMARK.json` and
//! the standalone `benchmark/` package.
//!
//! Absolute numbers differ from the paper (their substrate was an 8-core
//! Xeon running instrumented native binaries; ours is a simulator), but the
//! *shapes* — who is detected, who wins, where the knees are — are the
//! reproduction targets. `EXPERIMENTS.md` records paper-vs-measured values.

use std::str::FromStr;
use std::time::{Duration, Instant};

use predator_core::{AccessKind, DetectorConfig, Finding, FindingKind, Predator, Report};
use predator_core::{Session, SiteKind, ThreadId};
use predator_workloads::{all, by_name, run_and_report, Expectation, Suite, Variant};
use predator_workloads::{Workload, WorkloadConfig};

/// A shape of the paper's evaluation that this reproduction does not
/// match: the function whose rows show it, the shape as
/// `tests/paper_figures.rs` names it, and why. That test requires the
/// failing shapes to be exactly these, so a fixed deviation must leave.
#[derive(Debug)]
pub struct Deviation {
    pub figure: &'static str,
    pub shape: &'static str,
    pub reason: &'static str,
}

/// Every [`Deviation`].
pub const DEVIATIONS: &[Deviation] = &[
    Deviation {
        figure: "table1",
        shape: "streamcluster.cpp:1907 is Observed",
        reason: "the object starts 32 B from where the paper's did, so its sharing is only \
                 predicted, and only from about 5 600 iterations on",
    },
    Deviation {
        figure: "fig8_9",
        shape: "aget is above the average relative total",
        reason: "aget's miniature footprint is 16 KiB, so it reads 49x against a 279x average; \
                 the paper's aget is sub-megabyte among full-size applications",
    },
];

/// A row of one table.
pub trait Row {
    /// Column headings, tab-separated; the first names the row.
    const COLUMNS: &'static str;
    /// The row's cells, tab-separated. Any further lines are details,
    /// printed indented beneath the row.
    fn cells(&self) -> String;
}

/// Prints `rows` under `title` and a stamp of what they were measured at:
/// the host's cores, `iters`, `reps` and the commit. The first column is
/// left-aligned, the others right-aligned, each as wide as its widest cell.
pub fn print<R: Row>(title: &str, iters: u64, reps: usize, rows: &[R]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    let commit = git.ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".into(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    );
    println!("\n=== {title} ===\ncores={cores} iters={iters} reps={reps} commit={commit}\n");
    let text: Vec<String> = std::iter::once(R::COLUMNS.into())
        .chain(rows.iter().map(Row::cells))
        .collect();
    let table: Vec<Vec<&str>> = text
        .iter()
        .map(|t| t.lines().next().unwrap_or("").split('\t').collect())
        .collect();
    let width = |i: usize| table.iter().map(|r| r.get(i).map_or(0, |c| c.len())).max();
    for (text, cells) in text.iter().zip(&table) {
        let mut line = format!("{:<w$}", cells[0], w = width(0).unwrap_or(0));
        for (i, cell) in cells.iter().enumerate().skip(1) {
            line += &format!("  {cell:>w$}", w = width(i).unwrap_or(0));
        }
        println!("{line}");
        text.lines().skip(1).for_each(|d| println!("    {d}"));
    }
}

/// The value of environment variable `name`, or `default` when it is
/// unset or does not parse.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Default workload size for the evaluation binaries (`PREDATOR_ITERS`).
pub fn eval_iters() -> u64 {
    env_or("PREDATOR_ITERS", 30_000)
}

/// Repetitions for native timing runs (`PREDATOR_REPS`, default 5).
pub fn eval_reps() -> usize {
    env_or("PREDATOR_REPS", 5)
}

/// Median wall time of `reps` runs of `f` (discards min/max like the paper's
/// "average of 10 runs, excluding the maximum and minimum").
pub fn median_time(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    assert!(reps >= 1);
    median((0..reps).map(|_| f()).collect())
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Wall time and report of a tracked run of `w` under `det` (the workload
/// runs on its deterministic logical schedule; the detector does the real
/// work).
fn run_timed(w: &dyn Workload, det: DetectorConfig, cfg: &WorkloadConfig) -> (Duration, Report) {
    let session = Session::with_config(det);
    let start = Instant::now();
    w.run_tracked(&session, cfg);
    (start.elapsed(), session.report())
}

/// A duration ratio, as the paper's normalized-runtime plots show it.
pub fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64().max(1e-12)
}

/// A check mark or blank for detection-matrix tables.
pub fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

/// Mean of the finite values.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let finite: Vec<f64> = values.filter(|v| v.is_finite()).collect();
    finite.iter().sum::<f64>() / finite.len() as f64
}

/// The detector configuration used by the evaluation: the paper's
/// thresholds scaled to our (smaller) workload sizes. Sampling stays at the
/// paper's 1%.
pub fn eval_config() -> DetectorConfig {
    DetectorConfig {
        tracking_threshold: 64,
        prediction_threshold: 256,
        report_threshold: 200,
        ..DetectorConfig::paper()
    }
}

/// Figure 2's modeled runtime in L1-hit units: an access costs 1, an
/// invalidation this much (~100 ns cross-core miss vs ~1 ns hit; §2.1:
/// invalidations are the root cause of the degradation).
pub const INVALIDATION_PENALTY: f64 = 100.0;

/// Detector configuration for modeled runs: everything counted (no
/// sampling, tiny thresholds) so invalidation totals are exact.
pub fn model_config() -> DetectorConfig {
    DetectorConfig {
        tracking_threshold: 1,
        prediction_threshold: 1024,
        report_threshold: 1,
        sampling: false,
        prediction: false,
        ..DetectorConfig::paper()
    }
}

/// Wall-clock cost assumed per invalidation in [`projected_improvement`]
/// (a cross-core coherence miss, ~100 ns).
pub const INVALIDATION_SECONDS: f64 = 100e-9;

/// The workload whose finding is latent: its projection takes the rate of
/// its worst placement (offset 24, Figure 2), the danger prediction reports.
const LATENT: &str = "linear_regression";

/// Iterations of a native run [`time_fix`] times: `max(iters, 200 000)`,
/// so the run is long enough to time.
fn native_iters(iters: u64) -> u64 {
    iters.max(200_000)
}

/// Projected improvement (%) of fixing a workload: the exact (unsampled)
/// detector's invalidations on the broken layout — for [`LATENT`], at its
/// worst placement — × 100 ns, over `t_fixed`, the native fixed variant's
/// median wall time at [`native_iters`] iterations. The projection assumes
/// the detector's adversarial interleaving, so magnitudes are upper bounds;
/// the paper's severity *ordering* is the reproduction target.
pub fn projected_improvement(w: &dyn Workload, cfg: &WorkloadConfig, t_fixed: Duration) -> f64 {
    let model_iters = cfg.iters.min(20_000);
    let inv_model = if w.name() == LATENT {
        lreg_offset_invalidations(24, cfg.threads, model_iters).1
    } else {
        let session = Session::with_config(model_config());
        w.run_tracked(&session, &cfg.with_iters(model_iters));
        session.runtime().total_invalidations()
    };
    let scaled_inv = inv_model as f64 * (native_iters(cfg.iters) as f64 / model_iters as f64);
    scaled_inv * INVALIDATION_SECONDS / t_fixed.as_secs_f64().max(1e-9) * 100.0
}

/// One false-sharing finding: a heap object's call stack (innermost
/// first), a global's name or `<unknown>`; its kind and invalidations.
#[derive(Debug, Clone)]
pub struct Site {
    pub frames: Vec<String>,
    pub kind: FindingKind,
    pub invalidations: u64,
}

impl Site {
    fn of(f: &Finding) -> Site {
        let frames = match &f.object.site {
            SiteKind::Heap { callsite, .. } => {
                callsite.frames.iter().map(|fr| fr.to_string()).collect()
            }
            SiteKind::Global { name } => vec![name.clone()],
            SiteKind::Unknown => vec!["<unknown>".into()],
        };
        let (kind, invalidations) = (f.kind, f.invalidations);
        Site {
            frames,
            kind,
            invalidations,
        }
    }

    /// The innermost frame, as the tables print it.
    pub fn label(&self) -> &str {
        self.frames.first().map_or("heap", String::as_str)
    }
}

/// A row of Table 1 or §4.1.2: one workload, what the paper found for it,
/// whether PREDATOR-NP observes false sharing (`without`) and whether
/// PREDATOR reports any (`with`), and PREDATOR's findings. [`time_fix`]
/// fills in the projected `improvement` and the `native` gap (both %).
#[derive(Debug, Clone)]
pub struct Detection {
    pub workload: &'static str,
    pub expected: Expectation,
    pub without: bool,
    pub with: bool,
    pub sites: Vec<Site>,
    pub improvement: Option<f64>,
    pub native: Option<f64>,
}

/// Table 1: every Phoenix and PARSEC workload at `iters` iterations, with
/// prediction off and on.
pub fn table1(iters: u64) -> Vec<Detection> {
    detections(&[Suite::Phoenix, Suite::Parsec], iters)
}

/// §4.1.2's real applications, run as [`table1`] runs its workloads.
pub fn apps(iters: u64) -> Vec<App> {
    let rows = detections(&[Suite::App], iters);
    rows.into_iter().map(App).collect()
}

fn detections(suites: &[Suite], iters: u64) -> Vec<Detection> {
    let (det, cfg) = (eval_config(), WorkloadConfig::default().with_iters(iters));
    let np = DetectorConfig {
        prediction: false,
        ..det
    };
    let ws = all().into_iter().filter(|w| suites.contains(&w.suite()));
    ws.map(|w| {
        let without = run_and_report(w.as_ref(), np, &cfg).has_observed_false_sharing();
        let report = run_and_report(w.as_ref(), det, &cfg);
        Detection {
            workload: w.name(),
            expected: w.expectation(),
            without,
            with: report.has_false_sharing(),
            sites: report.false_sharing().map(Site::of).collect(),
            improvement: None,
            native: None,
        }
    })
    .collect()
}

/// Fills a detected row's wall-clock columns: the projected improvement
/// and, with `PREDATOR_NATIVE` set, the median native broken-vs-fixed gap
/// at [`native_iters`] iterations, which shows something only on several
/// cores (§5.2's same-core caveat). The fixed variant is timed once and
/// serves both.
pub fn time_fix(row: &mut Detection, iters: u64, reps: usize) {
    if !(row.with || row.without) {
        return;
    }
    let w = by_name(row.workload).expect("workload");
    let cfg = WorkloadConfig::default().with_iters(iters);
    let ncfg = cfg.with_iters(native_iters(iters));
    let fixed = median_time(reps, || w.run_native(&ncfg.with_variant(Variant::Fixed)));
    row.improvement = Some(projected_improvement(w.as_ref(), &cfg, fixed));
    if std::env::var("PREDATOR_NATIVE").is_ok() {
        let broken = median_time(reps, || w.run_native(&ncfg));
        row.native = Some((ratio(broken, fixed) - 1.0) * 100.0);
    }
}

impl Detection {
    /// The improvement cell, and the native gap's line if there is one.
    fn timing(&self) -> (String, String) {
        let latent = (self.workload == LATENT).then_some(" (latent)");
        let cell = self
            .improvement
            .map(|p| format!("{p:+.2}%{}", latent.unwrap_or("")));
        let native = self
            .native
            .map(|g| format!("\nnative (this host): {g:+.2}%"));
        (cell.unwrap_or("-".into()), native.unwrap_or_default())
    }
}

impl Row for Detection {
    const COLUMNS: &'static str = "benchmark\tw/o pred\tw/ pred\timprovement*";

    fn cells(&self) -> String {
        let ((cell, native), o, w) = (self.timing(), mark(self.without), mark(self.with));
        let sites = self.sites.iter().map(|s| {
            let (label, inv, kind) = (s.label(), s.invalidations, &s.kind);
            format!("\n{label:<40} invalidations: {inv} ({kind})")
        });
        let sites: String = sites.collect();
        format!("{}\t{o}\t{w}\t{cell}{sites}{native}", self.workload)
    }
}

/// A §4.1.2 row: a [`Detection`] shown as detected or not, with the
/// attribution of its first finding.
#[derive(Debug, Clone)]
pub struct App(pub Detection);

impl Row for App {
    const COLUMNS: &'static str = "application\tdetected\tattribution\timprovement";

    fn cells(&self) -> String {
        let (d, (cell, native)) = (&self.0, self.0.timing());
        let site = d.sites.first().map_or("-", Site::label);
        format!("{}\t{}\t{site}\t{cell}{native}", d.workload, mark(d.with))
    }
}

/// `(accesses, physical invalidations)` of the Figure 6 loop's five hot
/// fields with the `lreg_args` array `offset` bytes past a line boundary,
/// on the deterministic interleaved schedule: Figure 2's simulation.
///
/// It copies the loop apart from `LinearRegression`'s body on purpose: the
/// body's `num_elems` load and header writes share a line with the
/// neighbour's hot fields, so through the body (4 threads × 2 000
/// iterations) offsets 8–32 keep one plateau of 12 000 invalidations, but
/// offset 40 reads 6 000 and 48/56 read 3 and 6, where the paper's curve is
/// clean. The tracked heap also has no placement offset to sweep.
pub fn lreg_offset_invalidations(offset: u64, threads: usize, iters: u64) -> (u64, u64) {
    assert!(offset.is_multiple_of(8) && offset < 64);
    let rt = Predator::new(model_config(), 0x4000_0000, 1 << 20);
    let base = 0x4000_0400 + offset;
    for _ in 0..iters {
        for t in 0..threads as u64 {
            // The Figure 6 loop body: five hot read-modify-write fields at
            // element offsets 24..64.
            for w in 3..8u64 {
                let (tid, addr) = (ThreadId(t as u16), base + t * 64 + w * 8);
                rt.handle_access(tid, addr, 8, AccessKind::Read);
                rt.handle_access(tid, addr, 8, AccessKind::Write);
            }
        }
    }
    (rt.events(), rt.total_invalidations())
}

/// A Figure 2 row: the `lreg_args` array `offset` bytes past a line
/// boundary, its physical invalidations, its modeled runtime and that
/// time over the best offset's.
#[derive(Debug, Clone)]
pub struct Offset {
    pub offset: u64,
    pub invalidations: u64,
    pub modeled: f64,
    pub vs_best: f64,
}

/// Figure 2, simulated: offsets 0..56 (step 8) at 4 threads × `iters`
/// ([`lreg_offset_invalidations`]).
pub fn fig2_sim(iters: u64) -> Vec<Offset> {
    let mut rows: Vec<Offset> = (0..64)
        .step_by(8)
        .map(|offset| {
            let (acc, invalidations) = lreg_offset_invalidations(offset, 4, iters);
            let modeled = acc as f64 + INVALIDATION_PENALTY * invalidations as f64;
            Offset {
                offset,
                invalidations,
                modeled,
                vs_best: 0.0,
            }
        })
        .collect();
    let best = rows.iter().map(|r| r.modeled).fold(f64::INFINITY, f64::min);
    rows.iter_mut().for_each(|r| r.vs_best = r.modeled / best);
    rows
}

impl Row for Offset {
    const COLUMNS: &'static str = "offset (B)\tinvalidations\tmodeled time\tvs best";

    fn cells(&self) -> String {
        let (o, i) = (self.offset, self.invalidations);
        format!("{o}\t{i}\t{:.0}\t{:.2}x", self.modeled, self.vs_best)
    }
}

/// A Figure 7 row: the tracked run with the detector off ("Original", in
/// ms), and PREDATOR-NP's and PREDATOR's times over it. The last row of
/// [`fig7`] is the `AVERAGE`.
#[derive(Debug, Clone)]
pub struct Overhead {
    pub workload: &'static str,
    pub original_ms: f64,
    pub np: f64,
    pub full: f64,
}

/// Figure 7: every workload at `iters` iterations, tracked with the
/// detector off, with prediction off and with it on, taking turns, each
/// the median of `reps` runs. Both ratios divide
/// tracked-with-detector by tracked-with-detector-off, where the paper
/// divides an instrumented run by a native one.
pub fn fig7(iters: u64, reps: usize) -> Vec<Overhead> {
    let (det, cfg) = (eval_config(), WorkloadConfig::default().with_iters(iters));
    let np = DetectorConfig {
        prediction: false,
        ..det
    };
    let off = DetectorConfig {
        enabled: false,
        ..det
    };
    let mut rows: Vec<Overhead> = all()
        .iter()
        .map(|w| {
            // The three take turns, so a slow spell of the host lands on
            // each of them alike.
            let runs: Vec<[Duration; 3]> = (0..reps)
                .map(|_| [off, np, det].map(|d| run_timed(w.as_ref(), d, &cfg).0))
                .collect();
            let [original, without, with] =
                [0, 1, 2].map(|i| median(runs.iter().map(|r| r[i]).collect()));
            Overhead {
                workload: w.name(),
                original_ms: original.as_secs_f64() * 1e3,
                np: ratio(without, original),
                full: ratio(with, original),
            }
        })
        .collect();
    let avg = |f: fn(&Overhead) -> f64| mean(rows.iter().map(f));
    let (original_ms, np, full) = (avg(|r| r.original_ms), avg(|r| r.np), avg(|r| r.full));
    rows.push(Overhead {
        workload: "AVERAGE",
        original_ms,
        np,
        full,
    });
    rows
}

impl Row for Overhead {
    const COLUMNS: &'static str = "workload\toriginal\tPREDATOR-NP\tPREDATOR";

    fn cells(&self) -> String {
        let (w, o) = (self.workload, self.original_ms);
        format!("{w}\t{o:.1}ms\t{:.2}x\t{:.2}x", self.np, self.full)
    }
}

/// The simulated heap of the Figures 8–9 runs (4 MiB): sized for the
/// miniature workloads, so the fixed shadow arrays stay proportionate, as
/// the paper's fixed heap is to its applications.
pub const FIG8_HEAP_BYTES: u64 = 4 << 20;

/// A Figures 8–9 row, in KiB: live application bytes; the `fixed`
/// `CacheWrites`/`CacheTracking` shadow arrays, 12 B per 64 B line of the
/// whole heap, as in the paper's fixed-address heap; the `dynamic`
/// per-line tracking state and prediction units, which grow with the
/// memory that saw heavy writes. Then `(app + fixed + dynamic) / app` and
/// `(app + dynamic) / app`. The last row of [`fig8_9`] is the `AVERAGE`.
#[derive(Debug, Clone)]
pub struct Memory {
    pub workload: &'static str,
    pub app: f64,
    pub fixed: f64,
    pub dynamic: f64,
    pub rel_total: f64,
    pub rel_dyn: f64,
}

/// Figures 8–9: every workload at `iters` iterations on a
/// [`FIG8_HEAP_BYTES`] heap, detector metadata accounted exactly.
pub fn fig8_9(iters: u64) -> Vec<Memory> {
    let cfg = WorkloadConfig::default().with_iters(iters);
    let kib = |b: u64| b as f64 / 1024.0;
    let mut rows: Vec<Memory> = all()
        .iter()
        .map(|w| {
            let session = Session::new(eval_config(), FIG8_HEAP_BYTES);
            w.run_tracked(&session, &cfg);
            let rt = session.runtime();
            let app = kib(session.heap().live_bytes());
            let fixed = kib(rt.metadata_fixed_bytes() as u64);
            let dynamic = kib(rt.metadata_dynamic_bytes() as u64);
            let rel = |x: f64| if app > 0.0 { x / app } else { f64::NAN };
            Memory {
                workload: w.name(),
                app,
                fixed,
                dynamic,
                rel_total: rel(app + fixed + dynamic),
                rel_dyn: rel(app + dynamic),
            }
        })
        .collect();
    let avg = |f: fn(&Memory) -> f64| mean(rows.iter().map(f));
    let average = Memory {
        workload: "AVERAGE",
        app: avg(|r| r.app),
        fixed: avg(|r| r.fixed),
        dynamic: avg(|r| r.dynamic),
        rel_total: avg(|r| r.rel_total),
        rel_dyn: avg(|r| r.rel_dyn),
    };
    rows.push(average);
    rows
}

impl Row for Memory {
    const COLUMNS: &'static str =
        "workload\tapp (KiB)\tfixed (KiB)\tdynamic (KiB)\trel total\trel dyn";

    fn cells(&self) -> String {
        let (w, a, f, d) = (self.workload, self.app, self.fixed, self.dynamic);
        let (t, r) = (self.rel_total, self.rel_dyn);
        format!("{w}\t{a:.1}\t{f:.1}\t{d:.1}\t{t:.2}x\t{r:.2}x")
    }
}

/// Figure 10's sampling rates: 0.1 %, the default 1 % and 10 %.
pub const RATES: [f64; 3] = [0.001, 0.01, 0.1];

/// A Figure 10 row: the wall time at each of [`RATES`] over the time at
/// 1 %, and whether each still reports false sharing. The last row of
/// [`fig10`] is the `AVERAGE`, with no verdicts.
#[derive(Debug, Clone)]
pub struct Sampling {
    pub workload: &'static str,
    pub norm: [f64; 3],
    pub detected: Option<[bool; 3]>,
}

/// Figure 10: the Table 1 workloads with false sharing (histogram,
/// linear_regression, reverse_index, word_count, streamcluster) at `iters`
/// iterations and each of [`RATES`].
pub fn fig10(iters: u64) -> Vec<Sampling> {
    let cfg = WorkloadConfig::default().with_iters(iters);
    // Detection must stay meaningful at 0.1%: scale the report threshold
    // with the sampling rate like the paper's fixed threshold effectively
    // does against its much longer runs.
    let det_at = |rate: f64| {
        let base = eval_config();
        DetectorConfig {
            report_threshold: ((base.report_threshold as f64) * rate / 0.01).max(2.0) as u64,
            ..base
        }
        .with_sampling_rate(rate)
    };
    let swept = all()
        .into_iter()
        .filter(|w| w.suite() != Suite::App && w.expectation() != Expectation::Clean);
    let mut rows: Vec<Sampling> = swept
        .map(|w| {
            let base = run_timed(w.as_ref(), det_at(0.01), &cfg).0;
            let runs = RATES.map(|rate| run_timed(w.as_ref(), det_at(rate), &cfg));
            Sampling {
                workload: w.name(),
                norm: runs.each_ref().map(|(t, _)| ratio(*t, base)),
                detected: Some(runs.each_ref().map(|(_, r)| r.has_false_sharing())),
            }
        })
        .collect();
    let norm = [0, 1, 2].map(|i| mean(rows.iter().map(|r| r.norm[i])));
    rows.push(Sampling {
        workload: "AVERAGE",
        norm,
        detected: None,
    });
    rows
}

impl Row for Sampling {
    const COLUMNS: &'static str = "workload\t0.1% (norm/det)\t1% (norm/det)\t10% (norm/det)";

    fn cells(&self) -> String {
        let cell = |i: usize| {
            let det = self.detected.map(|d| if d[i] { "/yes" } else { "/MISS" });
            format!("\t{:.2}x{}", self.norm[i], det.unwrap_or(""))
        };
        self.workload.to_string() + &(0..3).map(cell).collect::<String>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_order_insensitive() {
        let mut samples = vec![
            Duration::from_millis(5),
            Duration::from_millis(1),
            Duration::from_millis(3),
        ]
        .into_iter();
        let m = median_time(3, || samples.next().unwrap());
        assert_eq!(m, Duration::from_millis(3));
    }

    #[test]
    fn ratio_guards_against_zero() {
        assert!(ratio(Duration::from_secs(1), Duration::ZERO) > 0.0);
        assert!((ratio(Duration::from_secs(2), Duration::from_secs(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn marks() {
        assert_eq!(mark(true), "yes");
        assert_eq!(mark(false), "-");
    }

    #[test]
    fn eval_config_is_valid() {
        eval_config().validate().unwrap();
        assert!((eval_config().sampling_rate() - 0.01).abs() < 1e-9);
        model_config().validate().unwrap();
    }
}
