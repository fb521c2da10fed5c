//! The end-to-end run: the real `predator` CLI of the commit under test,
//! run as child processes one at a time, so what a user types is what is
//! timed.
//!
//! One run = set-up (several samples) + measured repetitions. A repetition
//! is a fixed list of CLI invocations (work-bounded: frozen `--iters`), so
//! `stats.events` and every program counter repeat exactly; only the number
//! of repetitions follows `--seconds`.

use std::path::PathBuf;
use std::time::Instant;

use predator_core::{ObsSnapshot, Report};
use predator_workloads::Expectation;

use crate::child::{run_child, ChildRun};
use crate::essence::{check_essence, check_expectation, parse_report, Essence};
use crate::host::{bench_dir, loadavg_1m, Host, Scratch};
use crate::spec::Spec;
use crate::stats;

/// Set-up is sampled this often per run and reported as the median, so one
/// disturbed sample does not decide `setup_s`.
pub const SETUP_SAMPLES: usize = 5;
/// Fewer measured repetitions than this are not a measurement, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;
/// The one seed whose essences are committed under `expected/`.
pub const BLESSED_SEED: u64 = 42;

/// Operations attempted and failed, the way the contract reports them. An
/// operation is one CLI invocation (or, in the traced run, one probe).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// Decides whether one timed invocation's report is correct: families as
/// `Workload::expectation()` says (any seed), essence equal to the first
/// repetition's (always) and to `expected/<workload>.json` (blessed seed).
pub struct Gate {
    expectations: Vec<Expectation>,
    expected: Option<Vec<Essence>>,
    first: Vec<Option<Essence>>,
    pub tally: Tally,
}

impl Gate {
    pub fn new(expectations: Vec<Expectation>, expected: Option<Vec<Essence>>) -> Gate {
        let first = vec![None; expectations.len()];
        Gate {
            expectations,
            expected,
            first,
            tally: Tally::default(),
        }
    }

    /// The gate for one run: ground truth from the workloads themselves,
    /// plus the committed essences when `seed` is the blessed one.
    pub fn for_spec(spec: &Spec, seed: u64) -> Result<Gate, String> {
        let mut gate = Gate::unblessed(spec)?;
        if seed == BLESSED_SEED {
            gate.expected = Some(load_expected(spec)?);
        }
        Ok(gate)
    }

    /// A gate that knows no committed essences (what `bless` starts from).
    pub fn unblessed(spec: &Spec) -> Result<Gate, String> {
        let expectations = spec
            .inputs
            .iter()
            .map(|i| {
                predator_workloads::by_name(i.program)
                    .map(|w| w.expectation())
                    .ok_or_else(|| format!("no workload named {}", i.program))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Gate::new(expectations, None))
    }

    /// Counts invocation `i`'s outcome and hands the report back if it is
    /// correct.
    pub fn admit(
        &mut self,
        what: &str,
        i: usize,
        outcome: Result<Report, String>,
    ) -> Option<Report> {
        let checked = outcome.and_then(|report| {
            check_expectation(&report, self.expectations[i])?;
            let essence = Essence::of(&report);
            if let Some(expected) = &self.expected {
                let want = expected
                    .get(i)
                    .ok_or("expected file has too few entries; run `bless`")?;
                check_essence(&essence, want, "the blessed essence")?;
            }
            match &self.first[i] {
                Some(first) => check_essence(&essence, first, "the first repetition")?,
                None => self.first[i] = Some(essence),
            }
            Ok(report)
        });
        self.tally.record(what, checked)
    }

    /// The essences every repetition agreed on, once each input has one.
    pub fn essences(&self) -> Option<Vec<Essence>> {
        self.first.iter().cloned().collect()
    }
}

pub fn expected_path(spec: &Spec) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{}.json", spec.name))
}

fn load_expected(spec: &Spec) -> Result<Vec<Essence>, String> {
    let path = expected_path(spec);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `bless`)", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one CLI invocation printed, if it ran cleanly. A non-zero exit or
/// anything on stderr (the CLI warns there about lost trace records) is a
/// failed operation.
fn clean_stdout(
    run: &ChildRun,
    stdout: &std::path::Path,
    stderr: &std::path::Path,
) -> Result<String, String> {
    if !run.status.success() {
        return Err(format!("{}", run.status));
    }
    let err = std::fs::read_to_string(stderr).map_err(|e| e.to_string())?;
    if let Some(line) = err.lines().next() {
        return Err(format!("stderr: {line}"));
    }
    std::fs::read_to_string(stdout).map_err(|e| e.to_string())
}

/// One measured repetition: what each invocation of the workload cost, and
/// the `obs` block of each report. Only that block is kept per repetition:
/// whole reports would grow the harness past its smallest child, and a
/// child's `ru_maxrss` never reads below its parent's (see `child.rs`).
#[derive(Debug, Clone)]
pub struct Rep {
    pub costs: Vec<ChildRun>,
    pub obs: Vec<ObsSnapshot>,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.costs.iter().map(|c| c.wall_s).sum()
    }
}

/// Everything one run observed, before it is reduced to metrics.
pub struct Measured {
    /// Holds the recorded traces; dropping it removes them.
    _scratch: Scratch,
    pub traces: Vec<PathBuf>,
    /// Seconds per set-up sample: `record`s plus one warm-up repetition.
    pub setup_samples: Vec<f64>,
    /// Seconds the `record` invocations of each set-up sample took.
    pub record_samples: Vec<f64>,
    pub reps: Vec<Rep>,
    /// The reports of the last correct repetition, one per input.
    pub reports: Vec<Report>,
    pub gate: Gate,
    pub load_start: f64,
    pub load_end: f64,
}

struct Runner<'a> {
    host: &'a Host,
    spec: &'a Spec,
    seed: u64,
    scratch: Scratch,
    traces: Vec<PathBuf>,
    gate: Gate,
    /// Repetitions started so far; decides which CPU the next one gets.
    turn: usize,
}

impl Runner<'_> {
    fn invoke(&self, args: &[String]) -> Result<(ChildRun, String), String> {
        let (out, err) = (
            self.scratch.path().join("stdout"),
            self.scratch.path().join("stderr"),
        );
        let run = run_child(&self.host.predator, args, &out, &err)?;
        let text = clean_stdout(&run, &out, &err)?;
        Ok((run, text))
    }

    /// Records every input to its `.ptrace`; returns the seconds it took.
    fn record_inputs(&mut self) -> f64 {
        let mut wall = 0.0;
        for (input, trace) in self.spec.inputs.iter().zip(&self.traces) {
            let args = self
                .spec
                .record_args(input, self.seed, &trace.to_string_lossy());
            let outcome = self.invoke(&args).map(|(run, _)| run.wall_s);
            let what = format!("record {}", input.program);
            wall += self.gate.tally.record(&what, outcome).unwrap_or(0.0);
        }
        wall
    }

    /// Runs every invocation once. `None` if any of them failed: a failed
    /// repetition is counted but never timed.
    fn repetition(&mut self) -> Option<(Rep, Vec<Report>)> {
        let pinned = self.host.pin(self.turn);
        self.turn += 1;
        self.gate.tally.record("pin to a CPU", pinned)?;
        let mut costs = Vec::new();
        let mut reports = Vec::new();
        for (i, (input, trace)) in self.spec.inputs.iter().zip(&self.traces).enumerate() {
            let args =
                self.spec
                    .timed_args(input, self.seed, &trace.to_string_lossy(), self.host.shards);
            let outcome = self.invoke(&args).and_then(|(run, text)| {
                costs.push(run);
                parse_report(&text)
            });
            let what = format!("{} {}", self.spec.verb.name(), input.program);
            reports.extend(self.gate.admit(&what, i, outcome));
        }
        let obs = reports.iter().map(|r| r.obs.clone()).collect();
        (reports.len() == self.spec.inputs.len()).then_some((Rep { costs, obs }, reports))
    }
}

/// Sets up `setups` times, then repeats the workload until `seconds` of
/// measuring have passed.
pub fn measure(
    host: &Host,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    setups: usize,
    gate: Gate,
) -> Result<Measured, String> {
    let load_start = loadavg_1m();
    let scratch = Scratch::create(spec.name)?;
    let traces = spec
        .inputs
        .iter()
        .map(|i| scratch.path().join(format!("{}.ptrace", i.program)))
        .collect();
    let mut r = Runner {
        host,
        spec,
        seed,
        scratch,
        traces,
        gate,
        turn: 0,
    };
    let mut setup_samples = Vec::new();
    let mut record_samples = Vec::new();
    for _ in 0..setups.max(1) {
        let start = Instant::now();
        if spec.needs_traces() {
            record_samples.push(r.record_inputs());
        }
        r.repetition(); // warm-up: checked and counted, never timed
        setup_samples.push(start.elapsed().as_secs_f64());
    }

    let mut reps = Vec::new();
    let mut reports = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if let Some((rep, rs)) = r.repetition() {
            reps.push(rep);
            reports = rs;
        } else if r.gate.tally.failed > 3 * spec.inputs.len() as u64 {
            break; // broken, not noisy: do not burn the whole budget
        }
    }
    Ok(Measured {
        _scratch: r.scratch,
        traces: r.traces,
        setup_samples,
        record_samples,
        reps,
        reports,
        gate: r.gate,
        load_start,
        load_end: loadavg_1m(),
    })
}

impl Measured {
    /// Wall seconds of each repetition.
    pub fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(Rep::wall_s).collect()
    }

    /// The fastest each invocation ever ran, summed over the repetition's
    /// list. Best-of-R per invocation, not per repetition: the quiet window
    /// it needs on a shared host is one invocation long, not a whole list.
    fn best_sum(&self, cost: impl Fn(&ChildRun) -> f64) -> f64 {
        let inputs = self.reps.first().map_or(0, |r| r.costs.len());
        (0..inputs)
            .map(|i| {
                let per_rep: Vec<f64> = self.reps.iter().map(|r| cost(&r.costs[i])).collect();
                stats::best_of(&per_rep)
            })
            .sum()
    }

    pub fn best_wall_s(&self) -> f64 {
        self.best_sum(|c| c.wall_s)
    }

    /// Events one repetition delivers: the sum of `stats.events`, exact.
    pub fn events_per_rep(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.events).sum()
    }
}

/// The four end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("mev_per_s", "Mev/s"),
    ("cpu_s_per_mev", "s/Mev"),
    ("peak_rss_mb", "MB"),
];

/// Reduces a run to the end-to-end metrics. Time metrics are best-of-R.
/// `peak_rss_mb` is the largest any measured invocation needed.
pub fn end_to_end(m: &Measured) -> Result<Vec<crate::Row>, String> {
    if m.reps.is_empty() {
        return Err("no repetition completed".into());
    }
    let mev = m.events_per_rep() as f64 / 1e6;
    let costs = || m.reps.iter().flat_map(|r| &r.costs);
    if let Some(c) = costs().find(|c| c.maxrss_kb <= c.parent_hwm_kb) {
        return Err(format!(
            "a child's peak RSS ({} kB) is masked by the harness's own ({} kB)",
            c.maxrss_kb, c.parent_hwm_kb
        ));
    }
    let rss: Vec<f64> = costs().map(|c| c.maxrss_kb as f64 / 1024.0).collect();
    let values = [
        stats::median(&m.setup_samples),
        mev / m.best_wall_s(),
        m.best_sum(|c| c.cpu_s) / mev,
        stats::largest(&rss),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::DetectorConfig;
    use predator_workloads::{by_name, run_and_report, WorkloadConfig};

    #[test]
    fn a_tampered_report_is_counted_as_a_failed_operation() {
        let w = by_name("histogram").unwrap();
        let report = run_and_report(
            w.as_ref(),
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        assert!(report.findings.len() >= 2, "need a finding to drop");
        let blessed = vec![Essence::of(&report)];
        let mut gate = Gate::new(vec![Expectation::Observed], Some(blessed));

        // What the CLI prints goes through; so does a report that only
        // gained something the essence does not look at.
        assert!(gate
            .admit("genuine", 0, parse_report(&report.to_json()))
            .is_some());
        let mut grown = report.clone();
        grown.stats.metadata_bytes += 4096;
        assert!(gate.admit("grown", 0, Ok(grown)).is_some());
        assert_eq!((gate.tally.attempted, gate.tally.failed), (2, 0));

        let mut count_changed = report.clone();
        count_changed.findings[0].invalidations += 1;
        assert!(gate.admit("count changed", 0, Ok(count_changed)).is_none());

        let mut finding_dropped = report.clone();
        finding_dropped.findings.pop();
        assert!(gate
            .admit("finding dropped", 0, Ok(finding_dropped))
            .is_none());

        assert!(gate
            .admit("crashed", 0, Err("exit status: 101".into()))
            .is_none());
        assert_eq!((gate.tally.attempted, gate.tally.failed), (5, 3));
        assert!(
            gate.tally.errors[0].contains("finding 0"),
            "{:?}",
            gate.tally.errors
        );
    }

    #[test]
    fn without_a_blessed_file_the_first_repetition_is_the_reference() {
        let w = by_name("histogram").unwrap();
        let report = run_and_report(
            w.as_ref(),
            DetectorConfig::sensitive(),
            &WorkloadConfig::quick(),
        );
        let mut gate = Gate::new(vec![Expectation::Observed], None);
        assert!(gate.essences().is_none());
        assert!(gate.admit("first", 0, Ok(report.clone())).is_some());
        assert_eq!(gate.essences(), Some(vec![Essence::of(&report)]));
        let mut drifted = report.clone();
        drifted.stats.events += 1;
        assert!(gate.admit("drifted", 0, Ok(drifted)).is_none());
        // A report of the wrong family fails whatever the reference says.
        let mut gate = Gate::new(vec![Expectation::Clean], None);
        assert!(gate.admit("wrong family", 0, Ok(report)).is_none());
    }
}
