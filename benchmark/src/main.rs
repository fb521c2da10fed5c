//! `predator-benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! predator-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! predator-benchmark bless
//! predator-benchmark aa [--sets N] [--seconds S]
//! ```

mod child;
mod e2e;
mod essence;
mod host;
mod layers;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Deserialize;

use e2e::{end_to_end, measure, Gate, Measured, Tally, BLESSED_SEED, SETUP_SAMPLES};
use host::{loadavg_1m, repo_root, Host};
use spec::{Spec, WORKLOADS};

/// One metric as a run reports it: (name, unit, value).
pub type Row = (&'static str, &'static str, f64);

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: BLESSED_SEED,
        seconds: None,
        trace: false,
        sets: 3,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        let bad = |v: &String| format!("invalid value for {a}: {v}");
        match a.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must not be negative, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--sets" => args.sets = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "bless" | "aa" if args.mode.is_none() => args.mode = Some(a.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

#[derive(Deserialize)]
struct BoundDecl {
    name: String,
    bound: f64,
}

/// The parts of `BENCHMARK.json` the harness reads back: how long a run
/// measures by default, and the bound `aa` holds each metric to.
#[derive(Deserialize)]
struct Contract {
    run_seconds: u64,
    end_to_end: Vec<BoundDecl>,
}

fn read_contract<T: Deserialize>() -> Result<T, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_header(host: &Host, spec: &Spec, seed: u64, seconds: f64, trace: bool) {
    println!(
        "# predator-benchmark {}: seed {seed}, {seconds} s, trace {}",
        spec.name,
        u8::from(trace)
    );
    println!(
        "# host: nproc {}, K = {} shard(s), repetitions take turns pinned to CPU {:?}, loadavg_1m {} at start",
        host.nproc,
        host.shards,
        host.cpus,
        loadavg_1m()
    );
    println!("# binary: {}", host.predator.display());
    for input in spec.inputs {
        let trace = format!("<out>/{}.ptrace", input.program);
        if spec.needs_traces() {
            println!(
                "# set-up:  predator {}",
                spec.record_args(input, seed, &trace).join(" ")
            );
        }
        println!(
            "# timed:   predator {}",
            spec.timed_args(input, seed, &trace, host.shards).join(" ")
        );
    }
}

fn print_reps(m: &Measured) {
    let walls = m.walls();
    println!(
        "# {} repetition(s) of {} events; wall best-of per invocation {:.4} s, fastest repetition {:.4} s, median {:.4} s, IQR {:.1} % of median; {} set-up sample(s)",
        walls.len(),
        m.events_per_rep(),
        m.best_wall_s(),
        stats::best_of(&walls),
        stats::median(&walls),
        if walls.len() >= 2 { 100.0 * stats::iqr_rel(&walls) } else { 0.0 },
        m.setup_samples.len(),
    );
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("# repetition walls, s: {}", shown.join(" "));
    let shown: Vec<String> = m.setup_samples.iter().map(|w| format!("{w:.3}")).collect();
    println!("# set-up samples, s: {}", shown.join(" "));
    println!(
        "# loadavg_1m {} at start, {} at end",
        m.load_start, m.load_end
    );
}

fn print_failures(tally: &Tally) {
    for e in &tally.errors {
        println!("# FAILED {e}");
    }
}

/// The contract's last line of standard output.
fn result_line(tally: &Tally, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn print_rows(rows: &[Row]) {
    for (name, unit, value) in rows {
        println!("{name:<40} {value:>16.6} {unit}");
    }
}

fn run_end_to_end(
    host: &Host,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) -> Result<(Tally, Vec<Row>), String> {
    let m = measure(
        host,
        spec,
        seed,
        seconds,
        SETUP_SAMPLES,
        Gate::for_spec(spec, seed)?,
    )?;
    print_reps(&m);
    print_failures(&m.gate.tally);
    let rows = end_to_end(&m)?;
    Ok((m.gate.tally, rows))
}

fn run_traced(
    host: &Host,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) -> Result<(Tally, Vec<Row>), String> {
    // Half the budget for the CLI repetitions; the probes take the rest.
    let t = layers::traced_run(host, spec, seed, seconds / 2.0)?;
    let path = layers::write_spans(spec, seed, &t.tracer)?;
    println!(
        "# {} spans written to {}",
        t.tracer.spans().len(),
        path.display()
    );
    println!(
        "# {:<32} {:>6} {:>12} {:>12}",
        "layer", "calls", "total s", "self s"
    );
    for (name, (calls, total, own)) in t.tracer.by_layer() {
        println!("# {name:<32} {calls:>6} {total:>12.6} {own:>12.6}");
    }
    print_failures(&t.tally);
    Ok((t.tally, t.layers.rows()))
}

/// One run as the driver asks for it.
fn cmd_run(args: &Args) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("missing --workload <name>")?;
    let spec = spec::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => read_contract::<Contract>()?.run_seconds as f64,
    };
    let host = Host::prepare()?;
    print_header(&host, spec, args.seed, seconds, args.trace);
    let (tally, rows) = if args.trace {
        run_traced(&host, spec, args.seed, seconds)?
    } else {
        run_end_to_end(&host, spec, args.seed, seconds)?
    };
    print_rows(&rows);
    println!("{}", result_line(&tally, &rows));
    Ok(())
}

/// Writes `expected/<workload>.json` for the blessed seed from what the CLI
/// prints now: set-up plus repetitions that agree with each other.
fn cmd_bless() -> Result<(), String> {
    let host = Host::prepare()?;
    for spec in &WORKLOADS {
        let path = e2e::expected_path(spec);
        let m = measure(&host, spec, BLESSED_SEED, 0.0, 1, Gate::unblessed(spec)?)?;
        let essences = m
            .gate
            .essences()
            .ok_or(format!("{}: {:?}", spec.name, m.gate.tally.errors))?;
        let text = serde_json::to_string_pretty(&essences).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "blessed {} ({} invocation(s))",
            path.display(),
            essences.len()
        );
    }
    Ok(())
}

/// What one run of this program printed as its last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// (name, unit, value)
    metrics: Vec<(String, String, f64)>,
}

/// Runs this program once more, as the driver would, and reads its result
/// line. A process per run, so every run starts as small as the driver's
/// (a child's peak RSS never reads below its parent's).
fn run_self(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("run of {} failed: {}", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let v: serde::Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let number = |v: &serde::Value| f64::from_value(v).map_err(|e| format!("result line: {e}"));
    let mut metrics = Vec::new();
    for (name, m) in v
        .field("metrics")
        .as_map()
        .ok_or("result line has no metrics")?
    {
        let unit = String::from_value(m.field("unit")).map_err(|e| e.to_string())?;
        metrics.push((name.clone(), unit, number(m.field("value"))?));
    }
    Ok(RunResult {
        attempted: number(v.field("attempted"))? as u64,
        failed: number(v.field("failed"))? as u64,
        metrics,
    })
}

/// A/A: every workload `sets` times back to back on the same code, each run
/// a process of its own. Fails if two sets disagree on an end-to-end metric
/// by more than its own bound, if a count of the traced run does not repeat
/// exactly, or if any operation failed. (`stats.events` needs no column: on
/// the blessed seed every invocation is held to the committed essence.)
fn cmd_aa(args: &Args) -> Result<(), String> {
    let contract: Contract = read_contract()?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds as f64);
    let sets = args.sets.max(2);
    // (workload, metric) → one value per set
    let mut timed: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for set in 0..sets {
        for spec in &WORKLOADS {
            println!("# set {set}: {}", spec.name);
            for trace in [false, true] {
                let run = run_self(spec, args.seed, seconds, trace)?;
                attempted += run.attempted;
                failed += run.failed;
                for (name, unit, v) in run.metrics {
                    if !trace {
                        timed.entry((spec.name, name)).or_default().push(v);
                    } else if unit == "count" {
                        counts.entry((spec.name, name)).or_default().push(v);
                    }
                }
            }
        }
    }

    let mut ok = failed == 0;
    println!("| workload | metric | values | largest difference | bound |");
    println!("|---|---|---|---|---|");
    for ((workload, metric), values) in &timed {
        let bound = contract
            .end_to_end
            .iter()
            .find(|d| d.name == *metric)
            .map(|d| d.bound)
            .ok_or(format!("BENCHMARK.json has no bound for {metric}"))?;
        let diff = stats::rel_range(values);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        let verdict = if diff <= bound { "" } else { " **exceeded**" };
        ok &= diff <= bound;
        println!(
            "| {workload} | {metric} | {} | {:.1} %{verdict} | {:.0} % |",
            shown.join(" / "),
            100.0 * diff,
            100.0 * bound
        );
    }
    let drifted: Vec<_> = counts
        .iter()
        .filter(|(_, v)| v.iter().any(|x| x != &v[0]))
        .collect();
    for ((workload, metric), values) in &drifted {
        println!("count {workload}/{metric} does not repeat: {values:?}");
    }
    println!(
        "{} per-layer counts identical across {sets} sets: {}",
        counts.len(),
        drifted.is_empty()
    );
    ok &= drifted.is_empty();
    println!("{attempted} operations attempted, {failed} failed");
    if ok {
        Ok(())
    } else {
        Err("A/A failed: the same code disagrees with itself beyond its own bounds".into())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| match args.mode.as_deref() {
        Some("bless") => cmd_bless(),
        Some("aa") => cmd_aa(&args),
        _ => cmd_run(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("predator-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness name the same workloads and metrics
    /// with the same units, in the same order.
    #[test]
    fn contract_file_matches_the_harness() {
        let c: serde::Value = read_contract().unwrap();
        let strings = |list: &str, key: &str| -> Vec<String> {
            let items = c.field(list).as_seq().unwrap();
            items
                .iter()
                .map(|d| String::from_value(d.field(key)).unwrap())
                .collect()
        };
        let built: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(strings("workloads", "name"), built);
        for (list, rows) in [
            ("end_to_end", &e2e::END_TO_END[..]),
            ("per_layer", layers::PER_LAYER),
        ] {
            let (names, units): (Vec<&str>, Vec<&str>) = rows.iter().copied().unzip();
            assert_eq!(strings(list, "name"), names, "{list}");
            assert_eq!(strings(list, "unit"), units, "{list}");
        }
        let contract: Contract = read_contract().unwrap();
        assert!(contract
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!((1..=60).contains(&contract.run_seconds));
    }

    #[test]
    fn result_line_is_the_contracts_json() {
        let tally = Tally {
            attempted: 7,
            failed: 0,
            errors: Vec::new(),
        };
        let line = result_line(
            &tally,
            &[("mev_per_s", "Mev/s", 25.125), ("setup_s", "s", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"mev_per_s\": {\"value\": 25.125, \"unit\": \"Mev/s\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.as_map().unwrap().len(), 4);
    }

    #[test]
    fn arguments_as_the_driver_passes_them() {
        let raw: Vec<String> = "--workload live_tracked --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("live_tracked"), 9, Some(20.0), true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(parse_args(&["frobnicate".into()]).is_err());
    }
}
