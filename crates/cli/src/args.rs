//! From argv to typed values, all of it read off the verb table: the parser
//! ([`parse`]), the `help` text ([`help`]), the [`Args`] a handler receives,
//! and the readers of the option groups several verbs share.

use std::collections::HashMap;
use std::path::Path;

use predator_core::registry::ThreadRegistry;
use predator_core::DetectorConfig;
use predator_policy::{Baseline, PolicyConfig, Suppressions};
use predator_workloads::{Variant, WorkloadConfig};

use crate::verbs::{Group, Opt, Verb, VERBS};

/// One invocation, already checked against its verb's row.
pub(crate) struct Args {
    pub verb: &'static Verb,
    /// What followed the verb path; the count is within the row's arity.
    pub operands: Vec<String>,
    /// Option name → value (empty for a switch), declared names only.
    values: HashMap<&'static str, String>,
}

impl Args {
    /// A handler that reads an option its row lacks would silently see
    /// "absent" for ever; in debug builds it fails the first test reaching it.
    fn declared(&self, name: &str) {
        debug_assert!(
            self.verb.opt(name).is_some(),
            "`{}` reads {name}, which its row does not declare",
            self.verb.name()
        );
    }

    pub fn has(&self, name: &str) -> bool {
        self.declared(name);
        self.values.contains_key(name)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.declared(name);
        self.values.get(name).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    /// [`Args::num`], held to `lo..=hi`.
    pub fn num_in<T>(&self, name: &str, default: T, lo: T, hi: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        match self.num(name, default)? {
            v if v < lo => Err(format!("{name} must be at least {lo}")),
            v if v > hi => Err(format!("{name} must be at most {hi}")),
            v => Ok(v),
        }
    }

    /// `--threads` on `ir` and the workload verbs: at least one, and no more
    /// than the thread registry numbers beside a workload's main thread.
    pub fn threads(&self, default: usize) -> Result<usize, String> {
        self.num_in("--threads", default, 1, ThreadRegistry::CAPACITY - 1)
    }
}

pub(crate) enum Parsed {
    Run(Args),
    /// `help`, `--help` or no verb: the rows asked about, none for all.
    Help(Vec<&'static Verb>),
}

pub(crate) fn parse(raw: &[String]) -> Result<Parsed, String> {
    let mut words: Vec<&str> = Vec::new();
    let mut given: Vec<(&str, Opt, String)> = Vec::new();
    let mut help = false;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let name = if a == "-o" { "--out" } else { a.as_str() };
        if a == "--help" {
            help = true;
        } else if !name.starts_with("--") {
            words.push(a.as_str());
        } else {
            // Whether a name takes a value is the same on every row that
            // declares it, so options may come before the verb is known.
            let opt = VERBS
                .iter()
                .find_map(|v| v.opt(name))
                .ok_or_else(|| format!("unknown option '{a}'"))?;
            let value = match opt.metavar {
                Some(_) => it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .as_str(),
                None => "",
            };
            given.push((a.as_str(), opt, value.to_string()));
        }
    }
    if words.first() == Some(&"help") {
        help = true;
        words.remove(0);
    }
    if words.is_empty() {
        return Ok(Parsed::Help(Vec::new()));
    }
    let agree = |v: &&Verb| v.path.iter().zip(&words).all(|(a, b)| a == b);
    if help {
        // `help fleet` is every `fleet` row, `run histogram --help` is `run`.
        let rows: Vec<&Verb> = VERBS.iter().filter(agree).collect();
        if rows.is_empty() {
            return Err(unknown_verb(&words));
        }
        return Ok(Parsed::Help(rows));
    }
    let verb = VERBS
        .iter()
        .find(|v| words.len() >= v.path.len() && agree(v))
        .ok_or_else(|| unknown_verb(&words))?;
    let operands = &words[verb.path.len()..];
    let (min, max) = verb.arity;
    if operands.len() < min {
        let missing = verb.operands.split_whitespace().nth(operands.len());
        return Err(format!(
            "{}: missing {}",
            verb.name(),
            missing.expect("the synopsis names every required operand")
        ));
    }
    if let Some(extra) = operands.get(max) {
        return Err(format!(
            "{}: unexpected operand `{extra}` (usage: predator {} {})",
            verb.name(),
            verb.name(),
            verb.operands
        ));
    }
    let mut values = HashMap::new();
    for (typed, opt, value) in given {
        if verb.opt(opt.name).is_none() {
            let takers: Vec<String> = VERBS
                .iter()
                .filter(|v| v.opt(opt.name).is_some())
                .map(Verb::name)
                .collect();
            return Err(format!(
                "option '{typed}' is not accepted by `{}` (taken by: {})",
                verb.name(),
                takers.join(", ")
            ));
        }
        values.insert(opt.name, value);
    }
    Ok(Parsed::Run(Args {
        verb,
        operands: operands.iter().map(|s| s.to_string()).collect(),
        values,
    }))
}

/// Names what did not match: the command, or the family's subcommands.
fn unknown_verb(words: &[&str]) -> String {
    let family = words[0];
    let subs: Vec<&str> = VERBS
        .iter()
        .filter(|v| v.path[0] == family && v.path.len() > 1)
        .map(|v| v.path[1])
        .collect();
    let subs = subs.join("|");
    match words.get(1) {
        _ if subs.is_empty() => format!("unknown command `{family}`"),
        None => format!("{family}: missing subcommand ({subs})"),
        Some(sub) => format!("unknown {family} subcommand `{sub}` ({subs})"),
    }
}

/// Appends `text` re-wrapped to 78 columns, continuation lines indented by
/// `indent`; the first line continues whatever `out` already ends with.
fn wrap(out: &mut String, text: &str, indent: usize) {
    let mut col = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
    for (i, word) in text.split_whitespace().enumerate() {
        if i > 0 && col + 1 + word.chars().count() > 78 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.chars().count();
    }
    out.push('\n');
}

fn help_opts(out: &mut String, opts: &[&'static str]) {
    for o in opts.iter().map(|decl| Opt::of(decl)) {
        let spec = [o.name, o.metavar.unwrap_or("")].join(" ");
        out.push_str(&format!("        {:<18}  ", spec.trim_end()));
        wrap(out, o.help, 28);
    }
}

fn help_group(out: &mut String, g: &Group) {
    out.push_str(&format!("      {} options:\n", g.name));
    help_opts(out, g.opts);
}

/// `predator help`: one section per row with the shared groups referenced
/// by name and printed once at the end; for chosen rows (`<verb> --help`),
/// their sections alone with the groups expanded in place.
pub(crate) fn help(rows: &[&Verb]) -> String {
    let mut out = String::from(
        "predator — predictive false sharing detection (PPoPP 2014 reproduction)\n\nUSAGE:\n",
    );
    let whole = rows.is_empty();
    let rows: Vec<&Verb> = if whole {
        VERBS.iter().collect()
    } else {
        rows.to_vec()
    };
    let mut groups: Vec<&Group> = Vec::new();
    for v in rows {
        out.push_str(&format!("    predator {} {}", v.name(), v.operands));
        out.push_str(if v.operands.is_empty() { "" } else { " " });
        out.push_str("[OPTIONS]\n        ");
        wrap(&mut out, v.about, 8);
        help_opts(&mut out, v.opts);
        if whole {
            let names: Vec<&str> = v.groups().map(|g| g.name).collect();
            out.push_str(&format!("        + {} options\n\n", names.join(", ")));
            for g in v.groups() {
                if !groups.iter().any(|seen| std::ptr::eq(*seen, g)) {
                    groups.push(g);
                }
            }
        } else {
            v.groups().for_each(|g| help_group(&mut out, g));
            out.push('\n');
        }
    }
    if whole {
        groups.iter().for_each(|g| help_group(&mut out, g));
        out.push_str(
            "\n    predator help [<verb>...] | predator <verb> --help\n        \
             This text, or one verb's section with its option groups expanded.\n",
        );
    }
    out
}

/// `--tolerance <F>`: the relative band `diff`, `baseline diff` and
/// `fleet trend` classify movement against (all three default to 0.5).
pub(crate) fn tolerance(args: &Args) -> Result<f64, String> {
    let tolerance: f64 = args.num("--tolerance", predator_fleet::DEFAULT_TOLERANCE)?;
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(format!("--tolerance must be >= 0, got {tolerance}"));
    }
    Ok(tolerance)
}

pub(crate) fn detector_config(args: &Args) -> Result<DetectorConfig, String> {
    let mut det = if args.has("--sensitive") {
        DetectorConfig::sensitive()
    } else {
        DetectorConfig::paper()
    };
    if args.has("--no-prediction") {
        det.prediction = false;
    }
    let rate: f64 = args.num("--sampling", det.sampling_rate())?;
    if !(0.0..=1.0).contains(&rate) || rate == 0.0 {
        return Err(format!("--sampling must be in (0, 1], got {rate}"));
    }
    Ok(det.with_sampling_rate(rate))
}

pub(crate) fn workload_config(args: &Args) -> Result<WorkloadConfig, String> {
    Ok(WorkloadConfig {
        threads: args.threads(4)?,
        iters: args.num_in("--iters", 20_000u64, 1, u64::MAX)?,
        seed: args.num("--seed", 42u64)?,
        variant: if args.has("--fixed") {
            Variant::Fixed
        } else {
            Variant::Broken
        },
    })
}

/// Builds the policy configuration shared by every report-emitting command
/// (`run`, `ir`, `replay`, `analyze`, `fleet report`, `serve`): the
/// suppressions file, baseline file, and the `--fail-on` gate threshold.
pub(crate) fn policy_config(args: &Args) -> Result<PolicyConfig, String> {
    let mut cfg = PolicyConfig::default();
    if let Some(path) = args.get("--suppressions") {
        cfg.suppressions = Suppressions::load(Path::new(path))?;
    }
    if let Some(path) = args.get("--baseline") {
        cfg.baseline = Some(Baseline::load(Path::new(path))?);
    }
    if let Some(sev) = args.get("--fail-on") {
        cfg.fail_on = Some(sev.parse()?);
    }
    Ok(cfg)
}

/// `--shards <N>` on `analyze` and `whatif`: validated as it always was,
/// then ignored — `benchmark/` passes it (ROADMAP 1(f)).
pub(crate) fn ignored_shards(args: &Args) -> Result<(), String> {
    match args.num("--shards", 1usize)? {
        0 => Err("--shards must be at least 1".into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(raw: &[&str]) -> Result<Parsed, String> {
        parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn args(raw: &[&str]) -> Args {
        match parsed(raw) {
            Ok(Parsed::Run(a)) => a,
            Ok(Parsed::Help(_)) => panic!("{raw:?} asked for help"),
            Err(e) => panic!("{raw:?}: {e}"),
        }
    }

    #[test]
    fn parses_operands_switches_and_values_in_any_order() {
        let a = args(&[
            "--fixed",
            "run",
            "--threads",
            "8",
            "histogram",
            "--metrics",
            "-",
        ]);
        assert_eq!(a.verb.name(), "run");
        assert_eq!(a.operands, vec!["histogram"]);
        assert!(a.has("--fixed") && !a.has("--sensitive"));
        assert_eq!(a.get("--threads"), Some("8"));
        assert_eq!(a.get("--metrics"), Some("-"));
        let err = parsed(&["run", "x", "--threads"]).err().expect("no value");
        assert_eq!(err, "--threads needs a value");
    }

    #[test]
    fn unknown_options_are_errors() {
        // A misspelt valued option must not leave its value behind as an
        // operand and the run at the default rate.
        for raw in [
            &["run", "x", "--samplng", "1.0"][..],
            &["run", "x", "--no-such-switch"][..],
        ] {
            let err = parsed(raw).err().expect("rejected");
            assert_eq!(err, format!("unknown option '{}'", raw[2]));
        }
    }

    #[test]
    fn detector_config_applies_flags_and_validates_sampling() {
        let a = args(&["run", "x", "--no-prediction", "--sensitive"]);
        let det = detector_config(&a).unwrap();
        assert!(!det.prediction);
        assert_eq!(det.report_threshold, 1);
        let a = args(&["run", "x", "--sampling", "0"]);
        assert!(detector_config(&a).is_err());
        let a = args(&["run", "x", "--sampling", "0.1"]);
        assert!((detector_config(&a).unwrap().sampling_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn workload_config_defaults_overrides_and_zero_threads() {
        let cfg = workload_config(&args(&["run", "x"])).unwrap();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.variant, Variant::Broken);
        let a = args(&["run", "x", "--fixed", "--iters", "99", "--threads", "1"]);
        let cfg = workload_config(&a).unwrap();
        assert_eq!((cfg.iters, cfg.threads), (99, 1));
        assert_eq!(cfg.variant, Variant::Fixed);
        let err = workload_config(&args(&["run", "x", "--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads"), "unexpected error: {err}");
        // The registry numbers 65 535 ids and the main thread takes one.
        let a = args(&["run", "x", "--threads", "65534"]);
        assert_eq!(workload_config(&a).unwrap().threads, 65_534);
        let err = workload_config(&args(&["run", "x", "--threads", "65535"])).unwrap_err();
        assert_eq!(err, "--threads must be at most 65534");
        let err = workload_config(&args(&["run", "x", "--iters", "0"])).unwrap_err();
        assert_eq!(err, "--iters must be at least 1");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "its row does not declare")]
    fn reading_an_option_the_row_lacks_fails_debug_builds() {
        args(&["native", "histogram"]).has("--sensitive");
    }
}
