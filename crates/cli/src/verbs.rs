//! The verb table: what every `predator` verb takes — operands, options,
//! help text, handler — is written down here and nowhere else. The parser,
//! `predator help`, dispatch and the per-verb start-up decisions in `main`
//! are all read off [`VERBS`] (see `args.rs`), so an option that is not on a
//! verb's row does not parse for that verb.

use std::process::ExitCode;

use crate::args::Args;
use crate::{compare, detect, explain, fleet, monitor, serve, trace};

/// An option as the parser and `help` see it. The table declares one as a
/// line of help, `--name <METAVAR>  what it does` — no metavar for a switch,
/// two spaces before the prose — so the text a user reads is the grammar.
#[derive(Clone, Copy)]
pub(crate) struct Opt {
    pub name: &'static str,
    pub metavar: Option<&'static str>,
    pub help: &'static str,
}

impl Opt {
    pub fn of(decl: &'static str) -> Opt {
        let (spec, help) = decl
            .split_once("  ")
            .expect("an option line is `--name <METAVAR>  help`");
        let (name, metavar) = match spec.split_once(' ') {
            Some((name, metavar)) => (name, Some(metavar)),
            None => (spec, None),
        };
        Opt {
            name,
            metavar,
            help,
        }
    }
}

/// Options several rows take together; `predator help` prints each group
/// once and rows refer to it by name.
pub(crate) struct Group {
    pub name: &'static str,
    pub opts: &'static [&'static str],
}

pub(crate) struct Verb {
    pub path: &'static [&'static str],
    /// Operand synopsis, operands first (a missing one is named from it).
    pub operands: &'static str,
    /// Fewest and most operands the parser lets through.
    pub arity: (usize, usize),
    pub about: &'static str,
    /// Options of this row alone; a name another row also uses may carry a
    /// different metavar and help here (`fleet trend --baseline <corpus>`).
    pub opts: &'static [&'static str],
    pub groups: &'static [&'static Group],
    /// The flight recorder is on for this verb unless `--no-recorder`.
    pub recorder: bool,
    /// The verb's own loop watches the shutdown flag; every other verb gets
    /// `main`'s flush-then-exit interrupt watcher.
    pub polls_shutdown: bool,
    pub run: fn(&Args) -> Result<ExitCode, String>,
}

impl Verb {
    pub fn name(&self) -> String {
        self.path.join(" ")
    }

    /// The row's groups, then the one group every row carries.
    pub fn groups(&self) -> impl Iterator<Item = &'static Group> {
        self.groups.iter().copied().chain([&STREAMS])
    }

    pub fn options(&self) -> impl Iterator<Item = Opt> {
        let lines = self.opts.iter().chain(self.groups().flat_map(|g| g.opts));
        lines.map(|decl| Opt::of(decl))
    }

    pub fn opt(&self, name: &str) -> Option<Opt> {
        self.options().find(|o| o.name == name)
    }
}

/// What a row leaves out: no operands, no options of its own, no groups.
const ROW: Verb = Verb {
    path: &[],
    operands: "",
    arity: (0, 0),
    about: "",
    opts: &[],
    groups: &[],
    recorder: false,
    polls_shutdown: false,
    run: |_| unreachable!("every row names its handler"),
};

static WORKLOAD: Group = Group {
    name: "workload",
    opts: &[
        "--fixed  run the fixed (padded) variant",
        "--threads <N>  worker threads [default: 4]",
        "--iters <N>  per-thread work items [default: 20000]",
        "--seed <N>  input seed [default: 42]",
    ],
};

static DETECTOR: Group = Group {
    name: "detector",
    opts: &[
        "--sensitive  tiny thresholds (small runs / demos)",
        "--no-prediction  disable virtual-line prediction (PREDATOR-NP)",
        "--sampling <RATE>  sampling rate in (0,1] [default: 0.01]",
    ],
};

const FORMAT: &str = "--format <F>  report output format: text|json|markdown|sarif|html [default: \
                     text]. SARIF 2.1.0 and self-contained HTML embed fix suggestions and the \
                     policy verdicts; every format but text owns stdout, so redirect to a file";

static REPORT: Group = Group {
    name: "report",
    opts: &[FORMAT, "--fixes  also print prescriptive fix suggestions"],
};

static POLICY: Group = Group {
    name: "policy",
    opts: &[
        "--fail-on <SEV>  gate: exit nonzero when any finding classifies at or above SEV \
         (info|warning|error) after suppressions and the baseline are applied; under serve, a \
         failed gate turns /report into HTTP 412. The verdict prints to stderr",
        "--suppressions <FILE>  suppression list: one callsite key per line (trailing `*` = prefix \
         match, `#` starts a comment); suppressed findings are reported but never gate",
        "--baseline <FILE>  known-findings baseline (from `baseline write`); baselined keys never \
         gate",
    ],
};

static RECORDER: Group = Group {
    name: "recorder",
    opts: &[
        "--no-recorder  disable the flight recorder (on by default for run/ir/replay; powers \
         `explain` timelines)",
    ],
};

/// Process-level streams, set up and flushed by `main` around whatever verb
/// runs — which is why every row carries them ([`Verb::groups`]).
pub(crate) static STREAMS: Group = Group {
    name: "stream",
    opts: &[
        "--metrics <PATH>  write the metrics snapshot as JSON to PATH and Prometheus text to \
         PATH.prom after the run; `-` prints the JSON to stdout (skipped under a machine --format, \
         whose report already embeds it)",
        "--trace-timeline <PATH>  write a Chrome trace-event JSON timeline (pipeline phase spans, \
         per-thread interpreter lanes, invalidation instants with flow arrows to their victim \
         threads, line promotions, prediction units, callsite attribution, watchdog ticks) to \
         PATH; open it in Perfetto or chrome://tracing",
    ],
};

const SHARDS: &str = "--shards <N>  accepted and ignored: offline analysis is one sequential pass";
const OUT: &str = "--out <PATH>  the output file, required (short: -o)";
const CORPUS: &str = "--corpus <DIR>  fleet corpus directory, required (created on first ingest)";
const TOLERANCE: &str =
    "--tolerance <F>  relative change below which a finding or callsite counts \
                        as steady [default: 0.5]";
const AUTH_TOKEN: &str = "--auth-token <TOK>  bearer token: serve requires `Authorization: Bearer \
                         <TOK>` on every endpoint except /health; stats --url sends it";

pub(crate) static VERBS: &[Verb] = &[
    Verb {
        path: &["list"],
        about: "List the evaluation workloads.",
        run: detect::cmd_list,
        ..ROW
    },
    Verb {
        path: &["run"],
        operands: "<workload>",
        arity: (1, 1),
        about: "Run a workload under the detector and print the report.",
        groups: &[&WORKLOAD, &DETECTOR, &REPORT, &POLICY, &RECORDER],
        recorder: true,
        run: detect::cmd_run,
        ..ROW
    },
    Verb {
        path: &["native"],
        operands: "<workload>",
        arity: (1, 1),
        about: "Run the uninstrumented native workload and print wall time.",
        groups: &[&WORKLOAD],
        run: detect::cmd_native,
        ..ROW
    },
    Verb {
        path: &["record"],
        operands: "<workload> -o <trace.ptrace>",
        arity: (1, 1),
        about: "Run a workload with detection off, streaming the raw pre-filter access trace to a \
                compact binary .ptrace file (attribution metadata — globals, live heap objects, \
                callsites — rides along).",
        opts: &[OUT],
        groups: &[&WORKLOAD],
        run: detect::cmd_record,
        ..ROW
    },
    Verb {
        path: &["analyze"],
        operands: "<trace.ptrace>",
        arity: (1, 1),
        about: "Offline analysis of a recorded trace: one pass decodes the file into one \
                detector, and the report is a sequential replay's. The address range comes from \
                the trace's header.",
        opts: &[SHARDS],
        groups: &[&DETECTOR, &REPORT, &POLICY],
        run: detect::cmd_analyze,
        ..ROW
    },
    Verb {
        path: &["replay"],
        operands: "<trace.ptrace>",
        arity: (1, 1),
        about: "`analyze` with the flight recorder on: the same pass over the trace, embedding \
                `explain` timelines in the report.",
        groups: &[&DETECTOR, &REPORT, &POLICY, &RECORDER],
        recorder: true,
        run: detect::cmd_analyze,
        ..ROW
    },
    Verb {
        path: &["whatif"],
        operands: "<trace.ptrace>",
        arity: (1, 1),
        about: "What-if layout replay: prove (or refute) fix suggestions against the recorded \
                trace instead of printing untested advice. Each finding's suggested fix — or one \
                user-supplied edit list — is applied as a pure address remap (injective, \
                order-preserving, so the recorded interleaving is preserved verbatim), the \
                remapped trace is re-analyzed at every portfolio line size (32/64/128/256 bytes) \
                and cross-checked against the MESI ground-truth simulator, and every finding is \
                annotated with its measured before/after invalidation delta and a verdict \
                (fixes/partial/ineffective).",
        opts: &[
            "--pad <AT:BYTES[,AT:BYTES...]>  replay a user layout edit (insert BYTES of padding \
             before address AT; AT takes a 0x prefix for hex) instead of the per-finding suggested \
             fixes",
            "--min-delta <PCT>  exit nonzero unless the best verified fix removes at least PCT% of \
             invalidations at its worst portfolio geometry (a CI gate)",
            SHARDS,
            FORMAT,
        ],
        groups: &[&DETECTOR, &POLICY],
        run: detect::cmd_whatif,
        ..ROW
    },
    Verb {
        path: &["ir"],
        operands: "<program.pir>",
        arity: (1, 1),
        about: "Instrument a textual-IR program and execute it under the detector. Runs the \
                function named `worker` on each logical thread with arguments (base + \
                thread*stride, iters).",
        opts: &[
            "--threads <N>  logical threads [default: 2]",
            "--iters <N>  loop bound argument [default: 10000]",
            "--stride <N>  per-thread base offset [default: 8]",
            "--quantum <N>  instructions per turn [default: 7]",
        ],
        groups: &[&DETECTOR, &REPORT, &POLICY, &RECORDER],
        recorder: true,
        run: detect::cmd_ir,
        ..ROW
    },
    Verb {
        path: &["trace", "info"],
        operands: "<trace.ptrace>",
        arity: (1, 1),
        about: "Summarise a trace file: header, event/chunk counts, attribution metadata, \
                corruption accounting (chunks skipped, records lost, bytes skipped, truncation — \
                always printed). O(1) via the footer index when the file is intact; falls back to \
                a full scan when damaged.",
        opts: &["--deep  force the CRC-checking full scan: the index cannot see mid-file payload \
                 corruption"],
        run: trace::cmd_trace_info,
        ..ROW
    },
    Verb {
        path: &["trace", "cat"],
        operands: "<trace.ptrace>",
        arity: (1, 1),
        about: "Decode a trace to JSON lines on stdout, one access per line.",
        opts: &["--limit <N>  stop after N events"],
        run: trace::cmd_trace_cat,
        ..ROW
    },
    Verb {
        path: &["trace", "import"],
        operands: "<in.jsonl> -o <out.ptrace>",
        arity: (1, 1),
        about: "Convert a JSON-lines access trace (`trace cat`'s output, or another tool's) into \
                a .ptrace every other verb reads. The header's address range is worked out from \
                the events: the page-aligned hull of every touched byte. A malformed line is an \
                error naming its line number; a hull wider than 1 GiB is refused (split the input \
                by region).",
        opts: &[OUT],
        run: trace::cmd_trace_import,
        ..ROW
    },
    Verb {
        path: &["fleet", "ingest"],
        operands: "<trace.ptrace>... --corpus <dir>",
        arity: (1, usize::MAX),
        about: "Ingest recorded traces into a corpus: each file is streamed through the offline \
                analyzer and its findings recorded in the corpus manifest (corpus.json). Traces \
                are content-addressed, so re-ingesting a file is a no-op; corrupted traces \
                degrade to loss accounting, never errors. The corpus pins the detector \
                configuration of its first ingest and refuses mismatches.",
        opts: &[CORPUS],
        groups: &[&DETECTOR],
        run: fleet::cmd_fleet_ingest,
        ..ROW
    },
    Verb {
        path: &["fleet", "report"],
        operands: "--corpus <dir>",
        about: "Merged cross-run report: findings deduped by stable callsite key across every run \
                in the corpus, ranked by aggregate invalidation impact, with per-run provenance \
                (run count, hit rate, worst run, first/last seen) and corpus-wide loss \
                accounting. --fail-on gates the merged aggregates by per-run mean invalidations; \
                with --run, the full policy pipeline applies and sarif/html render.",
        opts: &[
            CORPUS,
            "--run <ID>  print one member run's report instead",
        ],
        groups: &[&REPORT, &POLICY],
        run: fleet::cmd_fleet_report,
        ..ROW
    },
    Verb {
        path: &["fleet", "trend"],
        operands: "--corpus <dir> --baseline <corpus>",
        about: "Delta the corpus against a baseline corpus: callsites classified as new / fixed / \
                regressed / improved / steady by per-run mean invalidations.",
        opts: &[
            CORPUS,
            "--baseline <corpus>  the corpus to compare against (a directory or its corpus.json), \
             required",
            TOLERANCE,
            "--fail-on-regression  exit nonzero when any callsite is new or regressed (the CI \
             gate)",
            FORMAT,
        ],
        run: fleet::cmd_fleet_trend,
        ..ROW
    },
    Verb {
        path: &["fleet", "compact"],
        operands: "--corpus <dir> --keep <N>",
        about: "Retention: fold older runs into merged aggregates in the manifest and delete \
                their raw files. Merged totals are preserved exactly; per-run provenance of \
                dropped runs is not.",
        opts: &[
            CORPUS,
            "--keep <N>  raw traces to keep, newest by ingest order, required",
        ],
        run: fleet::cmd_fleet_compact,
        ..ROW
    },
    Verb {
        path: &["explain"],
        operands: "<report.json> [line]",
        arity: (1, 2),
        about: "Render a flight-recorder timeline for one cache line of a JSON report: \
                interleaved per-thread lanes at word granularity, with invalidating writes \
                highlighted and causally attributed. `line` is a decimal global line index or a \
                0x-prefixed byte address; omitted, the top finding's hottest line is used.",
        run: explain::cmd_explain,
        ..ROW
    },
    Verb {
        path: &["diff"],
        operands: "<old.json> <new.json>",
        arity: (2, 2),
        about: "Compare two JSON reports (from `run --format json`); exits nonzero when the new \
                report introduces findings the old one lacked (a CI gate).",
        opts: &[TOLERANCE],
        run: compare::cmd_diff,
        ..ROW
    },
    Verb {
        path: &["baseline", "write"],
        operands: "<report.json> -o <baseline.json>",
        arity: (1, 1),
        about: "Snapshot every finding's callsite key from a JSON report into a baseline file. \
                Commit it next to the code: a later `analyze --baseline <file> --fail-on <sev>` \
                reports everything but gates only on findings at keys the baseline has never \
                seen.",
        opts: &[OUT],
        run: compare::cmd_baseline_write,
        ..ROW
    },
    Verb {
        path: &["baseline", "diff"],
        operands: "<baseline.json> <report.json>",
        arity: (2, 2),
        about: "Compare a report against a baseline: each callsite key classifies as NEW / FIXED \
                / WORSE / BETTER / steady. Exits nonzero when any NEW key appears (the CI gate; \
                drift alone never fails).",
        opts: &[TOLERANCE],
        run: compare::cmd_baseline_diff,
        ..ROW
    },
    Verb {
        path: &["serve"],
        operands: "[<workload>|<trace.ptrace>]",
        arity: (0, 1),
        about: "Live monitoring: run the source continuously and expose telemetry over HTTP. With \
                a workload name (default: histogram), tracked passes repeat over one long-lived \
                session; with a .ptrace path, the trace is looped through a detector. Endpoints: /metrics (Prometheus text), /health (liveness JSON), /report \
                (findings, same schema as `analyze`; ?format=json|sarif|html, HTTP 412 when the \
                --fail-on policy gate fails), /snapshot (the cumulative metrics snapshot, the \
                document --metrics writes). History, rates and alerting belong to a Prometheus \
                scraping /metrics. A \
                watchdog thread estimates the detector's own overhead from calibrated per-access \
                costs and sheds sampling through a tiered backoff controller when the budget is \
                violated; new allocation sites re-arm it. SIGINT or SIGTERM shuts the loop down \
                gracefully (observability streams are flushed on the way out).",
        opts: &[
            "--listen <ADDR>  bind address [default: 127.0.0.1:0]",
            "--overhead-budget <F>  self-overhead budget fraction [default: 0.05]",
            "--watchdog-interval-ms <N>  watchdog period [default: 500]",
            "--passes <N>  stop driving after N passes (0 = forever); the server keeps serving \
             until a signal",
            "--ready-file <PATH>  write the bound address to PATH once listening",
            AUTH_TOKEN,
        ],
        groups: &[&WORKLOAD, &DETECTOR, &POLICY],
        polls_shutdown: true,
        run: serve::cmd_serve,
        ..ROW
    },
    Verb {
        path: &["stats"],
        operands: "[<snapshot.json>|-]",
        arity: (0, 1),
        about: "Render an observability snapshot (from `--metrics`, or the `obs` field of a JSON \
                report) as a human-readable table. `-` reads from stdin.",
        opts: &[
            "--url <ADDR>  scrape a live `predator serve` instance's /snapshot instead of reading \
             a file",
            AUTH_TOKEN,
        ],
        run: monitor::cmd_stats,
        ..ROW
    },
];

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::args::{help, parse, Parsed};

    /// `row`'s path, its fewest operands plus `extra`, then `tail`.
    fn argv(row: &Verb, extra: usize, tail: &[&str]) -> Vec<String> {
        let operands = (0..row.arity.0 + extra).map(|i| format!("operand{i}"));
        let words = row.path.iter().map(|s| s.to_string()).chain(operands);
        words.chain(tail.iter().map(|s| s.to_string())).collect()
    }

    fn words(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    fn refused(argv: &[String]) -> String {
        match parse(argv) {
            Err(e) => e,
            Ok(_) => panic!("{argv:?} parsed"),
        }
    }

    /// Every option name in the table → whether it takes a value.
    fn surface() -> BTreeMap<&'static str, bool> {
        let mut names = BTreeMap::new();
        for o in VERBS.iter().flat_map(Verb::options) {
            let valued = *names.entry(o.name).or_insert(o.metavar.is_some());
            assert_eq!(
                valued,
                o.metavar.is_some(),
                "{} must agree on every row",
                o.name
            );
        }
        names
    }

    #[test]
    fn the_surface_is_21_verbs_28_valued_options_and_7_switches() {
        assert_eq!(VERBS.len(), 21);
        let names = surface();
        assert_eq!(names.values().filter(|valued| **valued).count(), 28);
        assert_eq!(names.values().filter(|valued| !**valued).count(), 7);
    }

    #[test]
    fn rows_are_well_formed() {
        for (i, row) in VERBS.iter().enumerate() {
            let name = row.name();
            assert!(!row.path.is_empty() && !row.about.is_empty(), "{name}");
            let named = row.operands.split_whitespace().count();
            assert!(row.arity.0 <= row.arity.1 && row.arity.0 <= named, "{name}");
            assert_eq!(row.recorder, row.opt("--no-recorder").is_some(), "{name}");
            for other in &VERBS[i + 1..] {
                let shared = row.path.iter().zip(other.path).filter(|(a, b)| a == b);
                assert!(
                    shared.count() < row.path.len().min(other.path.len()),
                    "{name} and {} shadow each other",
                    other.name()
                );
            }
            // A minimal invocation parses and lands on this row.
            match parse(&argv(row, 0, &[])) {
                Ok(Parsed::Run(a)) => assert!(std::ptr::eq(a.verb, row), "{name}"),
                _ => panic!("{name}: minimal invocation refused"),
            }
        }
    }

    #[test]
    fn a_row_refuses_every_option_it_does_not_declare() {
        let surface = surface();
        for row in VERBS {
            for (&name, &valued) in surface.iter().filter(|(n, _)| row.opt(n).is_none()) {
                let tail = if valued { vec![name, "1"] } else { vec![name] };
                let err = refused(&argv(row, 0, &tail));
                let want = format!("option '{name}' is not accepted by `{}`", row.name());
                assert!(err.starts_with(&want), "{err}");
                let taker = VERBS.iter().find(|v| v.opt(name).is_some()).unwrap();
                assert!(err.contains(&taker.name()), "{err}");
            }
        }
        // `-o` is `--out`, and only where `--out` is.
        let err = refused(&argv(&VERBS[1], 0, &["-o", "x"]));
        assert!(
            err.starts_with("option '-o' is not accepted by `run`"),
            "{err}"
        );
    }

    #[test]
    fn operand_counts_and_subcommands_are_checked_against_the_table() {
        for row in VERBS.iter().filter(|r| r.arity.1 != usize::MAX) {
            let extra = row.arity.1 - row.arity.0 + 1;
            let err = refused(&argv(row, extra, &[]));
            let last = format!("`operand{}`", row.arity.1);
            assert!(err.contains(&last) && err.starts_with(&row.name()), "{err}");
        }
        for row in VERBS.iter().filter(|r| r.arity.0 > 0) {
            let mut short = argv(row, 0, &[]);
            short.pop();
            let err = refused(&short);
            assert!(
                err.starts_with(&format!("{}: missing ", row.name())),
                "{err}"
            );
        }
        // The subcommand is named before any option is asked for.
        let err = refused(&words("fleet bogus --corpus x"));
        assert_eq!(
            err,
            "unknown fleet subcommand `bogus` (ingest|report|trend|compact)"
        );
        let err = refused(&words("fleet"));
        assert_eq!(
            err,
            "fleet: missing subcommand (ingest|report|trend|compact)"
        );
        assert_eq!(
            refused(&words("frobnicate x")),
            "unknown command `frobnicate`"
        );
    }

    /// Lines of `text` that document option `name`: eight spaces, the name,
    /// then its metavar or the padding — prose mentioning it has neither.
    fn entries(text: &str, name: &str) -> usize {
        let entry = |l: &&str| {
            let rest = l
                .strip_prefix("        ")
                .and_then(|l| l.strip_prefix(name));
            rest.is_some_and(|rest| rest.starts_with(" <") || rest.starts_with("  "))
        };
        text.lines().filter(entry).count()
    }

    #[test]
    fn help_documents_every_option_of_every_row() {
        let whole = help(&[]);
        assert!(whole.contains("\nUSAGE:\n"));
        for row in VERBS {
            let name = row.name();
            assert!(whole.contains(&format!("    predator {name} ")), "{name}");
            let Ok(Parsed::Help(rows)) = parse(&argv(row, 0, &["--help"])) else {
                panic!("{name} --help is not help");
            };
            assert!(rows.len() == 1 && std::ptr::eq(rows[0], row), "{name}");
            let section = help(&rows);
            for o in row.options() {
                assert_eq!(entries(&section, o.name), 1, "{name} --help, {}", o.name);
                assert!(entries(&whole, o.name) >= 1, "help, {}", o.name);
            }
        }
        // `help <family>` is every row of the family; nothing else is help.
        let Ok(Parsed::Help(rows)) = parse(&words("help fleet")) else {
            panic!("help fleet");
        };
        assert_eq!(rows.len(), 4);
        assert!(matches!(parse(&[]), Ok(Parsed::Help(rows)) if rows.is_empty()));
        assert_eq!(
            refused(&words("help frobnicate")),
            "unknown command `frobnicate`"
        );
    }
}
