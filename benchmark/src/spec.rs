//! The four workloads, frozen. Every size here is part of the benchmark's
//! definition: a change that claims a gain may not edit this file.

/// The CLI verb a repetition times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `predator run <program>`: live detection.
    Run,
    /// `predator analyze <trace>`: sharded offline analysis of a trace that
    /// set-up recorded.
    Analyze,
    /// `predator whatif <trace>`: what-if layout replay of such a trace.
    Whatif,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Analyze => "analyze",
            Verb::Whatif => "whatif",
        }
    }
}

/// One Table-1 program at a frozen size.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    pub program: &'static str,
    pub iters: u64,
}

/// One workload: a repetition applies `verb` to every input, in order.
/// Everything not named here is the CLI's default, which is the paper's:
/// 4 threads, `precise` tracking, 64-byte lines, 1 % sampling.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub verb: Verb,
    /// `--sampling` for `Verb::Run`; `None` leaves the 1 % default.
    pub sampling: Option<&'static str>,
    pub inputs: &'static [Input],
}

pub const WORKLOADS: [Spec; 4] = [
    // The Fig. 7 deployment cost: ~99 % of accesses end in the
    // `handle_access` filter, shadow counter and sampling-window test.
    Spec {
        name: "live_sampled",
        verb: Verb::Run,
        sampling: None,
        inputs: &[
            Input {
                program: "linear_regression",
                iters: 300_000,
            },
            Input {
                program: "streamcluster",
                iters: 300_000,
            },
        ],
    },
    // Same driver, same streams, every access sampled: 85–100 % of them
    // reach the tracked path, so the difference to `live_sampled` *is* the
    // tracked path.
    Spec {
        name: "live_tracked",
        verb: Verb::Run,
        sampling: Some("1.0"),
        inputs: &[
            Input {
                program: "linear_regression",
                iters: 40_000,
            },
            Input {
                program: "streamcluster",
                iters: 45_000,
            },
        ],
    },
    // Decode ×2, line counting, dispatch and merge dominate; five clusters
    // and 522 promoted lines (word_count), one prediction-heavy cluster
    // (linear_regression), one observed cluster (streamcluster).
    Spec {
        name: "analyze_suite",
        verb: Verb::Analyze,
        sampling: None,
        inputs: &[
            Input {
                program: "word_count",
                iters: 150_000,
            },
            Input {
                program: "linear_regression",
                iters: 60_000,
            },
            Input {
                program: "streamcluster",
                iters: 100_000,
            },
        ],
    },
    // 4 geometries × (baseline + one replay per distinct edit list) + MESI
    // walks over an in-memory slice; verdicts fixes and partial occur.
    // Not histogram: its findings lower to two or three distinct edit lists
    // depending on the seed, so the seed would decide how much work a
    // repetition is. These two replay the same number for every seed.
    Spec {
        name: "whatif_suite",
        verb: Verb::Whatif,
        sampling: None,
        inputs: &[
            Input {
                program: "streamcluster",
                iters: 6_000,
            },
            Input {
                program: "linear_regression",
                iters: 5_000,
            },
        ],
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Whether set-up has to `record` the inputs to `.ptrace` first.
    pub fn needs_traces(&self) -> bool {
        self.verb != Verb::Run
    }

    /// Arguments of the set-up `record` of one input.
    pub fn record_args(&self, input: &Input, seed: u64, trace: &str) -> Vec<String> {
        [
            "record",
            input.program,
            "--iters",
            &input.iters.to_string(),
            "--seed",
            &seed.to_string(),
            "-o",
            trace,
        ]
        .map(String::from)
        .to_vec()
    }

    /// Arguments of the timed invocation for one input. `trace` is the file
    /// set-up recorded for it (unused by `run`); `shards` is K.
    pub fn timed_args(&self, input: &Input, seed: u64, trace: &str, shards: usize) -> Vec<String> {
        let mut args: Vec<String> = vec![self.verb.name().into()];
        match self.verb {
            Verb::Run => {
                args.extend(
                    [
                        input.program,
                        "--iters",
                        &input.iters.to_string(),
                        "--seed",
                        &seed.to_string(),
                    ]
                    .map(String::from),
                );
                if let Some(rate) = self.sampling {
                    args.extend(["--sampling", rate].map(String::from));
                }
            }
            Verb::Analyze | Verb::Whatif => {
                args.extend([trace, "--shards", &shards.to_string()].map(String::from));
            }
        }
        args.extend(["--format", "json"].map(String::from));
        args
    }
}
