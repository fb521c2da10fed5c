//! Figure 2 — object alignment sensitivity of `linear_regression`: the
//! `lreg_args` array at offsets 0..56 (step 8) past a line boundary. The
//! paper's shape: offsets 0 and 56 fast, offset 24 worst (~15× on their
//! machine — the hot tail of each 64-byte element straddles a line).
//!
//! 1. **Simulated** ([`predator_bench::fig2_sim`], 4 threads × 50 000
//!    iterations): exact invalidations and a modeled runtime on any host.
//! 2. **Native**: one thread per core (at most 8), `PREDATOR_ITERS`
//!    iterations each (default 2 000 000), median wall time of
//!    `PREDATOR_REPS` runs. Meaningful only with ≥ 2 cores (§5.2: threads
//!    on one core suffer no false-sharing penalty).

use std::time::Duration;

use predator_bench::{env_or, eval_reps, fig2_sim, median_time, print, ratio, Row};
use predator_workloads::phoenix::linear_regression::LinearRegression;
use predator_workloads::WorkloadConfig;

/// A native row: offset, median wall time, and the best offset's time.
struct Native(usize, Duration, Duration);

impl Row for Native {
    const COLUMNS: &'static str = "offset (B)\ttime (ms)\tvs best";

    fn cells(&self) -> String {
        let (ms, vs_best) = (self.1.as_secs_f64() * 1e3, ratio(self.1, self.2));
        format!("{}\t{ms:.3}\t{vs_best:.2}x", self.0)
    }
}

fn main() {
    let sims = fig2_sim(50_000);
    let title = "Figure 2 (simulated): invalidations & modeled runtime vs. offset";
    print(title, 50_000, 1, &sims);
    let worst = sims.iter().map(|s| s.vs_best).fold(0.0, f64::max);
    let worst_offsets = sims.iter().filter(|s| s.vs_best >= worst * 0.99);
    let worst_offsets: Vec<String> = worst_offsets.map(|s| s.offset.to_string()).collect();
    println!(
        "\nsimulated worst offsets: {{{}}} bytes at {worst:.1}x over best.\n\
         paper: clean at 0 and 56, worst at 24 (~15x measured); the invalidation\n\
         model yields a flat plateau wherever the hot field block straddles a\n\
         line (offsets 8-32), at the same magnitude.",
        worst_offsets.join(", ")
    );

    let cfg = WorkloadConfig {
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        iters: env_or("PREDATOR_ITERS", 2_000_000),
        ..WorkloadConfig::default()
    };
    let reps = eval_reps();
    let time = |off| median_time(reps, || LinearRegression.run_native_offset(&cfg, off));
    let times: Vec<Duration> = (0..64).step_by(8).map(time).collect();
    let best = *times.iter().min().unwrap();
    let rows = times
        .iter()
        .enumerate()
        .map(|(i, &d)| Native(i * 8, d, best));
    let title = "Figure 2 (native): wall time vs. offset";
    print(title, cfg.iters, reps, &rows.collect::<Vec<_>>());
}
