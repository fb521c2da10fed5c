//! Figure 7 — execution-time overhead ([`predator_bench::fig7`]). Paper:
//! average 5.4–6× slowdown, no noticeable difference between PREDATOR and
//! PREDATOR-NP (prediction off); histogram worst (26×, its own false
//! sharing is *amplified* by metadata updates); kmeans, bodytrack, ferret,
//! swaptions >8×; I/O-bound workloads near 1×. Here "Original" is the
//! tracked harness with the detector disabled, not a native run, and each
//! cell is the median of `PREDATOR_REPS` runs.

use predator_bench::{eval_iters, eval_reps, fig7, print};

fn main() {
    let (iters, reps) = (eval_iters(), eval_reps());
    let title = "Figure 7: execution time overhead (normalized to Original)";
    print(title, iters, reps, &fig7(iters, reps));
    println!(
        "\npaper: average ~5.4x; prediction on vs off indistinguishable;\n       \
         write-heavy tracked workloads (histogram/kmeans/bodytrack/ferret) worst."
    );
}
