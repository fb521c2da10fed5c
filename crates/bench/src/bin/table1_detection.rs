//! Table 1 — false sharing in the Phoenix and PARSEC suites
//! ([`predator_bench::table1`]): the detector without and with prediction,
//! every finding's source line, and the fix's projected improvement
//! ([`predator_bench::time_fix`]). EXPERIMENTS.md has the paper's rows.

use predator_bench::{eval_iters, eval_reps, print, table1, time_fix};

fn main() {
    let (iters, reps) = (eval_iters(), eval_reps());
    let mut rows = table1(iters);
    rows.iter_mut().for_each(|r| time_fix(r, iters, reps));
    let title = "Table 1: false sharing problems in Phoenix and PARSEC";
    print(title, iters, reps, &rows);
    println!(
        "\n* projected: exact invalidation rate (unsampled detector, adversarial\n  \
         interleaved schedule) x 100ns per invalidation, over the native fixed\n  \
         variant's wall time. Upper bounds — real schedules interleave less.\n  \
         Set PREDATOR_NATIVE=1 on a multicore host for measured numbers.\n\
         paper: histogram/reverse_index/word_count/streamcluster detected both ways;\n       \
         linear_regression detected ONLY with prediction; all others clean."
    );
}
