//! Figure 10 — sampling-rate sensitivity ([`predator_bench::fig10`]).
//! Paper: lowering the sampling rate from the default 1% to 0.1% reduces
//! overhead while *still detecting every problem*; 10% costs more.

use predator_bench::{eval_iters, fig10, print};

fn main() {
    let iters = eval_iters();
    print(
        "Figure 10: sampling rate sensitivity",
        iters,
        1,
        &fig10(iters),
    );
    println!(
        "\npaper: all problems still detected at 0.1% (with fewer invalidations);\n       \
         lower rates run faster, 10% slower."
    );
}
