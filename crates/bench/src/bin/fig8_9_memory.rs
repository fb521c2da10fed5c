//! Figures 8 and 9 — absolute and relative memory overhead
//! ([`predator_bench::fig8_9`], detector metadata accounted exactly).
//! Paper: under 50% overhead for 17 of 22 applications; large *relative*
//! outliers only where the footprint is tiny (swaptions and aget, 7.8× /
//! 6.8× in Figure 9). Our workloads are miniatures, so the fixed shadow
//! arrays dominate every ratio; the dynamic column is the size-dependent
//! signal.

use predator_bench::{eval_iters, fig8_9, print, FIG8_HEAP_BYTES};

fn main() {
    let iters = eval_iters();
    print("Figures 8-9: memory overhead", iters, 1, &fig8_9(iters));
    println!(
        "\nfixed = CacheWrites + CacheTracking shadow arrays (12 B per 64 B line,\n        \
         paid for the whole {} MiB predefined heap).\n\
         paper shape: modest ratios for real-sized apps; tiny-footprint apps\n             \
         (swaptions, aget) are the big relative outliers — here every\n             \
         workload is miniature, so the fixed part dominates all rows.",
        FIG8_HEAP_BYTES >> 20
    );
}
