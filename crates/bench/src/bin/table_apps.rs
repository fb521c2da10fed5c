//! §4.1.2 — real applications ([`predator_bench::apps`]). Paper: PREDATOR
//! pinpoints the known false sharing in **MySQL** (worth 6× when fixed) and
//! the **Boost** spinlock pool (40%); **memcached / aget / pbzip2 /
//! pfscan** show none. The improvement is projected as in Table 1.

use predator_bench::{apps, eval_iters, eval_reps, print, time_fix};

fn main() {
    let (iters, reps) = (eval_iters(), eval_reps());
    let mut rows = apps(iters);
    rows.iter_mut()
        .for_each(|r| time_fix(&mut r.0, iters, reps));
    print("Real applications (§4.1.2)", iters, reps, &rows);
    println!("\npaper: MySQL and Boost detected (6x / 40% when fixed); others clean.");
}
