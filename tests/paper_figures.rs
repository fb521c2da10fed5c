//! The paper's evaluation as a test: `predator_bench`'s figure functions at
//! reduced size, held to the *shapes* of PREDATOR's §4 — who is detected,
//! where, who wins — not to its digits.
//!
//! Each test names every shape it checks. The shapes that fail must be
//! exactly the ones `predator_bench::DEVIATIONS` lists for that figure,
//! with its reason: a new failure fails the test, and so does a deviation
//! that no longer fails, so a fixed one must leave the list.
//!
//! Not asserted, because the numbers do not hold still:
//! - Figure 7's average against the paper's 5.4×: it reads 3.3–4.0× in a
//!   release build and 5.5–6.9× in a debug one, so it measures the build;
//!   and Figure 7 divides tracked-with-detector by tracked-with-detector-off
//!   where the paper divides an instrumented run by a native one;
//! - Figure 7's row ranking: the worst row was histogram in one run and
//!   bodytrack in another, at 0.1–40 ms per run;
//! - Table 1's improvement column and Figure 2's native half: both time
//!   native runs of a millisecond or less on whatever cores the host has,
//!   so the functions here never make them.
//!
//! Not asserted, because it is not measured: Figure 2 through
//! linear_regression's own body, which the tracked heap cannot place at an
//! offset (`predator_bench::lreg_offset_invalidations` says what the body
//! does to the curve).

use std::collections::BTreeSet;

use predator::workloads::Expectation::{self, Clean, Observed, PredictedOnly};
use predator::FindingKind;
use predator_bench::{apps, fig10, fig2_sim, fig7, fig8_9, table1, Detection, DEVIATIONS, RATES};

/// Asserts that of `shapes`, the failing ones are exactly `figure`'s
/// entries in `DEVIATIONS`.
fn only_deviations_fail(figure: &str, shapes: &[(String, bool)]) {
    let failing: BTreeSet<&str> = shapes
        .iter()
        .filter(|s| !s.1)
        .map(|s| s.0.as_str())
        .collect();
    let listed: BTreeSet<&str> = DEVIATIONS
        .iter()
        .filter(|d| d.figure == figure)
        .map(|d| d.shape)
        .collect();
    assert_eq!(
        failing, listed,
        "{figure}: the failing shapes must be exactly its DEVIATIONS; checked: {shapes:#?}"
    );
}

/// A row's outcome in the paper's terms.
fn outcome(d: &Detection) -> Expectation {
    match (d.without, d.with) {
        (true, _) => Observed,
        (false, true) => PredictedOnly,
        (false, false) => Clean,
    }
}

/// How the findings whose call stack or name contains `site` show it.
fn site_outcome(rows: &[Detection], site: &str) -> Expectation {
    let sites = rows.iter().flat_map(|r| &r.sites);
    let kinds: Vec<&FindingKind> = sites
        .filter(|s| s.frames.iter().any(|f| f.contains(site)))
        .map(|s| &s.kind)
        .collect();
    if kinds.iter().any(|k| matches!(k, FindingKind::Observed)) {
        Observed
    } else if kinds.is_empty() {
        Clean
    } else {
        PredictedOnly
    }
}

/// One shape per row: the row's outcome is what the paper found.
fn matrix(rows: &[Detection]) -> Vec<(String, bool)> {
    let shape = |r: &Detection| {
        (
            format!("{} is {:?}", r.workload, r.expected),
            outcome(r) == r.expected,
        )
    };
    rows.iter().map(shape).collect()
}

fn sites(rows: &[Detection], expected: &[(&str, Expectation)]) -> Vec<(String, bool)> {
    let shape = |&(site, e): &(&str, Expectation)| {
        (format!("{site} is {e:?}"), site_outcome(rows, site) == e)
    };
    expected.iter().map(shape).collect()
}

#[test]
fn every_deviation_names_a_figure_and_a_reason() {
    let figures = ["table1", "apps", "fig2_sim", "fig7", "fig8_9", "fig10"];
    for d in DEVIATIONS {
        assert!(figures.contains(&d.figure), "{d:?}");
        assert!(!d.shape.is_empty() && !d.reason.is_empty(), "{d:?}");
    }
}

/// Table 1 at 8 000 iterations: `streamcluster.cpp:1907` is reported from
/// about 5 600 on, and not at 5 400 or below.
#[test]
fn table1_matrix_and_sites() {
    let rows = table1(8_000);
    let mut shapes = matrix(&rows);
    shapes.extend(sites(
        &rows,
        &[
            ("histogram-pthread.c:213", Observed),
            ("linear_regression-pthread.c:133", PredictedOnly),
            ("reverseindex-pthread.c:511", Observed),
            ("word_count-pthread.c:136", Observed),
            ("streamcluster.cpp:985", Observed),
            ("streamcluster.cpp:1907", Observed),
        ],
    ));
    let reported = site_outcome(&rows, "streamcluster.cpp:1907") != Clean;
    shapes.push(("streamcluster.cpp:1907 is reported".into(), reported));
    only_deviations_fail("table1", &shapes);
}

/// §4.1.2: mysql and boost's spinlock pool are detected; memcached, aget,
/// pbzip2 and pfscan are clean.
#[test]
fn apps_detect_mysql_and_boost_only() {
    let rows: Vec<Detection> = apps(3_000).into_iter().map(|a| a.0).collect();
    let mut shapes = matrix(&rows);
    shapes.extend(sites(
        &rows,
        &[("srv0srv.cc:781", Observed), ("spinlock_pool", Observed)],
    ));
    only_deviations_fail("apps", &shapes);
}

/// Figure 2, simulated: the hot field block straddles a line at offsets
/// 8–32 and lies inside one at 0 and 40–56.
#[test]
fn fig2_offsets_8_to_32_are_one_plateau() {
    let rows = fig2_sim(2_000);
    let inv = |offsets: [u64; 4]| {
        offsets.map(|o| rows.iter().find(|r| r.offset == o).unwrap().invalidations)
    };
    let plateau = inv([8, 16, 24, 32]);
    let (lo, hi) = (
        *plateau.iter().min().unwrap(),
        *plateau.iter().max().unwrap(),
    );
    only_deviations_fail(
        "fig2_sim",
        &[
            (
                "{8, 16, 24, 32} are one plateau".into(),
                lo > 0 && lo * 100 >= hi * 99,
            ),
            (
                "{0, 40, 48, 56} have no invalidations".into(),
                inv([0, 40, 48, 56]) == [0; 4],
            ),
        ],
    );
}

/// Figures 8–9: the tiny-footprint applications are the relative outliers.
#[test]
fn fig8_9_tiny_footprints_are_the_outliers() {
    let mut rows = fig8_9(3_000);
    let average = rows.pop().unwrap();
    assert_eq!(average.workload, "AVERAGE");
    let total = |name: &str| rows.iter().find(|r| r.workload == name).unwrap().rel_total;
    let largest = rows
        .iter()
        .max_by(|a, b| a.rel_total.total_cmp(&b.rel_total))
        .unwrap();
    only_deviations_fail(
        "fig8_9",
        &[
            (
                "swaptions has the largest relative total".into(),
                largest.workload == "swaptions",
            ),
            (
                "aget is above the average relative total".into(),
                total("aget") > average.rel_total,
            ),
        ],
    );
}

/// The two timing shapes, in one test so that nothing else timed runs
/// beside them: prediction on and off cost the same (Figure 7), and the
/// overhead rises with the sampling rate (Figure 10), which still detects
/// every problem at each rate.
#[test]
fn fig7_and_fig10_timing() {
    let overhead = fig7(2_000, 5);
    let avg = overhead.last().unwrap();
    assert_eq!(avg.workload, "AVERAGE");
    let on_over_off = avg.full / avg.np;
    println!("Figure 7 average: {avg:?}, PREDATOR / PREDATOR-NP {on_over_off:.2}");
    only_deviations_fail(
        "fig7",
        &[(
            "PREDATOR / PREDATOR-NP lies in [0.8, 1.35]".into(),
            (0.8..=1.35).contains(&on_over_off),
        )],
    );

    let mut rows = fig10(3_000);
    let avg = rows.pop().unwrap();
    assert_eq!(avg.workload, "AVERAGE");
    let mut shapes = Vec::new();
    for r in &rows {
        for (rate, detected) in RATES.iter().zip(r.detected.unwrap()) {
            shapes.push((
                format!("{} is detected at {}%", r.workload, rate * 100.0),
                detected,
            ));
        }
    }
    println!("Figure 10 average: {avg:?}");
    let [low, default, high] = avg.norm;
    shapes.push((
        "the average rises strictly with the rate".into(),
        low < default && default < high,
    ));
    only_deviations_fail("fig10", &shapes);
}
