//! # predator-workloads
//!
//! Re-creations of the PPoPP 2014 PREDATOR evaluation workloads: the Phoenix
//! and PARSEC benchmarks of Table 1 and the six real applications of §4.1.2.
//!
//! Each workload reproduces the *sharing pattern* the paper found (or the
//! absence of one), not the full application around it — the detector sees
//! only memory-access streams, so the pattern is what matters. Each one is
//! written once, as a [`common::Body`]: a setup and a step per phase, generic
//! over [`common::Mem`]. The same body runs in two modes:
//!
//! * **tracked** — through a [`predator_core::Session`]: allocations carry
//!   the original source callsites (e.g. `linear_regression-pthread.c:133`),
//!   accesses notify the detector, and the logical threads take turns on the
//!   calling thread ([`common::run_tracked`]); this is what Table 1 and
//!   Figure 5 use;
//! * **native** — real `std::thread`s on real memory (relaxed atomics, so
//!   racy patterns stay defined behaviour), with wall-clock timing
//!   ([`common::run_native`]); this is what the Figure 2 alignment sweep
//!   uses. Table 1's Improvement column is a projection, not a native
//!   timing: the tracked run's invalidations × 100 ns over the native Fixed
//!   run's wall time (`predator_bench::projected_improvement`), both from
//!   the same body.
//!
//! And in two variants:
//!
//! * [`Variant::Broken`] — the layout as shipped (false sharing present for
//!   the workloads the paper flags);
//! * [`Variant::Fixed`] — the paper's fix applied (padding / alignment /
//!   type widening).

pub mod apps;
pub mod common;
pub mod parsec;
pub mod phoenix;

use std::time::Duration;

use predator_core::{DetectorConfig, Report, Session};

use common::Body;

/// Which benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Phoenix MapReduce benchmarks.
    Phoenix,
    /// PARSEC benchmarks.
    Parsec,
    /// Real applications (§4.1.2).
    App,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Phoenix => f.write_str("Phoenix"),
            Suite::Parsec => f.write_str("PARSEC"),
            Suite::App => f.write_str("RealApplications"),
        }
    }
}

/// Broken (as-shipped) vs fixed (paper's fix applied) layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// Layout with the false-sharing bug (where the workload has one).
    #[default]
    Broken,
    /// Layout with the paper's fix applied.
    Fixed,
}

/// Run parameters shared by all workloads.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Per-thread work items (loop iterations / records / transactions).
    pub iters: u64,
    /// Seed for input generation.
    pub seed: u64,
    /// Broken or fixed layout.
    pub variant: Variant,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 4,
            iters: 20_000,
            seed: 42,
            variant: Variant::Broken,
        }
    }
}

impl WorkloadConfig {
    /// A quick configuration for unit tests.
    pub fn quick() -> Self {
        WorkloadConfig {
            threads: 4,
            iters: 2_000,
            seed: 42,
            variant: Variant::Broken,
        }
    }

    /// Same configuration with the variant replaced.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Same configuration with the iteration count replaced.
    pub fn with_iters(mut self, iters: u64) -> Self {
        self.iters = iters;
        self
    }
}

/// How a workload's false sharing manifests (ground truth for Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// No false sharing in either variant.
    Clean,
    /// Physical-line false sharing, detectable without prediction.
    Observed,
    /// Latent false sharing, detectable only with prediction
    /// (the linear_regression case).
    PredictedOnly,
}

/// One evaluation workload.
pub trait Workload: Sync {
    /// Short name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Which suite the workload belongs to.
    fn suite(&self) -> Suite;

    /// Ground-truth expectation for the broken variant.
    fn expectation(&self) -> Expectation;

    /// Runs the instrumented workload inside `session`.
    fn run_tracked(&self, session: &Session, cfg: &WorkloadConfig);

    /// Runs the native (uninstrumented, real-memory) workload and returns
    /// its wall-clock time.
    fn run_native(&self, cfg: &WorkloadConfig) -> Duration;
}

impl<B: Body> Workload for B {
    fn name(&self) -> &'static str {
        B::NAME
    }

    fn suite(&self) -> Suite {
        B::SUITE
    }

    fn expectation(&self) -> Expectation {
        B::EXPECTATION
    }

    fn run_tracked(&self, session: &Session, cfg: &WorkloadConfig) {
        common::run_tracked(self, session, cfg)
    }

    fn run_native(&self, cfg: &WorkloadConfig) -> Duration {
        common::run_native(self, cfg, self.native_offset(cfg))
    }
}

/// All evaluation workloads, in the paper's presentation order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        // Phoenix
        Box::new(phoenix::histogram::Histogram),
        Box::new(phoenix::kmeans::KMeans),
        Box::new(phoenix::linear_regression::LinearRegression),
        Box::new(phoenix::matrix_multiply::MatrixMultiply),
        Box::new(phoenix::pca::Pca),
        Box::new(phoenix::reverse_index::ReverseIndex),
        Box::new(phoenix::string_match::StringMatch),
        Box::new(phoenix::word_count::WordCount),
        // PARSEC
        Box::new(parsec::blackscholes::BlackScholes),
        Box::new(parsec::bodytrack::BodyTrack),
        Box::new(parsec::dedup::Dedup),
        Box::new(parsec::ferret::Ferret),
        Box::new(parsec::fluidanimate::FluidAnimate),
        Box::new(parsec::streamcluster::StreamCluster),
        Box::new(parsec::swaptions::Swaptions),
        // Real applications
        Box::new(apps::aget_like::AgetLike),
        Box::new(apps::boost_spinlock_pool::BoostSpinlockPool),
        Box::new(apps::memcached_like::MemcachedLike),
        Box::new(apps::mysql_like::MysqlLike),
        Box::new(apps::pbzip2_like::Pbzip2Like),
        Box::new(apps::pfscan_like::PfscanLike),
    ]
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all().into_iter().find(|w| w.name() == name)
}

/// Runs `workload` tracked under `det` and returns the detector report.
pub fn run_and_report(
    workload: &dyn Workload,
    det: DetectorConfig,
    cfg: &WorkloadConfig,
) -> Report {
    let session = Session::with_config(det);
    {
        let _span = predator_obs::span("interpret");
        workload.run_tracked(&session, cfg);
    }
    session.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_suites() {
        let ws = all();
        assert_eq!(ws.len(), 21);
        assert!(ws.iter().any(|w| w.suite() == Suite::Phoenix));
        assert!(ws.iter().any(|w| w.suite() == Suite::Parsec));
        assert!(ws.iter().any(|w| w.suite() == Suite::App));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let ws = all();
        let mut names: Vec<&str> = ws.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate workload names");
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("nonexistent").is_none());
    }

    /// Every workload's name and the addresses of the objects its native
    /// run places, in [`all`]'s order.
    fn native_placements(cfg: &WorkloadConfig) -> Vec<(&'static str, Vec<u64>)> {
        fn placed<B: Body>(b: B, cfg: &WorkloadConfig) -> (&'static str, Vec<u64>) {
            let mut m = common::Native::new(b.native_offset(cfg));
            b.setup(&mut m, cfg);
            (B::NAME, m.placements())
        }
        use apps::*;
        use parsec::*;
        use phoenix::*;
        vec![
            placed(histogram::Histogram, cfg),
            placed(kmeans::KMeans, cfg),
            placed(linear_regression::LinearRegression, cfg),
            placed(matrix_multiply::MatrixMultiply, cfg),
            placed(pca::Pca, cfg),
            placed(reverse_index::ReverseIndex, cfg),
            placed(string_match::StringMatch, cfg),
            placed(word_count::WordCount, cfg),
            placed(blackscholes::BlackScholes, cfg),
            placed(bodytrack::BodyTrack, cfg),
            placed(dedup::Dedup, cfg),
            placed(ferret::Ferret, cfg),
            placed(fluidanimate::FluidAnimate, cfg),
            placed(streamcluster::StreamCluster, cfg),
            placed(swaptions::Swaptions, cfg),
            placed(aget_like::AgetLike, cfg),
            placed(boost_spinlock_pool::BoostSpinlockPool, cfg),
            placed(memcached_like::MemcachedLike, cfg),
            placed(mysql_like::MysqlLike, cfg),
            placed(pbzip2_like::Pbzip2Like, cfg),
            placed(pfscan_like::PfscanLike, cfg),
        ]
    }

    #[test]
    fn every_native_run_completes_with_objects_on_their_own_lines() {
        for variant in [Variant::Broken, Variant::Fixed] {
            let cfg = WorkloadConfig {
                threads: 2,
                iters: 2_000,
                ..WorkloadConfig::quick()
            }
            .with_variant(variant);
            let placements = native_placements(&cfg);
            let names: Vec<&str> = placements.iter().map(|p| p.0).collect();
            let registry: Vec<&str> = all().iter().map(|w| w.name()).collect();
            assert_eq!(names, registry, "one placement row per workload");
            for (w, (name, placed)) in all().iter().zip(placements) {
                // Every object on its own line; linear_regression's Broken
                // native run is Figure 2's worst placement, 24 bytes in.
                let offset = match (name, variant) {
                    ("linear_regression", Variant::Broken) => 24,
                    _ => 0,
                };
                assert!(!placed.is_empty(), "{name} {variant:?}");
                for addr in placed {
                    assert_eq!(addr % 64, offset, "{name} {variant:?}");
                }
                assert!(w.run_native(&cfg).as_nanos() > 0, "{name} {variant:?}");
            }
        }
        let cfg = WorkloadConfig {
            threads: 2,
            iters: 2_000,
            ..WorkloadConfig::quick()
        };
        for offset in [0, 24, 56] {
            let lreg = phoenix::linear_regression::LinearRegression;
            assert!(lreg.run_native_offset(&cfg, offset).as_nanos() > 0);
        }
    }

    #[test]
    fn paper_flagged_workloads_present() {
        // The Table 1 rows and §4.1.2 findings.
        for name in [
            "histogram",
            "linear_regression",
            "reverse_index",
            "word_count",
            "streamcluster",
        ] {
            let w = by_name(name).unwrap();
            assert_ne!(w.expectation(), Expectation::Clean, "{name} must have FS");
        }
        assert_eq!(
            by_name("linear_regression").unwrap().expectation(),
            Expectation::PredictedOnly
        );
        assert_eq!(
            by_name("mysql").unwrap().expectation(),
            Expectation::Observed
        );
        assert_eq!(
            by_name("boost").unwrap().expectation(),
            Expectation::Observed
        );
        for name in ["memcached", "aget", "pbzip2", "pfscan"] {
            assert_eq!(
                by_name(name).unwrap().expectation(),
                Expectation::Clean,
                "{name}"
            );
        }
    }
}
