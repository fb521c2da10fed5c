//! The canonical sharing patterns, end to end: each synthetic pattern from
//! `predator::sim::patterns` must classify exactly as the literature says —
//! including the §2.4.2 write-only-mode tradeoff (read-write false sharing
//! becomes invisible) and the latency of striped layouts under doubled
//! lines.

use predator::core::{build_report, DetectorConfig, Predator};
use predator::sim::interleave::{interleave, Schedule};
use predator::sim::patterns::{generate, Pattern};
use predator::{Report, SharingClass};

const BASE: u64 = 0x4000_0000;

fn run_pattern(pattern: Pattern, per_thread: usize, cfg: DetectorConfig) -> Report {
    let rt = Predator::new(cfg, BASE, 1 << 20);
    let script = generate(pattern, per_thread);
    for a in interleave(&script, Schedule::RoundRobin { quantum: 1 }) {
        rt.handle_access(a.tid, a.addr, a.size, a.kind);
    }
    build_report(&rt, None)
}

fn sensitive() -> DetectorConfig {
    DetectorConfig::sensitive()
}

#[test]
fn ping_pong_is_observed_false_sharing() {
    let r = run_pattern(
        Pattern::PingPong {
            threads: 4,
            base: BASE,
        },
        500,
        sensitive(),
    );
    assert!(r.has_observed_false_sharing(), "{r}");
    let f = r.false_sharing().next().unwrap();
    assert_eq!(f.class, SharingClass::FalseSharing);
    assert!(
        f.invalidations > 1_000,
        "round-robin thrashes: {}",
        f.invalidations
    );
}

#[test]
fn true_share_is_never_false_sharing() {
    let r = run_pattern(
        Pattern::TrueShare {
            threads: 4,
            addr: BASE,
        },
        500,
        sensitive(),
    );
    assert!(!r.has_false_sharing(), "{r}");
    assert!(r
        .findings
        .iter()
        .any(|f| f.class == SharingClass::TrueSharing));
}

#[test]
fn striped_detection_depends_on_stride() {
    // Stride 8: four threads in one line → observed.
    let tight = run_pattern(
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 8,
        },
        500,
        sensitive(),
    );
    assert!(tight.has_observed_false_sharing(), "{tight}");

    // Stride 64: clean today, latent for 128-byte lines → predicted only.
    let line = run_pattern(
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 64,
        },
        500,
        sensitive(),
    );
    assert!(!line.has_observed_false_sharing(), "{line}");
    assert!(line.has_predicted_false_sharing(), "{line}");

    // Stride 128: robustly clean under the paper's scenarios.
    let wide = run_pattern(
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 128,
        },
        500,
        sensitive(),
    );
    assert!(!wide.has_false_sharing(), "{wide}");

    // …but the 4x-line extension flags stride 128 as latent for 256-byte
    // hardware.
    let mut ext = sensitive();
    ext.max_scale_log2 = 2;
    let wide_ext = run_pattern(
        Pattern::Striped {
            threads: 4,
            base: BASE,
            stride: 128,
        },
        500,
        ext,
    );
    assert!(wide_ext.has_predicted_false_sharing(), "{wide_ext}");
}

#[test]
fn reader_writer_false_sharing_needs_read_instrumentation() {
    let pattern = Pattern::ReaderWriter {
        threads: 3,
        base: BASE,
    };
    // Full instrumentation sees the read-write sharing.
    let full = run_pattern(pattern, 500, sensitive());
    assert!(full.has_observed_false_sharing(), "{full}");

    // Write-only mode (the SHERIFF tradeoff, §2.4.2) misses it: only one
    // thread ever writes, so there is nothing to invalidate.
    let mut wo = sensitive();
    wo.instrument_reads = false;
    let write_only = run_pattern(pattern, 500, wo);
    assert!(!write_only.has_false_sharing(), "{write_only}");
}

#[test]
fn random_mix_never_panics_and_is_deterministic() {
    let pattern = Pattern::RandomMix {
        threads: 4,
        base: BASE,
        lines: 8,
        write_pct: 60,
        seed: 42,
    };
    let a = run_pattern(pattern, 2_000, sensitive());
    let b = run_pattern(pattern, 2_000, sensitive());
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.stats.events, 8_000);
    // Uniform random traffic over whole lines from all threads is mostly
    // *true-ish* sharing (words hit by many threads); whatever is reported,
    // nothing may crash and counts must be conserved.
    assert!(a.stats.observed_invalidations <= 8_000);
}
