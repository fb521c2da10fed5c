//! Detector configuration: thresholds, sampling, prediction switches.
//!
//! The paper's tunables (§2.4, §3.2) and their defaults here:
//!
//! * **TrackingThreshold** — writes to a line before detailed tracking
//!   begins (§2.4.1). Lines with few writes can never matter.
//! * **PredictionThreshold** — tracked writes before the hot-access-pair
//!   analysis of §3.3 runs (and re-runs at every further multiple).
//! * **Sampling** — once a line is tracked, only the first
//!   `sample_burst` of every `sample_interval` accesses are recorded
//!   (§2.4.3; the paper's default is 10 000 per 1 000 000 = 1%).
//! * **Prediction on/off** — Figure 7 evaluates PREDATOR-NP (no
//!   prediction) against full PREDATOR.
//! * **Read instrumentation on/off** — §2.4.2's write-only mode trades
//!   read-write false sharing detection for speed, as SHERIFF does.

use serde::{Deserialize, Serialize};

use predator_sim::CacheGeometry;

/// Complete detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Master switch: when false, `handle_access` returns immediately. The
    /// "Original" baseline of the Figure 7 overhead experiment runs the
    /// identical harness with the detector disabled, so the measured ratio
    /// isolates detection cost.
    pub enabled: bool,
    /// Physical cache-line geometry to detect against.
    pub geometry: CacheGeometry,
    /// Writes to a line before detailed tracking starts (`TrackingThreshold`).
    pub tracking_threshold: u32,
    /// Tracked writes before potential-false-sharing analysis runs
    /// (`PredictionThreshold`).
    pub prediction_threshold: u64,
    /// Minimum invalidations (observed on a physical line, or verified on a
    /// virtual line) for a finding to be reported. "PREDATOR only reports
    /// those global variables or heap objects on cache lines with a large
    /// number of cache invalidations."
    pub report_threshold: u64,
    /// Master switch for the §3 prediction machinery (off = PREDATOR-NP).
    pub prediction: bool,
    /// Largest predicted line-size scale, as log2 of the multiple of the
    /// physical line. The paper predicts one doubling (`1`); higher values
    /// extend the same machinery to 4x, 8x, … lines (future-work extension).
    pub max_scale_log2: u32,
    /// Instrument read accesses (write-only mode detects only write-write
    /// false sharing).
    pub instrument_reads: bool,
    /// Enable access sampling on tracked lines.
    pub sampling: bool,
    /// Sampling window length in accesses.
    pub sample_interval: u64,
    /// Accesses recorded at the start of each window.
    pub sample_burst: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            enabled: true,
            geometry: CacheGeometry::default(),
            tracking_threshold: 128,
            max_scale_log2: 1,
            prediction_threshold: 1024,
            report_threshold: 1000,
            prediction: true,
            instrument_reads: true,
            sampling: true,
            sample_interval: 1_000_000,
            sample_burst: 10_000,
        }
    }
}

impl DetectorConfig {
    /// The paper's evaluation configuration (1% sampling).
    pub fn paper() -> Self {
        Self::default()
    }

    /// PREDATOR-NP: identical but with prediction disabled (Figure 7).
    pub fn no_prediction() -> Self {
        DetectorConfig {
            prediction: false,
            ..Self::default()
        }
    }

    /// Detector off: the "Original" overhead baseline (Figure 7).
    pub fn disabled() -> Self {
        DetectorConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// A configuration with tiny thresholds for unit tests: tracking starts
    /// after 4 writes, analysis runs every 16 tracked writes, everything
    /// is recorded (no sampling), and a single invalidation is reportable.
    pub fn sensitive() -> Self {
        DetectorConfig {
            enabled: true,
            geometry: CacheGeometry::default(),
            tracking_threshold: 4,
            max_scale_log2: 1,
            prediction_threshold: 16,
            report_threshold: 1,
            prediction: true,
            instrument_reads: true,
            sampling: false,
            sample_interval: 1_000_000,
            sample_burst: 10_000,
        }
    }

    /// Sets the sampling rate as a fraction (e.g. `0.01` for the paper's 1%),
    /// keeping the window length.
    pub fn with_sampling_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "sampling rate must be in [0,1]"
        );
        self.sampling = rate < 1.0;
        self.sample_burst = ((self.sample_interval as f64) * rate).round() as u64;
        self
    }

    /// Effective sampling rate in `[0, 1]`.
    pub fn sampling_rate(&self) -> f64 {
        if !self.sampling {
            1.0
        } else {
            (self.sample_burst as f64 / self.sample_interval as f64).min(1.0)
        }
    }

    /// Validates internal consistency (thresholds non-zero, burst ≤ window).
    pub fn validate(&self) -> Result<(), String> {
        if self.tracking_threshold == 0 {
            return Err("tracking_threshold must be at least 1".into());
        }
        if self.prediction_threshold == 0 {
            return Err("prediction_threshold must be at least 1".into());
        }
        if self.max_scale_log2 == 0 || self.max_scale_log2 > 4 {
            return Err(format!(
                "max_scale_log2 must be in 1..=4, got {}",
                self.max_scale_log2
            ));
        }
        if self.sampling && self.sample_burst > self.sample_interval {
            return Err(format!(
                "sample_burst ({}) exceeds sample_interval ({})",
                self.sample_burst, self.sample_interval
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.geometry.line_size(), 64);
        assert_eq!(c.sample_interval, 1_000_000);
        assert_eq!(c.sample_burst, 10_000);
        assert!((c.sampling_rate() - 0.01).abs() < 1e-9);
        assert!(c.prediction);
        c.validate().unwrap();
    }

    #[test]
    fn no_prediction_flips_only_that_switch() {
        let c = DetectorConfig::no_prediction();
        assert!(!c.prediction);
        assert_eq!(
            DetectorConfig {
                prediction: true,
                ..c
            },
            DetectorConfig::default()
        );
    }

    #[test]
    fn sampling_rate_setter() {
        let c = DetectorConfig::default().with_sampling_rate(0.001);
        assert_eq!(c.sample_burst, 1_000);
        let full = DetectorConfig::default().with_sampling_rate(1.0);
        assert!(!full.sampling);
        assert_eq!(full.sampling_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn sampling_rate_rejects_out_of_range() {
        let _ = DetectorConfig::default().with_sampling_rate(1.5);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = DetectorConfig {
            tracking_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let base = DetectorConfig::default();
        let c = DetectorConfig {
            sample_burst: base.sample_interval + 1,
            ..base
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            prediction_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            max_scale_log2: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            max_scale_log2: 5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn disabled_profile_only_flips_the_master_switch() {
        let c = DetectorConfig::disabled();
        assert!(!c.enabled);
        assert_eq!(
            DetectorConfig { enabled: true, ..c },
            DetectorConfig::default()
        );
    }

    #[test]
    fn sensitive_profile_is_valid_and_unsampled() {
        let c = DetectorConfig::sensitive();
        c.validate().unwrap();
        assert_eq!(c.sampling_rate(), 1.0);
        assert_eq!(c.report_threshold, 1);
    }
}
