//! Aggregate run statistics for the overhead experiments (Figures 7–9).

use serde::{Deserialize, Serialize};

/// Counters summarizing one detector run, embedded in every report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Access events delivered to the runtime.
    pub events: u64,
    /// Invalidations observed on physical lines across all tracked lines.
    pub observed_invalidations: u64,
    /// Cache lines promoted to detailed tracking.
    pub tracked_lines: usize,
    /// Total cache lines shadowed.
    pub total_lines: usize,
    /// Prediction units spawned (virtual lines under verification).
    pub prediction_units: usize,
    /// Detector metadata footprint in bytes (shadow arrays + tracks + units).
    pub metadata_bytes: usize,
    /// Live application bytes in the simulated heap (0 when no heap was
    /// attached to the report).
    pub app_live_bytes: u64,
}

impl RunStats {
    /// Relative memory overhead: metadata bytes per live application byte
    /// (`None` when the heap footprint is unknown or zero).
    pub fn relative_memory_overhead(&self) -> Option<f64> {
        (self.app_live_bytes > 0).then(|| self.metadata_bytes as f64 / self.app_live_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_overhead_requires_app_bytes() {
        let mut s = RunStats {
            metadata_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.relative_memory_overhead(), None);
        s.app_live_bytes = 50;
        assert_eq!(s.relative_memory_overhead(), Some(2.0));
    }
}
