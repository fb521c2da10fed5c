//! The self-overhead watchdog: measured-cost-driven adaptive sampling.
//!
//! PREDATOR's production story (ROADMAP item 1) needs the detector to *see
//! its own cost* and throttle itself before it perturbs the workload it is
//! watching. This module is that control loop, split into three testable
//! pieces:
//!
//! * [`SelfCostModel`] — turns hot-path counter deltas into an overhead
//!   estimate. The per-access costs are *calibrated*, not guessed: at
//!   startup a scratch runtime is micro-timed on its filtered and tracked
//!   paths, and each tick multiplies those unit costs by the counters the
//!   runtime already maintains (`runtime_accesses_total`,
//!   `track_sampled_accesses_total`) plus the directly-measured hot-pair
//!   analysis time (`span_predict_ns`).
//! * [`BackoffController`] — a tiered state machine deciding how to react.
//!   Sustained budget violations escalate one tier (sampling rate divided
//!   by `step`, analysis stride doubled); sustained headroom relaxes one
//!   tier. Following Owlyshield's `is_prediction_required` discipline, the
//!   controller reconsiders *less often the more it has already
//!   intervened* — escalating modulo thresholds on the evaluation count —
//!   so a steady state stops burning decisions. A **new allocation site**
//!   re-arms the controller to full configured sampling immediately: new
//!   code paths deserve full-rate observation before being shed.
//! * [`Watchdog`] — glues them to a live [`Predator`]: reads counter
//!   deltas, asks the model for the overhead, lets the controller decide,
//!   and applies the decision through the runtime's dynamic hooks
//!   ([`Predator::set_sampling_rate`] / [`Predator::set_analysis_stride`]).
//!
//! Every decision is observable: `predator_sampling_rate_ppm`,
//! `predator_analysis_stride`, `predator_backoff_tier` and
//! `predator_watchdog_overhead_ppm` gauges, and a
//! `predator_backoff_transitions_total` counter.

use std::time::Instant;

use predator_sim::{AccessKind, ThreadId};

use crate::config::DetectorConfig;
use crate::runtime::Predator;

/// Tuning for the [`BackoffController`].
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Overhead budget as a fraction of workload time (default 0.05).
    pub budget: f64,
    /// Sampling rate at tier 0: the *configured* detector rate — what
    /// "fully armed" means.
    pub base_rate: f64,
    /// Sampling-rate floor: backoff never sheds below this.
    pub min_rate: f64,
    /// Per-tier rate divisor (tier t samples at `base_rate / step^t`).
    pub step: f64,
    /// Highest tier (where the rate clamps to `min_rate`).
    pub max_tier: u32,
    /// Consecutive over-budget evaluations before escalating.
    pub sustain: u32,
    /// Consecutive well-under-budget evaluations before relaxing.
    pub recover: u32,
}

impl BackoffConfig {
    /// A controller budgeted at `budget` for a detector whose configured
    /// sampling rate is `base_rate`: rate floor 1/1000th of base, 4x rate
    /// steps, escalate after 2 sustained violations, relax after 4 calm
    /// evaluations.
    pub fn new(budget: f64, base_rate: f64) -> Self {
        assert!(budget > 0.0, "budget must be positive");
        assert!(
            base_rate > 0.0 && base_rate <= 1.0,
            "base rate must be in (0, 1]"
        );
        let min_rate = (base_rate / 1000.0).max(1e-7);
        let step = 4.0f64;
        let max_tier = ((base_rate / min_rate).ln() / step.ln()).ceil() as u32;
        BackoffConfig {
            budget,
            base_rate,
            min_rate,
            step,
            max_tier,
            sustain: 2,
            recover: 4,
        }
    }

    /// Controller config matching a detector configuration.
    pub fn for_detector(det: &DetectorConfig, budget: f64) -> Self {
        Self::new(budget, det.sampling_rate())
    }
}

/// What one evaluation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffAction {
    /// Considered the reading; no tier change.
    Hold,
    /// Not considered: suppressed by the escalating-modulo discipline.
    Skipped,
    /// Sustained violation: moved one tier down (less sampling).
    Escalated,
    /// Sustained headroom: moved one tier up (more sampling).
    Relaxed,
    /// New allocation site: restored full configured sampling.
    Rearmed,
}

/// One evaluation's outcome plus the settings now in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// What happened.
    pub action: BackoffAction,
    /// Tier now in force (0 = fully armed).
    pub tier: u32,
    /// Sampling rate now in force.
    pub sampling_rate: f64,
    /// Analysis stride now in force.
    pub analysis_stride: u64,
}

impl Decision {
    /// True when the decision changed the runtime settings.
    pub fn changed(&self) -> bool {
        matches!(
            self.action,
            BackoffAction::Escalated | BackoffAction::Relaxed | BackoffAction::Rearmed
        )
    }
}

/// The tiered backoff state machine. Pure — drive it with measured (or
/// synthetic) overhead readings; it never touches a runtime itself.
#[derive(Debug)]
pub struct BackoffController {
    cfg: BackoffConfig,
    tier: u32,
    evals: u64,
    transitions: u64,
    violations: u32,
    headroom: u32,
}

impl BackoffController {
    /// A fully-armed controller (tier 0).
    pub fn new(cfg: BackoffConfig) -> Self {
        BackoffController {
            cfg,
            tier: 0,
            evals: 0,
            transitions: 0,
            violations: 0,
            headroom: 0,
        }
    }

    /// Tier currently in force.
    pub fn tier(&self) -> u32 {
        self.tier
    }

    /// Tier changes made so far (escalations + relaxations + re-arms).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The configuration in force.
    pub fn config(&self) -> &BackoffConfig {
        &self.cfg
    }

    /// Sampling rate at `tier`.
    pub fn rate_for(&self, tier: u32) -> f64 {
        (self.cfg.base_rate / self.cfg.step.powi(tier as i32)).max(self.cfg.min_rate)
    }

    /// Analysis stride at `tier`: doubles per tier, capped at 64.
    pub fn stride_for(&self, tier: u32) -> u64 {
        1 << tier.min(6)
    }

    fn decision(&self, action: BackoffAction) -> Decision {
        Decision {
            action,
            tier: self.tier,
            sampling_rate: self.rate_for(self.tier),
            analysis_stride: self.stride_for(self.tier),
        }
    }

    /// Feeds one overhead reading (fraction of workload time spent in the
    /// detector) and whether new allocation sites appeared since the last
    /// evaluation; returns the decision.
    pub fn evaluate(&mut self, overhead: f64, new_sites: bool) -> Decision {
        self.evals += 1;
        if new_sites {
            // New code paths get full-rate observation immediately — the
            // re-arm bypasses the modulo discipline below on purpose.
            self.violations = 0;
            self.headroom = 0;
            if self.tier != 0 {
                self.tier = 0;
                self.transitions += 1;
                return self.decision(BackoffAction::Rearmed);
            }
            return self.decision(BackoffAction::Hold);
        }
        // Owlyshield's escalating-modulo discipline: the more the controller
        // has already intervened, the less often it reconsiders.
        let modulo = match self.transitions {
            0..=1 => 1,
            2..=10 => 5,
            11..=50 => 15,
            _ => 30,
        };
        if !self.evals.is_multiple_of(modulo) {
            return self.decision(BackoffAction::Skipped);
        }
        if overhead > self.cfg.budget {
            self.headroom = 0;
            self.violations += 1;
            if self.violations >= self.cfg.sustain && self.tier < self.cfg.max_tier {
                self.violations = 0;
                self.tier += 1;
                self.transitions += 1;
                return self.decision(BackoffAction::Escalated);
            }
        } else if overhead < self.cfg.budget / 2.0 {
            self.violations = 0;
            self.headroom += 1;
            if self.headroom >= self.cfg.recover && self.tier > 0 {
                self.headroom = 0;
                self.tier -= 1;
                self.transitions += 1;
                return self.decision(BackoffAction::Relaxed);
            }
        } else {
            // Inside the comfort band: neither streak survives.
            self.violations = 0;
            self.headroom = 0;
        }
        self.decision(BackoffAction::Hold)
    }
}

/// Calibrated per-access detector costs, for estimating self-overhead from
/// hot-path counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct SelfCostModel {
    /// Cost of one `handle_access` on the filtered/below-threshold path.
    pub ns_per_access: f64,
    /// Additional cost of one access that reaches a tracked line's
    /// recording path.
    pub ns_per_sampled: f64,
}

impl SelfCostModel {
    /// A model with explicit unit costs (tests, or pre-measured values).
    pub fn with_costs(ns_per_access: f64, ns_per_sampled: f64) -> Self {
        SelfCostModel {
            ns_per_access,
            ns_per_sampled,
        }
    }

    /// Micro-times the two hot paths on a scratch runtime mirroring `det`
    /// (geometry, thresholds) and returns the measured unit
    /// costs. Prediction is disabled for the measurement — analysis time is
    /// not a per-access cost; it is measured directly via `span_predict_ns`.
    pub fn calibrate(det: &DetectorConfig) -> Self {
        const BASE: u64 = 0x5000_0000;
        const N: u64 = 20_000;
        let mut cfg = *det;
        cfg.enabled = true;
        cfg.prediction = false;
        cfg.sampling = false;
        cfg.instrument_reads = true;
        let rt = Predator::new(cfg, BASE, 1 << 16);

        // Filtered path: reads below the tracking threshold record nothing.
        let t = Instant::now();
        for i in 0..N {
            rt.handle_access(ThreadId(0), BASE + (i % 512) * 8, 8, AccessKind::Read);
        }
        let ns_per_access = t.elapsed().as_nanos() as f64 / N as f64;

        // Tracked path: promote one line, then hammer its words.
        for _ in 0..=cfg.tracking_threshold {
            rt.handle_access(ThreadId(0), BASE, 8, AccessKind::Write);
        }
        let t = Instant::now();
        for i in 0..N {
            rt.handle_access(
                ThreadId((i % 2) as u16),
                BASE + (i % 8) * 8,
                8,
                AccessKind::Write,
            );
        }
        let tracked = t.elapsed().as_nanos() as f64 / N as f64;
        SelfCostModel {
            ns_per_access,
            ns_per_sampled: (tracked - ns_per_access).max(0.0),
        }
    }

    /// Detector overhead over one interval, as a fraction of total wall
    /// time: counter deltas × unit costs, plus directly-measured analysis
    /// nanoseconds, divided by the interval's wall nanoseconds.
    pub fn overhead(&self, accesses: u64, sampled: u64, analysis_ns: u64, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        let detector_ns = accesses as f64 * self.ns_per_access
            + sampled as f64 * self.ns_per_sampled
            + analysis_ns as f64;
        (detector_ns / wall_ns as f64).min(1.0)
    }
}

/// Counter values at the previous tick, for delta computation.
#[derive(Debug, Default, Clone, Copy)]
struct TickBase {
    accesses: u64,
    sampled: u64,
    analysis_ns: u64,
    callsites: u64,
    wall_ns: u64,
}

/// One tick's measurement and decision.
#[derive(Debug, Clone, Copy)]
pub struct TickOutcome {
    /// Estimated detector overhead over the interval.
    pub overhead: f64,
    /// The controller's decision.
    pub decision: Decision,
}

/// The periodic watchdog task: measures, decides, applies, and exposes
/// every step through the metrics registry.
pub struct Watchdog {
    model: SelfCostModel,
    ctl: BackoffController,
    prev: TickBase,
}

fn monotone_delta(prev: u64, cur: u64) -> u64 {
    cur.saturating_sub(prev)
}

impl Watchdog {
    /// A watchdog from explicit parts.
    pub fn new(model: SelfCostModel, ctl: BackoffController) -> Self {
        Watchdog {
            model,
            ctl,
            prev: TickBase::default(),
        }
    }

    /// Calibrates a model against `det` and budgets the controller at
    /// `budget` — the `predator serve --overhead-budget` entry point.
    pub fn for_detector(det: &DetectorConfig, budget: f64) -> Self {
        Self::new(
            SelfCostModel::calibrate(det),
            BackoffController::new(BackoffConfig::for_detector(det, budget)),
        )
    }

    /// The controller (tier, transition count).
    pub fn controller(&self) -> &BackoffController {
        &self.ctl
    }

    /// The cost model in use.
    pub fn model(&self) -> &SelfCostModel {
        &self.model
    }

    /// One watchdog tick: derive self-cost from counter deltas since the
    /// previous tick, evaluate the controller, and apply any change to
    /// `rt`. `callsites` is the current distinct-allocation-site count
    /// (its growth is the re-arm signal); `wall_ns_total` is cumulative
    /// workload wall time (the overhead denominator).
    pub fn tick(&mut self, rt: &Predator, callsites: u64, wall_ns_total: u64) -> TickOutcome {
        let reg = predator_obs::global();
        let cur = TickBase {
            accesses: reg.counter("runtime_accesses_total").get(),
            sampled: reg.counter("track_sampled_accesses_total").get(),
            analysis_ns: reg.histogram("span_predict_ns").sum(),
            callsites,
            wall_ns: wall_ns_total,
        };
        let overhead = self.model.overhead(
            monotone_delta(self.prev.accesses, cur.accesses),
            monotone_delta(self.prev.sampled, cur.sampled),
            monotone_delta(self.prev.analysis_ns, cur.analysis_ns),
            monotone_delta(self.prev.wall_ns, cur.wall_ns),
        );
        let new_sites = cur.callsites > self.prev.callsites;
        self.prev = cur;

        let decision = self.ctl.evaluate(overhead, new_sites);
        if decision.changed() {
            rt.set_sampling_rate(decision.sampling_rate);
            rt.set_analysis_stride(decision.analysis_stride);
            predator_obs::static_counter!("predator_backoff_transitions_total").inc();
        }
        predator_obs::static_gauge!("predator_backoff_tier").set(decision.tier as i64);
        predator_obs::static_gauge!("predator_watchdog_overhead_ppm")
            .set((overhead * 1e6).round() as i64);
        predator_obs::events().emit(
            "watchdog_tick",
            &[
                (
                    "overhead_ppm",
                    predator_obs::FieldVal::U64((overhead * 1e6) as u64),
                ),
                ("tier", predator_obs::FieldVal::U64(decision.tier as u64)),
                (
                    "action",
                    predator_obs::FieldVal::Str(&format!("{:?}", decision.action)),
                ),
            ],
        );
        TickOutcome { overhead, decision }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(budget: f64) -> BackoffController {
        BackoffController::new(BackoffConfig::new(budget, 0.01))
    }

    #[test]
    fn sustained_violation_escalates() {
        let mut c = ctl(0.05);
        assert_eq!(c.evaluate(0.10, false).action, BackoffAction::Hold);
        let d = c.evaluate(0.10, false);
        assert_eq!(d.action, BackoffAction::Escalated);
        assert_eq!(d.tier, 1);
        assert!((d.sampling_rate - 0.01 / 4.0).abs() < 1e-12);
        assert_eq!(d.analysis_stride, 2);
    }

    #[test]
    fn single_spike_does_not_escalate() {
        let mut c = ctl(0.05);
        assert_eq!(c.evaluate(0.10, false).action, BackoffAction::Hold);
        assert_eq!(c.evaluate(0.01, false).action, BackoffAction::Hold);
        assert_eq!(c.evaluate(0.10, false).action, BackoffAction::Hold);
        assert_eq!(c.tier(), 0, "violation streak was broken");
    }

    #[test]
    fn sustained_headroom_relaxes_one_tier() {
        let mut c = ctl(0.05);
        c.evaluate(0.10, false);
        c.evaluate(0.10, false); // tier 1, 1 transition
                                 // Modulo is still 1 (transitions <= 1)... after the second
                                 // transition it becomes 5, so feed enough calm evaluations.
        let mut relaxed = false;
        for _ in 0..40 {
            if c.evaluate(0.001, false).action == BackoffAction::Relaxed {
                relaxed = true;
                break;
            }
        }
        assert!(relaxed);
        assert_eq!(c.tier(), 0);
    }

    #[test]
    fn rearm_restores_tier_zero_immediately() {
        let mut c = ctl(0.05);
        for _ in 0..20 {
            c.evaluate(0.50, false);
        }
        assert!(c.tier() >= 2, "sustained violations escalate: {:?}", c);
        let d = c.evaluate(0.50, true);
        assert_eq!(d.action, BackoffAction::Rearmed);
        assert_eq!(d.tier, 0);
        assert!((d.sampling_rate - 0.01).abs() < 1e-12);
        assert_eq!(d.analysis_stride, 1);
    }

    #[test]
    fn escalating_modulo_throttles_reconsideration() {
        let mut c = ctl(0.05);
        // Drive past two transitions so the modulo rises to 5.
        for _ in 0..4 {
            c.evaluate(0.50, false);
        }
        assert!(c.transitions() >= 2);
        let skipped = (0..10)
            .filter(|_| c.evaluate(0.50, false).action == BackoffAction::Skipped)
            .count();
        assert!(skipped >= 7, "most evaluations skipped, got {skipped}");
    }

    #[test]
    fn rate_floor_and_tier_cap_hold() {
        let mut c = ctl(0.05);
        for _ in 0..10_000 {
            c.evaluate(0.99, false);
        }
        let d = c.evaluate(0.99, false);
        assert!(d.tier <= c.cfg.max_tier);
        assert!(d.sampling_rate >= c.cfg.min_rate - 1e-15);
        assert!(d.analysis_stride <= 64);
    }

    #[test]
    fn cost_model_overhead_math() {
        let m = SelfCostModel::with_costs(10.0, 100.0);
        // 1000 accesses * 10ns + 100 sampled * 100ns + 5000ns analysis
        // = 25_000ns over 1_000_000ns wall = 2.5%.
        let o = m.overhead(1000, 100, 5000, 1_000_000);
        assert!((o - 0.025).abs() < 1e-9, "{o}");
        assert_eq!(m.overhead(1000, 100, 5000, 0), 0.0, "no wall time yet");
        assert_eq!(m.overhead(u64::MAX, 0, 0, 1), 1.0, "clamped to 100%");
    }

    #[test]
    fn calibration_yields_positive_costs() {
        let m = SelfCostModel::calibrate(&DetectorConfig::sensitive());
        assert!(m.ns_per_access > 0.0);
        // The tracked path can only be costlier than the filtered one; the
        // subtraction clamps at zero, so just require it to be finite.
        assert!(m.ns_per_sampled.is_finite());
    }
}
