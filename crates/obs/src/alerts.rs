//! Rule-driven alerting over the embedded [`crate::tsdb`] store.
//!
//! A hand-rolled, line-oriented rule format (`docs/alerts.rules`) keeps
//! the zero-dependency discipline: no YAML, no regex crate. One rule:
//!
//! ```text
//! alert overhead_budget_breach
//!   expr: predator_watchdog_overhead_ppm > 80000
//!   for: 10s
//!   severity: critical
//!   summary: instrumentation overhead above the serve budget
//! ```
//!
//! `expr` is either a threshold over a metric's latest value or a
//! `rate(metric[window])` condition over the tsdb's trailing window.
//! `for:` is hysteresis: the condition must hold continuously that long
//! before the alert fires (Prometheus semantics). Each evaluation tick
//! drives a per-rule state machine — inactive → pending → firing →
//! resolved — and every transition is emitted to the JSONL event sink as
//! an `alert_transition` record, so the alert history rides in the same
//! trace as the detector events it explains.

use crate::tsdb::Tsdb;
use crate::FieldVal;

/// Schema tag embedded in `/alerts` JSON documents.
pub const ALERTS_SCHEMA: &str = "predator-alerts/1";

/// Rule severity label (ordering: info < warning < critical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Info,
    /// Needs a look.
    Warning,
    /// Needs a look now.
    Critical,
}

impl Severity {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// Comparison operator in an `expr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn parse(s: &str) -> Option<Self> {
        match s {
            ">" => Some(Cmp::Gt),
            ">=" => Some(Cmp::Ge),
            "<" => Some(Cmp::Lt),
            "<=" => Some(Cmp::Le),
            "==" => Some(Cmp::Eq),
            "!=" => Some(Cmp::Ne),
            _ => None,
        }
    }

    /// Renders the operator as written in rule files.
    pub fn as_str(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }

    /// Applies the comparison.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

/// A parsed `expr:` condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `metric <op> value` over the latest stored sample.
    Threshold {
        /// Metric name (any tsdb series, including derived `:p99` etc.).
        metric: String,
        /// Comparison operator.
        cmp: Cmp,
        /// Right-hand threshold.
        value: f64,
    },
    /// `rate(metric[window]) <op> value` over the trailing window.
    Rate {
        /// Metric name.
        metric: String,
        /// Trailing window, milliseconds.
        window_ms: u64,
        /// Comparison operator.
        cmp: Cmp,
        /// Right-hand threshold (per-second rate).
        value: f64,
    },
}

impl Expr {
    /// The metric the expression reads.
    pub fn metric(&self) -> &str {
        match self {
            Expr::Threshold { metric, .. } | Expr::Rate { metric, .. } => metric,
        }
    }

    /// Renders the expression as written in rule files.
    pub fn render(&self) -> String {
        match self {
            Expr::Threshold { metric, cmp, value } => {
                format!("{metric} {} {value}", cmp.as_str())
            }
            Expr::Rate {
                metric,
                window_ms,
                cmp,
                value,
            } => format!(
                "rate({metric}[{}]) {} {value}",
                render_duration(*window_ms),
                cmp.as_str()
            ),
        }
    }

    /// Evaluates against the store; `None` when the metric is unknown or
    /// the window lacks two distinct-time points.
    pub fn value(&self, tsdb: &Tsdb, now_ms: u64) -> Option<f64> {
        match self {
            Expr::Threshold { metric, .. } => tsdb.latest(metric),
            Expr::Rate {
                metric, window_ms, ..
            } => tsdb.rate(metric, *window_ms, now_ms),
        }
    }

    fn holds(&self, tsdb: &Tsdb, now_ms: u64) -> Option<bool> {
        let (cmp, rhs) = match self {
            Expr::Threshold { cmp, value, .. } | Expr::Rate { cmp, value, .. } => (*cmp, *value),
        };
        self.value(tsdb, now_ms).map(|lhs| cmp.eval(lhs, rhs))
    }
}

/// One alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Alert name (`[A-Za-z0-9_:]`).
    pub name: String,
    /// Condition.
    pub expr: Expr,
    /// Hysteresis: condition must hold this long before firing.
    pub for_ms: u64,
    /// Severity label.
    pub severity: Severity,
    /// Free-text annotation.
    pub summary: Option<String>,
}

/// One parse problem, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    /// 1-based line in the rules file.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Parses `30s` / `5m` / `2h` / `1500ms` into milliseconds.
pub fn parse_duration_ms(s: &str) -> Option<u64> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit())?);
    let n: u64 = digits.parse().ok()?;
    match unit {
        "ms" => Some(n),
        "s" => n.checked_mul(1_000),
        "m" => n.checked_mul(60_000),
        "h" => n.checked_mul(3_600_000),
        _ => None,
    }
}

fn render_duration(ms: u64) -> String {
    if ms >= 3_600_000 && ms.is_multiple_of(3_600_000) {
        format!("{}h", ms / 3_600_000)
    } else if ms >= 60_000 && ms.is_multiple_of(60_000) {
        format!("{}m", ms / 60_000)
    } else if ms >= 1_000 && ms.is_multiple_of(1_000) {
        format!("{}s", ms / 1_000)
    } else {
        format!("{ms}ms")
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_expr(s: &str) -> Result<Expr, String> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    let [lhs, op, rhs] = parts.as_slice() else {
        return Err(format!(
            "expected `<metric> <op> <value>` or `rate(<metric>[<window>]) <op> <value>`, got `{s}`"
        ));
    };
    let cmp = Cmp::parse(op).ok_or_else(|| format!("unknown operator `{op}`"))?;
    let value: f64 = rhs
        .parse()
        .map_err(|_| format!("`{rhs}` is not a number"))?;
    if let Some(inner) = lhs.strip_prefix("rate(").and_then(|r| r.strip_suffix(')')) {
        let (metric, win) = inner
            .split_once('[')
            .and_then(|(m, w)| w.strip_suffix(']').map(|w| (m, w)))
            .ok_or_else(|| format!("rate() needs `metric[window]`, got `{inner}`"))?;
        if !valid_metric_name(metric) {
            return Err(format!("bad metric name `{metric}`"));
        }
        let window_ms = parse_duration_ms(win)
            .filter(|&w| w > 0)
            .ok_or_else(|| format!("bad rate window `{win}` (want e.g. 30s, 5m)"))?;
        Ok(Expr::Rate {
            metric: metric.to_string(),
            window_ms,
            cmp,
            value,
        })
    } else {
        if !valid_metric_name(lhs) {
            return Err(format!("bad metric name `{lhs}`"));
        }
        Ok(Expr::Threshold {
            metric: lhs.to_string(),
            cmp,
            value,
        })
    }
}

/// Parses a whole rules file; returns every problem found, not just the
/// first (that is what `predator alerts lint` prints).
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, Vec<LintError>> {
    struct Draft {
        line: usize,
        name: String,
        expr: Option<Expr>,
        for_ms: u64,
        severity: Severity,
        summary: Option<String>,
    }
    let mut rules: Vec<Rule> = Vec::new();
    let mut errors: Vec<LintError> = Vec::new();
    let mut draft: Option<Draft> = None;

    let finish = |d: Option<Draft>, rules: &mut Vec<Rule>, errors: &mut Vec<LintError>| {
        let Some(d) = d else { return };
        match d.expr {
            Some(expr) => rules.push(Rule {
                name: d.name,
                expr,
                for_ms: d.for_ms,
                severity: d.severity,
                summary: d.summary,
            }),
            None => errors.push(LintError {
                line: d.line,
                msg: format!("alert `{}` has no expr:", d.name),
            }),
        }
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("alert ") {
            let name = name.trim();
            if !valid_metric_name(name) {
                errors.push(LintError {
                    line: lineno,
                    msg: format!("bad alert name `{name}`"),
                });
            }
            if rules.iter().any(|r| r.name == name)
                || draft.as_ref().is_some_and(|d| d.name == name)
            {
                errors.push(LintError {
                    line: lineno,
                    msg: format!("duplicate alert `{name}`"),
                });
            }
            finish(draft.take(), &mut rules, &mut errors);
            draft = Some(Draft {
                line: lineno,
                name: name.to_string(),
                expr: None,
                for_ms: 0,
                severity: Severity::Warning,
                summary: None,
            });
            continue;
        }
        let Some((key, val)) = line.split_once(':') else {
            errors.push(LintError {
                line: lineno,
                msg: format!("expected `key: value` or `alert <name>`, got `{line}`"),
            });
            continue;
        };
        let val = val.trim();
        let Some(d) = draft.as_mut() else {
            errors.push(LintError {
                line: lineno,
                msg: "rule body before any `alert <name>` header".into(),
            });
            continue;
        };
        match key.trim() {
            "expr" => match parse_expr(val) {
                Ok(e) => d.expr = Some(e),
                Err(msg) => errors.push(LintError { line: lineno, msg }),
            },
            "for" => match parse_duration_ms(val) {
                Some(ms) => d.for_ms = ms,
                None => errors.push(LintError {
                    line: lineno,
                    msg: format!("bad duration `{val}` (want e.g. 10s, 5m, 1h)"),
                }),
            },
            "severity" => match Severity::parse(val) {
                Some(s) => d.severity = s,
                None => errors.push(LintError {
                    line: lineno,
                    msg: format!("unknown severity `{val}` (info|warning|critical)"),
                }),
            },
            "summary" => d.summary = Some(val.to_string()),
            other => errors.push(LintError {
                line: lineno,
                msg: format!("unknown key `{other}` (expr|for|severity|summary)"),
            }),
        }
    }
    finish(draft.take(), &mut rules, &mut errors);
    if errors.is_empty() {
        Ok(rules)
    } else {
        Err(errors)
    }
}

/// Where a rule's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false, never fired (or reset after pending).
    Inactive,
    /// Condition true, waiting out the `for:` hysteresis.
    Pending {
        /// When the condition first held.
        since_ms: u64,
    },
    /// Condition held for `for:`; actively firing.
    Firing {
        /// When the alert started firing.
        since_ms: u64,
    },
    /// Fired, then the condition cleared.
    Resolved {
        /// When the condition cleared.
        at_ms: u64,
    },
}

impl AlertState {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending { .. } => "pending",
            AlertState::Firing { .. } => "firing",
            AlertState::Resolved { .. } => "resolved",
        }
    }
}

/// One state change, returned by [`AlertEngine::eval`] and emitted to the
/// JSONL event sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Rule name.
    pub alert: String,
    /// Rule severity.
    pub severity: Severity,
    /// State left.
    pub from: &'static str,
    /// State entered.
    pub to: &'static str,
    /// Expression value at the transition, if computable.
    pub value: Option<f64>,
    /// Evaluation time (serve uptime, ms).
    pub at_ms: u64,
}

impl Transition {
    /// Writes this transition to the global JSONL event sink.
    pub fn emit(&self) {
        let value = self.value.unwrap_or(f64::NAN); // NaN renders as null
        crate::events().emit(
            "alert_transition",
            &[
                ("alert", FieldVal::Str(&self.alert)),
                ("severity", FieldVal::Str(self.severity.as_str())),
                ("from", FieldVal::Str(self.from)),
                ("to", FieldVal::Str(self.to)),
                ("value", FieldVal::F64(value)),
                ("at_ms", FieldVal::U64(self.at_ms)),
            ],
        );
    }
}

struct RuleSlot {
    rule: Rule,
    state: AlertState,
    last_value: Option<f64>,
}

/// Evaluates a rule set against a [`Tsdb`] once per tick, tracking each
/// rule's pending → firing → resolved lifecycle.
pub struct AlertEngine {
    slots: Vec<RuleSlot>,
    transitions_total: u64,
}

impl AlertEngine {
    /// An engine with every rule inactive.
    pub fn new(rules: Vec<Rule>) -> Self {
        AlertEngine {
            slots: rules
                .into_iter()
                .map(|rule| RuleSlot {
                    rule,
                    state: AlertState::Inactive,
                    last_value: None,
                })
                .collect(),
            transitions_total: 0,
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> Vec<&Rule> {
        self.slots.iter().map(|s| &s.rule).collect()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, AlertState::Firing { .. }))
            .count()
    }

    /// Rules currently pending.
    pub fn pending(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, AlertState::Pending { .. }))
            .count()
    }

    /// State transitions seen over the engine's lifetime.
    pub fn transitions_total(&self) -> u64 {
        self.transitions_total
    }

    /// Evaluates every rule at `now_ms`, advances the state machines, and
    /// returns (and JSONL-emits) the transitions. Also maintains the
    /// `predator_alerts_firing` / `predator_alerts_pending` gauges and the
    /// `predator_alert_transitions_total` counter.
    pub fn eval(&mut self, tsdb: &Tsdb, now_ms: u64) -> Vec<Transition> {
        let mut out = Vec::new();
        for slot in &mut self.slots {
            let holds = slot.rule.expr.holds(tsdb, now_ms);
            slot.last_value = slot.rule.expr.value(tsdb, now_ms);
            // An unknown metric or an empty rate window is "condition not
            // met": alerting on absent data would fire every rule at boot.
            let active = holds == Some(true);
            let next = match (slot.state, active) {
                (AlertState::Inactive | AlertState::Resolved { .. }, true) => {
                    if slot.rule.for_ms == 0 {
                        AlertState::Firing { since_ms: now_ms }
                    } else {
                        AlertState::Pending { since_ms: now_ms }
                    }
                }
                (AlertState::Pending { since_ms }, true) => {
                    if now_ms.saturating_sub(since_ms) >= slot.rule.for_ms {
                        AlertState::Firing { since_ms: now_ms }
                    } else {
                        AlertState::Pending { since_ms }
                    }
                }
                (AlertState::Firing { since_ms }, true) => AlertState::Firing { since_ms },
                (AlertState::Pending { .. }, false) => AlertState::Inactive,
                (AlertState::Firing { .. }, false) => AlertState::Resolved { at_ms: now_ms },
                (state @ (AlertState::Inactive | AlertState::Resolved { .. }), false) => state,
            };
            if next.as_str() != slot.state.as_str() {
                let t = Transition {
                    alert: slot.rule.name.clone(),
                    severity: slot.rule.severity,
                    from: slot.state.as_str(),
                    to: next.as_str(),
                    value: slot.last_value,
                    at_ms: now_ms,
                };
                t.emit();
                self.transitions_total += 1;
                out.push(t);
            }
            slot.state = next;
        }
        crate::static_gauge!("predator_alerts_firing").set(self.firing() as i64);
        crate::static_gauge!("predator_alerts_pending").set(self.pending() as i64);
        if !out.is_empty() {
            crate::static_counter!("predator_alert_transitions_total").add(out.len() as u64);
        }
        out
    }

    /// The `/alerts` JSON document.
    pub fn to_json(&self, now_ms: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":\"{ALERTS_SCHEMA}\",\"now_ms\":{now_ms},\"firing\":{},\
             \"pending\":{},\"transitions_total\":{},\"alerts\":[",
            self.firing(),
            self.pending(),
            self.transitions_total
        );
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\"",
                slot.rule.name,
                slot.rule.severity.as_str(),
                slot.state.as_str()
            );
            match slot.state {
                AlertState::Pending { since_ms } | AlertState::Firing { since_ms } => {
                    let _ = write!(out, ",\"since_ms\":{since_ms}");
                }
                AlertState::Resolved { at_ms } => {
                    let _ = write!(out, ",\"resolved_ms\":{at_ms}");
                }
                AlertState::Inactive => {}
            }
            match slot.last_value {
                Some(v) if v.is_finite() => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                _ => out.push_str(",\"value\":null"),
            }
            let _ = write!(
                out,
                ",\"expr\":\"{}\",\"for_ms\":{}",
                slot.rule.expr.render(),
                slot.rule.for_ms
            );
            if let Some(s) = &slot.rule.summary {
                out.push_str(",\"summary\":\"");
                crate::events::escape_into(&mut out, s);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    const RULES: &str = "\
# demo pack
alert overhead_high
  expr: overhead_ppm > 100
  for: 2s
  severity: critical
  summary: overhead above budget

alert stalled
  expr: rate(work_total[10s]) == 0
  severity: info
";

    /// `overhead_ppm` at `v`, with `work_total` advancing with time so the
    /// `stalled` rate rule stays quiet.
    fn gauge_snap(v: i64, t_ms: u64) -> Snapshot {
        Snapshot {
            counters: Snapshot::of_counter("work_total", t_ms).counters,
            ..Snapshot::of_gauge("overhead_ppm", v)
        }
    }

    #[test]
    fn parses_the_demo_pack() {
        let rules = parse_rules(RULES).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "overhead_high");
        assert_eq!(rules[0].for_ms, 2_000);
        assert_eq!(rules[0].severity, Severity::Critical);
        assert_eq!(rules[0].expr.render(), "overhead_ppm > 100");
        assert_eq!(rules[1].severity, Severity::Info);
        assert_eq!(rules[1].expr.render(), "rate(work_total[10s]) == 0");
    }

    #[test]
    fn lint_reports_every_problem_with_line_numbers() {
        let bad = "alert a\n  expr: x %% 3\nalert a\n  frequency: often\nalert b\n";
        let errs = parse_rules(bad).unwrap_err();
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(msgs.iter().any(|m| m.starts_with("line 2:")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("duplicate alert `a`")));
        assert!(msgs.iter().any(|m| m.contains("unknown key `frequency`")));
        assert!(msgs.iter().any(|m| m.contains("`b` has no expr")));
    }

    #[test]
    fn duration_grammar_round_trips() {
        assert_eq!(parse_duration_ms("30s"), Some(30_000));
        assert_eq!(parse_duration_ms("5m"), Some(300_000));
        assert_eq!(parse_duration_ms("2h"), Some(7_200_000));
        assert_eq!(parse_duration_ms("1500ms"), Some(1_500));
        assert_eq!(parse_duration_ms("10"), None);
        assert_eq!(parse_duration_ms("s"), None);
        assert_eq!(render_duration(300_000), "5m");
        assert_eq!(render_duration(1_500), "1500ms");
    }

    #[test]
    fn lifecycle_honors_for_hysteresis() {
        let rules = parse_rules(RULES).unwrap();
        let mut engine = AlertEngine::new(rules);
        let mut db = Tsdb::default();

        // t=0: condition false — nothing moves.
        db.sample(&gauge_snap(50, 0), 0);
        assert!(engine.eval(&db, 0).is_empty());

        // t=1s: condition turns true — pending, not yet firing.
        db.sample(&gauge_snap(500, 1_000), 1_000);
        let ts = engine.eval(&db, 1_000);
        assert_eq!(ts.len(), 1);
        assert_eq!((ts[0].from, ts[0].to), ("inactive", "pending"));

        // t=2s: held 1s of the required 2s — still pending, no transition.
        db.sample(&gauge_snap(500, 2_000), 2_000);
        assert!(engine.eval(&db, 2_000).is_empty());

        // t=3s: held 2s — fires.
        db.sample(&gauge_snap(500, 3_000), 3_000);
        let ts = engine.eval(&db, 3_000);
        assert_eq!(ts.len(), 1);
        assert_eq!((ts[0].from, ts[0].to), ("pending", "firing"));
        assert_eq!(engine.firing(), 1);

        // t=4s: condition clears — resolved.
        db.sample(&gauge_snap(10, 4_000), 4_000);
        let ts = engine.eval(&db, 4_000);
        assert_eq!(ts.len(), 1);
        assert_eq!((ts[0].from, ts[0].to), ("firing", "resolved"));
        assert_eq!(engine.firing(), 0);

        let json = engine.to_json(4_000);
        assert!(
            json.starts_with("{\"schema\":\"predator-alerts/1\""),
            "{json}"
        );
        assert!(json.contains("\"state\":\"resolved\""));
        assert!(json.contains("\"expr\":\"overhead_ppm > 100\""));
    }

    #[test]
    fn pending_resets_when_condition_flaps() {
        let rules = parse_rules("alert a\n expr: g > 0\n for: 10s\n").unwrap();
        let mut engine = AlertEngine::new(rules);
        let mut db = Tsdb::default();
        db.sample(&Snapshot::of_gauge("g", 1), 0);
        engine.eval(&db, 0);
        assert_eq!(engine.pending(), 1);
        db.sample(&Snapshot::of_gauge("g", 0), 1_000);
        let ts = engine.eval(&db, 1_000);
        assert_eq!((ts[0].from, ts[0].to), ("pending", "inactive"));
        // A fresh breach restarts the clock: still only pending at +9s.
        db.sample(&Snapshot::of_gauge("g", 1), 2_000);
        engine.eval(&db, 2_000);
        engine.eval(&db, 11_000);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.firing(), 0);
    }

    #[test]
    fn zero_for_fires_immediately_and_rate_rules_need_history() {
        let rules = parse_rules("alert r\n expr: rate(c_total[5s]) > 10\n").unwrap();
        let mut engine = AlertEngine::new(rules);
        let mut db = Tsdb::default();
        let snap = |v: u64| Snapshot::of_counter("c_total", v);
        // One sample: no rate — condition unknown, stays inactive.
        db.sample(&snap(0), 0);
        assert!(engine.eval(&db, 0).is_empty());
        // 100/s over the window: fires with for: 0.
        db.sample(&snap(100), 1_000);
        let ts = engine.eval(&db, 1_000);
        assert_eq!((ts[0].from, ts[0].to), ("inactive", "firing"));
    }

    #[test]
    fn unknown_metrics_never_fire() {
        let rules = parse_rules("alert a\n expr: missing_metric > 0\n").unwrap();
        let mut engine = AlertEngine::new(rules);
        let db = Tsdb::default();
        assert!(engine.eval(&db, 0).is_empty());
        let json = engine.to_json(0);
        assert!(json.contains("\"value\":null"), "{json}");
    }
}
