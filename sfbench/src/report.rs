//! The result line and the correctness-check ledger.

use crate::stats::{mean, quantile};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of one timed phase, from the number of correct
/// decisions, each decision's samples consumed and latency, and the phase's
/// wall time (`setup_s` is added by the caller). The latency tail goes to
/// stderr only: over the few dozen decisions of a paced run it moves with the
/// host's speed by more than a metric's bound (see README.md).
pub fn end_to_end(correct: usize, samples: &[f64], latency_ms: &[f64], wall_s: f64) -> Vec<Metric> {
    eprintln!(
        "decision latency p90 {:.1} ms, p95 {:.1} ms over {} decisions",
        quantile(latency_ms, 0.90),
        quantile(latency_ms, 0.95),
        latency_ms.len()
    );
    vec![
        Metric {
            name: "correct_decisions_per_s",
            value: correct as f64 / wall_s,
            unit: "1/s",
        },
        Metric {
            name: "samples_per_decision",
            value: mean(samples),
            unit: "samples",
        },
        Metric {
            name: "decision_latency_p50_ms",
            value: quantile(latency_ms, 0.50),
            unit: "ms",
        },
        Metric {
            name: "decision_latency_mean_ms",
            value: mean(latency_ms),
            unit: "ms",
        },
    ]
}

/// Correctness checks run outside the timed phase. Each check is one
/// attempted operation; a check that does not hold is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failing check is reported on stderr with
    /// `detail`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {name}: {}", detail());
        }
    }
}

/// What one workload run reports.
#[derive(Debug)]
pub struct Report {
    /// Decisions the timed phase attempted.
    pub decisions: u64,
    /// Decisions that produced no outcome or more than one.
    pub failed_decisions: u64,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn attempted(&self) -> u64 {
        self.decisions + self.checks.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed_decisions + self.checks.failed
    }

    /// The result object, as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Formats a finite number with all its digits (non-finite values, which a
/// correct run never produces, become `null` so the line stays JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
