//! Metrics, operation counts and the result line.

use std::fmt::Write as _;

use crate::stats::Percentile;
use crate::trace::json_string;

/// Bytes per mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Sample counts and other context printed beside the value.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (experiment passes or requests).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// One line per failed operation or failed check.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation; a non-empty `problems` list fails it.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Records a problem that is not tied to one operation (a metric
    /// that could not be measured, a store-level check).
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    /// Adds a metric with a note printed beside it.
    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Adds a latency percentile (seconds in, milliseconds out) with its
    /// sample count. A percentile with fewer than ten samples beyond it
    /// is still printed, flagged in its note.
    pub fn percentile_ms(&mut self, name: impl Into<String>, p: Option<Percentile>) {
        let name = name.into();
        match p {
            Some(p) => {
                let flag = if p.resolved() {
                    ""
                } else {
                    ", fewer than 10 beyond"
                };
                let note = format!("n={} beyond={}{flag}", p.samples, p.beyond);
                self.metric_noted(name, p.value * 1e3, "ms", note);
            }
            None => self.problem(format!("{name}: no samples")),
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable metric table.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit, values printed with all their digits.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.value.is_finite()) {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if first { "" } else { "," },
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}
