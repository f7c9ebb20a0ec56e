//! The result of one run: metrics with units and sample counts, output
//! checks, and the closing JSON line.

use std::fmt::Write as _;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric and the number of samples behind it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        if !value.is_finite() {
            self.problem(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// A line of context printed before the result (thread counts,
    /// sample sizes of figures that are not metrics).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the notes, one line per metric, and the JSON result last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "metric {} = {} {} (samples: {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("op_ms.p50", 12.5, "ms", 3);
        r.metric("ops_per_s", 2.0, "1/s", 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"op_ms.p50\": {\"value\": 12.5, \"unit\": \"ms\"}, \"ops_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
        r.check(false, || "mismatch".to_string());
        assert!(!r.correct());
    }
}
