//! The result line: the four keys the benchmark contract names, with
//! every metric carrying its unit.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Whether every output check passed and the run was valid.
    pub correct: bool,
    /// Operations attempted (requests, tuples or rounds).
    pub attempted: u64,
    /// Operations that failed, timed out or went unanswered.
    pub failed: u64,
    /// End-to-end or per-layer metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Why the run is invalid (its generator ran past its lag bound), if
    /// it is; an invalid run reports `correct: false`.
    pub invalid: Option<String>,
}

impl Report {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Metric {
                name: name.to_owned(),
                value,
                unit,
            }),
        }
    }

    /// The value of metric `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Formats a finite float so that JSON parses it back to the same value.
#[must_use]
pub fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v:?}");
    // `{:?}` prints e.g. `1e-7`, which is valid JSON; `inf`/`NaN` were
    // excluded above.
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_units() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
            invalid: None,
        };
        r.set("lat_p50_us", 12.5, "us");
        r.set("setup_s", 0.25, "s");
        r.set("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"lat_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
