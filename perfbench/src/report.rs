//! The one-line JSON result every run ends its standard output with.

use coupling::sweep::codec::{escape_json, parse_json, Json};

/// True when `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// The value as measured, never rounded.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `cells/s`, `count`.
    pub unit: String,
}

/// A run's verdict plus its metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// True when every check passed and nothing failed.
    pub correct: bool,
    /// Cells attempted (each oracle-checked row counts once).
    pub attempted: u64,
    /// Cells that errored, failed validation, or failed a cross-check.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    ///
    /// # Errors
    /// An illegal or repeated metric name, or a non-finite value (JSON
    /// has no spelling for it).
    pub fn to_json(&self) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.metrics.len());
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("illegal metric name {:?}", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {:?} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
            body.push(format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name,
                m.value,
                escape_json(&m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        ))
    }

    /// Parses [`Report::to_json`] output.
    ///
    /// # Errors
    /// A description of the first missing or malformed field.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = parse_json(text)?;
        let count = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {k:?}"))
        };
        let correct = match v.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing \"correct\"".to_string()),
        };
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Json::members)
            .ok_or("missing \"metrics\"")?
        {
            let value = match m.get("value") {
                Some(Json::Num(raw)) => raw.parse::<f64>().map_err(|e| format!("{name}: {e}"))?,
                _ => return Err(format!("{name}: missing value")),
            };
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: missing unit"))?;
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.to_string(),
            });
        }
        Ok(Report {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}
