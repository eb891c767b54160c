//! The steadiness check: two interleaved sets of runs per workload,
//! compared metric by metric against the bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use coupling::sweep::codec::{parse_json, Json};

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
/// A description of the first malformed entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = parse_json(benchmark_json)?;
    v.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = match m.get("bound") {
                Some(Json::Num(raw)) => raw.parse::<f64>().map_err(|e| e.to_string())?,
                _ => return Err(format!("{name}: missing bound")),
            };
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// The `run_seconds` of a `BENCHMARK.json` document: how long one run
/// measures.
///
/// # Errors
/// A missing or non-integer `run_seconds`.
pub fn run_seconds(benchmark_json: &str) -> Result<u64, String> {
    parse_json(benchmark_json)?
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or_else(|| "BENCHMARK.json: missing run_seconds".to_string())
}

/// The workload names a `BENCHMARK.json` document lists.
///
/// # Errors
/// A missing `workloads` array or a workload without a name.
pub fn workloads(benchmark_json: &str) -> Result<Vec<String>, String> {
    parse_json(benchmark_json)?
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload without name".to_string())
        })
        .collect()
}

/// Median, quartiles and spread of one set of run values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (at least two).
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, _, q3) = quartiles(values)?;
        Some(Summary {
            q1,
            median: median(values)?,
            q3,
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            f64::INFINITY
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How far `b`'s median is worse than `a`'s, as a share of `a`'s
/// (negative when better).
pub fn worsening(a: &Summary, b: &Summary, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    if a.median == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        delta / a.median.abs()
    }
}

/// Verdict on two sets: each spread within the bound (set-up time
/// exempt), and neither median worse than the other's by more than it.
pub fn agree(bound: &Bound, a: &Summary, b: &Summary) -> bool {
    let spreads_ok =
        bound.name == "setup_s" || (a.spread() <= bound.bound && b.spread() <= bound.bound);
    spreads_ok
        && worsening(a, b, bound.higher_is_better) <= bound.bound
        && worsening(b, a, bound.higher_is_better) <= bound.bound
}
