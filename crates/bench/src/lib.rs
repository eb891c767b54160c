//! # pc-bench — the simulator throughput bench and its perf gate
//!
//! One bench, `simcore`, times the simulator hot loop for every
//! benchmark × machine mode in interleaved rounds and writes
//! `BENCH_simcore.json`; the `bench_gate` binary compares a fresh run
//! against that baseline. The paper's tables and figures are printed by
//! `pcsim tables <key>` and `examples/paper_tables.rs`, not by benches:
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! ```

use coupling::sweep::codec::{parse_json, Json};

/// One case of a `BENCH_simcore.json` baseline: the identifier plus the
/// throughput number the perf gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCase {
    /// `simcore/<Bench>/<Mode>` identifier.
    pub id: String,
    /// Issue engine that produced the case (`decoded` / `scan`).
    pub engine: String,
    /// The gated metric: simulated cycles per wall-clock second of the
    /// case's fastest round.
    pub sim_cycles_per_sec: f64,
}

/// Parses the `cases` array of a `BENCH_simcore.json` document.
///
/// # Errors
/// Returns a description of the first malformed case, or of a missing
/// `cases` array.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineCase>, String> {
    let doc = parse_json(json)?;
    let cases = doc
        .get("cases")
        .ok_or("no \"cases\" array")?
        .as_arr()
        .ok_or("cases is not an array")?;
    if cases.is_empty() {
        return Err("cases array is empty".to_string());
    }
    cases
        .iter()
        .map(|case| {
            let id = case
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("case without id: {case:?}"))?
                .to_string();
            // Numbers keep their raw token, so fractional fields parse too.
            let num = |key: &str| -> Result<f64, String> {
                match case.get(key) {
                    Some(Json::Num(raw)) => raw
                        .parse::<f64>()
                        .map_err(|e| format!("{id}: bad {key}: {e}")),
                    Some(other) => Err(format!("{id}: bad {key}: {other:?}")),
                    None => Err(format!("{id}: missing {key}")),
                }
            };
            Ok(BaselineCase {
                sim_cycles_per_sec: num("sim_cycles_per_sec")?,
                engine: case
                    .get("engine")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{id}: missing engine"))?
                    .to_string(),
                id,
            })
        })
        .collect()
}

/// Compares `current` against `baseline`: one failure line per case whose
/// `sim_cycles_per_sec` dropped by more than `max_regress_pct` percent.
/// Cases present on only one side are reported as informational skips by
/// the caller, not failures — hardware and case sets drift.
pub fn regressions(
    baseline: &[BaselineCase],
    current: &[BaselineCase],
    max_regress_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.id == b.id) else {
            continue;
        };
        if b.sim_cycles_per_sec <= 0.0 {
            continue;
        }
        let drop_pct = 100.0 * (1.0 - c.sim_cycles_per_sec / b.sim_cycles_per_sec);
        if drop_pct > max_regress_pct {
            failures.push(format!(
                "{}: sim_cycles_per_sec {:.0} -> {:.0} ({drop_pct:.1}% regression, limit {max_regress_pct:.0}%)",
                b.id, b.sim_cycles_per_sec, c.sim_cycles_per_sec
            ));
        }
    }
    failures
}

/// Checks absolute throughput floors: every case whose id **ends with**
/// `pattern` must clear `min` simulated cycles per second. Suffix
/// matching lets `/Coupled` cover all plain Coupled cases without
/// catching derived ids like `.../Coupled/profiled`. A pattern matching
/// no case at all is itself a failure — a silent typo would gate
/// nothing.
pub fn floor_violations(current: &[BaselineCase], floors: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (pattern, min) in floors {
        let mut matched = false;
        for c in current {
            if !c.id.ends_with(pattern.as_str()) {
                continue;
            }
            matched = true;
            if c.sim_cycles_per_sec < *min {
                failures.push(format!(
                    "{}: sim_cycles_per_sec {:.0} below floor {min:.0}",
                    c.id, c.sim_cycles_per_sec
                ));
            }
        }
        if !matched {
            failures.push(format!("floor {pattern}={min:.0}: no case matches"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "simcore-baseline-v5",
  "host_cpus": 4,
  "cases": [
    {"id": "simcore/Matrix/STS", "engine": "decoded", "cycles_per_run": 1598, "rounds": 41, "min_ns": 1609547, "median_ns": 1702311, "mean_ns": 1750120, "sim_cycles_per_sec": 992826},
    {"id": "simcore/Matrix/Coupled", "engine": "decoded", "cycles_per_run": 580, "rounds": 41, "min_ns": 4714083, "median_ns": 4820577, "mean_ns": 4901234, "sim_cycles_per_sec": 123036},
    {"id": "simcore/Matrix/Coupled/scan", "engine": "scan", "cycles_per_run": 580, "rounds": 41, "min_ns": 9428166, "median_ns": 9611002, "mean_ns": 9700456, "sim_cycles_per_sec": 61518}
  ]
}"#;

    #[test]
    fn parses_the_writer_format() {
        let cases = parse_baseline(SAMPLE).unwrap();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].id, "simcore/Matrix/STS");
        assert_eq!(cases[0].engine, "decoded");
        assert_eq!(cases[0].sim_cycles_per_sec, 992826.0);
        assert_eq!(cases[1].id, "simcore/Matrix/Coupled");
        assert_eq!(cases[2].engine, "scan");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"cases": []}"#).is_err());
        assert!(parse_baseline(r#"{"cases": [{"mean_ns": 1}]}"#).is_err());
        let no_engine = SAMPLE.replace("\"engine\": \"decoded\", ", "");
        assert!(parse_baseline(&no_engine).unwrap_err().contains("engine"));
    }

    #[test]
    fn flags_only_regressions_beyond_the_limit() {
        let base = parse_baseline(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur[0].sim_cycles_per_sec *= 0.80; // -20%: inside a 25% limit
        cur[1].sim_cycles_per_sec *= 0.50; // -50%: out
        let fails = regressions(&base, &cur, 25.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Matrix/Coupled"), "{}", fails[0]);
        assert!(fails[0].contains("50.0% regression"), "{}", fails[0]);
    }

    #[test]
    fn floors_flag_cases_below_the_minimum() {
        let cases = parse_baseline(SAMPLE).unwrap();
        // Matrix/Coupled sits at 123036 in the fixture.
        let floors = vec![("/Coupled".to_string(), 200_000.0)];
        let fails = floor_violations(&cases, &floors);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Matrix/Coupled"), "{}", fails[0]);
        assert!(fails[0].contains("below floor 200000"), "{}", fails[0]);
        let ok = floor_violations(&cases, &[("/Coupled".to_string(), 100_000.0)]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn floors_match_by_suffix_and_reject_unmatched_patterns() {
        let mut cases = parse_baseline(SAMPLE).unwrap();
        cases.push(BaselineCase {
            id: "simcore/Matrix/Coupled/profiled".to_string(),
            engine: "decoded".to_string(),
            sim_cycles_per_sec: 1.0, // far below any floor
        });
        // `/Coupled` must not catch the `/profiled` derived id.
        let fails = floor_violations(&cases, &[("/Coupled".to_string(), 100_000.0)]);
        assert!(fails.is_empty(), "{fails:?}");
        // An unmatched pattern is an error, not a silent pass.
        let fails = floor_violations(&cases, &[("/NoSuchMode".to_string(), 1.0)]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("no case matches"), "{}", fails[0]);
    }

    #[test]
    fn improvements_and_missing_cases_pass() {
        let base = parse_baseline(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur[0].sim_cycles_per_sec *= 3.0; // faster is never a failure
        cur.remove(1); // case missing from current: skipped
        assert!(regressions(&base, &cur, 25.0).is_empty());
    }
}
