//! # pc-bench — the simulator throughput bench and its perf gate
//!
//! One Criterion bench, `simcore`, times the simulator hot loop for every
//! benchmark × machine mode plus the Table-2 sweep, and writes
//! `BENCH_simcore.json`; the `bench_gate` binary compares a fresh run
//! against that baseline. The paper's tables and figures are printed by
//! `pcsim tables <key>` and `examples/paper_tables.rs`, not by benches:
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! ```

/// Criterion sample count used by all benches (whole-program simulations
/// are long; statistical precision beyond ~10 samples buys nothing).
pub const SAMPLES: usize = 10;

/// True when `PC_BENCH_QUICK` is set (CI smoke mode): benches shrink
/// their sample counts and measurement budgets so the whole target runs
/// in seconds instead of minutes.
pub fn quick_mode() -> bool {
    std::env::var_os("PC_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// One case of a `BENCH_simcore.json` baseline: the identifier plus the
/// throughput number the perf gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCase {
    /// `simcore/<Bench>/<Mode>` identifier.
    pub id: String,
    /// Issue engine that produced the case (`decoded` / `scan`; older
    /// baselines may also name the retired `event` engine). Schema-v3
    /// documents predate the field; they parse as `decoded` — in v3 the
    /// default engine was the only one measured.
    pub engine: String,
    /// Mean wall time per full pipeline run, nanoseconds.
    pub mean_ns: u64,
    /// Simulated machine cycles per run.
    pub cycles_per_run: u64,
    /// The gated metric: simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

/// Scans the given field out of one JSON object body. The baseline files
/// are written by `benches/simcore.rs` in a fixed shape, so a string scan
/// (no serde in the offline build) is sufficient and is unit-tested
/// against the writer's format.
fn scan_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &obj[obj.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn scan_string<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = scan_field(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// Parses the `cases` array of a `BENCH_simcore.json` document.
///
/// # Errors
/// Returns a description of the first malformed case, or of a missing
/// `cases` array.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineCase>, String> {
    let start = json
        .find("\"cases\":")
        .ok_or_else(|| "no \"cases\" array".to_string())?;
    let body = &json[start..];
    let open = body.find('[').ok_or("cases is not an array")?;
    let close = body.find(']').ok_or("unterminated cases array")?;
    let mut cases = Vec::new();
    let mut rest = &body[open + 1..close];
    while let Some(obj_start) = rest.find('{') {
        let obj_end = rest[obj_start..]
            .find('}')
            .ok_or("unterminated case object")?;
        let obj = &rest[obj_start..obj_start + obj_end + 1];
        let id = scan_string(obj, "id")
            .ok_or_else(|| format!("case without id: {obj}"))?
            .to_string();
        let num = |key: &str| -> Result<f64, String> {
            scan_field(obj, key)
                .ok_or_else(|| format!("{id}: missing {key}"))?
                .parse::<f64>()
                .map_err(|e| format!("{id}: bad {key}: {e}"))
        };
        cases.push(BaselineCase {
            sim_cycles_per_sec: num("sim_cycles_per_sec")?,
            mean_ns: num("mean_ns")? as u64,
            cycles_per_run: num("cycles_per_run")? as u64,
            engine: scan_string(obj, "engine").unwrap_or("decoded").to_string(),
            id,
        });
        rest = &rest[obj_start + obj_end + 1..];
    }
    if cases.is_empty() {
        return Err("cases array is empty".to_string());
    }
    Ok(cases)
}

/// One shard's record inside the `table2_sweep` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepShardStat {
    /// Shard selector, `"k/n"`.
    pub shard: String,
    /// Wall-clock milliseconds for the shard.
    pub wall_ms: f64,
    /// Cells served from the result cache.
    pub hits: u64,
    /// Cells computed fresh.
    pub misses: u64,
}

/// The `table2_sweep` block of a v3 `BENCH_simcore.json`: what the sweep
/// engine actually did — jobs used, wall-clock per shard, and cache
/// hit/miss counts for the cold and warm passes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Worker threads the sweep ran with.
    pub jobs: u64,
    /// Cells in the swept grid.
    pub cells: u64,
    /// Serial (jobs=1) wall-clock milliseconds, best of N.
    pub serial_ms: f64,
    /// Parallel wall-clock milliseconds (absent on single-CPU hosts —
    /// recording a fictitious "speedup" there would be dishonest).
    pub parallel_ms: Option<f64>,
    /// serial_ms / parallel_ms, when both were measured.
    pub speedup: Option<f64>,
    /// Per-shard wall-clock and cache traffic for the cold pass.
    pub shards: Vec<SweepShardStat>,
    /// (hits, misses) of the cold pass over the whole grid.
    pub cold: (u64, u64),
    /// (hits, misses) of the warm rerun — misses must be 0.
    pub warm: (u64, u64),
}

/// Extracts the brace- or bracket-delimited value following `"key":`,
/// balancing nesting. The writer never emits braces inside strings, so
/// plain depth counting is sufficient (unit-tested against the writer).
fn extract_delimited<'a>(text: &'a str, key: &str, open: char, close: char) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = text[text.find(&tag)? + tag.len()..].trim_start();
    if !rest.starts_with(open) {
        return None;
    }
    let mut depth = 0usize;
    for (i, ch) in rest.char_indices() {
        if ch == open {
            depth += 1;
        } else if ch == close {
            depth -= 1;
            if depth == 0 {
                return Some(&rest[..=i]);
            }
        }
    }
    None
}

/// Parses the `table2_sweep` block of a v3 `BENCH_simcore.json`.
///
/// # Errors
/// Returns a description of the first missing or malformed field.
pub fn parse_sweep_stats(json: &str) -> Result<SweepStats, String> {
    let obj = extract_delimited(json, "table2_sweep", '{', '}')
        .ok_or_else(|| "no \"table2_sweep\" object".to_string())?;
    let num = |key: &str| -> Result<f64, String> {
        scan_field(obj, key)
            .ok_or_else(|| format!("table2_sweep: missing {key}"))?
            .parse::<f64>()
            .map_err(|e| format!("table2_sweep: bad {key}: {e}"))
    };
    let pair = |key: &str| -> Result<(u64, u64), String> {
        let sub = extract_delimited(obj, key, '{', '}')
            .ok_or_else(|| format!("table2_sweep: missing {key}"))?;
        let get = |k: &str| -> Result<u64, String> {
            scan_field(sub, k)
                .ok_or_else(|| format!("table2_sweep.{key}: missing {k}"))?
                .parse::<u64>()
                .map_err(|e| format!("table2_sweep.{key}: bad {k}: {e}"))
        };
        Ok((get("hits")?, get("misses")?))
    };
    let mut shards = Vec::new();
    let mut rest = extract_delimited(obj, "shards", '[', ']')
        .ok_or_else(|| "table2_sweep: missing shards".to_string())?;
    while let Some(start) = rest.find('{') {
        let end = rest[start..].find('}').ok_or("unterminated shard object")?;
        let sobj = &rest[start..start + end + 1];
        let get = |k: &str| -> Result<f64, String> {
            scan_field(sobj, k)
                .ok_or_else(|| format!("shard: missing {k}"))?
                .parse::<f64>()
                .map_err(|e| format!("shard: bad {k}: {e}"))
        };
        shards.push(SweepShardStat {
            shard: scan_string(sobj, "shard")
                .ok_or_else(|| format!("shard without selector: {sobj}"))?
                .to_string(),
            wall_ms: get("wall_ms")?,
            hits: get("hits")? as u64,
            misses: get("misses")? as u64,
        });
        rest = &rest[start + end + 1..];
    }
    Ok(SweepStats {
        jobs: num("jobs")? as u64,
        cells: num("cells")? as u64,
        serial_ms: num("serial_ms")?,
        parallel_ms: num("parallel_ms").ok(),
        speedup: num("speedup").ok(),
        shards,
        cold: pair("cold")?,
        warm: pair("warm")?,
    })
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
  "schema": "simcore-baseline-v4",
  "host_cpus": 4,
  "cases": [
    {"id": "simcore/Matrix/STS", "engine": "decoded", "mean_ns": 1609547, "iterations": 1400, "cycles_per_run": 1598, "sim_cycles_per_sec": 992826},
    {"id": "simcore/Matrix/Coupled", "engine": "decoded", "mean_ns": 4714083, "iterations": 380, "cycles_per_run": 580, "sim_cycles_per_sec": 123036},
    {"id": "simcore/Matrix/Coupled/scan", "engine": "scan", "mean_ns": 9428166, "iterations": 190, "cycles_per_run": 580, "sim_cycles_per_sec": 61518}
  ],
  "table2_sweep": {
    "jobs": 4,
    "cells": 18,
    "serial_ms": 470.5,
    "parallel_ms": 232.1,
    "speedup": 2.03,
    "bit_identical": true,
    "shards": [
      {"shard": "1/2", "wall_ms": 120.3, "hits": 0, "misses": 9},
      {"shard": "2/2", "wall_ms": 118.9, "hits": 0, "misses": 9}
    ],
    "cold": {"hits": 0, "misses": 18},
    "warm": {"hits": 18, "misses": 0}
  }
}"#;

    #[test]
    fn parses_the_writer_format() {
        let cases = parse_baseline(SAMPLE).unwrap();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].id, "simcore/Matrix/STS");
        assert_eq!(cases[0].engine, "decoded");
        assert_eq!(cases[0].mean_ns, 1609547);
        assert_eq!(cases[0].cycles_per_run, 1598);
        assert_eq!(cases[0].sim_cycles_per_sec, 992826.0);
        assert_eq!(cases[1].id, "simcore/Matrix/Coupled");
        assert_eq!(cases[2].engine, "scan");
    }

    #[test]
    fn v3_documents_without_engine_default_to_decoded() {
        let doc = SAMPLE.replace("\"engine\": \"decoded\", ", "");
        let cases = parse_baseline(&doc).unwrap();
        assert_eq!(cases[0].engine, "decoded");
        assert_eq!(cases[1].engine, "decoded");
        assert_eq!(cases[2].engine, "scan", "explicit field still wins");
    }

    #[test]
    fn parses_the_sweep_block() {
        let s = parse_sweep_stats(SAMPLE).unwrap();
        assert_eq!(s.jobs, 4);
        assert_eq!(s.cells, 18);
        assert_eq!(s.serial_ms, 470.5);
        assert_eq!(s.parallel_ms, Some(232.1));
        assert_eq!(s.speedup, Some(2.03));
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[0].shard, "1/2");
        assert_eq!(s.shards[0].wall_ms, 120.3);
        assert_eq!(s.shards[1].misses, 9);
        assert_eq!(s.cold, (0, 18));
        assert_eq!(s.warm, (18, 0), "warm pass must record zero misses");
    }

    #[test]
    fn sweep_block_tolerates_single_cpu_hosts() {
        // On a 1-CPU host the writer omits parallel_ms/speedup rather
        // than record a fictitious comparison.
        let doc = SAMPLE
            .replace("    \"parallel_ms\": 232.1,\n", "")
            .replace("    \"speedup\": 2.03,\n", "");
        let s = parse_sweep_stats(&doc).unwrap();
        assert_eq!(s.parallel_ms, None);
        assert_eq!(s.speedup, None);
        assert_eq!(s.cold, (0, 18));
    }

    #[test]
    fn sweep_block_errors_are_described() {
        assert!(parse_sweep_stats("{}")
            .unwrap_err()
            .contains("table2_sweep"));
        let doc = SAMPLE.replace("\"cold\"", "\"chilly\"");
        assert!(parse_sweep_stats(&doc).unwrap_err().contains("cold"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"cases": []}"#).is_err());
        assert!(parse_baseline(r#"{"cases": [{"mean_ns": 1}]}"#).is_err());
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
            mean_ns: 1,
            cycles_per_run: 1,
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
