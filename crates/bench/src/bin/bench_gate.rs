//! bench_gate — the perf-regression gate for CI.
//!
//! Compares two `BENCH_simcore.json` documents (the committed baseline
//! and a freshly measured one) and exits non-zero if any shared case's
//! `sim_cycles_per_sec` — simulated cycles per second of the case's
//! fastest timing round — dropped by more than the limit, or if a case
//! fails an absolute throughput floor:
//!
//! ```sh
//! git show HEAD:BENCH_simcore.json > /tmp/baseline.json
//! PC_BENCH_QUICK=1 cargo bench -p pc-bench --bench simcore
//! cargo run -p pc-bench --bin bench_gate -- \
//!     --baseline /tmp/baseline.json --current BENCH_simcore.json \
//!     --max-regress-pct 25 --min-cps /Coupled=300000 --min-cps /STS=1000000
//! ```
//!
//! `--min-cps PATTERN=N` (repeatable) requires every current case whose
//! id ends with `PATTERN` to sustain at least `N` simulated cycles per
//! second — an absolute floor that, unlike the relative gate, cannot be
//! eroded by a slow drift of the committed baseline.

use pc_bench::{floor_violations, parse_baseline, regressions, BaselineCase};

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --baseline FILE --current FILE [--max-regress-pct N] \
         [--min-cps PATTERN=N]...\n\
         exits 1 when any case in FILE(baseline) regressed by more than N% (default 25)\n\
         or any current case ending with PATTERN is below N sim cycles/sec"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every value of a repeatable flag, in command-line order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn load(path: &str) -> Vec<BaselineCase> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(baseline_path) = flag_value(&args, "--baseline") else {
        usage()
    };
    let Some(current_path) = flag_value(&args, "--current") else {
        usage()
    };
    let limit: f64 = flag_value(&args, "--max-regress-pct")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(25.0);
    let floors: Vec<(String, f64)> = flag_values(&args, "--min-cps")
        .into_iter()
        .map(|s| {
            let Some((pattern, min)) = s.split_once('=') else {
                usage()
            };
            let min: f64 = min.parse().unwrap_or_else(|_| usage());
            (pattern.to_string(), min)
        })
        .collect();

    let baseline = load(&baseline_path);
    let current = load(&current_path);

    for b in &baseline {
        match current.iter().find(|c| c.id == b.id) {
            Some(c) => {
                let ratio = if b.sim_cycles_per_sec > 0.0 {
                    c.sim_cycles_per_sec / b.sim_cycles_per_sec
                } else {
                    1.0
                };
                println!(
                    "{:<34} {:>12.0} -> {:>12.0} cycles/s  ({:+.1}%) [{}]",
                    b.id,
                    b.sim_cycles_per_sec,
                    c.sim_cycles_per_sec,
                    100.0 * (ratio - 1.0),
                    c.engine,
                );
            }
            None => println!("{:<34} missing from current run (skipped)", b.id),
        }
    }
    for c in &current {
        if !baseline.iter().any(|b| b.id == c.id) {
            println!("{:<34} new case, no baseline (skipped)", c.id);
        }
    }

    let mut failures = regressions(&baseline, &current, limit);
    failures.extend(floor_violations(&current, &floors));
    if failures.is_empty() {
        if floors.is_empty() {
            println!("bench_gate: ok — no case regressed more than {limit:.0}%");
        } else {
            println!(
                "bench_gate: ok — no case regressed more than {limit:.0}% \
                 and all {} floor(s) hold",
                floors.len()
            );
        }
    } else {
        for f in &failures {
            eprintln!("bench_gate: FAIL {f}");
        }
        std::process::exit(1);
    }
}
