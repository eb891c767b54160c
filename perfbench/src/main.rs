//! Command line for the benchmark of record.
//!
//! ```text
//! perfbench --workload <grid-cold|lud-sim|grid-warm> --seed N --seconds S --trace 0|1
//! perfbench steady [--runs N] [--seed N] [--workloads a,b]
//! perfbench digest [--seed N]
//! ```
//!
//! Run from the repository root; scratch files go under
//! `.perfbench_work/`, and the last line of standard output is the
//! result object.

use perfbench::report::Report;
use perfbench::steady::{self, Summary};
use perfbench::workload::{self, Plan, Seeds, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::str::FromStr;

const USAGE: &str = "usage:
  perfbench --workload <grid-cold|lud-sim|grid-warm> --seed N --seconds S --trace 0|1
  perfbench steady [--runs N] [--seed N] [--workloads a,b]
  perfbench digest [--seed N]";

/// Scratch root, relative to the repository root the command runs in.
const WORK_ROOT: &str = ".perfbench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => cmd_steady(&args[1..]),
        Some("digest") => cmd_digest(&args[1..]),
        _ => cmd_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs, refusing flags outside `known`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(flag.as_str(), value.as_str());
    }
    Ok(out)
}

fn value<T: FromStr>(flags: &BTreeMap<&str, &str>, name: &str, default: T) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{name}: cannot parse {v:?}"))
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = f.get("--workload").ok_or(USAGE)?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seeds = Seeds::committed()?;
    let seed = value(&f, "--seed", seeds.default_seed)?;
    let seconds: f64 = value(&f, "--seconds", 10.0)?;
    let traced = match value(&f, "--trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let work = PathBuf::from(WORK_ROOT).join(format!("run-{}-{name}", std::process::id()));
    let mut plan = Plan::new(w, seed, seconds, work.clone());
    if seed == seeds.default_seed {
        plan.digest = Some(seeds.digest(w).unwrap_or_default().to_string());
    }
    let result = if traced {
        plan.trace_out = Some(
            PathBuf::from(WORK_ROOT)
                .join("traces")
                .join(format!("{name}-s{seed}.spans.jsonl")),
        );
        workload::run_traced(&plan)
    } else {
        workload::run_untraced(&plan)
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    println!("{}", report.to_json()?);
    Ok(report.correct)
}

fn cmd_digest(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--seed"])?;
    let seed = value(&f, "--seed", Seeds::committed()?.default_seed)?;
    for w in Workload::ALL {
        println!("{} {}", w.name(), workload::digest_of(w, seed)?);
    }
    Ok(true)
}

/// One child run of this binary, as the benchmark command runs it.
fn child_run(w: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match Report::from_json(last) {
        Ok(r) if out.status.success() && r.correct => Ok(r),
        _ => Err(format!(
            "{} seed {seed} failed ({}):\n{}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Two interleaved sets of runs per workload, all at one seed and at
/// `BENCHMARK.json`'s `run_seconds`, so the sets differ only by host
/// noise.
fn cmd_steady(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--runs", "--seed", "--workloads"])?;
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = steady::bounds(&manifest)?;
    let seconds = steady::run_seconds(&manifest)?;
    let runs: u64 = value(&f, "--runs", 10)?;
    let seed: u64 = value(&f, "--seed", Seeds::committed()?.default_seed)?;
    let names = match f.get("--workloads") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => steady::workloads(&manifest)?,
    };
    let workloads: Vec<Workload> = names
        .iter()
        .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
        .collect::<Result<_, _>>()?;
    if runs < 2 {
        return Err("--runs must be at least 2 to give quartiles".to_string());
    }

    // values[workload][set][metric] = one value per run.
    let mut values: Vec<[BTreeMap<String, Vec<f64>>; 2]> =
        vec![Default::default(); workloads.len()];
    for i in 0..runs {
        for (wi, &w) in workloads.iter().enumerate() {
            // Alternate which set goes first so drift hits both alike.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let report = child_run(w, seed, seconds)?;
                for m in report.metrics {
                    values[wi][set].entry(m.name).or_default().push(m.value);
                }
                eprintln!("steady: {} run {} set {} done", w.name(), i + 1, set + 1);
            }
        }
    }

    let mut all_agree = true;
    for (wi, w) in workloads.iter().enumerate() {
        println!(
            "\n{} ({runs} runs per set of {seconds} s, seed {seed})",
            w.name()
        );
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>8} | {:>12} {:>8} | {:>7} {:>6}  verdict",
            "metric", "A q1", "A median", "A q3", "A sprd", "B median", "B sprd", "shift", "bound"
        );
        for b in &bounds {
            let set = |s: usize| values[wi][s].get(&b.name).and_then(|v| Summary::of(v));
            let (Some(a), Some(bs)) = (set(0), set(1)) else {
                println!("{:<16} missing from the runs", b.name);
                all_agree = false;
                continue;
            };
            let ok = steady::agree(b, &a, &bs);
            all_agree &= ok;
            println!(
                "{:<16} {:>12.4} {:>12.4} {:>12.4} {:>8.4} | {:>12.4} {:>8.4} | {:>7.4} {:>6.3}  {}",
                b.name,
                a.q1,
                a.median,
                a.q3,
                a.spread(),
                bs.median,
                bs.spread(),
                steady::worsening(&a, &bs, b.higher_is_better),
                b.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    println!(
        "\nsteady: {}",
        if all_agree {
            "both sets agree within the bounds"
        } else {
            "sets disagree"
        }
    );
    Ok(all_agree)
}
