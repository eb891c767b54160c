//! `pcsim` — command-line front end to the processor-coupling toolchain.
//!
//! ```text
//! pcsim run <matrix|fft|lud|model> [--mode seq|sts|ideal|tpe|coupled]
//!           [--interconnect full|tri|dual|single|bus] [--memory min|mem1|mem2]
//!           [--seed N] [--lockstep] [--priority] [--engine decoded|scan]
//! pcsim profile <matrix|fft|lud|model> <seq|sts|ideal|tpe|coupled>
//!           [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority]
//!           [--engine E] [--jsonl FILE] [--chrome FILE]
//!           # stall table + optional event sinks
//! pcsim explain <matrix|fft|lud|model> [--modes seq,coupled]
//!           [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority]
//!           # per-source-line stall attribution, per-loop rollup, mode diff
//! pcsim compile <source.pc> [--single]      # print the scheduled assembly
//! pcsim exec <source.pc> [--trace N]        # compile and run a source file
//! pcsim tables [table2|table3|fig5|fig6|fig7|fig8|ablations|registers|scaling]
//!              [--jobs N]                   # fan the sweep over N host threads
//! pcsim sweep [--benches a,b] [--modes m,..] [--interconnects i,..]
//!             [--memories mm,..] [--mixes base,2x3,..] [--full] [--seed N]
//!             [--jobs N] [--out FILE] [--shard k/n]
//!             [--cache-dir DIR] [--no-cache]
//!             [--telemetry] [--progress] [--metrics-out FILE]
//!             # batch engine: cross-product runs, JSONL rows; rerunning
//!             # with the same --out resumes from the rows it holds
//! pcsim metrics <matrix|fft|lud|model> [--mode M] [--interconnect I]
//!               [--memory MM] [--seed N] [--lockstep] [--priority] [--engine E]
//!               [--json|--prometheus] [--check-overhead PCT [--iters N]]
//!               # host-side phase profile of one run, or telemetry
//!               # overhead check (exit 1 when over budget)
//! ```

use coupling::experiments::{
    ablation, baseline, comm, interference, latency, mix, registers, scaling,
};
use coupling::{benchmarks, run_benchmark_observed, MachineMode, Observe};
use pc_compiler::ScheduleMode;
use pc_isa::{ArbitrationPolicy, InterconnectScheme, MachineConfig, MemoryModel, UnitClass};
use std::cell::RefCell;
use std::rc::Rc;

/// `print!` to stdout, except that a closed stdout (`pcsim … | head -1`)
/// ends the process quietly with exit 0 instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` with [`out!`]'s handling of a closed stdout.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("pcsim: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:
  pcsim run <matrix|fft|lud|model> [--mode M] [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority] [--engine decoded|scan]
  pcsim profile <matrix|fft|lud|model> <seq|sts|ideal|tpe|coupled> [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority] [--engine E] [--jsonl FILE] [--chrome FILE]
  pcsim explain <matrix|fft|lud|model> [--modes seq,coupled] [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority]
  pcsim compile <source.pc> [--single]
  pcsim exec <source.pc> [--trace N]
  pcsim tables [table2|table3|fig5|fig6|fig7|fig8|ablations|registers|scaling] [--jobs N]
  pcsim sweep [--benches a,b] [--modes m,..] [--interconnects i,..] [--memories mm,..] [--mixes base,2x3]
              [--full] [--seed N] [--jobs N] [--out FILE] [--shard k/n] [--cache-dir DIR] [--no-cache]
              [--telemetry] [--progress] [--metrics-out FILE]
  pcsim metrics <matrix|fft|lud|model> [--mode M] [--interconnect I] [--memory MM] [--seed N] [--lockstep] [--priority]
                [--engine E] [--json|--prometheus] [--check-overhead PCT [--iters N]]"
    );
    std::process::exit(2);
}

fn parse_mode(s: &str) -> MachineMode {
    match s {
        "seq" => MachineMode::Seq,
        "sts" => MachineMode::Sts,
        "ideal" => MachineMode::Ideal,
        "tpe" => MachineMode::Tpe,
        "coupled" => MachineMode::Coupled,
        _ => usage(),
    }
}

fn parse_scheme(s: &str) -> InterconnectScheme {
    match s {
        "full" => InterconnectScheme::Full,
        "tri" => InterconnectScheme::TriPort,
        "dual" => InterconnectScheme::DualPort,
        "single" => InterconnectScheme::SinglePort,
        "bus" => InterconnectScheme::SharedBus,
        _ => usage(),
    }
}

fn parse_memory(s: &str) -> MemoryModel {
    match s {
        "min" => MemoryModel::min(),
        "mem1" => MemoryModel::mem1(),
        "mem2" => MemoryModel::mem2(),
        _ => usage(),
    }
}

/// Checks a subcommand's `--flag`s before any work: each must be one of
/// `values` (flags taking a value) or `switches` (whitespace-separated
/// lists) and appear at most once, and a value flag must be followed by
/// a value, not by the end of the line or another `--flag`. Anything
/// else prints the usage text and exits 2.
fn check_flags(cmd: &str, args: &[String], values: &str, switches: &str) {
    let listed = |list: &str, a: &str| list.split_whitespace().any(|f| f == a);
    let mut seen = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            continue;
        }
        if seen.contains(&a) {
            eprintln!("pcsim: {cmd} flag {a} given twice");
            usage();
        }
        seen.push(a);
        if listed(switches, a) {
            continue;
        }
        if !listed(values, a) {
            eprintln!("pcsim: unknown {cmd} flag {a}");
            usage();
        }
        if !args.next().is_some_and(|v| !v.starts_with("--")) {
            eprintln!("pcsim: {cmd} flag {a} needs a value");
            usage();
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_engine(args: &[String]) -> coupling::EngineKind {
    flag_value(args, "--engine")
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("pcsim: {e}");
                usage()
            })
        })
        .unwrap_or_default()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "profile" => cmd_profile(rest),
        "explain" => cmd_explain(rest),
        "compile" => cmd_compile(rest),
        "exec" => cmd_exec(rest),
        "tables" => cmd_tables(rest),
        "sweep" => cmd_sweep(rest),
        "metrics" => cmd_metrics(rest),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("pcsim: {e}");
        std::process::exit(1);
    }
}

fn parse_bench(name: &str) -> coupling::Benchmark {
    match name {
        "matrix" => benchmarks::matrix(),
        "fft" => benchmarks::fft(),
        "lud" => benchmarks::lud(),
        "model" => benchmarks::model(),
        _ => usage(),
    }
}

fn parse_config(args: &[String]) -> Result<MachineConfig, Box<dyn std::error::Error>> {
    let mut config = MachineConfig::baseline();
    if let Some(s) = flag_value(args, "--interconnect") {
        config = config.with_interconnect(parse_scheme(&s));
    }
    if let Some(s) = flag_value(args, "--memory") {
        config = config.with_memory(parse_memory(&s));
    }
    if let Some(s) = flag_value(args, "--seed") {
        config = config.with_seed(s.parse()?);
    }
    if args.iter().any(|a| a == "--lockstep") {
        config = config.with_lockstep_issue(true);
    }
    if args.iter().any(|a| a == "--priority") {
        config = config.with_arbitration(ArbitrationPolicy::FixedPriority);
    }
    Ok(config)
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        "run",
        args,
        "--mode --interconnect --memory --seed --engine",
        "--lockstep --priority",
    );
    let Some(name) = args.first() else { usage() };
    let bench = parse_bench(name);
    let mode = flag_value(args, "--mode")
        .map(|s| parse_mode(&s))
        .unwrap_or(MachineMode::Coupled);
    let config = parse_config(args)?;
    let observe = Observe {
        engine: parse_engine(args),
        ..Observe::default()
    };
    let out = run_benchmark_observed(&bench, mode, config, &observe)?;
    outln!("{} / {}: validated ✓", bench.name, mode.label());
    outln!("engine      {}", out.engine.name());
    outln!("cycles      {}", out.stats.cycles);
    outln!("operations  {}", out.stats.ops_issued);
    outln!("threads     {}", out.stats.threads_spawned);
    outln!(
        "utilization FPU {:.2}  IU {:.2}  MEM {:.2}  BR {:.2}",
        out.stats.utilization(UnitClass::Float),
        out.stats.utilization(UnitClass::Integer),
        out.stats.utilization(UnitClass::Memory),
        out.stats.utilization(UnitClass::Branch),
    );
    outln!(
        "memory      {} refs, {:.1}% missed, {} parked",
        out.stats.mem.total(),
        100.0 * out.stats.mem.miss_rate(),
        out.stats.mem.parked,
    );
    outln!(
        "interconnect {} writes granted, {} denied",
        out.stats.xconn.grants,
        out.stats.xconn.denials
    );
    outln!("peak regs   {} per cluster", out.peak_registers);
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        "profile",
        args,
        "--interconnect --memory --seed --engine --jsonl --chrome",
        "--lockstep --priority",
    );
    let Some(name) = args.first() else { usage() };
    let bench = parse_bench(name);
    let Some(mode_arg) = args.get(1) else { usage() };
    let mode = parse_mode(mode_arg);
    let config = parse_config(args)?;
    let observe = Observe {
        profile: true,
        jsonl: flag_value(args, "--jsonl").map(Into::into),
        chrome: flag_value(args, "--chrome").map(Into::into),
        engine: parse_engine(args),
        ..Observe::default()
    };
    let out = run_benchmark_observed(&bench, mode, config, &observe)?;
    outln!("{} / {}: validated ✓", bench.name, mode.label());
    outln!(
        "engine {}   cycles {}   operations {}   threads {}\n",
        out.engine.name(),
        out.stats.cycles,
        out.stats.ops_issued,
        out.stats.threads_spawned
    );
    outln!("{}", coupling::report::stall_report(&out.stats));
    if let Some(p) = &observe.jsonl {
        outln!("event stream written to {}", p.display());
    }
    if let Some(p) = &observe.chrome {
        outln!(
            "chrome trace written to {} (open in Perfetto / chrome://tracing)",
            p.display()
        );
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        "explain",
        args,
        "--modes --interconnect --memory --seed",
        "--lockstep --priority",
    );
    let Some(name) = args.first() else { usage() };
    let bench = parse_bench(name);
    let modes: Vec<MachineMode> = flag_value(args, "--modes")
        .map(|s| s.split(',').map(|m| parse_mode(m.trim())).collect())
        .unwrap_or_else(|| vec![MachineMode::Seq, MachineMode::Coupled]);
    if modes.is_empty() {
        usage();
    }
    let config = parse_config(args)?;
    let mut tables = Vec::new();
    for &mode in &modes {
        let out = run_benchmark_observed(&bench, mode, config.clone(), &Observe::profiled())?;
        let src = bench.source(mode).map(str::to_string);
        outln!("{} / {}: validated ✓", bench.name, mode.label());
        outln!(
            "{}\n",
            coupling::report::source_report(&out.stats, &out.debug, src.as_deref())
        );
        tables.push((
            mode,
            coupling::report::source_table(&out.stats, &out.debug),
            src,
        ));
    }
    // Pairwise diff against the first mode — the per-line Table 4.
    let (base_mode, base_table, base_src) = &tables[0];
    for (mode, table, _) in &tables[1..] {
        outln!(
            "{}",
            coupling::report::source_diff(
                base_mode.label(),
                base_table,
                mode.label(),
                table,
                base_src.as_deref(),
            )
        );
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags("compile", args, "", "--single");
    let Some(path) = args.first() else { usage() };
    let src = std::fs::read_to_string(path)?;
    let mode = if args.iter().any(|a| a == "--single") {
        ScheduleMode::Single
    } else {
        ScheduleMode::Unrestricted
    };
    let out = pc_compiler::compile(&src, &MachineConfig::baseline(), mode)?;
    out!("{}", pc_asm::print_program(&out.program));
    eprintln!(
        "; {} segments, {} ops, peak {} registers/cluster",
        out.program.segments.len(),
        out.program.op_count(),
        out.peak_registers()
    );
    Ok(())
}

fn cmd_exec(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags("exec", args, "--trace", "");
    let Some(path) = args.first() else { usage() };
    let src = std::fs::read_to_string(path)?;
    let config = MachineConfig::baseline();
    let out = pc_compiler::compile(&src, &config, ScheduleMode::Unrestricted)?;
    let symbols: Vec<String> = out.program.symbols.keys().cloned().collect();
    let mut m = pc_sim::Machine::new(config.clone(), out.program)?;
    let trace_cycles: Option<u64> = flag_value(args, "--trace").map(|s| s.parse()).transpose()?;
    // The issue trace is the ring sink's issue events; unbounded, so the
    // window's first cycles are never evicted.
    let ring = Rc::new(RefCell::new(pc_sim::RingSink::new(usize::MAX)));
    if trace_cycles.is_some() {
        m.attach_probe(Box::new(Rc::clone(&ring)));
    }
    let stats = m.run(100_000_000)?;
    outln!(
        "ran {} cycles, {} ops, {} threads",
        stats.cycles,
        stats.ops_issued,
        stats.threads_spawned
    );
    for name in symbols {
        let vals = m.read_global(&name)?;
        let shown: Vec<String> = vals.iter().take(16).map(|v| v.to_string()).collect();
        let ell = if vals.len() > 16 { " …" } else { "" };
        outln!("{name} = [{}{ell}]", shown.join(", "));
    }
    if let Some(n) = trace_cycles {
        outln!(
            "\n{}",
            pc_sim::trace::render_interleaving(&config, &ring.borrow().issue_events(), 0..n)
        );
    }
    Ok(())
}

fn cmd_tables(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags("tables", args, "--jobs", "");
    let which = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("");
    const KEYS: [&str; 9] = [
        "table2",
        "table3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "ablations",
        "registers",
        "scaling",
    ];
    if !which.is_empty() && !KEYS.contains(&which) {
        eprintln!("pcsim: unknown table {which:?}; keys: {}", KEYS.join(", "));
        usage();
    }
    let jobs = match flag_value(args, "--jobs") {
        Some(s) => s.parse::<usize>()?.max(1),
        None => coupling::default_jobs(),
    };
    let want = |k: &str| which.is_empty() || which == k;
    let suite = coupling::benchmarks::all();
    if want("table2") || want("fig5") {
        // One run of the Table-2 grid feeds both tables.
        let r = baseline::run(&suite, jobs)?;
        if want("table2") {
            outln!("{}", r.table2().render());
        }
        if want("fig5") {
            outln!("{}", r.fig5().render());
        }
    }
    if want("table3") {
        // Two heterogeneous runs; not worth fanning out.
        outln!("{}", interference::run()?.render());
    }
    if want("fig6") {
        outln!("{}", comm::run(&suite, jobs)?.render());
    }
    if want("fig7") {
        outln!("{}", latency::run(&suite, jobs)?.render());
    }
    if want("fig8") {
        outln!("{}", mix::run(&suite, 4, jobs)?.render());
    }
    if want("ablations") {
        for study in ablation::run(&ablation::benches(), jobs)? {
            outln!("{}", study.render());
        }
    }
    if want("registers") {
        outln!("{}", registers::run(&suite, jobs)?.render());
    }
    if want("scaling") {
        outln!("{}", scaling::run(&scaling::SIZES, jobs)?.render());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    check_flags(
        "metrics",
        args,
        "--mode --interconnect --memory --seed --engine --check-overhead --iters",
        "--lockstep --priority --json --prometheus",
    );
    let Some(name) = args.first() else { usage() };
    let bench = parse_bench(name);
    let mode = flag_value(args, "--mode")
        .map(|s| parse_mode(&s))
        .unwrap_or(MachineMode::Coupled);
    let config = parse_config(args)?;
    let engine = parse_engine(args);

    if let Some(pct) = flag_value(args, "--check-overhead") {
        // CI guard: best-of-N wall time with host telemetry off vs on.
        // Min-of-N because scheduler noise only ever adds time, so the
        // minimum is the least-noisy estimate either way; the off/on
        // runs interleave so slow drift (thermal, noisy neighbors) hits
        // both sides alike instead of biasing whichever ran second.
        let pct: f64 = pct.parse()?;
        let iters: usize = flag_value(args, "--iters")
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(3);
        let observed = |telemetry: bool| Observe {
            engine,
            host_telemetry: telemetry,
            ..Observe::default()
        };
        let timed = |observe: &Observe| -> Result<u64, Box<dyn std::error::Error>> {
            let t0 = std::time::Instant::now();
            run_benchmark_observed(&bench, mode, config.clone(), observe)?;
            Ok(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64)
        };
        timed(&observed(false))?; // warmup: page in code and data
        let (mut off, mut on) = (u64::MAX, u64::MAX);
        for _ in 0..iters.max(1) {
            off = off.min(timed(&observed(false))?);
            on = on.min(timed(&observed(true))?);
        }
        let delta = (on as f64 - off as f64) * 100.0 / off.max(1) as f64;
        outln!(
            "telemetry overhead: off {:.3} ms, on {:.3} ms, delta {delta:+.2}% (budget {pct:.1}%)",
            off as f64 / 1e6,
            on as f64 / 1e6,
        );
        if delta > pct {
            return Err(format!("telemetry overhead {delta:+.2}% exceeds budget {pct:.1}%").into());
        }
        return Ok(());
    }

    let observe = Observe {
        engine,
        host_telemetry: true,
        ..Observe::default()
    };
    let out = run_benchmark_observed(&bench, mode, config, &observe)?;
    let profile = out
        .host_profile
        .ok_or("host profile missing despite telemetry being requested")?;
    if args.iter().any(|a| a == "--json") {
        outln!(
            "{}",
            pc_metrics::Snapshot::from_samples(profile.to_samples()).to_jsonl()
        );
    } else if args.iter().any(|a| a == "--prometheus") {
        out!(
            "{}",
            pc_metrics::Snapshot::from_samples(profile.to_samples()).render_prometheus("pcsim_")
        );
    } else {
        outln!(
            "{} / {}: validated ✓ (engine {}, {} cycles)\n",
            bench.name,
            mode.label(),
            out.engine.name(),
            out.stats.cycles
        );
        outln!("{}", profile.render_text());
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use coupling::sweep::{run_sweep, MemKind, Mix, SweepOptions, SweepSpec};
    check_flags(
        "sweep",
        args,
        "--benches --modes --interconnects --memories --mixes --seed --jobs --out --shard \
         --cache-dir --metrics-out",
        "--full --no-cache --telemetry --progress",
    );

    let mut spec = if args.iter().any(|a| a == "--full") {
        SweepSpec::full()
    } else {
        SweepSpec::table2()
    };
    let list = |flag: &str| {
        flag_value(args, flag).map(|s| {
            s.split(',')
                .map(|t| t.trim().to_string())
                .filter(|t| !t.is_empty())
                .collect::<Vec<String>>()
        })
    };
    if let Some(benches) = list("--benches") {
        spec.benches = benches;
    }
    if let Some(modes) = list("--modes") {
        spec.modes = modes.iter().map(|m| parse_mode(m)).collect();
    }
    if let Some(schemes) = list("--interconnects") {
        spec.interconnects = schemes.iter().map(|s| parse_scheme(s)).collect();
    }
    if let Some(mems) = list("--memories") {
        spec.memories = mems
            .iter()
            .map(|m| MemKind::parse(m).unwrap_or_else(|| usage()))
            .collect();
    }
    if let Some(mixes) = list("--mixes") {
        spec.mixes = mixes
            .iter()
            .map(|m| Mix::parse(m).unwrap_or_else(|| usage()))
            .collect();
    }
    if let Some(seed) = flag_value(args, "--seed") {
        spec.seed = seed.parse()?;
    }

    let jobs = match flag_value(args, "--jobs") {
        Some(s) => s.parse::<usize>()?.max(1),
        None => coupling::default_jobs(),
    };
    let shard = match flag_value(args, "--shard") {
        Some(s) => {
            let (k, n) = s.split_once('/').unwrap_or_else(|| usage());
            Some((k.parse::<usize>()?, n.parse::<usize>()?))
        }
        None => None,
    };
    let cache_dir = if args.iter().any(|a| a == "--no-cache") {
        None
    } else {
        Some(
            flag_value(args, "--cache-dir")
                .map(Into::into)
                .unwrap_or_else(|| std::path::PathBuf::from("target/sweep-cache")),
        )
    };
    let opts = SweepOptions {
        jobs,
        cache_dir,
        out: flag_value(args, "--out").map(Into::into),
        shard,
        telemetry: args.iter().any(|a| a == "--telemetry"),
        progress: args.iter().any(|a| a == "--progress"),
        metrics_out: flag_value(args, "--metrics-out").map(Into::into),
    };

    let summary = run_sweep(&spec, &opts)?;
    // Rows go to --out when given, otherwise to stdout; the one-line
    // JSON summary always ends stdout (the machine interface CI greps).
    if opts.out.is_none() {
        for row in &summary.rows {
            outln!("{}", row.to_jsonl());
        }
    }
    eprintln!(
        "sweep: {} cells ({} already done), ran {} [{} cached, {} fresh] \
         on {} jobs in {:.2}s",
        summary.total_cells,
        summary.prior_done,
        summary.rows.len(),
        summary.hits,
        summary.misses,
        summary.jobs,
        summary.wall_ns as f64 / 1e9,
    );
    outln!("{}", summary.to_json());
    Ok(())
}
