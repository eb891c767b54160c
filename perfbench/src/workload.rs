//! The workloads, their set-up, the untraced measured loop, the traced
//! per-layer run, and the correctness oracle both runs share.

use crate::layers::{self, Tally, TracedCompile};
use crate::report::Report;
use crate::stats::{median, tail_percentile, MIN_TAIL_SAMPLES};
use crate::trace::{self, Tracer};
use coupling::benchmarks::{self, Benchmark};
use coupling::mode::MachineMode;
use coupling::sweep::cache::sha256_hex;
use coupling::sweep::codec::{parse_json, stats_to_json, Json};
use coupling::sweep::{
    run_sweep, MemKind, Mix, ResultCache, SweepCell, SweepOptions, SweepRow, SweepSpec,
};
use pc_compiler::CompileOptions;
use pc_isa::InterconnectScheme;
use pc_sim::RunStats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named set of sweep inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Matrix, FFT and Model over every mode × interconnect × memory,
    /// into an empty result cache with JSONL rows and a manifest.
    GridCold,
    /// LUD over every mode × interconnect × memory, cache off.
    LudSim,
    /// The `GridCold` grid replayed against the cache set-up filled.
    GridWarm,
}

/// Grid size: the benchmark of record, or a few cells for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The grids `BENCHMARK.json` names.
    Full,
    /// A handful of cells per workload.
    Smoke,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::GridCold, Workload::LudSim, Workload::GridWarm];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::LudSim => "lud-sim",
            Workload::GridWarm => "grid-warm",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep spec the program receives; `seed` becomes
    /// [`SweepSpec::seed`] and drives the Mem1/Mem2 miss streams.
    pub fn spec(self, seed: u64, size: Size) -> SweepSpec {
        let grid = |benches: &[&str]| SweepSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            modes: MachineMode::all().to_vec(),
            interconnects: InterconnectScheme::all().to_vec(),
            memories: MemKind::all().to_vec(),
            mixes: vec![Mix::Baseline],
            seed,
        };
        match (self, size) {
            (Workload::GridCold | Workload::GridWarm, Size::Full) => {
                grid(&["matrix", "fft", "model"])
            }
            (Workload::LudSim, Size::Full) => grid(&["lud"]),
            (Workload::GridCold | Workload::GridWarm, Size::Smoke) => SweepSpec {
                modes: vec![MachineMode::Seq, MachineMode::Coupled],
                interconnects: vec![InterconnectScheme::Full],
                memories: vec![MemKind::Min, MemKind::Mem1],
                ..grid(&["matrix"])
            },
            (Workload::LudSim, Size::Smoke) => SweepSpec {
                modes: vec![MachineMode::Sts],
                interconnects: vec![InterconnectScheme::Full],
                memories: vec![MemKind::Mem1],
                ..grid(&["lud"])
            },
        }
    }
}

/// The committed default and held-out seeds, and the canonical-row
/// digest of each workload at the default seed (`seeds.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Seeds {
    /// Seed whose rows are pinned by the digests.
    pub default_seed: u64,
    /// Seed kept out of tuning; checked by validation and cross-checks.
    pub held_out_seed: u64,
    digests: Vec<(String, String)>,
}

impl Seeds {
    /// The copy compiled into the binary.
    ///
    /// # Errors
    /// A malformed `seeds.json`.
    pub fn committed() -> Result<Seeds, String> {
        Seeds::parse(include_str!("../seeds.json"))
    }

    /// Parses a `seeds.json` document.
    ///
    /// # Errors
    /// A description of the first missing field.
    pub fn parse(text: &str) -> Result<Seeds, String> {
        let v = parse_json(text)?;
        let seed = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("seeds.json: missing {k}"))
        };
        let digests = v
            .get("digests")
            .and_then(Json::members)
            .ok_or("seeds.json: missing digests")?
            .iter()
            .map(|(k, d)| Some((k.clone(), d.as_str()?.to_string())))
            .collect::<Option<Vec<_>>>()
            .ok_or("seeds.json: a digest is not a string")?;
        Ok(Seeds {
            default_seed: seed("default_seed")?,
            held_out_seed: seed("held_out_seed")?,
            digests,
        })
    }

    /// The committed digest of `w`'s rows at the default seed.
    pub fn digest(&self, w: Workload) -> Option<&str> {
        self.digests
            .iter()
            .find(|(k, _)| k == w.name())
            .map(|(_, d)| d.as_str())
    }
}

/// Rows as canonical JSONL lines: host-only fields (`wall_ns`,
/// `cached`) zeroed, so fresh, replayed and traced rows compare equal.
pub fn canonical_rows(rows: &[SweepRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            SweepRow {
                cached: false,
                wall_ns: 0,
                ..r.clone()
            }
            .to_jsonl()
        })
        .collect()
}

/// SHA-256 over the canonical lines, newline-joined.
pub fn rows_digest(lines: &[String]) -> String {
    sha256_hex(lines.join("\n").as_bytes())
}

/// Most traced passes one run makes: bounds the spans kept in memory
/// (and written out) on the sub-millisecond `grid-warm` cells.
pub const MAX_TRACED_PASSES: u64 = 50;

/// Set-ups per untraced run; their median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// How many of each cell's fastest times the latency percentiles use:
/// the fewest that give at least 100 samples, so that ten lie beyond
/// the p90 (one on the 225-cell grids, two on the 75 LUD cells).
pub fn fastest_kept(cells: usize) -> usize {
    (10 * MIN_TAIL_SAMPLES).div_ceil(cells.max(1))
}

/// Sweep workers in the set-up and measured passes. With two workers
/// on a two-CPU host, a pass's length hung on how the few long cells
/// (the 20–60 ms Ideal compiles, the 160 ms LUD cells) fell between
/// them, and on the CPU the engine's own thread then lacked; one worker
/// makes a pass the sum of its cells.
pub const JOBS: usize = 1;

/// Workers in the traced run's telemetry pass: the host's parallelism,
/// at most two, so the pool's dispatch and stealing show.
pub fn pool_jobs() -> usize {
    coupling::default_jobs().min(2)
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which inputs.
    pub workload: Workload,
    /// Sweep seed.
    pub seed: u64,
    /// Measured seconds (the loop ends at the first pass boundary after).
    pub seconds: f64,
    /// Grid size.
    pub size: Size,
    /// Scratch directory for caches and row files; removed by the caller.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Committed canonical-row digest the first pass must match (set at
    /// the default seed only).
    pub digest: Option<String>,
}

impl Plan {
    /// A full-size plan with no span output and no pinned digest.
    pub fn new(workload: Workload, seed: u64, seconds: f64, work: PathBuf) -> Plan {
        Plan {
            workload,
            seed,
            seconds,
            size: Size::Full,
            work,
            trace_out: None,
            digest: None,
        }
    }

    fn spec(&self) -> SweepSpec {
        self.workload.spec(self.seed, self.size)
    }

    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("clearing {}: {e}", dir.display()))
            }
            _ => {}
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Sweep options for a pass writing into `dir`. Cold grid passes
    /// get a fresh cache there plus JSONL rows and a manifest; `grid-warm`
    /// replays read the filled `warm` cache and write no row files (the
    /// per-row manifest rewrites are most of a warm pass and their disk
    /// latency swings twofold between runs, so they are measured on
    /// `grid-cold` only); `lud-sim` uses neither.
    fn options(&self, dir: &Path, warm: Option<&Path>) -> SweepOptions {
        let (cache_dir, out) = match (self.workload, warm) {
            (Workload::LudSim, _) => (None, None),
            (_, Some(warm)) => (Some(warm.to_path_buf()), None),
            (_, None) => (Some(dir.join("cache")), Some(dir.join("rows.jsonl"))),
        };
        SweepOptions {
            jobs: JOBS,
            cache_dir,
            out,
            ..SweepOptions::default()
        }
    }

    /// One set-up: a cold pass over the grid in a fresh directory. For
    /// `grid-warm` it fills the cache the measured passes read; for the
    /// others it loads the suite and warms the host before timing.
    fn setup(&self, oracle: &mut Oracle, name: &str) -> Result<(f64, PathBuf), String> {
        let dir = self.fresh_dir(name)?;
        let opts = self.options(&dir, None);
        let t = Instant::now();
        let summary = run_sweep(&self.spec(), &opts);
        let secs = t.elapsed().as_secs_f64();
        let summary = summary.map_err(|e| format!("set-up sweep: {e}"))?;
        oracle.rows("set-up pass", &summary.rows);
        Ok((secs, dir))
    }

    /// The cache the measured passes read (`grid-warm` only).
    fn warm_cache(&self, setup_dir: &Path) -> Option<PathBuf> {
        (self.workload == Workload::GridWarm).then(|| setup_dir.join("cache"))
    }
}

/// Cross-checks every pass's rows against the first pass, and the first
/// pass against the committed digest at the default seed.
#[derive(Debug)]
struct Oracle {
    workload: Workload,
    /// The committed digest to check the first pass against, if any.
    digest: Option<String>,
    reference: Vec<SweepRow>,
    canonical: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Oracle {
    fn new(plan: &Plan) -> Oracle {
        Oracle {
            workload: plan.workload,
            digest: plan.digest.clone(),
            reference: Vec::new(),
            canonical: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, cells: u64, what: &str) {
        self.failed += cells;
        eprintln!("perfbench: {}: {what}", self.workload.name());
    }

    /// Checks `rows` against the reference (the first rows seen).
    fn rows(&mut self, what: &str, rows: &[SweepRow]) {
        self.attempted += rows.len() as u64;
        let lines = canonical_rows(rows);
        if self.canonical.is_empty() {
            if let Some(want) = self.digest.clone() {
                let got = rows_digest(&lines);
                if got != want {
                    self.fail(
                        rows.len() as u64,
                        &format!("{what}: row digest {got} != committed {want:?}"),
                    );
                }
            }
            self.reference = rows.to_vec();
            self.canonical = lines;
            return;
        }
        let mismatched = if lines.len() == self.canonical.len() {
            lines
                .iter()
                .zip(&self.canonical)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            lines.len().max(self.canonical.len())
        };
        if mismatched > 0 {
            self.fail(
                mismatched as u64,
                &format!("{what}: {mismatched} rows differ from the first pass"),
            );
        }
    }

    /// Checks a pass's cache use: all hits on `grid-warm`, none elsewhere.
    fn cache_use(&mut self, what: &str, rows: &[SweepRow]) {
        let hits = rows.iter().filter(|r| r.cached).count();
        let want = match self.workload {
            Workload::GridWarm => rows.len(),
            Workload::GridCold | Workload::LudSim => 0,
        };
        if hits != want {
            self.fail(
                hits.abs_diff(want) as u64,
                &format!("{what}: {hits} cache hits, expected {want}"),
            );
        }
    }

    fn report(&self) -> Report {
        Report {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
///
/// # Errors
/// No `/proc/self/status` or no `VmHWM` line in it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced run: set up [`SETUP_REPS`] times, then run measured
/// passes until `seconds` have been measured and every cell has run at
/// least [`fastest_kept`] times. Reports every end-to-end metric.
///
/// Interference from the rest of the host only ever adds time, and on a
/// shared two-CPU host it comes in bursts that slow whole passes by up
/// to 40% for seconds to minutes, so a run reports what its calmest
/// stretches measured: throughput at the fastest pass, and latency
/// percentiles over each cell's fastest times.
///
/// # Errors
/// A sweep that fails outright, or scratch-directory I/O.
pub fn run_untraced(plan: &Plan) -> Result<Report, String> {
    let spec = plan.spec();
    let cells = spec.cells()?.len();
    let keep = fastest_kept(cells);
    let mut oracle = Oracle::new(plan);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_dir = PathBuf::new();
    for r in 0..SETUP_REPS {
        let (secs, dir) = plan.setup(&mut oracle, &format!("setup{r}"))?;
        setup_s.push(secs);
        if r > 0 {
            let _ = std::fs::remove_dir_all(&setup_dir);
        }
        setup_dir = dir;
    }
    let warm = plan.warm_cache(&setup_dir);

    let mut fastest_pass = f64::INFINITY;
    let mut passes = 0;
    // Each cell's `keep` fastest times so far, in ns, ascending.
    let mut fastest: Vec<Vec<u64>> = vec![Vec::with_capacity(keep + 1); cells];
    let mut elapsed = 0.0;
    while elapsed < plan.seconds || passes < keep {
        let dir = plan.fresh_dir("pass")?;
        let opts = plan.options(&dir, warm.as_deref());
        let t = Instant::now();
        let summary = run_sweep(&spec, &opts);
        let secs = t.elapsed().as_secs_f64();
        fastest_pass = fastest_pass.min(secs);
        passes += 1;
        elapsed += secs;
        let summary = summary.map_err(|e| format!("measured sweep: {e}"))?;
        oracle.rows("measured pass", &summary.rows);
        oracle.cache_use("measured pass", &summary.rows);
        for r in &summary.rows {
            let times = &mut fastest[r.cell.index];
            let at = times.partition_point(|&t| t <= r.wall_ns);
            times.insert(at, r.wall_ns);
            times.truncate(keep);
        }
    }
    let latency: Vec<f64> = fastest
        .concat()
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    eprintln!(
        "perfbench: {}: {passes} passes over {elapsed:.2} s measured (fastest {fastest_pass:.4} s); \
         latency percentiles over {} samples, the {keep} fastest of each of {cells} cells",
        plan.workload.name(),
        latency.len(),
    );

    let guest = &oracle.reference;
    let ops: u64 = guest.iter().map(|r| r.stats.ops_issued).sum();
    let guest_cycles: u64 = guest.iter().map(|r| r.stats.cycles).sum();
    let mut report = oracle.report();
    report.push("cells_per_s", guest.len() as f64 / fastest_pass, "cells/s");
    report.push("cell_ms_p50", tail_percentile(&latency, 0.5)?, "ms");
    report.push("cell_ms_p90", tail_percentile(&latency, 0.9)?, "ms");
    report.push("guest_ops_per_s", ops as f64 / fastest_pass, "ops/s");
    report.push("guest_cycles", guest_cycles as f64, "cycles");
    report.push("setup_s", median(&setup_s).ok_or("no set-up")?, "s");
    report.push("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(report)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of compiles whose `(bench, mode)` — hence source and schedule
/// restriction — and emitted program repeat an earlier compile's.
pub fn repeat_share(compiles: &[(&SweepCell, &TracedCompile)]) -> f64 {
    let repeats = compiles
        .iter()
        .enumerate()
        .filter(|(i, (cell, c))| {
            compiles[..*i].iter().any(|(earlier, e)| {
                (&earlier.bench, earlier.mode) == (&cell.bench, cell.mode) && e.program == c.program
            })
        })
        .count();
    ratio(repeats as f64, compiles.len() as f64)
}

/// The traced run: one set-up, a telemetry pass (pool and engine
/// figures), then untraced and traced serial passes in turn for
/// `seconds` (at most [`MAX_TRACED_PASSES`] pairs), then one untimed
/// pass with the simulator's `HostProfile` on over the cells the traced
/// passes compiled. Reports every per-layer metric, per pass over the
/// grid.
///
/// # Errors
/// A sweep or traced cell that fails outright, or scratch I/O.
pub fn run_traced(plan: &Plan) -> Result<Report, String> {
    let spec = plan.spec();
    let cells = spec.cells()?;
    let mut oracle = Oracle::new(plan);
    let (_, setup_dir) = plan.setup(&mut oracle, "setup")?;
    let warm = plan.warm_cache(&setup_dir);

    let dir = plan.fresh_dir("telemetry")?;
    let opts = SweepOptions {
        telemetry: true,
        jobs: pool_jobs(),
        ..plan.options(&dir, warm.as_deref())
    };
    let tel = run_sweep(&spec, &opts).map_err(|e| format!("telemetry sweep: {e}"))?;
    oracle.rows("telemetry pass", &tel.rows);
    oracle.cache_use("telemetry pass", &tel.rows);
    let snap = tel
        .telemetry
        .as_ref()
        .ok_or("telemetry pass has no snapshot")?;

    let suite = benchmarks::all();
    let benches: Vec<&Benchmark> = cells
        .iter()
        .map(|c| {
            suite
                .iter()
                .find(|b| b.name.to_lowercase() == c.bench)
                .ok_or_else(|| format!("unknown benchmark {}", c.bench))
        })
        .collect::<Result<_, _>>()?;
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut passes = 0u64;
    let mut traced_s = 0.0;
    let mut untraced_s = 0.0;
    let mut first_compiles: Vec<(usize, TracedCompile)> = Vec::new();
    let mut first_stored: Vec<RunStats> = Vec::new();
    let mut cache_root: Option<PathBuf> = None;
    while passes == 0 || (traced_s + untraced_s < plan.seconds && passes < MAX_TRACED_PASSES) {
        // Each traced pass follows an untraced serial pass without row
        // files — the same work — so host drift hits both alike and the
        // wall-time difference is the tracing overhead.
        let dir = plan.fresh_dir("serial")?;
        let opts = SweepOptions {
            out: None,
            ..plan.options(&dir, warm.as_deref())
        };
        let t = Instant::now();
        let serial = run_sweep(&spec, &opts);
        untraced_s += t.elapsed().as_secs_f64();
        let serial = serial.map_err(|e| format!("serial sweep: {e}"))?;
        oracle.rows("untraced serial pass", &serial.rows);
        oracle.cache_use("untraced serial pass", &serial.rows);

        let cache = match (plan.workload, &warm) {
            (Workload::LudSim, _) => None,
            (_, Some(warm)) => Some(warm.clone()),
            (_, None) => Some(plan.fresh_dir("traced")?.join("cache")),
        }
        .map(ResultCache::open)
        .transpose()
        .map_err(|e| format!("opening cache: {e}"))?;
        let t = Instant::now();
        let mut outcomes = Vec::with_capacity(cells.len());
        for (cell, bench) in cells.iter().zip(&benches) {
            outcomes.push(layers::run_cell(
                &mut tracer,
                cell,
                bench,
                cache.as_ref(),
                &mut tally,
            )?);
        }
        traced_s += t.elapsed().as_secs_f64();
        let mut rows = Vec::with_capacity(cells.len());
        for ((cell, bench), o) in cells.iter().zip(&benches).zip(outcomes) {
            if passes == 0 {
                if let (Some(cache), true) = (&cache, o.cached) {
                    if !layers::check_lookup(cell, bench, cache, &o) {
                        oracle.fail(1, &format!("traced lookup of {} differs", cell.id()));
                    }
                }
                if let Some(c) = o.compiled {
                    first_compiles.push((cell.index, c));
                }
                if cache.is_some() && !o.cached {
                    first_stored.push(o.stats.clone());
                }
            }
            rows.push(SweepRow {
                cell: cell.clone(),
                stats: o.stats,
                peak_registers: o.peak_registers,
                cached: o.cached,
                wall_ns: 0,
            });
        }
        oracle.rows("traced pass", &rows);
        oracle.cache_use("traced pass", &rows);
        cache_root = cache.map(|c| c.root().to_path_buf());
        passes += 1;
    }

    // The simulator's phase profile, from one more untimed simulation of
    // every cell the first traced pass compiled.
    for (index, compiled) in &first_compiles {
        layers::profile_cell(&cells[*index], benches[*index], compiled, &mut tally)
            .map_err(|e| format!("profiling {}: {e}", cells[*index].id()))?;
    }
    let (entry_bytes, entries) = match &cache_root {
        Some(root) => layers::cache_entry_bytes(root)
            .map_err(|e| format!("listing {}: {e}", root.display()))?,
        None => (0, 0),
    };

    // The pass-by-pass compile must equal `compile_with_options`.
    for (index, traced) in &first_compiles {
        let cell = &cells[*index];
        let src = benches[*index].source(cell.mode).unwrap_or_default();
        let same = pc_compiler::compile_with_options(
            src,
            &cell.config(),
            cell.mode.schedule_mode(),
            CompileOptions::default(),
        )
        .is_ok_and(|reference| traced.matches(&reference));
        if !same {
            oracle.fail(1, &format!("traced compile of {} differs", cell.id()));
        }
    }
    let compiles: Vec<(&SweepCell, &TracedCompile)> = first_compiles
        .iter()
        .map(|(i, c)| (&cells[*i], c))
        .collect();
    let repeat = repeat_share(&compiles);

    // `ResultCache::store` encodes internally, so the traced passes leave
    // the encode inside `cache.store`; it is timed apart here, once per
    // traced pass, on the stats the first pass stored.
    let mut encode_ms = 0.0;
    if !first_stored.is_empty() {
        let t = Instant::now();
        for _ in 0..passes {
            for stats in &first_stored {
                std::hint::black_box(stats_to_json(stats));
            }
        }
        encode_ms = t.elapsed().as_secs_f64() * 1e3;
    }

    let spans = tracer.spans();
    if let Some(path) = &plan.trace_out {
        trace::write_jsonl(spans, path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let by_name = trace::self_time_by_name(spans);
    let p = passes as f64;
    let self_ms = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6 / p)
    };
    let calls = |name: &str| by_name.get(name).map_or(0.0, |&(n, _)| n as f64 / p);
    let cell_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::duration_ns)
        .sum();
    let guest = &oracle.reference;
    let sum = |f: fn(&SweepRow) -> u64| guest.iter().map(f).sum::<u64>() as f64;
    let refs = sum(|r| r.stats.mem.total());
    let busy_ns = snap.labeled_total("pool_busy_ns") as f64;
    let workers = pool_jobs().clamp(1, cells.len().max(1)) as f64;

    let mut r = oracle.report();
    r.push("compiler.calls", calls("compile"), "count");
    for pass in ["front", "lower", "opt", "sched", "validate"] {
        r.push(
            &format!("compiler.{pass}_ms"),
            self_ms(&format!("compiler.{pass}")),
            "ms",
        );
    }
    r.push("compiler.assemble_ms", self_ms("compile"), "ms");
    r.push("compiler.ir_ops_in", tally.ir_ops_in as f64 / p, "count");
    r.push("compiler.ir_ops_out", tally.ir_ops_out as f64 / p, "count");
    r.push(
        "compiler.emitted_ops",
        tally.emitted_ops as f64 / p,
        "count",
    );
    r.push("compiler.repeat_share", repeat, "ratio");
    r.push("decode.calls", calls("decode"), "count");
    r.push("decode.ms", self_ms("decode"), "ms");
    r.push("decode.ops", tally.decoded_ops as f64 / p, "count");
    for layer in ["build", "setup", "run", "check"] {
        r.push(
            &format!("sim.{layer}_ms"),
            self_ms(&format!("sim.{layer}")),
            "ms",
        );
    }
    let run_ns = by_name.get("sim.run").map_or(0, |&(_, ns)| ns) as f64;
    let cycles = tally.sim_cycles as f64;
    r.push("sim.ns_per_guest_cycle", ratio(run_ns, cycles), "ns");
    // One profiled pass, so these are per pass as they stand.
    let profiled_cycles = tally.profiled_cycles as f64;
    for phase in [
        "issue",
        "wake_repair",
        "pipe_completion",
        "mem_completion",
        "writeback",
        "advance",
        "bulk_skip",
    ] {
        let ns = tally.phase_ns.get(phase).copied().unwrap_or(0) as f64;
        r.push(&format!("sim.phase.{phase}_ms"), ns / 1e6, "ms");
    }
    r.push("sim.steps", tally.steps as f64, "count");
    r.push(
        "sim.bitmask_rebuilds_per_cycle",
        ratio(tally.bitmask_rebuilds as f64, profiled_cycles),
        "ratio",
    );
    r.push(
        "sim.wake_repairs_per_cycle",
        ratio(tally.wake_repairs as f64, profiled_cycles),
        "ratio",
    );
    r.push(
        "sim.idle_cycles_skipped",
        tally.idle_cycles_skipped as f64,
        "cycles",
    );
    r.push("memsys.refs", refs, "count");
    r.push(
        "memsys.miss_rate",
        ratio(sum(|r| r.stats.mem.misses), refs),
        "ratio",
    );
    r.push("memsys.parked", sum(|r| r.stats.mem.parked), "count");
    r.push("xconn.grants", sum(|r| r.stats.xconn.grants), "count");
    r.push("xconn.denials", sum(|r| r.stats.xconn.denials), "count");
    r.push("cache.key_ms", self_ms("cache.key"), "ms");
    r.push("cache.lookup_ms", self_ms("cache.lookup"), "ms");
    r.push("cache.store_ms", self_ms("cache.store"), "ms");
    r.push("cache.hits", tally.hits as f64 / p, "count");
    r.push("cache.misses", tally.misses as f64 / p, "count");
    r.push(
        "cache.hit_rate",
        ratio(tally.hits as f64, (tally.hits + tally.misses) as f64),
        "ratio",
    );
    r.push(
        "cache.entry_bytes",
        ratio(entry_bytes as f64, entries as f64),
        "bytes",
    );
    r.push("codec.encode_ms", encode_ms / p, "ms");
    r.push("codec.decode_ms", self_ms("codec.decode"), "ms");
    r.push(
        "pool.busy_share",
        ratio(busy_ns, snap.labeled_total("pool_wall_ns") as f64),
        "ratio",
    );
    r.push(
        "pool.steals",
        snap.labeled_total("pool_steals") as f64,
        "count",
    );
    r.push(
        "engine.reorder_peak",
        snap.value("reorder_buffer_depth_peak").unwrap_or(0) as f64,
        "count",
    );
    r.push(
        "engine.overhead_ms",
        (tel.wall_ns as f64 - busy_ns / workers) / 1e6,
        "ms",
    );
    r.push("trace.overhead_ms", (traced_s - untraced_s) / p * 1e3, "ms");
    r.push(
        "trace.uncovered_ms",
        (traced_s * 1e9 - cell_ns as f64) / 1e6 / p,
        "ms",
    );
    r.push("trace.cell_self_ms", self_ms("cell"), "ms");
    r.push("trace.passes", p, "count");
    r.push("trace.spans", spans.len() as f64 / p, "count");
    Ok(r)
}

/// Canonical-row digest of `w` at `seed`, from one untimed sweep.
///
/// # Errors
/// The sweep failing.
pub fn digest_of(w: Workload, seed: u64) -> Result<String, String> {
    let summary = run_sweep(
        &w.spec(seed, Size::Full),
        &SweepOptions {
            jobs: pool_jobs(),
            ..SweepOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(rows_digest(&canonical_rows(&summary.rows)))
}
