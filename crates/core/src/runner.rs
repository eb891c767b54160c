//! Compile → simulate → validate, for one benchmark under one machine
//! mode and configuration.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use pc_compiler::{CompileError, ScheduleMode, SegmentInfo};
use pc_isa::{DebugMap, MachineConfig, Program};
use pc_sim::probe::{ChromeTraceSink, Fanout, JsonlSink};
use pc_sim::{EngineKind, Machine, RunStats, SimError};
use std::fmt;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;

/// Generous default cycle budget (the largest benchmark, LUD under Mem2,
/// runs well under a million cycles).
pub const CYCLE_LIMIT: u64 = 20_000_000;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator statistics (cycle count, utilizations, probes, …).
    pub stats: RunStats,
    /// Compiler diagnostics per segment.
    pub segments: Vec<SegmentInfo>,
    /// Peak per-cluster register count over all segments.
    pub peak_registers: u32,
    /// Source-provenance side table from the compiler (empty for
    /// programs built without debug info — reports then fall back to
    /// "no provenance"). Shared with the [`CompiledBenchmark`] it came
    /// from.
    pub debug: Arc<DebugMap>,
    /// The issue engine that actually produced the run. May differ from
    /// the requested engine only when the machine forces a fallback
    /// (more than 64 units clamps to the scan engine).
    pub engine: EngineKind,
    /// Host-side phase profile ([`Observe::host_telemetry`] runs only):
    /// where the *host's* time went while simulating, as opposed to
    /// `stats`, which says where the guest's cycles went.
    pub host_profile: Option<pc_sim::HostProfile>,
}

/// Failures of the compile/simulate/validate pipeline.
#[derive(Debug)]
pub enum RunError {
    /// The benchmark has no source for the requested mode (e.g. Ideal
    /// LUD).
    Unsupported {
        /// Benchmark name.
        bench: &'static str,
        /// The mode without a source variant.
        mode: MachineMode,
    },
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed (deadlock, runtime error, cycle limit).
    Sim(SimError),
    /// The run finished but produced numerically wrong results.
    Check(String),
    /// A trace-sink file could not be created or written.
    Io(std::io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unsupported { bench, mode } => {
                write!(f, "{bench} has no {mode} variant")
            }
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::Check(msg) => write!(f, "validation failed: {msg}"),
            RunError::Io(e) => write!(f, "trace sink error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Runs `bench` under `mode` on `config`, validating the numerical output
/// against the benchmark's Rust reference.
///
/// # Errors
/// See [`RunError`].
pub fn run_benchmark(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
) -> Result<RunOutcome, RunError> {
    run_benchmark_with_options(bench, mode, config, pc_compiler::CompileOptions::default())
}

/// [`run_benchmark`] with explicit compiler options (used by the
/// optimizer ablation and differential tests).
///
/// # Errors
/// See [`RunError`].
pub fn run_benchmark_with_options(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
    options: pc_compiler::CompileOptions,
) -> Result<RunOutcome, RunError> {
    run_benchmark_full(bench, mode, config, options, &Observe::default())
}

/// Observability requests for [`run_benchmark_observed`]: what to record
/// while the benchmark runs. The default observes nothing (identical to
/// [`run_benchmark`]).
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Fold stall attribution into [`RunStats::stalls`]
    /// (see `coupling::report::stall_report`).
    pub profile: bool,
    /// Stream one JSON event per line to this file.
    pub jsonl: Option<PathBuf>,
    /// Write a Chrome `trace_event` array (Perfetto-loadable) to this
    /// file.
    pub chrome: Option<PathBuf>,
    /// Which issue engine to simulate with. Both engines produce
    /// bit-identical results; the decoded default is the fast one and
    /// scan is the independent oracle.
    pub engine: EngineKind,
    /// Collect the host-side phase profile (sampled wall timers and
    /// wake-repair event counters; see [`pc_sim::HostProfile`]). Purely
    /// host-side — the simulated results are bit-identical either way.
    pub host_telemetry: bool,
}

impl Observe {
    /// Stall profiling only, no event files.
    pub fn profiled() -> Self {
        Observe {
            profile: true,
            ..Observe::default()
        }
    }
}

/// [`run_benchmark`] with observability: stall profiling and/or
/// structured trace sinks. Observation never changes the simulated
/// schedule — the returned stats differ from an unobserved run only in
/// [`RunStats::stalls`].
///
/// # Errors
/// See [`RunError`]; sink files that cannot be created surface as
/// [`RunError::Io`].
pub fn run_benchmark_observed(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
    observe: &Observe,
) -> Result<RunOutcome, RunError> {
    run_benchmark_full(
        bench,
        mode,
        config,
        pc_compiler::CompileOptions::default(),
        observe,
    )
}

fn run_benchmark_full(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
    options: pc_compiler::CompileOptions,
    observe: &Observe,
) -> Result<RunOutcome, RunError> {
    let compiled = compile_benchmark(bench, mode, &config, options)?;
    run_compiled(bench, &compiled, config, observe)
}

/// A benchmark compiled for one mode and compile target: everything a run
/// needs except the runtime half of the configuration. Cheap to share —
/// a sweep compiles each distinct (source, schedule mode, compile target)
/// once and simulates the image under every configuration that shares it.
#[derive(Debug, Clone)]
pub struct CompiledBenchmark {
    /// The executable program.
    pub program: Arc<Program>,
    /// Compiler diagnostics per segment.
    pub info: Vec<SegmentInfo>,
    /// Source-provenance side table.
    pub debug: Arc<DebugMap>,
    /// Peak per-cluster register count over all segments.
    pub peak_registers: u32,
}

impl CompiledBenchmark {
    /// Compiles `src` under `schedule` against `config`. The compiler
    /// reads only [`MachineConfig::compile_target`], so the image may be
    /// run under any configuration with the same target.
    ///
    /// # Errors
    /// Syntax, type, or scheduling errors.
    pub fn compile(
        src: &str,
        schedule: ScheduleMode,
        config: &MachineConfig,
        options: pc_compiler::CompileOptions,
    ) -> Result<CompiledBenchmark, CompileError> {
        let out = pc_compiler::compile_with_options(src, config, schedule, options)?;
        Ok(CompiledBenchmark {
            peak_registers: out.peak_registers(),
            program: Arc::new(out.program),
            info: out.info,
            debug: Arc::new(out.debug),
        })
    }
}

/// Compiles `bench`'s source for `mode` against `config` (see
/// [`CompiledBenchmark::compile`]).
///
/// # Errors
/// [`RunError::Unsupported`] when the benchmark has no source for `mode`;
/// [`RunError::Compile`] when compilation fails.
pub fn compile_benchmark(
    bench: &Benchmark,
    mode: MachineMode,
    config: &MachineConfig,
    options: pc_compiler::CompileOptions,
) -> Result<CompiledBenchmark, RunError> {
    let src = bench.source(mode).ok_or(RunError::Unsupported {
        bench: bench.name,
        mode,
    })?;
    Ok(CompiledBenchmark::compile(
        src,
        mode.schedule_mode(),
        config,
        options,
    )?)
}

/// Simulates an already [compiled](compile_benchmark) benchmark on
/// `config` and validates its output. `config` should share the compile
/// target of the configuration `compiled` was built for; its runtime
/// fields (interconnect, memory, seed, …) drive the simulation. The
/// program is shared with the machine, not cloned.
///
/// # Errors
/// See [`RunError`]; an image that does not fit `config`'s units fails
/// validation as [`RunError::Sim`], and sink files that cannot be created
/// surface as [`RunError::Io`].
pub fn run_compiled(
    bench: &Benchmark,
    compiled: &CompiledBenchmark,
    config: MachineConfig,
    observe: &Observe,
) -> Result<RunOutcome, RunError> {
    let mut machine = Machine::new_shared(config, Arc::clone(&compiled.program))?;
    machine.set_engine(observe.engine);
    (bench.setup)(&mut machine)?;
    if observe.profile {
        machine.enable_profiling();
    }
    if observe.host_telemetry {
        machine.enable_host_telemetry();
    }
    let mut fan = Fanout::new();
    if let Some(path) = &observe.jsonl {
        let f = create_sink_file(path)?;
        fan = fan.with(Box::new(JsonlSink::new(BufWriter::new(f))));
    }
    if let Some(path) = &observe.chrome {
        let f = create_sink_file(path)?;
        fan = fan.with(Box::new(ChromeTraceSink::with_debug(
            BufWriter::new(f),
            DebugMap::clone(&compiled.debug),
        )));
    }
    if !fan.is_empty() {
        machine.attach_probe(Box::new(fan));
    }
    let stats = machine.run(CYCLE_LIMIT)?;
    // Flush sink trailers before the stats leave the machine.
    machine.take_probe();
    let engine = machine.engine();
    let host_profile = machine.host_profile();
    (bench.check)(&mut machine).map_err(RunError::Check)?;
    Ok(RunOutcome {
        stats,
        segments: compiled.info.clone(),
        peak_registers: compiled.peak_registers,
        debug: Arc::clone(&compiled.debug),
        engine,
        host_profile,
    })
}

/// Creates a trace-sink file, creating missing parent directories first
/// so `--chrome out/traces/run.json` works on a fresh checkout. Failures
/// carry the offending path in the error message.
fn create_sink_file(path: &PathBuf) -> Result<std::fs::File, RunError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                RunError::Io(std::io::Error::new(
                    e.kind(),
                    format!("cannot create trace directory {}: {e}", parent.display()),
                ))
            })?;
        }
    }
    std::fs::File::create(path).map_err(|e| {
        RunError::Io(std::io::Error::new(
            e.kind(),
            format!("cannot create trace file {}: {e}", path.display()),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn unsupported_mode_is_reported() {
        // The queue variants are the remaining benchmarks without an
        // Ideal source (all four paper benchmarks now have one).
        let b = benchmarks::model_queue_coupled();
        let err = run_benchmark(&b, MachineMode::Ideal, MachineConfig::baseline()).unwrap_err();
        assert!(matches!(err, RunError::Unsupported { .. }));
        assert!(err.to_string().contains("Ideal"));
    }

    #[test]
    fn matrix_runs_and_validates_in_seq_mode() {
        let b = benchmarks::matrix();
        let out = run_benchmark(&b, MachineMode::Seq, MachineConfig::baseline()).unwrap();
        assert!(out.stats.cycles > 100, "cycles {}", out.stats.cycles);
        assert_eq!(out.stats.threads_spawned, 1);
    }

    #[test]
    fn matrix_runs_and_validates_in_coupled_mode() {
        let b = benchmarks::matrix();
        let out = run_benchmark(&b, MachineMode::Coupled, MachineConfig::baseline()).unwrap();
        assert_eq!(out.stats.threads_spawned, 10); // main + 9 rows
    }
}
