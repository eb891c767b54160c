//! Compile → simulate → validate, for one benchmark under one machine
//! mode and configuration.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use pc_compiler::{CompileError, CompileOptions, ScheduleMode, SegmentInfo};
use pc_isa::{DebugMap, MachineConfig, Program};
use pc_sim::probe::{ChromeTraceSink, Fanout, JsonlSink, StallProfiler};
use pc_sim::{EngineKind, Machine, RunStats, SimError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

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
    run_benchmark_observed(bench, mode, config, &Observe::default())
}

/// Observability requests for [`run_benchmark_observed`]: what to record
/// while the benchmark runs. The default observes nothing (identical to
/// [`run_benchmark`]).
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Fold stall attribution into [`RunStats::stalls`] through a
    /// [`StallProfiler`] sink (see `coupling::report::stall_report`).
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
    let compiled = CompiledBenchmark::compile(
        source_of(bench, mode)?,
        mode.schedule_mode(),
        &config,
        CompileOptions::default(),
    )?;
    run_compiled(bench, &compiled, config, observe)
}

/// `bench`'s source text for `mode`.
///
/// # Errors
/// [`RunError::Unsupported`] when the benchmark has no source for `mode`.
pub(crate) fn source_of(bench: &Benchmark, mode: MachineMode) -> Result<&str, RunError> {
    bench.source(mode).ok_or(RunError::Unsupported {
        bench: bench.name,
        mode,
    })
}

/// A benchmark compiled for one mode and compile target: everything a run
/// needs except the runtime half of the configuration. Cheap to share —
/// the compile memo compiles each distinct key once and the image is
/// simulated under every configuration that shares it.
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
        options: CompileOptions,
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

/// A compiled image, or the error every run sharing its key fails with.
type Image = Result<Arc<CompiledBenchmark>, CompileError>;

/// One memo entry: filled exactly once by whichever run gets there first.
type MemoSlot = Arc<OnceLock<Image>>;

/// The compile targets seen for one (source text, schedule mode, options).
type TargetSlots = Vec<(MachineConfig, MemoSlot)>;

/// Compiled images keyed on (source text, schedule mode, compiler
/// options, [compile target](MachineConfig::compile_target)). Runs that
/// differ only in runtime axes — interconnect, memory model, seed,
/// arbitration — share one compile; each still gets its own decode and
/// machine under its full configuration. A sweep and an experiment grid
/// each keep one memo for the length of the call.
///
/// Each key compiles at most once, even when several workers want it at
/// the same moment: the map lock is held only to find or insert the
/// key's slot, and the slot's `OnceLock` makes latecomers wait for the
/// first compile instead of starting their own. The image is compiled
/// against the target itself, so it cannot depend on which run won.
#[derive(Default)]
pub(crate) struct CompileMemo<'a> {
    slots: Mutex<HashMap<(&'a str, ScheduleMode, CompileOptions), TargetSlots>>,
}

impl<'a> CompileMemo<'a> {
    /// The image for `src` under `schedule` and `options` on `config`'s
    /// compile target, plus the compile time when this call was the one
    /// that compiled it (`None` for a reuse).
    pub(crate) fn get(
        &self,
        src: &'a str,
        schedule: ScheduleMode,
        options: CompileOptions,
        config: &MachineConfig,
    ) -> (Image, Option<u64>) {
        let target = config.compile_target();
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let entries = slots.entry((src, schedule, options)).or_default();
            match entries.iter().find(|(t, _)| *t == target) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = MemoSlot::default();
                    entries.push((target.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        let mut compile_ns = None;
        let image = slot.get_or_init(|| {
            let t0 = Instant::now();
            let out = CompiledBenchmark::compile(src, schedule, &target, options).map(Arc::new);
            compile_ns = Some(t0.elapsed().as_nanos() as u64);
            out
        });
        (image.clone(), compile_ns)
    }
}

/// Simulates an already [compiled](CompiledBenchmark) benchmark on
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
    if observe.host_telemetry {
        machine.enable_host_telemetry();
    }
    let mut fan = Fanout::new();
    let profiler = observe
        .profile
        .then(|| Rc::new(RefCell::new(StallProfiler::new(&compiled.program))));
    if let Some(p) = &profiler {
        fan = fan.with(Box::new(Rc::clone(p)));
    }
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
    let mut stats = machine.run(CYCLE_LIMIT)?;
    // Flush sink trailers before the stats leave the machine.
    machine.take_probe();
    if let Some(p) = profiler {
        stats.stalls = p.borrow().table();
    }
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
