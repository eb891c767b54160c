//! Compile → simulate → validate, for one benchmark under one machine
//! mode and configuration.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use pc_compiler::{CompileError, CompileOptions, ScheduleMode, SegmentInfo};
use pc_isa::{DebugMap, MachineConfig};
use pc_sim::probe::{ChromeTraceSink, Fanout, JsonlSink, StallProfiler};
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats, SimError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Generous default cycle budget (the largest benchmark, LUD under Mem2,
/// runs well under a million cycles).
pub const CYCLE_LIMIT: u64 = 20_000_000;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator statistics (cycle count, utilizations, probes, …).
    pub stats: RunStats,
    /// The compiled image the run simulated: program, per-segment
    /// compiler diagnostics, source provenance (empty for programs built
    /// without debug info — reports then fall back to "no provenance")
    /// and peak register count. Shared, not copied, with every other run
    /// of its compile key.
    pub image: Arc<CompiledBenchmark>,
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
    let src = bench.source(mode).ok_or(RunError::Unsupported {
        bench: bench.name,
        mode,
    })?;
    let compiled = CompiledBenchmark::compile(
        src,
        mode.schedule_mode(),
        &config,
        CompileOptions::default(),
    )?;
    run_compiled(bench, Arc::new(compiled), config, observe)
}

/// A benchmark compiled for one mode and compile target, and decoded for
/// it: everything a run needs except the runtime half of the
/// configuration. Cheap to share — the compile memo builds each distinct
/// key once and the image is simulated under every configuration that
/// shares its target.
#[derive(Debug, Clone)]
pub struct CompiledBenchmark {
    /// The program, validated and decoded against its compile target.
    pub code: Arc<DecodedProgram>,
    /// Compiler diagnostics per segment.
    pub info: Vec<SegmentInfo>,
    /// Source-provenance side table.
    pub debug: DebugMap,
    /// Peak per-cluster register count over all segments.
    pub peak_registers: u32,
}

impl CompiledBenchmark {
    /// Compiles `src` under `schedule` against `config`, then validates
    /// and decodes the program against
    /// [`MachineConfig::compile_target`] — all the compiler and the
    /// decoder read — so the image may be run under any configuration
    /// with the same target.
    ///
    /// # Errors
    /// [`RunError::Compile`] on syntax, type, or scheduling errors;
    /// [`RunError::Sim`] when the program fails validation.
    pub fn compile(
        src: &str,
        schedule: ScheduleMode,
        config: &MachineConfig,
        options: CompileOptions,
    ) -> Result<CompiledBenchmark, RunError> {
        Ok(Self::build(src, schedule, config, options)?)
    }

    fn build(
        src: &str,
        schedule: ScheduleMode,
        config: &MachineConfig,
        options: CompileOptions,
    ) -> Result<CompiledBenchmark, BuildError> {
        let out = pc_compiler::compile_with_options(src, config, schedule, options)
            .map_err(BuildError::Compile)?;
        let peak_registers = out.peak_registers();
        let code = DecodedProgram::decode(config.compile_target(), Arc::new(out.program))
            .map_err(BuildError::Sim)?;
        Ok(CompiledBenchmark {
            code: Arc::new(code),
            info: out.info,
            debug: out.debug,
            peak_registers,
        })
    }
}

/// Why a compile key has no image: the two [`RunError`]s a build can
/// end in, kept cloneable so every run of the key can replay it.
#[derive(Debug, Clone)]
enum BuildError {
    Compile(CompileError),
    Sim(SimError),
}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Compile(e) => RunError::Compile(e),
            BuildError::Sim(e) => RunError::Sim(e),
        }
    }
}

/// A built image, or the error every run sharing its key fails with.
type Image = Result<Arc<CompiledBenchmark>, BuildError>;

/// One memo key and its image.
struct MemoKey<'a> {
    src: &'a str,
    schedule: ScheduleMode,
    options: CompileOptions,
    target: MachineConfig,
    slot: Mutex<Slot>,
}

/// A key's mutable half: the runs still to come and, between the first
/// of them and the last, the image they share.
#[derive(Default)]
struct Slot {
    pending: usize,
    image: Option<Image>,
}

/// Runnable images keyed on (source text, schedule mode, compiler
/// options, [compile target](MachineConfig::compile_target)). Runs that
/// differ only in runtime axes — interconnect, memory model, seed,
/// arbitration — share one compile and one decode; each builds its own
/// machine from the shared image under its full configuration. A sweep
/// and an experiment grid each keep one memo for the length of the call.
///
/// The caller plans every run before any starts: [`Self::key`] names the
/// run's key and [`Self::expect`] counts it. Each run then takes a
/// [`Claim`] on its key — hit, miss or error alike — and the memo frees
/// the key's image when the last claim is dropped, so a grid holds only
/// the images of keys with runs still to come.
///
/// Each key builds at most once, even when several workers want it at
/// the same moment: the key's slot lock is held across the build, so
/// latecomers wait for it instead of starting their own, and the image
/// outlives every run that was counted. The image is built against the
/// target itself, so it cannot depend on which run won.
pub(crate) struct CompileMemo<'a> {
    keys: Vec<MemoKey<'a>>,
    index: HashMap<(&'a str, ScheduleMode, CompileOptions), Vec<usize>>,
    #[cfg(test)]
    watch: Option<Arc<tests::Watch>>,
}

impl<'a> CompileMemo<'a> {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        CompileMemo {
            keys: Vec::new(),
            index: HashMap::new(),
            #[cfg(test)]
            watch: tests::Watch::installed(),
        }
    }

    /// The key of `src` under `schedule` and `options` on `config`'s
    /// compile target, added with no runs counted if it is new.
    pub(crate) fn key(
        &mut self,
        src: &'a str,
        schedule: ScheduleMode,
        options: CompileOptions,
        config: &MachineConfig,
    ) -> usize {
        let target = config.compile_target();
        let keys = &mut self.keys;
        let same = self.index.entry((src, schedule, options)).or_default();
        if let Some(&k) = same.iter().find(|&&k| keys[k].target == target) {
            return k;
        }
        keys.push(MemoKey {
            src,
            schedule,
            options,
            target,
            slot: Mutex::default(),
        });
        same.push(keys.len() - 1);
        keys.len() - 1
    }

    /// Counts one more run of `key`.
    pub(crate) fn expect(&mut self, key: usize) {
        self.keys[key]
            .slot
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .pending += 1;
    }

    /// One counted run's hold on `key`, given up when dropped.
    pub(crate) fn claim(&self, key: usize) -> Claim<'_, 'a> {
        Claim { memo: self, key }
    }
}

/// A counted run's hold on its memo key ([`CompileMemo::claim`]). The
/// key's image stays alive until every counted claim has been dropped.
pub(crate) struct Claim<'m, 'a> {
    memo: &'m CompileMemo<'a>,
    key: usize,
}

impl Claim<'_, '_> {
    /// Runs `bench` under `config` on the key's image (see
    /// [`run_compiled`]), building the image first if no earlier run of
    /// the key did. Also returns the build time (compile and decode)
    /// when this run built it, `None` for a reuse.
    pub(crate) fn run(
        &self,
        bench: &Benchmark,
        config: MachineConfig,
    ) -> (Result<RunOutcome, RunError>, Option<u64>) {
        let key = &self.memo.keys[self.key];
        let mut slot = key.slot.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.pending > 0, "claim on a key with no runs left");
        let mut build_ns = None;
        let image = slot.image.get_or_insert_with(|| {
            let t0 = Instant::now();
            let out = CompiledBenchmark::build(key.src, key.schedule, &key.target, key.options)
                .map(Arc::new);
            build_ns = Some(t0.elapsed().as_nanos() as u64);
            out
        });
        #[cfg(test)]
        if let (Some(w), Ok(image)) = (&self.memo.watch, &*image) {
            w.saw(self.key, &image.code);
        }
        let image = image.clone();
        drop(slot);
        let out = image
            .map_err(RunError::from)
            .and_then(|image| run_compiled(bench, image, config, &Observe::default()));
        (out, build_ns)
    }
}

impl Drop for Claim<'_, '_> {
    fn drop(&mut self) {
        let mut slot = self.memo.keys[self.key]
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.image = None;
        }
    }
}

/// Simulates an already [compiled](CompiledBenchmark) benchmark on
/// `config` and validates its output. `config` supplies the runtime
/// fields (interconnect, memory, seed, …) and must share the compile
/// target the image was decoded for. The machine shares the decoded
/// image and the outcome keeps the image itself; nothing is copied or
/// decoded again.
///
/// # Errors
/// See [`RunError`]; a `config` with a different compile target fails
/// as [`RunError::Sim`] ([`SimError::TargetMismatch`]), and sink files
/// that cannot be created surface as [`RunError::Io`].
pub fn run_compiled(
    bench: &Benchmark,
    compiled: Arc<CompiledBenchmark>,
    config: MachineConfig,
    observe: &Observe,
) -> Result<RunOutcome, RunError> {
    let mut machine = Machine::with_config(Arc::clone(&compiled.code), config)?;
    machine.set_engine(observe.engine);
    (bench.setup)(&mut machine)?;
    if observe.host_telemetry {
        machine.enable_host_telemetry();
    }
    let mut fan = Fanout::new();
    let profiler = observe
        .profile
        .then(|| Rc::new(RefCell::new(StallProfiler::new(compiled.code.program()))));
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
            compiled.debug.clone(),
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
        image: compiled,
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
pub(crate) mod tests {
    use super::*;
    use crate::benchmarks;
    use std::sync::Weak;

    /// Records, for the memos created on the thread that installed it,
    /// every image a run received and the most images alive at once.
    #[derive(Default)]
    pub(crate) struct Watch {
        seen: Mutex<Vec<(usize, Weak<DecodedProgram>)>>,
        peak_live: Mutex<usize>,
    }

    thread_local! {
        static WATCH: RefCell<Option<Arc<Watch>>> = const { RefCell::new(None) };
    }

    impl Watch {
        /// Watches every memo this thread creates from now on.
        pub(crate) fn install() -> Arc<Watch> {
            let w = Arc::new(Watch::default());
            WATCH.with(|cell| *cell.borrow_mut() = Some(Arc::clone(&w)));
            w
        }

        pub(super) fn installed() -> Option<Arc<Watch>> {
            WATCH.with(|cell| cell.borrow().clone())
        }

        pub(super) fn saw(&self, key: usize, code: &Arc<DecodedProgram>) {
            let mut seen = self.seen.lock().unwrap();
            seen.push((key, Arc::downgrade(code)));
            let mut live: Vec<*const DecodedProgram> = seen
                .iter()
                .filter(|(_, w)| w.strong_count() > 0)
                .map(|(_, w)| w.as_ptr())
                .collect();
            live.sort_unstable();
            live.dedup();
            let mut peak = self.peak_live.lock().unwrap();
            *peak = (*peak).max(live.len());
        }

        /// The most distinct images alive at any image hand-out.
        pub(crate) fn peak_live(&self) -> usize {
            *self.peak_live.lock().unwrap()
        }

        /// Checks that `runs` runs received images of `keys` keys, every
        /// run of a key the same image and no two keys one, and that no
        /// image is alive any more.
        pub(crate) fn assert_shared_and_freed(&self, runs: usize, keys: usize) {
            let seen = self.seen.lock().unwrap();
            assert_eq!(seen.len(), runs, "runs that received an image");
            let mut first: Vec<(usize, &Weak<DecodedProgram>)> = Vec::new();
            for (key, image) in seen.iter() {
                match first.iter().find(|(k, _)| k == key) {
                    Some((_, one)) => assert!(Weak::ptr_eq(one, image), "key {key}"),
                    None => {
                        assert!(first.iter().all(|(_, other)| !Weak::ptr_eq(other, image)));
                        first.push((*key, image));
                    }
                }
                assert!(
                    image.upgrade().is_none(),
                    "key {key}'s image outlived the call"
                );
            }
            assert_eq!(first.len(), keys, "distinct keys");
        }
    }

    #[test]
    fn an_image_on_another_compile_target_is_a_sim_error() {
        let b = benchmarks::matrix();
        let base = MachineConfig::baseline();
        let image = CompiledBenchmark::compile(
            &b.seq_src,
            ScheduleMode::Single,
            &base,
            CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(image.code.config(), &base.compile_target());
        let mix = MachineConfig::with_mix(2, 3);
        assert!(matches!(
            Machine::with_config(Arc::clone(&image.code), mix.clone()),
            Err(SimError::TargetMismatch)
        ));
        let image = Arc::new(image);
        let err = run_compiled(&b, Arc::clone(&image), mix, &Observe::default()).unwrap_err();
        assert!(
            matches!(err, RunError::Sim(SimError::TargetMismatch)),
            "{err}"
        );
        // A runtime-only change of the same target runs.
        let bus = base.with_interconnect(pc_isa::InterconnectScheme::SharedBus);
        run_compiled(&b, image, bus, &Observe::default()).unwrap();
    }

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
