//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§4).
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`baseline`] | Table 2 & Figure 4 (cycle counts per mode) and Figure 5 (unit utilizations) |
//! | [`interference`] | Table 3 (compile-time vs runtime schedules under priority arbitration) |
//! | [`comm`] | Figure 6 (restricted communication schemes) + the §4 area claim |
//! | [`latency`] | Figure 7 (variable memory latency) |
//! | [`mix`] | Figure 8 (number and mix of function units) |
//! | [`ablation`] | design-choice studies (slip, arbitration, destinations, buffering) |
//! | [`registers`] | §3's register-requirement claims (peak < 60 realistic, ~490 ideal) |
//! | [`scaling`] | problem-size scaling of the coupled advantage (extension) |
//!
//! Every table is a list of points sampled from one grid — benchmark ×
//! mode × machine configuration × compiler options. Each module exposes
//! one `run` entry that builds its point list, runs it through the shared
//! grid runner (one compile per distinct compile key, fanned over `jobs`
//! workers with serial-identical ordering), and folds the outcomes into
//! structured results with a `render()` producing the paper-style text
//! table; `pcsim tables`, the `paper_tables` example and the integration
//! tests all share that one implementation.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::runner::{run_compiled, source_of, CompileMemo, Observe, RunError, RunOutcome};
use pc_compiler::CompileOptions;
use pc_isa::MachineConfig;

pub mod ablation;
pub mod baseline;
pub mod comm;
pub mod interference;
pub mod latency;
pub mod mix;
pub mod registers;
pub mod scaling;

/// One grid point: a benchmark run under a mode on a configuration,
/// compiled with the given options.
pub(crate) type Point<'a> = (&'a Benchmark, MachineMode, MachineConfig, CompileOptions);

/// Every mode each of `benches` has a source for, on the paper's baseline
/// machine with default compiler options, benchmark-major.
pub(crate) fn every_mode(benches: &[Benchmark]) -> Vec<Point<'_>> {
    benches
        .iter()
        .flat_map(|b| {
            MachineMode::all()
                .into_iter()
                .filter(|&mode| b.source(mode).is_some())
                .map(move |mode| {
                    (
                        b,
                        mode,
                        MachineConfig::baseline(),
                        CompileOptions::default(),
                    )
                })
        })
        .collect()
}

/// Runs every point over `jobs` workers, returning the outcomes in point
/// order. Points that share a source, schedule mode, compiler options and
/// compile target share one compile for the length of the call.
///
/// # Errors
/// The error of the lowest-indexed failing point.
pub(crate) fn run_points(points: &[Point<'_>], jobs: usize) -> Result<Vec<RunOutcome>, RunError> {
    let memo = CompileMemo::default();
    crate::sweep::try_par_map(points, jobs, |&(bench, mode, ref config, options)| {
        let (image, _) = memo.get(
            source_of(bench, mode)?,
            mode.schedule_mode(),
            options,
            config,
        );
        let image = image?;
        run_compiled(bench, &image, config.clone(), &Observe::default())
    })
}
