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
use crate::runner::{run_compiled, CompileMemo, Observe, RunError, RunOutcome};
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
    let mut memo = CompileMemo::new();
    let runs: Vec<(&Point<'_>, Option<usize>)> = points
        .iter()
        .map(|point @ &(bench, mode, ref config, options)| {
            let key = bench.source(mode).map(|src| {
                let key = memo.key(src, mode.schedule_mode(), options, config);
                memo.expect(key);
                key
            });
            (point, key)
        })
        .collect();
    crate::sweep::try_par_map(&runs, jobs, |&(&(bench, mode, ref config, _), key)| {
        let Some(key) = key else {
            return Err(RunError::Unsupported {
                bench: bench.name,
                mode,
            });
        };
        let claim = memo.claim(key);
        let image = claim.image().0?;
        run_compiled(bench, &image, config.clone(), &Observe::default())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use pc_isa::{InterconnectScheme, MemoryModel};

    #[test]
    fn points_of_a_key_share_one_image_freed_by_return() {
        let matrix = &benchmarks::matrix();
        let base = MachineConfig::baseline();
        let configs = [
            base.clone(),
            base.clone()
                .with_interconnect(InterconnectScheme::SharedBus),
            base.clone().with_memory(MemoryModel::mem2()),
        ];
        let points: Vec<Point<'_>> = [MachineMode::Seq, MachineMode::Coupled]
            .into_iter()
            .flat_map(|mode| {
                configs
                    .iter()
                    .map(move |config| (matrix, mode, config.clone(), CompileOptions::default()))
            })
            .collect();
        for jobs in [1, 2] {
            let watch = crate::runner::tests::Watch::install();
            let outcomes = run_points(&points, jobs).unwrap();
            assert_eq!(outcomes.len(), 6);
            watch.assert_shared_and_freed(6, 2);
            if jobs == 1 {
                assert_eq!(watch.peak_live(), 1, "the first key outlived its points");
            }
        }
    }
}
