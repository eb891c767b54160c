//! Problem-size scaling (an extension beyond the paper): the paper's
//! Matrix benchmark at sizes beyond its fixed 9×9, comparing how the STS
//! and Coupled machines scale. Coupled's advantage is expected to persist
//! (the thread supply grows with the problem), while the per-iteration
//! loop overheads amortize for both.

use super::{run_points, Point};
use crate::benchmarks::{matrix, Benchmark};
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;
use pc_compiler::CompileOptions;
use pc_isa::MachineConfig;

/// One size × mode measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingRow {
    /// Matrix dimension `n` (an `n × n` multiply).
    pub n: usize,
    /// Machine mode.
    pub mode: MachineMode,
    /// Cycle count.
    pub cycles: u64,
}

/// Results of the scaling study.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalingResults {
    /// All measurements.
    pub rows: Vec<ScalingRow>,
}

impl ScalingResults {
    /// Cycles at one point.
    pub fn cycles(&self, n: usize, mode: MachineMode) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.n == n && r.mode == mode)
            .map(|r| r.cycles)
    }

    /// STS/Coupled ratio at one size.
    pub fn advantage(&self, n: usize) -> Option<f64> {
        Some(
            self.cycles(n, MachineMode::Sts)? as f64 / self.cycles(n, MachineMode::Coupled)? as f64,
        )
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Scaling — n×n Matrix multiply, STS vs Coupled",
            &["n", "STS cycles", "Coupled cycles", "STS/Coupled"],
        );
        let mut sizes: Vec<usize> = self.rows.iter().map(|r| r.n).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for n in sizes {
            t.row(vec![
                n.to_string(),
                self.cycles(n, MachineMode::Sts)
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
                self.cycles(n, MachineMode::Coupled)
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
                f2(self.advantage(n).unwrap_or(f64::NAN)),
            ]);
        }
        t.render()
    }
}

/// Source text for an `n × n` matrix multiply (inner loop unrolled, as
/// in the paper's fixed-size version).
fn source(n: usize, threaded: bool) -> String {
    let n2 = n * n;
    let body = format!(
        "(let ((s 0.0))
           (for (k 0 {n}) :unroll full
             (set s (+ s (* (aref ma (+ (* i {n}) k)) (aref mb (+ (* k {n}) j))))))
           (aset mc (+ (* i {n}) j) s))"
    );
    if threaded {
        format!(
            "(global ma (array float {n2})) (global mb (array float {n2}))
             (global mc (array float {n2})) (global done (array int {n}))
             (defun main ()
               (forall (i 0 {n})
                 (for (j 0 {n}) {body})
                 (produce done i 1))
               (for (q 0 {n}) (consume done q)))"
        )
    } else {
        format!(
            "(global ma (array float {n2})) (global mb (array float {n2}))
             (global mc (array float {n2})) (global done (array int {n}))
             (defun main ()
               (for (i 0 {n})
                 (for (j 0 {n}) {body})))"
        )
    }
}

/// The `n × n` multiply as a benchmark. Matrix's setup and check read
/// `n` from the length of `ma`, so they serve every size.
fn bench(n: usize) -> Benchmark {
    Benchmark {
        name: "Matrix",
        seq_src: source(n, false),
        threaded_src: source(n, true),
        ideal_src: None,
        setup: matrix::setup,
        check: matrix::check,
    }
}

/// The modes compared at each size.
const MODES: [MachineMode; 2] = [MachineMode::Sts, MachineMode::Coupled];

/// The default sizes (4–24; 24 spawns 24 threads + main, within budget).
pub const SIZES: [usize; 4] = [4, 9, 16, 24];

/// Runs the study over `sizes` (see [`SIZES`]), fanning the size × mode
/// grid over `jobs` worker threads with serial-identical row ordering.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(sizes: &[usize], jobs: usize) -> Result<ScalingResults, RunError> {
    let benches: Vec<Benchmark> = sizes.iter().map(|&n| bench(n)).collect();
    let points: Vec<Point> = benches
        .iter()
        .flat_map(|b| {
            MODES.map(|mode| {
                (
                    b,
                    mode,
                    MachineConfig::baseline(),
                    CompileOptions::default(),
                )
            })
        })
        .collect();
    let cycles = run_points(&points, jobs, |_, out| out.stats.cycles)?;
    let rows = sizes
        .iter()
        .flat_map(|&n| MODES.map(|mode| (n, mode)))
        .zip(cycles)
        .map(|((n, mode), cycles)| ScalingRow { n, mode, cycles })
        .collect();
    Ok(ScalingResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_advantage_persists_with_size() {
        let r = run(&[4, 12], 1).unwrap();
        for n in [4, 12] {
            let adv = r.advantage(n).unwrap();
            assert!(adv > 1.2, "n={n}: STS/Coupled {adv}");
        }
        // Bigger problems take more cycles.
        assert!(
            r.cycles(12, MachineMode::Coupled).unwrap()
                > r.cycles(4, MachineMode::Coupled).unwrap()
        );
        assert!(r.render().contains("STS/Coupled"));
    }
}
