//! Figure 8: number and mix of function units. Coupled-mode cycle counts
//! over every configuration of 1–4 integer units × 1–4 floating-point
//! units (memory units fixed at four, one branch cluster).

use super::{run_points, Point};
use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::Table;
use crate::runner::RunError;
use pc_compiler::CompileOptions;
use pc_isa::MachineConfig;

/// One benchmark × (IUs, FPUs) measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRow {
    /// Benchmark name.
    pub bench: String,
    /// Integer units.
    pub ius: usize,
    /// Floating-point units.
    pub fpus: usize,
    /// Cycle count.
    pub cycles: u64,
}

/// Results of the function-unit-mix study.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixResults {
    /// All measurements.
    pub rows: Vec<MixRow>,
}

impl MixResults {
    /// Cycles at one grid point.
    pub fn cycles(&self, bench: &str, ius: usize, fpus: usize) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.ius == ius && r.fpus == fpus)
            .map(|r| r.cycles)
    }

    /// Renders one benchmark's 4×4 surface (the paper's Z axis as text).
    pub fn render_bench(&self, bench: &str) -> String {
        let mut t = Table::new(
            format!("Figure 8 — {bench}: cycles vs #IU (rows) × #FPU (cols), 4 MEM units"),
            &["IU\\FPU", "1", "2", "3", "4"],
        );
        for iu in 1..=4 {
            let mut cells = vec![iu.to_string()];
            for fpu in 1..=4 {
                cells.push(
                    self.cycles(bench, iu, fpu)
                        .map(|c| c.to_string())
                        .unwrap_or_default(),
                );
            }
            t.row(cells);
        }
        t.render()
    }

    /// Renders every benchmark present.
    pub fn render(&self) -> String {
        let mut benches: Vec<&str> = self.rows.iter().map(|r| r.bench.as_str()).collect();
        benches.dedup();
        benches
            .iter()
            .map(|b| self.render_bench(b))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs the mix study over `benches` on the `n × n` grid of 1..=n integer
/// × 1..=n floating-point units (the paper's figure is `n = 4`; tests use
/// 2×2 to stay fast), fanned over `jobs` worker threads with
/// serial-identical row ordering.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(benches: &[Benchmark], n: usize, jobs: usize) -> Result<MixResults, RunError> {
    let grid: Vec<(&Benchmark, usize, usize)> = benches
        .iter()
        .flat_map(|b| (1..=n).flat_map(move |ius| (1..=n).map(move |fpus| (b, ius, fpus))))
        .collect();
    let points: Vec<Point> = grid
        .iter()
        .map(|&(b, ius, fpus)| {
            let config = MachineConfig::with_mix(ius, fpus);
            (b, MachineMode::Coupled, config, CompileOptions::default())
        })
        .collect();
    let cycles = run_points(&points, jobs, |_, out| out.stats.cycles)?;
    let rows = grid
        .into_iter()
        .zip(cycles)
        .map(|((b, ius, fpus), cycles)| MixRow {
            bench: b.name.to_string(),
            ius,
            fpus,
            cycles,
        })
        .collect();
    Ok(MixResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn more_units_do_not_hurt_matrix() {
        // 2×2 grid keeps the test quick; `pcsim tables fig8` runs the
        // full surface.
        let r = run(&[benchmarks::matrix()], 2, 1).unwrap();
        let c11 = r.cycles("Matrix", 1, 1).unwrap();
        let c22 = r.cycles("Matrix", 2, 2).unwrap();
        assert!(c22 < c11, "2 IU × 2 FPU ({c22}) should beat 1 × 1 ({c11})");
        assert!(r.render().contains("Figure 8"));
        assert_eq!(r.rows.len(), 4);
    }
}
