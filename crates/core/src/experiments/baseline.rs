//! Table 2 / Figure 4 / Figure 5: baseline cycle counts and function-unit
//! utilizations for the five machine modes over the benchmark suite.

use super::{every_mode, run_points};
use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;
use pc_isa::UnitClass;
use std::collections::BTreeMap;

/// One benchmark × mode measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Benchmark name.
    pub bench: String,
    /// Machine mode.
    pub mode: MachineMode,
    /// Dynamic cycle count.
    pub cycles: u64,
    /// Dynamic operation count.
    pub ops: u64,
    /// Average operations per cycle, per unit class (the paper's
    /// "utilization").
    pub utilization: BTreeMap<UnitClass, f64>,
    /// Peak registers per cluster reported by the compiler.
    pub peak_registers: u32,
}

/// Results of the baseline study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineResults {
    /// All measurements, benchmark-major in paper order.
    pub rows: Vec<BaselineRow>,
}

impl BaselineResults {
    /// Cycle count for a benchmark × mode, if measured.
    pub fn cycles(&self, bench: &str, mode: MachineMode) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.mode == mode)
            .map(|r| r.cycles)
    }

    /// Ratio of a mode's cycles to Coupled's for the same benchmark
    /// (the paper's "Compared to Coupled" column).
    pub fn vs_coupled(&self, bench: &str, mode: MachineMode) -> Option<f64> {
        let c = self.cycles(bench, MachineMode::Coupled)? as f64;
        Some(self.cycles(bench, mode)? as f64 / c)
    }

    /// Renders Table 2: cycles, ratio to Coupled, FPU and IU utilization.
    pub fn table2(&self) -> Table {
        let mut t = Table::new(
            "Table 2 — baseline cycle counts (4 arith clusters + 2 branch clusters)",
            &["Benchmark", "Mode", "#Cycles", "vs Coupled", "FPU", "IU"],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.mode.label().to_string(),
                r.cycles.to_string(),
                f2(self.vs_coupled(&r.bench, r.mode).unwrap_or(f64::NAN)),
                f2(*r.utilization.get(&UnitClass::Float).unwrap_or(&0.0)),
                f2(*r.utilization.get(&UnitClass::Integer).unwrap_or(&0.0)),
            ]);
        }
        t
    }

    /// Renders Figure 5: per-class utilizations.
    pub fn fig5(&self) -> Table {
        let mut t = Table::new(
            "Figure 5 — function unit utilization (ops/cycle per class)",
            &["Benchmark", "Mode", "FPU", "IU", "MEM", "BR"],
        );
        for r in &self.rows {
            let u = |c: UnitClass| f2(*r.utilization.get(&c).unwrap_or(&0.0));
            t.row(vec![
                r.bench.clone(),
                r.mode.label().to_string(),
                u(UnitClass::Float),
                u(UnitClass::Integer),
                u(UnitClass::Memory),
                u(UnitClass::Branch),
            ]);
        }
        t
    }
}

/// Runs the baseline study over `benches` (every mode each benchmark
/// supports) on the paper's baseline machine, fanning the benchmark ×
/// mode grid over `jobs` worker threads; the rows come back in grid
/// order whatever `jobs` is.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(benches: &[Benchmark], jobs: usize) -> Result<BaselineResults, RunError> {
    let points = every_mode(benches);
    let rows = run_points(&points, jobs, |&(b, mode, ..), out| BaselineRow {
        bench: b.name.to_string(),
        mode,
        cycles: out.stats.cycles,
        ops: out.stats.ops_issued,
        utilization: UnitClass::all()
            .into_iter()
            .map(|c| (c, out.stats.utilization(c)))
            .collect(),
        peak_registers: out.image.peak_registers,
    })?;
    Ok(BaselineResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn matrix_baseline_orderings_match_paper() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        let seq = r.cycles("Matrix", MachineMode::Seq).unwrap();
        let sts = r.cycles("Matrix", MachineMode::Sts).unwrap();
        let tpe = r.cycles("Matrix", MachineMode::Tpe).unwrap();
        let coupled = r.cycles("Matrix", MachineMode::Coupled).unwrap();
        let ideal = r.cycles("Matrix", MachineMode::Ideal).unwrap();
        // The paper's qualitative result: SEQ > STS > {TPE ≈ Coupled} > Ideal.
        assert!(seq > sts, "SEQ {seq} vs STS {sts}");
        assert!(sts > coupled, "STS {sts} vs Coupled {coupled}");
        assert!(ideal < coupled, "Ideal {ideal} vs Coupled {coupled}");
        let ratio = tpe as f64 / coupled as f64;
        assert!((0.8..1.25).contains(&ratio), "TPE/Coupled {ratio}");
        // SEQ ≈ 3× Coupled in the paper (3.12); allow a broad band.
        let r = r.vs_coupled("Matrix", MachineMode::Seq).unwrap();
        assert!((2.0..5.0).contains(&r), "SEQ/Coupled {r}");
    }

    #[test]
    fn tables_render() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        let t2 = r.table2().render();
        assert!(t2.contains("Matrix"));
        assert!(t2.contains("Ideal"));
        let f5 = r.fig5().render();
        assert!(f5.contains("MEM"));
        assert_eq!(r.rows.len(), 5);
    }
}
