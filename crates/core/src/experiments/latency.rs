//! Figure 7: variable memory latency. Long, statically indeterminate
//! latencies stall the statically scheduled modes, while the threaded
//! modes hide them behind other threads' work — "masking of latency is a
//! major advantage of Coupled over STS".

use super::{run_points, Point};
use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;
use pc_compiler::CompileOptions;
use pc_isa::{MachineConfig, MemoryModel};

/// Seeds averaged per point (the miss pattern is random; the paper ran
/// one trial, we smooth over a few deterministic seeds).
const SEEDS: [u64; 3] = [11, 42, 1992];

/// One benchmark × mode × memory-model measurement (seed-averaged).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Benchmark name.
    pub bench: String,
    /// Machine mode.
    pub mode: MachineMode,
    /// Memory model label ("Min", "Mem1", "Mem2").
    pub memory: &'static str,
    /// Mean cycles across seeds.
    pub cycles: f64,
}

/// Results of the latency study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyResults {
    /// All measurements.
    pub rows: Vec<LatencyRow>,
}

impl LatencyResults {
    /// Mean cycles for one point.
    pub fn cycles(&self, bench: &str, mode: MachineMode, memory: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.mode == mode && r.memory == memory)
            .map(|r| r.cycles)
    }

    /// Slowdown of `memory` relative to `Min` for one benchmark × mode.
    pub fn slowdown(&self, bench: &str, mode: MachineMode, memory: &str) -> Option<f64> {
        Some(self.cycles(bench, mode, memory)? / self.cycles(bench, mode, "Min")?)
    }

    /// Mean `Mem2/Min` slowdown of a mode across benchmarks (the paper's
    /// headline numbers: ≈5.5× for STS, ≈2× Coupled, ≈2.3× TPE).
    pub fn mean_mem2_slowdown(&self, mode: MachineMode) -> f64 {
        let mut benches: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.bench.as_str())
            .collect();
        benches.dedup();
        let xs: Vec<f64> = benches
            .iter()
            .filter_map(|b| self.slowdown(b, mode, "Mem2"))
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Renders the figure data.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 7 — variable memory latency (cycles, mean over seeds)",
            &["Benchmark", "Mode", "Min", "Mem1", "Mem2", "Mem2/Min"],
        );
        let mut seen: Vec<(String, MachineMode)> = Vec::new();
        for r in &self.rows {
            let key = (r.bench.clone(), r.mode);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let c = |mem: &str| {
                self.cycles(&r.bench, r.mode, mem)
                    .map(|x| format!("{x:.0}"))
                    .unwrap_or_default()
            };
            t.row(vec![
                r.bench.clone(),
                r.mode.label().to_string(),
                c("Min"),
                c("Mem1"),
                c("Mem2"),
                f2(self.slowdown(&r.bench, r.mode, "Mem2").unwrap_or(f64::NAN)),
            ]);
        }
        t.render()
    }
}

/// The modes Figure 7 plots.
pub fn modes() -> [MachineMode; 4] {
    [
        MachineMode::Sts,
        MachineMode::Ideal,
        MachineMode::Tpe,
        MachineMode::Coupled,
    ]
}

/// The seeds one memory model is measured under: Min is deterministic,
/// so one trial suffices.
fn seeds(model: MemoryModel) -> &'static [u64] {
    if model == MemoryModel::min() {
        &SEEDS[..1]
    } else {
        &SEEDS
    }
}

/// Runs the latency study over `benches`, fanning every benchmark × mode
/// × memory model × seed run over `jobs` worker threads. Each row
/// averages its seeds' cycle counts in grid order, exactly as a serial
/// sweep would.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(benches: &[Benchmark], jobs: usize) -> Result<LatencyResults, RunError> {
    let groups: Vec<(&Benchmark, MachineMode, MemoryModel)> = benches
        .iter()
        .flat_map(|b| {
            modes()
                .into_iter()
                .filter(|&mode| b.source(mode).is_some())
                .flat_map(move |mode| {
                    [MemoryModel::min(), MemoryModel::mem1(), MemoryModel::mem2()]
                        .into_iter()
                        .map(move |model| (b, mode, model))
                })
        })
        .collect();
    let points: Vec<Point> = groups
        .iter()
        .flat_map(|&(b, mode, model)| {
            seeds(model).iter().map(move |&seed| {
                let config = MachineConfig::baseline().with_memory(model).with_seed(seed);
                (b, mode, config, CompileOptions::default())
            })
        })
        .collect();
    let mut cycles = run_points(&points, jobs, |_, out| out.stats.cycles)?.into_iter();
    let rows = groups
        .into_iter()
        .map(|(b, mode, model)| {
            let n = seeds(model).len();
            let total: u64 = cycles.by_ref().take(n).sum();
            LatencyRow {
                bench: b.name.to_string(),
                mode,
                memory: model.label(),
                cycles: total as f64 / n as f64,
            }
        })
        .collect();
    Ok(LatencyResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn threaded_modes_hide_latency_better_than_static() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        let sts = r.slowdown("Matrix", MachineMode::Sts, "Mem2").unwrap();
        let coupled = r.slowdown("Matrix", MachineMode::Coupled, "Mem2").unwrap();
        assert!(
            coupled < sts,
            "Coupled slowdown {coupled} should beat STS {sts}"
        );
        // Both get slower with a 10% miss rate.
        assert!(sts > 1.2, "sts {sts}");
        assert!(coupled > 1.05, "coupled {coupled}");
        // Mem2 is at least as slow as Mem1.
        let m1 = r.slowdown("Matrix", MachineMode::Coupled, "Mem1").unwrap();
        assert!(coupled >= m1 * 0.95, "Mem2 {coupled} vs Mem1 {m1}");
        assert!(r.render().contains("Mem2/Min"));
    }
}
