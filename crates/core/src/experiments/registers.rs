//! Register requirements (paper §3): the compiler assumes unbounded
//! registers and reports the peak per-cluster count it used. The paper:
//! "the realistic machine configurations all have a peak of fewer than 60
//! live registers per cluster … averaging over these benchmarks, each
//! cluster uses a peak of 27 registers. Only ideal mode simulations …
//! require as many as 490 registers."

use super::{every_mode, run_points};
use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;

/// One benchmark × mode register measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterRow {
    /// Benchmark name.
    pub bench: String,
    /// Machine mode.
    pub mode: MachineMode,
    /// Peak registers in any cluster.
    pub peak: u32,
    /// Mean of the per-cluster peaks over clusters actually used.
    pub mean_used: f64,
}

/// Results of the register-pressure study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegisterResults {
    /// All measurements.
    pub rows: Vec<RegisterRow>,
}

impl RegisterResults {
    /// Peak for one benchmark × mode.
    pub fn peak(&self, bench: &str, mode: MachineMode) -> Option<u32> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.mode == mode)
            .map(|r| r.peak)
    }

    /// Largest peak over the realistic (non-Ideal) modes.
    pub fn realistic_peak(&self) -> u32 {
        self.rows
            .iter()
            .filter(|r| r.mode != MachineMode::Ideal)
            .map(|r| r.peak)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-cluster peak over the realistic modes (the paper's 27).
    pub fn realistic_mean(&self) -> f64 {
        let xs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.mode != MachineMode::Ideal)
            .map(|r| r.mean_used)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Register requirements (peak per cluster, compiler-reported)",
            &["Benchmark", "Mode", "Peak", "Mean over used clusters"],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.mode.label().to_string(),
                r.peak.to_string(),
                f2(r.mean_used),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "realistic modes: peak {} / mean {} registers per cluster\n",
            self.realistic_peak(),
            f2(self.realistic_mean()),
        ));
        s
    }
}

/// Runs the study over `benches` (every mode each benchmark supports),
/// fanning the benchmark × mode grid over `jobs` worker threads with
/// serial-identical row ordering.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(benches: &[Benchmark], jobs: usize) -> Result<RegisterResults, RunError> {
    let points = every_mode(benches);
    let rows = run_points(&points, jobs, |&(b, mode, ..), out| {
        // Mean per-cluster peak over clusters that hold any register,
        // over all segments.
        let (mut total, mut used) = (0u64, 0u64);
        for seg in &out.image.info {
            for &c in &seg.regs_per_cluster {
                if c > 0 {
                    total += c as u64;
                    used += 1;
                }
            }
        }
        RegisterRow {
            bench: b.name.to_string(),
            mode,
            peak: out.image.peak_registers,
            mean_used: if used == 0 {
                0.0
            } else {
                total as f64 / used as f64
            },
        }
    })?;
    Ok(RegisterResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn realistic_modes_stay_small_and_ideal_explodes() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        // Paper: realistic < 60 per cluster; allow headroom.
        assert!(
            r.realistic_peak() < 100,
            "realistic peak {}",
            r.realistic_peak()
        );
        // Paper: ideal Matrix needs ~490.
        let ideal = r.peak("Matrix", MachineMode::Ideal).unwrap();
        assert!(ideal > 200, "ideal peak {ideal}");
        assert!(r.render().contains("realistic modes"));
    }
}
