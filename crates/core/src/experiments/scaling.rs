//! Problem-size scaling (an extension beyond the paper): the paper's
//! Matrix benchmark at sizes beyond its fixed 9×9, comparing how the STS
//! and Coupled machines scale. Coupled's advantage is expected to persist
//! (the thread supply grows with the problem), while the per-iteration
//! loop overheads amortize for both.

use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::{RunError, CYCLE_LIMIT};
use pc_compiler::compile;
use pc_isa::{MachineConfig, Value};
use pc_sim::Machine;

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

fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
    let a = (0..n * n).map(|x| 0.25 * ((x % 7) as f64) - 0.75).collect();
    let b = (0..n * n).map(|x| 0.5 * ((x % 5) as f64) - 1.0).collect();
    (a, b)
}

/// Runs one size × mode point, validating numerically.
fn run_point(n: usize, mode: MachineMode) -> Result<u64, RunError> {
    let config = MachineConfig::baseline();
    let out = compile(
        &source(n, mode.is_threaded()),
        &config,
        mode.schedule_mode(),
    )?;
    let mut m = Machine::new(config, out.program)?;
    let (a, b) = inputs(n);
    let write = |m: &mut Machine, name: &str, xs: &[f64]| {
        let vals: Vec<Value> = xs.iter().map(|&x| Value::Float(x)).collect();
        m.write_global(name, &vals)
    };
    write(&mut m, "ma", &a)?;
    write(&mut m, "mb", &b)?;
    m.set_global_empty("done")?;
    let stats = m.run(CYCLE_LIMIT)?;
    // Validate against a straightforward reference.
    let got = m.read_global("mc")?;
    for i in 0..n {
        for j in 0..n {
            let mut want = 0.0;
            for k in 0..n {
                want += a[i * n + k] * b[k * n + j];
            }
            let g = got[i * n + j]
                .as_float()
                .map_err(|e| RunError::Check(format!("mc[{i}][{j}]: {e}")))?;
            if (g - want).abs() > 1e-9 * (1.0 + want.abs()) {
                return Err(RunError::Check(format!(
                    "n={n} {mode}: mc[{i}][{j}] got {g}, want {want}"
                )));
            }
        }
    }
    Ok(stats.cycles)
}

/// The default sizes (4–24; 24 spawns 24 threads + main, within budget).
pub const SIZES: [usize; 4] = [4, 9, 16, 24];

/// Runs the study over `sizes` (see [`SIZES`]), fanning the size × mode
/// grid over `jobs` worker threads with serial-identical row ordering.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(sizes: &[usize], jobs: usize) -> Result<ScalingResults, RunError> {
    let points: Vec<(usize, MachineMode)> = sizes
        .iter()
        .flat_map(|&n| [MachineMode::Sts, MachineMode::Coupled].map(|mode| (n, mode)))
        .collect();
    let rows = crate::sweep::try_par_map(&points, jobs, |&(n, mode)| -> Result<_, RunError> {
        Ok(ScalingRow {
            n,
            mode,
            cycles: run_point(n, mode)?,
        })
    })?;
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
