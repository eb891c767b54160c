//! Figure 6: restricting communication between function units. Coupled
//! mode over the five bus/write-port schemes, plus the §4 area model
//! ("in a four cluster system the interconnection and register file area
//! for Tri-Port is 28% that of complete connection").

use super::{run_points, Point};
use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;
use pc_compiler::CompileOptions;
use pc_isa::{InterconnectScheme, MachineConfig};
use pc_xconn::area;

/// One benchmark × scheme measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRow {
    /// Benchmark name.
    pub bench: String,
    /// Interconnect scheme.
    pub scheme: InterconnectScheme,
    /// Cycle count.
    pub cycles: u64,
    /// Write attempts denied by port/bus arbitration.
    pub denials: u64,
}

/// Results of the communication study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommResults {
    /// All measurements.
    pub rows: Vec<CommRow>,
    /// `(scheme, area relative to Full)` from the analytic model.
    pub area_ratios: Vec<(InterconnectScheme, f64)>,
}

impl CommResults {
    /// Cycles for one point.
    pub fn cycles(&self, bench: &str, scheme: InterconnectScheme) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.scheme == scheme)
            .map(|r| r.cycles)
    }

    /// A scheme's cycle overhead versus Full for one benchmark.
    pub fn overhead(&self, bench: &str, scheme: InterconnectScheme) -> Option<f64> {
        let full = self.cycles(bench, InterconnectScheme::Full)? as f64;
        Some(self.cycles(bench, scheme)? as f64 / full)
    }

    /// Mean overhead of a scheme across all measured benchmarks.
    pub fn mean_overhead(&self, scheme: InterconnectScheme) -> f64 {
        let mut benches: Vec<&str> = self.rows.iter().map(|r| r.bench.as_str()).collect();
        benches.dedup();
        let xs: Vec<f64> = benches
            .iter()
            .filter_map(|b| self.overhead(b, scheme))
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
            "Figure 6 — restricted communication (Coupled mode)",
            &["Benchmark", "Scheme", "#Cycles", "vs Full", "Denied writes"],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.scheme.label().to_string(),
                r.cycles.to_string(),
                f2(self.overhead(&r.bench, r.scheme).unwrap_or(f64::NAN)),
                r.denials.to_string(),
            ]);
        }
        let mut s = t.render();
        s.push_str("area model (relative to Full): ");
        for (scheme, ratio) in &self.area_ratios {
            s.push_str(&format!("{}={} ", scheme.label(), f2(*ratio)));
        }
        s.push('\n');
        s
    }
}

/// Runs the communication study over `benches`, fanning the benchmark ×
/// scheme grid over `jobs` worker threads with serial-identical row
/// ordering.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(benches: &[Benchmark], jobs: usize) -> Result<CommResults, RunError> {
    let points: Vec<Point> = benches
        .iter()
        .flat_map(|b| {
            InterconnectScheme::all().into_iter().map(move |s| {
                let config = MachineConfig::baseline().with_interconnect(s);
                (b, MachineMode::Coupled, config, CompileOptions::default())
            })
        })
        .collect();
    let rows = run_points(&points, jobs, |(b, _, config, _), out| CommRow {
        bench: b.name.to_string(),
        scheme: config.interconnect,
        cycles: out.stats.cycles,
        denials: out.stats.xconn.denials,
    })?;
    let baseline = MachineConfig::baseline();
    let area_ratios = InterconnectScheme::all()
        .into_iter()
        .map(|s| (s, area::ratio_to_full(&baseline, s)))
        .collect();
    Ok(CommResults { rows, area_ratios })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn restricting_ports_never_speeds_up_and_triport_stays_close() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        let full = r.cycles("Matrix", InterconnectScheme::Full).unwrap();
        for scheme in InterconnectScheme::all() {
            let c = r.cycles("Matrix", scheme).unwrap();
            assert!(c >= full, "{scheme} {c} < Full {full}");
        }
        // Paper: Tri-Port ≈ +4% on average; allow a loose band per-benchmark.
        let tri = r.overhead("Matrix", InterconnectScheme::TriPort).unwrap();
        assert!(tri < 1.30, "Tri-Port overhead {tri}");
        // Single-port is the most restricted port scheme.
        let single = r
            .overhead("Matrix", InterconnectScheme::SinglePort)
            .unwrap();
        assert!(single >= tri, "Single-Port {single} vs Tri-Port {tri}");
        // Denials appear once ports are restricted.
        assert_eq!(
            r.rows
                .iter()
                .find(|x| x.scheme == InterconnectScheme::Full)
                .unwrap()
                .denials,
            0
        );
    }

    #[test]
    fn area_ratios_present_and_render() {
        let r = run(&[benchmarks::matrix()], 1).unwrap();
        assert_eq!(r.area_ratios.len(), 5);
        let tri = r
            .area_ratios
            .iter()
            .find(|(s, _)| *s == InterconnectScheme::TriPort)
            .unwrap()
            .1;
        assert!((0.1..0.5).contains(&tri), "tri-port area ratio {tri}");
        assert!(r.render().contains("Tri-Port"));
    }
}
