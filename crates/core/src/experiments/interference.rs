//! Table 3: thread interference. Four prioritized threads in Coupled mode
//! share a queue of 20 identical device evaluations; their statically
//! scheduled loops dilate at runtime according to priority, yet the
//! aggregate beats the single-threaded STS machine.

use crate::benchmarks::{model_queue_coupled, model_queue_sts, Benchmark};
use crate::report::{f2, Table};
use crate::runner::{run_compiled, source_of, CompiledBenchmark, Observe, RunError, RunOutcome};
use crate::MachineMode;
use pc_compiler::CompileOptions;
use pc_isa::{ArbitrationPolicy, BranchOp, MachineConfig, OpKind, Program, SegmentId};
use std::sync::Arc;

/// Per-thread measurement.
#[derive(Debug, Clone)]
pub struct ThreadRow {
    /// Report label ("STS" or "Coupled").
    pub mode: &'static str,
    /// 1-based worker number (priority order; 1 = highest).
    pub thread: usize,
    /// Static schedule length of the worker's loop body, in rows.
    pub compile_time_schedule: u32,
    /// Mean observed cycles between loop probes.
    pub runtime_cycles: f64,
    /// Devices the thread evaluated.
    pub devices: usize,
}

/// Results of the interference study.
#[derive(Debug, Clone)]
pub struct InterferenceResults {
    /// Per-thread rows, STS first.
    pub rows: Vec<ThreadRow>,
    /// Total cycles of the STS run.
    pub sts_total: u64,
    /// Total cycles of the Coupled run.
    pub coupled_total: u64,
}

impl InterferenceResults {
    /// Weighted average cycles per device evaluation in Coupled mode.
    pub fn coupled_weighted_avg(&self) -> f64 {
        let (mut num, mut den) = (0.0, 0usize);
        for r in self.rows.iter().filter(|r| r.mode == "Coupled") {
            num += r.runtime_cycles * r.devices as f64;
            den += r.devices;
        }
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 3 — interference: per-iteration schedule vs runtime (priority arbitration)",
            &[
                "Mode",
                "Thread",
                "Compile-Time Schedule",
                "Runtime Cycles",
                "Devices",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.mode.to_string(),
                r.thread.to_string(),
                r.compile_time_schedule.to_string(),
                f2(r.runtime_cycles),
                r.devices.to_string(),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "aggregate: Coupled {} cycles vs STS {} cycles; Coupled weighted avg {} cycles/device\n",
            self.coupled_total,
            self.sts_total,
            f2(self.coupled_weighted_avg()),
        ));
        s
    }
}

/// Longest backward-branch span in a segment — the static schedule length
/// of its (outermost) loop body.
fn loop_body_rows(program: &Program, seg: SegmentId) -> u32 {
    let seg = program.segment(seg);
    let mut best = 0;
    for (row, word) in seg.rows.iter().enumerate() {
        for (_, op) in word.slots() {
            if let OpKind::Branch(BranchOp::Jmp { target } | BranchOp::Br { target, .. }) = &op.kind
            {
                if (*target as usize) <= row {
                    best = best.max(row as u32 - target + 1);
                }
            }
        }
    }
    best
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Per-thread probe statistics of a run: `(thread id, mean interval,
/// count)` for worker threads, ordered by priority.
fn worker_probe_rows(out: &RunOutcome) -> Vec<(u32, f64, usize)> {
    let mut threads: Vec<u32> = out.stats.probes.iter().map(|p| p.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    threads
        .into_iter()
        .map(|t| {
            let intervals = out.stats.probe_intervals(t, 1);
            (t, mean(&intervals), out.stats.probe_count(t, 1))
        })
        .collect()
}

/// Compiles and runs `bench` once, returning the outcome together with
/// the program it ran (whose loop schedules the table reports).
fn run_one(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
) -> Result<(RunOutcome, Arc<Program>), RunError> {
    let image = CompiledBenchmark::compile(
        source_of(bench, mode)?,
        mode.schedule_mode(),
        &config,
        CompileOptions::default(),
    )?;
    let out = run_compiled(bench, &image, config, &Observe::default())?;
    Ok((out, Arc::clone(image.code.program())))
}

/// Runs the interference study.
///
/// # Errors
/// Propagates pipeline failures.
pub fn run() -> Result<InterferenceResults, RunError> {
    // STS comparison point: one thread, unrestricted clusters.
    let (sts, sts_program) = run_one(
        &model_queue_sts(),
        MachineMode::Sts,
        MachineConfig::baseline(),
    )?;
    // Coupled: four workers under fixed priority.
    let (coupled, coupled_program) = run_one(
        &model_queue_coupled(),
        MachineMode::Coupled,
        MachineConfig::baseline().with_arbitration(ArbitrationPolicy::FixedPriority),
    )?;

    let mut rows = Vec::new();
    // STS row: static loop of the main segment.
    let sts_probes = worker_probe_rows(&sts);
    let (mut sts_rt, mut sts_devices) = (0.0, 20);
    if let Some(&(_, m, n)) = sts_probes.first() {
        sts_rt = m;
        sts_devices = n;
    }
    rows.push(ThreadRow {
        mode: "STS",
        thread: 1,
        compile_time_schedule: loop_body_rows(&sts_program, SegmentId(0)),
        runtime_cycles: sts_rt,
        devices: sts_devices,
    });

    // Coupled rows: workers are threads 1..=4 (spawn order = priority).
    // Worker segments are the forall variants (ids 1..=k); report the
    // *shortest* variant's loop as the nominal compile-time schedule the
    // way the paper quotes one number per thread.
    for (i, (t, m, n)) in worker_probe_rows(&coupled).into_iter().enumerate() {
        let seg = coupled
            .stats
            .thread_spans
            .get(t as usize)
            .map(|_| SegmentId(i as u32 + 1))
            .unwrap_or(SegmentId(1));
        rows.push(ThreadRow {
            mode: "Coupled",
            thread: i + 1,
            compile_time_schedule: loop_body_rows(&coupled_program, seg),
            runtime_cycles: m,
            devices: n,
        });
    }

    Ok(InterferenceResults {
        rows,
        sts_total: sts.stats.cycles,
        coupled_total: coupled.stats.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_reproduces_paper_shape() {
        let r = run().unwrap();
        // One STS row + four worker rows.
        assert_eq!(r.rows.len(), 5);
        let workers: Vec<&ThreadRow> = r.rows.iter().filter(|x| x.mode == "Coupled").collect();
        assert_eq!(workers.len(), 4);
        // All 20 devices evaluated, split across workers.
        let total: usize = workers.iter().map(|w| w.devices).sum();
        assert_eq!(total, 20);
        // Higher-priority threads evaluate at least as many devices.
        for pair in workers.windows(2) {
            assert!(
                pair[0].devices >= pair[1].devices,
                "priority order violated: {:?}",
                workers
            );
        }
        // Runtime dilates beyond the static schedule for every worker.
        for w in &workers {
            assert!(
                w.runtime_cycles + 1e-9 >= w.compile_time_schedule as f64,
                "thread {} runs faster than its schedule",
                w.thread
            );
        }
        // Aggregate: Coupled finishes the 20 evaluations faster than STS.
        assert!(
            r.coupled_total < r.sts_total,
            "coupled {} vs sts {}",
            r.coupled_total,
            r.sts_total
        );
        let rendered = r.render();
        assert!(rendered.contains("Coupled"));
    }
}
