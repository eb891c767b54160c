//! The compile memo of `run_sweep` and the experiment tables must never
//! serve a stale image.
//!
//! A sweep compiles once per (source, schedule mode, compiler options,
//! compile target) and runs the image under every interconnect, memory
//! model and seed that shares the target. These tests pin both halves of that bargain: the
//! compiler emits the same program for two configurations with equal
//! [`MachineConfig::compile_target`]s, and a sweep's rows equal per-cell
//! runs compiled against each cell's full configuration. They live in
//! their own test binary so their load never overlaps the wall-clock
//! assertions in `sweep_engine.rs`.

use coupling::sweep::{run_sweep, MemKind, Mix, SweepError, SweepOptions, SweepSpec};
use coupling::{benchmarks, run_benchmark, MachineMode, RunError};
use pc_compiler::{compile_with_options, CompileError, CompileOptions, ScheduleMode, SegmentInfo};
use pc_isa::{
    ArbitrationPolicy, DebugMap, InterconnectScheme, MachineConfig, MemoryModel, Program,
};

/// Everything a compile hands the simulator and the reports.
type Image = (Program, DebugMap, Vec<SegmentInfo>);

fn image(
    src: &str,
    config: &MachineConfig,
    schedule: ScheduleMode,
    options: CompileOptions,
) -> Result<Image, CompileError> {
    compile_with_options(src, config, schedule, options)
        .map(|out| (out.program, out.debug, out.info))
}

/// The deterministic part of one sweep row.
fn row_line(id: String, peak_registers: u32, stats: &pc_sim::RunStats) -> String {
    let stats = coupling::sweep::codec::stats_to_json(stats);
    format!("{id} regs={peak_registers} {stats}")
}

/// `base` with every runtime-only field moved off its default.
fn runtime_variant(base: &MachineConfig) -> MachineConfig {
    let mut mc = base
        .clone()
        .with_interconnect(InterconnectScheme::SharedBus)
        .with_memory(MemoryModel::mem2().with_banks(4))
        .with_arbitration(ArbitrationPolicy::FixedPriority)
        .with_seed(97)
        .with_lockstep_issue(true)
        .with_wb_buffer(1);
    mc.max_threads = 16;
    mc
}

#[test]
fn equal_compile_targets_compile_every_source_identically() {
    let machines = [MachineConfig::baseline(), MachineConfig::with_mix(2, 3)];
    // The memo also serves the ablations' compiler-option variants, so
    // the target must be all a compile reads under those too.
    let options = [
        CompileOptions::default(),
        CompileOptions {
            optimize: false,
            licm: false,
        },
        CompileOptions {
            optimize: true,
            licm: true,
        },
    ];
    let (mut checked, mut compiled) = (0, 0);
    for bench in benchmarks::all() {
        for mode in MachineMode::all() {
            // Seq/Sts and Tpe/Coupled share a source; the schedule mode
            // tells them apart, so every mode is its own compile.
            let Some(src) = bench.source(mode) else {
                continue;
            };
            let schedule = mode.schedule_mode();
            for base in &machines {
                let variant = runtime_variant(base);
                assert_eq!(variant.compile_target(), base.compile_target());
                for opts in options {
                    // Some sources do not fit a narrow mix; those must
                    // fail alike, since a sweep replays the first
                    // compile's error.
                    let a = image(src, base, schedule, opts);
                    let what = format!("{} {} {opts:?} on {base:?}", bench.name, mode.label());
                    assert_eq!(image(src, &variant, schedule, opts), a, "{what}");
                    let target = base.compile_target();
                    assert_eq!(image(src, &target, schedule, opts), a, "{what}");
                    compiled += usize::from(a.is_ok());
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(
        checked,
        4 * 5 * 2 * 3,
        "every benchmark × mode × mix × options"
    );
    assert!(
        compiled >= 4 * 5 * 3,
        "only {compiled} of {checked} compiled"
    );
}

#[test]
fn shared_compiles_match_per_cell_runs_across_every_runtime_axis() {
    // The sweep compiles once per (source, schedule mode, compile
    // target) and reuses the image across interconnects, memories and
    // seeds. Every row must still equal a cell run on its own, compiled
    // against the cell's full configuration — a stale image (one mix's
    // program on another mix, or a program that depended on a runtime
    // field) shows up here as a differing row or a validation error.
    let spec = SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        interconnects: InterconnectScheme::all().to_vec(),
        memories: MemKind::all().to_vec(),
        mixes: vec![Mix::Baseline, Mix::Units { iu: 2, fpu: 3 }],
        seed: 97,
    };
    let suite = benchmarks::all();
    let cells = spec.cells().unwrap();
    assert_eq!(cells.len(), 2 * 2 * 5 * 3 * 2);
    let want: Vec<String> = cells
        .iter()
        .map(|cell| {
            let bench = suite
                .iter()
                .find(|b| b.name.to_lowercase() == cell.bench)
                .unwrap();
            let out = run_benchmark(bench, cell.mode, cell.config())
                .unwrap_or_else(|e| panic!("{}: {e}", cell.id()));
            row_line(cell.id(), out.image.peak_registers, &out.stats)
        })
        .collect();
    for jobs in [1, 4] {
        let run = run_sweep(
            &spec,
            &SweepOptions {
                jobs,
                telemetry: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let got: Vec<String> = run
            .rows
            .iter()
            .map(|r| row_line(r.cell.id(), r.peak_registers, &r.stats))
            .collect();
        assert_eq!(got, want, "jobs {jobs}");
        // 2 benches × 2 modes × 2 mixes compile; the other 112 reuse,
        // whatever order the workers reached them in.
        let snap = run.telemetry.unwrap();
        assert_eq!(snap.value("compiles_total"), Some(8), "jobs {jobs}");
        assert_eq!(snap.value("compile_reuses_total"), Some(112), "jobs {jobs}");
    }
}

#[test]
fn a_shared_compile_error_fails_the_lowest_cell_that_needs_it() {
    // TPE pins each forall variant to its own cluster's integer unit,
    // which the 2x3 mix lacks on two of its clusters: every 2x3 cell of
    // this grid shares one failing compile. The sweep must still name
    // the lowest-indexed of them, with the compiler's error, at any
    // `jobs`.
    let spec = SweepSpec {
        benches: vec!["matrix".into()],
        modes: vec![MachineMode::Tpe],
        interconnects: vec![InterconnectScheme::Full, InterconnectScheme::SharedBus],
        memories: vec![MemKind::Min, MemKind::Mem2],
        mixes: vec![Mix::Baseline, Mix::Units { iu: 2, fpu: 3 }],
        seed: 3,
    };
    for jobs in [1, 4] {
        let err = run_sweep(
            &spec,
            &SweepOptions {
                jobs,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        match err {
            SweepError::Cell { cell, error } => {
                assert_eq!(cell, "matrix/tpe/full/min/2x3/s3", "jobs {jobs}");
                assert!(
                    matches!(error, RunError::Compile(_)),
                    "jobs {jobs}: {error}"
                );
            }
            other => panic!("jobs {jobs}: {other}"),
        }
    }
}
