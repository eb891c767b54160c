//! Differential testing of the two issue engines against each other.
//!
//! The decoded engine (readiness bitmasks, targeted cache repair, bulk
//! idle-cycle skipping, pre-resolved operands, threaded-code dispatch)
//! is a pure performance restructuring: for every benchmark and machine
//! mode, under slip and under lockstep issue, it must produce a
//! [`pc_sim::RunStats`] that is *bit-identical* to the scan-every-cycle
//! reference engine's — cycle counts, per-unit op counts, and the full
//! stall table including the per-slot attribution counters. The scan
//! engine issues straight from the program, never from a decoded
//! record, so any divergence is a decode or scheduling bug, not noise.

use coupling::{benchmarks, MachineMode};
use pc_isa::MachineConfig;
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats, StallProfiler};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Runs one benchmark variant on the chosen issue engine, from a
/// shared decoded image (decode happens once per benchmark × mode, as
/// it would at `Machine` load time). Profiled runs attach a
/// [`StallProfiler`] and return its table as `stalls`.
fn run_engine(
    bench: &coupling::Benchmark,
    mode: MachineMode,
    code: &Arc<DecodedProgram>,
    engine: EngineKind,
    profiled: bool,
) -> RunStats {
    let mut machine = Machine::from_decoded(Arc::clone(code)).unwrap();
    machine.set_engine(engine);
    let profiler = Rc::new(RefCell::new(StallProfiler::new(machine.program())));
    if profiled {
        machine.attach_probe(Box::new(Rc::clone(&profiler)));
    }
    (bench.setup)(&mut machine).unwrap();
    let mut stats = machine
        .run(20_000_000)
        .unwrap_or_else(|e| panic!("{} {} {}: {e}", bench.name, mode.label(), engine.name()));
    if profiled {
        stats.stalls = profiler.borrow().table();
    }
    stats
}

/// Asserts bit-identical stats across both engines, plain and
/// profiled, under slip and lockstep issue, for every mode the benchmark
/// supports. The scan engine is the oracle; decoded must match it
/// exactly.
fn engines_agree(bench: &coupling::Benchmark) {
    for lockstep in [false, true] {
        for mode in MachineMode::all() {
            let Some(src) = bench.source(mode) else {
                continue;
            };
            let config = MachineConfig::baseline().with_lockstep_issue(lockstep);
            let out = pc_compiler::compile(src, &config, mode.schedule_mode())
                .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name, mode.label()));
            let code = Arc::new(DecodedProgram::decode(config, Arc::new(out.program)).unwrap());
            for profiled in [false, true] {
                let reference = run_engine(bench, mode, &code, EngineKind::Scan, profiled);
                let fast = run_engine(bench, mode, &code, EngineKind::Decoded, profiled);
                let case = format!(
                    "{} {} (lockstep={lockstep}, profiled={profiled})",
                    bench.name,
                    mode.label()
                );
                // The stall table first, for a readable failure.
                assert_eq!(
                    fast.stalls, reference.stalls,
                    "{case}: stall tables diverge"
                );
                assert_eq!(fast, reference, "{case}: stats diverge");
            }
        }
    }
}

#[test]
fn matrix_engines_agree() {
    engines_agree(&benchmarks::matrix());
}

#[test]
fn fft_engines_agree() {
    engines_agree(&benchmarks::fft());
}

#[test]
fn lud_engines_agree() {
    engines_agree(&benchmarks::lud());
}

#[test]
fn model_engines_agree() {
    engines_agree(&benchmarks::model());
}
