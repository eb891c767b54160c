//! Determinism guardrails for the hot-loop refactor and the parallel
//! sweep driver: the simulator must produce bit-identical statistics for
//! the same benchmark/config across repeated runs, and the parallel
//! sweep must reproduce the serial sweep's results exactly (same rows,
//! same order).

use coupling::experiments::{ablation, baseline, comm, latency, mix, registers, scaling};
use coupling::{benchmarks, run_benchmark, MachineMode};
use pc_isa::{InterconnectScheme, MachineConfig, MemoryModel};

/// Repeated runs of one benchmark × mode × config are bit-identical:
/// cycles, ops_issued, per-class counts — the whole `RunStats`.
#[test]
fn repeated_runs_are_bit_identical() {
    let cases = [
        (
            benchmarks::matrix(),
            MachineMode::Coupled,
            MachineConfig::baseline(),
        ),
        (
            benchmarks::fft(),
            MachineMode::Sts,
            MachineConfig::baseline(),
        ),
        (
            benchmarks::matrix(),
            MachineMode::Tpe,
            MachineConfig::baseline().with_interconnect(InterconnectScheme::TriPort),
        ),
        // Random-miss memory model: determinism must come from the seed.
        (
            benchmarks::model(),
            MachineMode::Coupled,
            MachineConfig::baseline()
                .with_memory(MemoryModel::mem2())
                .with_seed(1992),
        ),
    ];
    for (bench, mode, config) in cases {
        let a = run_benchmark(&bench, mode, config.clone()).unwrap();
        let b = run_benchmark(&bench, mode, config).unwrap();
        assert_eq!(
            a.stats, b.stats,
            "{} {mode}: repeated runs diverged",
            bench.name
        );
        assert_eq!(a.image.peak_registers, b.image.peak_registers);
    }
}

/// The parallel Table-2 sweep reproduces the serial sweep bit for bit,
/// independent of worker count.
#[test]
fn baseline_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix(), benchmarks::fft()];
    let serial = baseline::run(&benches, 1).unwrap();
    for jobs in [2, 5] {
        let parallel = baseline::run(&benches, jobs).unwrap();
        assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
    }
    // Every cycle count individually, for a readable failure if the
    // aggregate assert ever trips.
    let parallel = baseline::run(&benches, 3).unwrap();
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.cycles, p.cycles, "{} {}", s.bench, s.mode);
        assert_eq!(s.ops, p.ops, "{} {}", s.bench, s.mode);
    }
}

/// The interconnect sweep (Figure 6 grid) is order- and value-stable
/// under parallel execution.
#[test]
fn comm_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix()];
    let serial = comm::run(&benches, 1).unwrap();
    let parallel = comm::run(&benches, 4).unwrap();
    assert_eq!(serial, parallel);
}

/// The latency sweep uses the seeded random-miss memory models; seeds
/// are per grid point, so the parallel fan-out must not perturb them.
#[test]
fn latency_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix()];
    let serial = latency::run(&benches, 1).unwrap();
    let parallel = latency::run(&benches, 4).unwrap();
    assert_eq!(serial, parallel);
}

/// The function-unit mix grid (Figure 8) under parallel execution.
#[test]
fn mix_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix()];
    let serial = mix::run(&benches, 2, 1).unwrap();
    let parallel = mix::run(&benches, 2, 4).unwrap();
    assert_eq!(serial, parallel);
}

/// The scaling sweep compiles sources generated per grid point; the
/// parallel driver must keep size × mode ordering.
#[test]
fn scaling_sweep_parallel_matches_serial() {
    let serial = scaling::run(&[4, 6], 1).unwrap();
    let parallel = scaling::run(&[4, 6], 4).unwrap();
    assert_eq!(serial, parallel);
}

/// The ablation studies run as one flattened study × benchmark × variant
/// grid, compiler-option variants included; the parallel fan-out must
/// give back every study's rows in serial order.
#[test]
fn ablation_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix()];
    let serial = ablation::run(&benches, 1).unwrap();
    let parallel = ablation::run(&benches, 4).unwrap();
    assert_eq!(serial.len(), 10, "every study reports");
    assert_eq!(serial, parallel);
}

/// The register study reads compiler diagnostics off shared compiles;
/// the parallel driver must reproduce them row for row.
#[test]
fn registers_sweep_parallel_matches_serial() {
    let benches = [benchmarks::matrix(), benchmarks::fft()];
    let serial = registers::run(&benches, 1).unwrap();
    let parallel = registers::run(&benches, 4).unwrap();
    assert_eq!(serial, parallel);
}
