//! Shape tests: the qualitative results of every table and figure hold —
//! who wins, roughly by how much, and where the crossovers fall. Absolute
//! cycle counts differ from the paper (different compiler, seeds and
//! netlists); orderings and ratio bands are what we assert.

use coupling::experiments::{baseline, comm, interference, latency, mix};
use coupling::{benchmarks, MachineMode};
use pc_isa::InterconnectScheme;

/// Table 2: SEQ is slowest, Coupled beats STS, Ideal is the lower bound,
/// and TPE ≈ Coupled on the easily partitioned benchmarks.
#[test]
fn table2_mode_orderings() {
    let r = baseline::run(&[benchmarks::matrix(), benchmarks::fft()], 1).unwrap();
    for bench in ["Matrix", "FFT"] {
        let seq = r.cycles(bench, MachineMode::Seq).unwrap();
        let sts = r.cycles(bench, MachineMode::Sts).unwrap();
        let coupled = r.cycles(bench, MachineMode::Coupled).unwrap();
        let ideal = r.cycles(bench, MachineMode::Ideal).unwrap();
        assert!(seq > sts, "{bench}: SEQ {seq} <= STS {sts}");
        assert!(sts > coupled, "{bench}: STS {sts} <= Coupled {coupled}");
        assert!(
            ideal < coupled,
            "{bench}: Ideal {ideal} >= Coupled {coupled}"
        );
        // Paper: SEQ ≈ 3× Coupled.
        let ratio = seq as f64 / coupled as f64;
        assert!((1.8..5.5).contains(&ratio), "{bench}: SEQ/Coupled {ratio}");
    }
    // Matrix: TPE ≈ Coupled ("nearly equivalent").
    let tpe = r.cycles("Matrix", MachineMode::Tpe).unwrap() as f64;
    let coupled = r.cycles("Matrix", MachineMode::Coupled).unwrap() as f64;
    assert!(
        (0.75..1.3).contains(&(tpe / coupled)),
        "TPE/Coupled {}",
        tpe / coupled
    );
}

/// Table 2, FFT: "one advantage of Coupled over TPE is found in
/// sequential code execution" — the sequential bit-reverse keeps TPE
/// behind Coupled.
#[test]
fn table2_fft_coupled_beats_tpe() {
    let r = baseline::run(&[benchmarks::fft()], 1).unwrap();
    let tpe = r.cycles("FFT", MachineMode::Tpe).unwrap();
    let coupled = r.cycles("FFT", MachineMode::Coupled).unwrap();
    assert!(coupled < tpe, "Coupled {coupled} vs TPE {tpe}");
}

/// Figure 5: utilization rises toward Ideal; Matrix Ideal nearly fills
/// every floating-point slot (paper: 3.9 of 4).
#[test]
fn fig5_ideal_matrix_fpu_nearly_saturates() {
    let r = baseline::run(&[benchmarks::matrix()], 1).unwrap();
    let row = r
        .rows
        .iter()
        .find(|x| x.mode == MachineMode::Ideal)
        .unwrap();
    let fpu = *row.utilization.get(&pc_isa::UnitClass::Float).unwrap();
    assert!(fpu > 3.5, "Ideal Matrix FPU utilization {fpu}");
    // Loop overhead gone: integer utilization collapses (paper: 0.28).
    let iu = *row.utilization.get(&pc_isa::UnitClass::Integer).unwrap();
    assert!(iu < 1.0, "Ideal Matrix IU utilization {iu}");
    // And utilization increases monotonically from SEQ to Coupled.
    let u = |m: MachineMode| {
        r.rows.iter().find(|x| x.mode == m).unwrap().utilization[&pc_isa::UnitClass::Float]
    };
    assert!(u(MachineMode::Seq) < u(MachineMode::Sts));
    assert!(u(MachineMode::Sts) < u(MachineMode::Coupled));
}

/// Table 3: priorities dilate the low-priority threads' runtime schedules,
/// every thread runs no faster than its compile-time schedule, and the
/// aggregate still beats STS.
#[test]
fn table3_interference_shape() {
    let r = interference::run().unwrap();
    let workers: Vec<_> = r.rows.iter().filter(|x| x.mode == "Coupled").collect();
    assert_eq!(workers.len(), 4);
    // Monotone: lower priority -> more cycles per iteration.
    for pair in workers.windows(2) {
        assert!(
            pair[1].runtime_cycles >= pair[0].runtime_cycles * 0.95,
            "priority dilation not monotone: {workers:?}"
        );
    }
    // The highest-priority worker still dilates beyond its schedule
    // (queue contention), like the paper's 28 vs 23.
    assert!(workers[0].runtime_cycles > workers[0].compile_time_schedule as f64);
    // Aggregate coupled time beats STS despite per-thread dilation.
    assert!(r.coupled_total < r.sts_total);
    // The weighted average exceeds the static schedule substantially.
    assert!(r.coupled_weighted_avg() > workers[0].compile_time_schedule as f64);
}

/// Figure 6: Tri-Port is nearly as good as Full (paper: +4% mean); the
/// single-port and single-bus schemes degrade sharply; area shrinks.
#[test]
fn fig6_comm_shape() {
    let r = comm::run(&[benchmarks::matrix(), benchmarks::model()], 1).unwrap();
    let tri = r.mean_overhead(InterconnectScheme::TriPort);
    assert!(tri < 1.20, "Tri-Port mean overhead {tri}");
    let single = r.mean_overhead(InterconnectScheme::SinglePort);
    let bus = r.mean_overhead(InterconnectScheme::SharedBus);
    assert!(single > 1.25, "Single-Port {single}");
    assert!(bus > 1.25, "Shared-Bus {bus}");
    assert!(single > tri && bus > tri);
    // Model is "hardly affected" (low ILP): Tri-Port within a few percent.
    let model_tri = r.overhead("Model", InterconnectScheme::TriPort).unwrap();
    assert!(
        (0.9..1.1).contains(&model_tri),
        "Model Tri-Port {model_tri}"
    );
    // Area claim: Tri-Port a fraction of fully connected (paper: 28%).
    let area = r
        .area_ratios
        .iter()
        .find(|(s, _)| *s == InterconnectScheme::TriPort)
        .unwrap()
        .1;
    assert!((0.1..0.5).contains(&area), "area ratio {area}");
}

/// Figure 7: long latencies hurt the statically scheduled machine far
/// more than the threaded ones; Matrix Ideal is barely affected (its
/// registers replaced most memory references).
#[test]
fn fig7_latency_shape() {
    let r = latency::run(&[benchmarks::matrix()], 1).unwrap();
    let sts = r.slowdown("Matrix", MachineMode::Sts, "Mem2").unwrap();
    let tpe = r.slowdown("Matrix", MachineMode::Tpe, "Mem2").unwrap();
    let coupled = r.slowdown("Matrix", MachineMode::Coupled, "Mem2").unwrap();
    let ideal = r.slowdown("Matrix", MachineMode::Ideal, "Mem2").unwrap();
    assert!(sts > coupled * 1.5, "STS {sts} vs Coupled {coupled}");
    assert!(ideal < sts, "Ideal {ideal} vs STS {sts}");
    // TPE hides latency almost as well as Coupled (paper: 2.3 vs 2.0).
    assert!(
        (0.7..1.6).contains(&(tpe / coupled)),
        "TPE/Coupled {}",
        tpe / coupled
    );
    // Mem1 is milder than Mem2.
    let m1 = r.slowdown("Matrix", MachineMode::Sts, "Mem1").unwrap();
    assert!(m1 < sts);
}

/// Figure 8: cycle count is highest at 1 IU × 1 FPU and decreases with
/// more units; integer units can be the bottleneck even in floating-point
/// code.
#[test]
fn fig8_mix_shape() {
    let r = mix::run(&[benchmarks::matrix()], 4, 1).unwrap();
    let c = |iu, fpu| r.cycles("Matrix", iu, fpu).unwrap();
    assert!(c(1, 1) > c(4, 4), "1x1 {} vs 4x4 {}", c(1, 1), c(4, 4));
    // Adding IUs helps at fixed FPU count.
    assert!(c(4, 2) < c(1, 2), "IU scaling: {} vs {}", c(4, 2), c(1, 2));
    // Adding FPUs helps at fixed IU count.
    assert!(c(2, 4) < c(2, 1), "FPU scaling: {} vs {}", c(2, 4), c(2, 1));
    // One IU saturates: with IU=1, adding FPUs beyond 2 barely helps
    // (within 10%).
    let flat = c(1, 4) as f64 / c(1, 2) as f64;
    assert!((0.8..1.1).contains(&flat), "IU=1 FPU scaling {flat}");
}
