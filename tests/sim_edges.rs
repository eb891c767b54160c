//! Edge-of-envelope simulator behaviour, driven through compiled
//! programs: resource limits, runtime errors, deep pipelines, and odd
//! machine shapes.

use coupling::{benchmarks, run_benchmark, MachineMode};
use pc_compiler::{compile, ScheduleMode};
use pc_isa::{MachineConfig, UnitClass, Value};
use pc_sim::{Machine, RingSink, SimError};
use std::cell::RefCell;
use std::rc::Rc;

fn build(src: &str, config: &MachineConfig) -> Machine {
    let out = compile(src, config, ScheduleMode::Unrestricted).expect("compiles");
    Machine::new(config.clone(), out.program).expect("loads")
}

#[test]
fn fork_beyond_thread_budget_errors() {
    // 100 concurrent children exceed the 64-thread active set: each
    // blocks *using* a value nobody ever produces, so it stays alive.
    // (A bare `(consume hold 0)` would not pin the thread: the reference
    // parks in the memory system and the thread halts — split
    // transactions outlive their issuer.)
    let src = r#"
        (global hold (array int 1))
        (global sink (array int 100))
        (defun main ()
          (forall (i 0 100) (aset sink i (consume hold 0))))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    m.set_global_empty("hold").unwrap();
    let err = m.run(1_000_000).unwrap_err();
    assert!(matches!(err, SimError::ThreadLimit { max: 64 }), "{err}");
}

#[test]
fn short_lived_threads_recycle_budget() {
    // 100 sequentially-completing children are fine: each halts quickly.
    let src = r#"
        (global out (array int 4))
        (defun main ()
          (forall (i 0 100) (aset out (and i 3) i)))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    let stats = m.run(1_000_000).unwrap();
    assert_eq!(stats.threads_spawned, 101);
}

#[test]
fn negative_address_is_a_memory_error() {
    let src = r#"
        (global out (array int 1))
        (defun main () (aset out -5 1))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    assert!(matches!(m.run(10_000), Err(SimError::Mem(_))));
}

#[test]
fn float_address_is_a_type_error() {
    let src = r#"
        (global fs (array float 2)) (global out (array int 1))
        (defun main ()
          (let ((x (aref fs 0)))
            ;; use the float as an index via a bad program: (int x) would
            ;; be fine, so store through a computed float... the language
            ;; rejects float indices statically; instead divide by zero.
            (aset out 0 (/ 1 (- 1 1)))))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    let err = m.run(10_000).unwrap_err();
    assert!(
        matches!(err, SimError::Isa(pc_isa::IsaError::DivideByZero)),
        "{err}"
    );
}

#[test]
fn deep_fpu_pipeline_validates_all_benchmarks() {
    for lat in [2, 4] {
        let config = MachineConfig::baseline().with_unit_latency(UnitClass::Float, lat);
        for b in [benchmarks::matrix(), benchmarks::fft()] {
            run_benchmark(&b, MachineMode::Coupled, config.clone())
                .unwrap_or_else(|e| panic!("lat {lat} {}: {e}", b.name));
        }
    }
}

#[test]
fn deep_memory_unit_pipeline_validates() {
    let config = MachineConfig::baseline().with_unit_latency(UnitClass::Memory, 3);
    run_benchmark(&benchmarks::matrix(), MachineMode::Coupled, config).unwrap();
}

#[test]
fn lockstep_runs_whole_benchmarks() {
    let config = MachineConfig::baseline().with_lockstep_issue(true);
    for b in [benchmarks::matrix(), benchmarks::fft(), benchmarks::model()] {
        run_benchmark(&b, MachineMode::Coupled, config.clone())
            .unwrap_or_else(|e| panic!("lockstep {}: {e}", b.name));
    }
}

#[test]
fn trace_reconstructs_issue_counts() {
    let src = r#"
        (global out (array int 4))
        (defun main ()
          (forall (i 0 4) (aset out i (* i 3))))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    let ring = Rc::new(RefCell::new(RingSink::new(usize::MAX)));
    m.attach_probe(Box::new(Rc::clone(&ring)));
    let stats = m.run(100_000).unwrap();
    let trace = ring.borrow().issue_events();
    assert_eq!(trace.len() as u64, stats.ops_issued);
    // Per-thread counts in the trace match the stats.
    for (t, &count) in stats.ops_by_thread.iter().enumerate() {
        let in_trace = trace.iter().filter(|e| e.thread == t as u32).count() as u64;
        assert_eq!(in_trace, count, "thread {t}");
    }
    // Never two events on one unit in one cycle.
    let mut seen = std::collections::HashSet::new();
    for e in &trace {
        assert!(
            seen.insert((e.cycle, e.fu)),
            "double issue on {:?}",
            (e.cycle, e.fu)
        );
    }
}

#[test]
fn stats_utilization_is_bounded_by_unit_count() {
    let out = run_benchmark(
        &benchmarks::matrix(),
        MachineMode::Ideal,
        MachineConfig::baseline(),
    )
    .unwrap();
    for class in UnitClass::all() {
        let u = out.stats.utilization(class);
        let n = MachineConfig::baseline().count_class(class) as f64;
        assert!(u <= n + 1e-9, "{class}: {u} > {n}");
    }
}

#[test]
fn single_arith_cluster_machine_runs_sequential_code() {
    // A minimal workstation-like node: 1 arithmetic + 1 branch cluster.
    let config = MachineConfig::new(vec![
        pc_isa::ClusterConfig::arithmetic(),
        pc_isa::ClusterConfig::branch(),
    ]);
    let src = r#"
        (global out (array float 1))
        (defun main ()
          (let ((s 0.0))
            (for (i 0 10) (set s (+ s (float i))))
            (aset out 0 s)))
    "#;
    let mut m = build(src, &config);
    m.run(100_000).unwrap();
    assert_eq!(m.read_global("out").unwrap()[0], Value::Float(45.0));
}

#[test]
fn probes_are_cheap_and_ordered() {
    let src = r#"
        (defun main ()
          (for (i 0 5) (probe 1) (probe 2)))
    "#;
    let config = MachineConfig::baseline();
    let mut m = build(src, &config);
    let stats = m.run(100_000).unwrap();
    assert_eq!(stats.probe_count(0, 1), 5);
    assert_eq!(stats.probe_count(0, 2), 5);
    // probe 1 of iteration k precedes probe 2 of iteration k.
    let p1: Vec<u64> = stats
        .probes
        .iter()
        .filter(|p| p.id == 1)
        .map(|p| p.cycle)
        .collect();
    let p2: Vec<u64> = stats
        .probes
        .iter()
        .filter(|p| p.id == 2)
        .map(|p| p.cycle)
        .collect();
    for (a, b) in p1.iter().zip(&p2) {
        assert!(a <= b, "probe order violated");
    }
}
