//! End-to-end tests of the work-stealing sweep engine: parallel,
//! sharded, and cached executions must all be bit-identical to a serial
//! cold run, and stealing must actually rebalance skewed workloads.

use coupling::sweep::{par_map, run_sweep, SweepOptions, SweepRow, SweepSpec};
use coupling::MachineMode;
use std::time::{Duration, Instant};

/// The deterministic portion of a sweep's rows, in cell order.
fn canonical(summary: &coupling::sweep::SweepSummary) -> Vec<String> {
    summary
        .rows
        .iter()
        .map(|r| {
            format!(
                "{} regs={} {}",
                r.cell.id(),
                r.peak_registers,
                coupling::sweep::codec::stats_to_json(&r.stats)
            )
        })
        .collect()
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Sts, MachineMode::Coupled],
        ..SweepSpec::table2()
    }
}

#[test]
fn parallel_rows_are_bit_identical_to_serial_regardless_of_steal_order() {
    let spec = small_spec();
    let serial = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(serial.rows.len(), 6);
    // Even on a single-CPU host, 4 worker threads interleave under the
    // OS scheduler, exercising arbitrary steal orders.
    for trial in 0..3 {
        let parallel = run_sweep(
            &spec,
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            canonical(&serial),
            canonical(&parallel),
            "trial {trial}: parallel rows diverged from serial"
        );
    }
}

#[test]
fn shard_union_is_bit_identical_to_the_unsharded_run() {
    let spec = small_spec();
    let whole = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let mut stitched = Vec::new();
    for k in 1..=3 {
        let shard = run_sweep(
            &spec,
            &SweepOptions {
                shard: Some((k, 3)),
                jobs: 2,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        stitched.extend(canonical(&shard));
    }
    let mut want = canonical(&whole);
    want.sort();
    stitched.sort();
    assert_eq!(want, stitched);
}

#[test]
fn injected_slow_job_does_not_serialize_the_pool() {
    // The work-stealing acceptance test proper: one item is 16x slower
    // than the rest. A fixed pre-partition would strand the short items
    // behind it on one worker; stealing must let idle workers drain
    // them. Wall-clock assertions are only meaningful with real
    // parallel hardware, so gate on the host.
    let slow = Duration::from_millis(80);
    let fast = Duration::from_millis(5);
    let items: Vec<Duration> = std::iter::once(slow)
        .chain(std::iter::repeat(fast).take(16))
        .collect();
    let serial_sum: Duration = items.iter().sum();
    let t0 = Instant::now();
    let out = par_map(&items, 4, |d| {
        std::thread::sleep(*d);
        d.as_millis()
    });
    let elapsed = t0.elapsed();
    assert_eq!(out.len(), items.len());
    assert_eq!(out[0], 80, "results stay in item order");
    if coupling::default_jobs() >= 2 {
        assert!(
            elapsed < serial_sum,
            "work stealing should beat the serial sum on a multi-core \
             host: {elapsed:?} vs {serial_sum:?}"
        );
    } else {
        eprintln!("skipped: single-core host (wall-clock assertion)");
    }
}

#[test]
fn parallel_sweep_beats_serial_on_multi_core_hosts() {
    if coupling::default_jobs() < 2 {
        eprintln!("skipped: single-core host (>=1.5x speedup assertion)");
        return;
    }
    // Modest grid, measured both ways; the issue's acceptance bar is
    // >=1.5x at the CLI, enforced here at the library layer.
    let spec = SweepSpec {
        benches: vec!["matrix".into(), "fft".into(), "lud".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        ..SweepSpec::table2()
    };
    let t0 = Instant::now();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let serial = t0.elapsed();
    let t1 = Instant::now();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: coupling::default_jobs(),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let parallel = t1.elapsed();
    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() / 1.5,
        "expected >=1.5x speedup: serial {serial:?}, parallel {parallel:?}"
    );
}

#[test]
fn telemetry_on_rows_are_bit_identical_to_telemetry_off() {
    // Host telemetry is a pure observer: the deterministic portion of
    // every row (cell id, registers, full stats) must not move by a
    // single bit when the registry, progress line, or snapshot emitter
    // is active. Only wall times may differ.
    let spec = small_spec();
    let off = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(off.telemetry.is_none(), "no surface requested, no registry");
    let on = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            telemetry: true,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(on.telemetry.is_some());
    assert_eq!(canonical(&off), canonical(&on));
}

#[test]
fn telemetry_snapshot_satisfies_conservation_invariants() {
    use pc_metrics::SampleValue;
    let spec = small_spec();
    let run = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 3,
            telemetry: true,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let snap = run.telemetry.expect("telemetry requested");
    // Every executed cell was obtained by exactly one pop or one steal.
    let pops = snap.labeled_total("pool_pops");
    let steals = snap.labeled_total("pool_steals");
    let done = snap.value("cells_done_total").unwrap();
    assert_eq!(pops + steals, done, "pops {pops} + steals {steals}");
    assert_eq!(done, run.rows.len() as u64);
    assert_eq!(snap.value("cells_total"), Some(done));
    // Per worker, time inside cell pipelines never exceeds the
    // worker's lifetime (idle is defined as the complement).
    let lane = |name: &str| -> Vec<(String, u64)> {
        snap.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let w = s.label.clone().expect("lanes are labeled").1;
                match s.value {
                    SampleValue::Counter(v) | SampleValue::Gauge(v) => (w, v),
                    _ => panic!("lane samples are scalar"),
                }
            })
            .collect()
    };
    let busy = lane("pool_busy_ns");
    let wall = lane("pool_wall_ns");
    assert_eq!(busy.len(), 3);
    for ((w, b), (w2, wl)) in busy.iter().zip(&wall) {
        assert_eq!(w, w2);
        assert!(b <= wl, "worker {w}: busy {b} ns > wall {wl} ns");
    }
    // The cache was off, so every lookup is a miss and the hit
    // histogram stays empty.
    assert_eq!(snap.value("cache_hits_total"), Some(0));
    assert_eq!(snap.value("cache_misses_total"), Some(done));
    // Every miss either compiled its program or reused one compiled
    // earlier in the run: 2 benches × 3 modes on one machine compile
    // 6 times, and nothing is left to reuse on the Table-2 axes.
    let compiles = snap.value("compiles_total").unwrap();
    let reuses = snap.value("compile_reuses_total").unwrap();
    assert_eq!(
        compiles + reuses,
        done,
        "compiles {compiles} + reuses {reuses}"
    );
    assert_eq!(compiles, 6);
}

#[test]
fn metrics_out_emits_parseable_snapshot_lines() {
    let scratch = std::env::temp_dir().join(format!("pc-sweep-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let path = scratch.join("metrics.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 2,
            metrics_out: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least the final snapshot is written");
    for line in &lines {
        assert!(line.starts_with("{\"telemetry\":true,"), "{line}");
        assert!(line.ends_with("}}"), "torn line: {line}");
        assert!(line.contains("\"cells_done_total\":"), "{line}");
    }
    // The final snapshot reflects the completed run.
    assert!(
        lines.last().unwrap().contains("\"cells_done_total\":6"),
        "{}",
        lines.last().unwrap()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn jsonl_rows_round_trip_through_the_codec() {
    let spec = SweepSpec {
        benches: vec!["matrix".into()],
        modes: vec![MachineMode::Coupled],
        ..SweepSpec::table2()
    };
    let run = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let row = &run.rows[0];
    let parsed = SweepRow::from_jsonl(&row.to_jsonl()).unwrap();
    assert_eq!(parsed.stats, row.stats);
    assert_eq!(parsed.peak_registers, row.peak_registers);
    assert_eq!(parsed.cell.id(), row.cell.id());
    assert_eq!(parsed.wall_ns, row.wall_ns);
    assert!(SweepRow::from_jsonl("{\"schema\":1}").is_err());
    assert!(SweepRow::from_jsonl("torn{").is_err());
    // A register count past u32::MAX is malformed, not truncated.
    let line = row.to_jsonl();
    let field = format!("\"peak_registers\":{},", row.peak_registers);
    let wide = line.replace(&field, "\"peak_registers\":4294967297,");
    assert_ne!(wide, line);
    assert!(SweepRow::from_jsonl(&wide).is_err());
}

#[test]
fn streamed_jsonl_is_in_cell_order_even_when_parallel() {
    let scratch = std::env::temp_dir().join(format!("pc-sweep-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let out = scratch.join("rows.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let text = std::fs::read_to_string(&out).unwrap();
    let got: Vec<String> = text
        .lines()
        .map(|l| SweepRow::from_jsonl(l).unwrap().cell.id())
        .collect();
    let want: Vec<String> = spec.cells().unwrap().iter().map(|c| c.id()).collect();
    assert_eq!(got, want, "reorder buffer must flush in cell order");
    let _ = std::fs::remove_dir_all(&scratch);
}
