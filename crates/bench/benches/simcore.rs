//! simcore — throughput baseline for the simulator hot loop and the
//! parallel sweep driver.
//!
//! Times (a) the **simulation phase** — machine construction on a
//! shared decoded image, input setup, and the cycle loop — for the
//! full benchmark × machine mode cross-product. Compilation *and*
//! decode happen once per case outside the timed region: the compiler
//! is timed by perfbench's traced layers, and decode is load-time work
//! by design (`DecodedProgram` is built when a program is loaded and
//! shared across every run of it, exactly as the sweep engine and the
//! timed loop here use it). Coupled mode additionally gets a row on the
//! `scan` oracle engine so the decoded backend's margin is itself
//! regression-gated. Also times (b) the full Table-2 grid
//! through the sweep engine — serial vs parallel wall-clock, per-shard
//! wall-clock, and cold/warm cache hit/miss counts, asserting every
//! path produces bit-identical rows. Results are written to
//! `BENCH_simcore.json` (schema v4: each case records the `engine`
//! that produced it) at the workspace root so future changes can be
//! compared against the committed baseline:
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! git diff BENCH_simcore.json   # the trajectory
//! ```

use coupling::sweep::{run_sweep, SweepOptions, SweepSpec, SweepSummary};
use coupling::{benchmarks, default_jobs, run_benchmark, MachineMode};
use criterion::{criterion_group, criterion_main, Criterion};
use pc_isa::MachineConfig;
use pc_sim::{DecodedProgram, EngineKind, Machine, StallProfiler};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the machine-readable baseline lands: the workspace root.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");

/// Cycle budget per simulation (far above any benchmark's real length).
const CYCLE_LIMIT: u64 = 20_000_000;

fn bench(c: &mut Criterion) {
    // CI smoke mode (PC_BENCH_QUICK=1): shrink the statistical budget so
    // the whole target takes seconds; the perf gate allows 25% noise.
    let quick = pc_bench::quick_mode();
    let (samples, measure, warmup, sweep_reps) = if quick {
        (3, Duration::from_millis(250), Duration::from_millis(50), 1)
    } else {
        (
            pc_bench::SAMPLES,
            Duration::from_secs(2),
            Duration::from_millis(300),
            3,
        )
    };

    // (a) Hot-loop throughput: the full benchmark × mode cross-product.
    // Each case compiles and decodes once, then every timed iteration
    // builds a machine on the shared decoded image, sets up inputs, and
    // runs — the simulation phase the `sim_cycles_per_sec` metric
    // describes. One validated pipeline run up front pins the cycle
    // count (simulation is deterministic) and keeps the numerics
    // honest. Per case: `(id, cycles, engine)`.
    let mut cycles_per_case: Vec<(String, u64, &'static str)> = Vec::new();
    {
        let mut g = c.benchmark_group("simcore");
        g.sample_size(samples)
            .measurement_time(measure)
            .warm_up_time(warmup);
        for b in benchmarks::all() {
            for mode in MachineMode::all() {
                let Some(src) = b.source(mode) else { continue };
                let config = MachineConfig::baseline();
                let out = run_benchmark(&b, mode, config.clone()).expect("validated run");
                let compiled =
                    pc_compiler::compile(src, &config, mode.schedule_mode()).expect("compile");
                let code = Arc::new(
                    DecodedProgram::decode(config, Arc::new(compiled.program)).expect("decode"),
                );
                let id = format!("{}/{}", b.name, mode.label());
                cycles_per_case.push((
                    format!("simcore/{id}"),
                    out.stats.cycles,
                    EngineKind::Decoded.name(),
                ));
                g.bench_function(&id, |bench| {
                    bench.iter(|| {
                        let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                        (b.setup)(&mut m).unwrap();
                        m.run(CYCLE_LIMIT).unwrap()
                    })
                });
                // Cross-engine row: the scan oracle on the mode the
                // decoded backend was built to accelerate. Its id ends
                // with the engine name, so `/Coupled` floors don't catch
                // it.
                if mode == MachineMode::Coupled {
                    let engine = EngineKind::Scan;
                    let eid = format!("{id}/{}", engine.name());
                    cycles_per_case.push((
                        format!("simcore/{eid}"),
                        out.stats.cycles,
                        engine.name(),
                    ));
                    g.bench_function(&eid, |bench| {
                        bench.iter(|| {
                            let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                            m.set_engine(engine);
                            (b.setup)(&mut m).unwrap();
                            m.run(CYCLE_LIMIT).unwrap()
                        })
                    });
                }
            }
        }
        // Traced-vs-untraced pair: Matrix/Coupled with a stall profiler
        // attached, as `Observe::profile` runs it.
        // Compare against the plain Matrix/Coupled case above to see the
        // cost of observation; the untraced number is what the gate
        // protects (tracing off must stay free).
        {
            let b = benchmarks::matrix();
            let mode = MachineMode::Coupled;
            let config = MachineConfig::baseline();
            let out = run_benchmark(&b, mode, config.clone()).expect("validated run");
            let compiled =
                pc_compiler::compile(b.source(mode).unwrap(), &config, mode.schedule_mode())
                    .expect("compile");
            let code = Arc::new(
                DecodedProgram::decode(config, Arc::new(compiled.program)).expect("decode"),
            );
            cycles_per_case.push((
                "simcore/Matrix/Coupled/profiled".to_string(),
                out.stats.cycles,
                EngineKind::Decoded.name(),
            ));
            g.bench_function("Matrix/Coupled/profiled", |bench| {
                bench.iter(|| {
                    let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                    let profiler = Rc::new(RefCell::new(StallProfiler::new(m.program())));
                    m.attach_probe(Box::new(Rc::clone(&profiler)));
                    (b.setup)(&mut m).unwrap();
                    let mut stats = m.run(CYCLE_LIMIT).unwrap();
                    stats.stalls = profiler.borrow().table();
                    stats
                })
            });
        }
        g.finish();
    }

    // (b) Full Table-2 grid through the sweep engine, recording what it
    // actually did: jobs used, serial vs parallel wall-clock (best of
    // N), wall-clock and cache traffic per shard, and the cold/warm
    // hit/miss counts of the result cache. On a single-CPU host
    // `jobs == 1` *is* the serial path, so no parallel run is staged
    // and no fictitious "speedup" is recorded.
    let spec = SweepSpec::table2();
    let canonical = |s: &SweepSummary| -> Vec<(String, String)> {
        s.rows
            .iter()
            .map(|r| (r.cell.id(), coupling::sweep::codec::stats_to_json(&r.stats)))
            .collect()
    };
    let time_sweep = |opts: &SweepOptions| {
        let mut best = Duration::MAX;
        let mut result = None;
        for _ in 0..sweep_reps {
            let start = Instant::now();
            let r = run_sweep(&spec, opts).expect("table2 sweep");
            best = best.min(start.elapsed());
            result = Some(r);
        }
        (best, result.expect("at least one sweep ran"))
    };
    let jobs = default_jobs();
    let (serial_time, serial_run) = time_sweep(&SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    });
    let cells = serial_run.total_cells;
    let parallel_part = if jobs <= 1 {
        eprintln!("table2 sweep: serial {serial_time:.2?} (single-CPU host, no parallel run)");
        String::new()
    } else {
        let (parallel_time, parallel_run) = time_sweep(&SweepOptions {
            jobs,
            ..SweepOptions::default()
        });
        assert_eq!(
            canonical(&serial_run),
            canonical(&parallel_run),
            "parallel sweep must be bit-identical to serial"
        );
        let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
        eprintln!(
            "table2 sweep: serial {serial_time:.2?}, parallel {parallel_time:.2?} \
             ({jobs} jobs) -> {speedup:.2}x, rows bit-identical"
        );
        format!(
            "    \"parallel_ms\": {:.1},\n    \"speedup\": {:.2},\n    \
             \"bit_identical\": true,\n",
            parallel_time.as_secs_f64() * 1e3,
            speedup,
        )
    };
    // Sharded cold pass into a fresh cache, then a warm full pass over
    // it: the recorded numbers are the determinism gate's ground truth.
    let cache_dir = std::env::temp_dir().join(format!("pc-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut shard_lines = Vec::new();
    for k in 1..=2usize {
        let start = Instant::now();
        let run = run_sweep(
            &spec,
            &SweepOptions {
                jobs,
                cache_dir: Some(cache_dir.clone()),
                shard: Some((k, 2)),
                ..SweepOptions::default()
            },
        )
        .expect("sharded sweep");
        shard_lines.push(format!(
            "      {{\"shard\": \"{k}/2\", \"wall_ms\": {:.1}, \"hits\": {}, \"misses\": {}}}",
            start.elapsed().as_secs_f64() * 1e3,
            run.hits,
            run.misses,
        ));
    }
    let cold: (usize, usize) = (0, cells); // the shards above ran cold
    let warm_run = run_sweep(
        &spec,
        &SweepOptions {
            jobs,
            cache_dir: Some(cache_dir.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("warm sweep");
    assert_eq!(
        warm_run.misses, 0,
        "warm rerun over the shard-filled cache must be 100% hits"
    );
    assert_eq!(
        canonical(&serial_run),
        canonical(&warm_run),
        "cached rows must be bit-identical to fresh serial rows"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
    eprintln!(
        "table2 sweep: warm pass {} hits / {} misses over {} cells",
        warm_run.hits, warm_run.misses, cells
    );
    let sweep_json = format!(
        "{{\n    \"jobs\": {jobs},\n    \"cells\": {cells},\n    \
         \"serial_ms\": {:.1},\n{parallel_part}    \"shards\": [\n{}\n    ],\n    \
         \"cold\": {{\"hits\": {}, \"misses\": {}}},\n    \
         \"warm\": {{\"hits\": {}, \"misses\": {}}}\n  }}",
        serial_time.as_secs_f64() * 1e3,
        shard_lines.join(",\n"),
        cold.0,
        cold.1,
        warm_run.hits,
        warm_run.misses,
    );

    // (c) Machine-readable baseline.
    let mut cases = String::new();
    for r in c.results() {
        let (cycles, engine) = cycles_per_case
            .iter()
            .find(|(id, _, _)| *id == r.id)
            .map(|&(_, c, e)| (c, e))
            .unwrap_or((0, "decoded"));
        let mean_ns = r.mean.as_nanos();
        let cps = if mean_ns == 0 {
            0.0
        } else {
            cycles as f64 * 1e9 / mean_ns as f64
        };
        if !cases.is_empty() {
            cases.push_str(",\n");
        }
        cases.push_str(&format!(
            "    {{\"id\": \"{}\", \"engine\": \"{engine}\", \"mean_ns\": {}, \
             \"iterations\": {}, \"cycles_per_run\": {}, \"sim_cycles_per_sec\": {:.0}}}",
            r.id, mean_ns, r.iterations, cycles, cps
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"simcore-baseline-v4\",\n  \"host_cpus\": {},\n  \
         \"cases\": [\n{}\n  ],\n  \"table2_sweep\": {}\n}}\n",
        default_jobs(),
        cases,
        sweep_json,
    );
    std::fs::write(BASELINE_PATH, &json).expect("write BENCH_simcore.json");
    eprintln!("wrote {BASELINE_PATH}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
