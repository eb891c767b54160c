//! simcore — throughput baseline for the simulator hot loop.
//!
//! Times the **simulation phase** — machine construction on a shared
//! decoded image, input setup, and the cycle loop — for the full
//! benchmark × machine mode cross-product. Compilation *and* decode
//! happen once per case outside the timed region: the compiler is timed
//! by perfbench's traced layers, and decode is load-time work by design
//! (`DecodedProgram` is built when a program is loaded and shared across
//! every run of it, exactly as the sweep engine and the timed loop here
//! use it). Coupled mode additionally gets a row on the `scan` oracle
//! engine so the decoded backend's margin is itself regression-gated,
//! and Matrix/Coupled a row with a stall profiler attached.
//!
//! Timing is interleaved: each round runs every case once, and the
//! rounds repeat, so host drift lands on every case alike instead of on
//! whichever case ran during a slow spell. Per case the baseline records
//! the min, median and mean wall time over the rounds;
//! `sim_cycles_per_sec`, the metric `bench_gate` compares, is derived
//! from the min, because noise only ever adds time. `PC_BENCH_QUICK=1`
//! runs fewer rounds. Results are written to `BENCH_simcore.json`
//! (schema v5) at the workspace root:
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! git diff BENCH_simcore.json   # the trajectory
//! ```

use coupling::{benchmarks, default_jobs, run_benchmark, MachineMode};
use pc_isa::MachineConfig;
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats, SimError, StallProfiler};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Where the machine-readable baseline lands: the workspace root.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");

/// Cycle budget per simulation (far above any benchmark's real length).
const CYCLE_LIMIT: u64 = 20_000_000;

/// Timed rounds in a full run and under `PC_BENCH_QUICK`. Odd, so the
/// median is one measured round.
const ROUNDS: usize = 41;
const QUICK_ROUNDS: usize = 15;

/// One timed case: a decoded program plus how to run it.
#[derive(Clone)]
struct Case {
    /// `simcore/<Bench>/<Mode>[/scan|/profiled]`.
    id: String,
    code: Arc<DecodedProgram>,
    setup: fn(&mut Machine) -> Result<(), SimError>,
    engine: EngineKind,
    /// Attach a stall profiler, as `Observe::profile` runs it.
    profiled: bool,
    /// Simulated cycles per run, pinned by one validated pipeline run.
    cycles: u64,
}

impl Case {
    /// The timed work: build a machine on the shared image, set up
    /// inputs, run.
    fn run(&self) -> RunStats {
        let mut m = Machine::from_decoded(Arc::clone(&self.code)).unwrap();
        m.set_engine(self.engine);
        let profiler = self.profiled.then(|| {
            let profiler = Rc::new(RefCell::new(StallProfiler::new(m.program())));
            m.attach_probe(Box::new(Rc::clone(&profiler)));
            profiler
        });
        (self.setup)(&mut m).unwrap();
        let mut stats = m.run(CYCLE_LIMIT).unwrap();
        if let Some(profiler) = profiler {
            stats.stalls = profiler.borrow().table();
        }
        stats
    }
}

/// Every case, in baseline order. Each benchmark × mode compiles and
/// decodes once; one validated pipeline run pins its cycle count
/// (simulation is deterministic) and keeps the numerics honest.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for b in benchmarks::all() {
        for mode in MachineMode::all() {
            let Some(src) = b.source(mode) else { continue };
            let config = MachineConfig::baseline();
            let cycles = run_benchmark(&b, mode, config.clone())
                .expect("validated run")
                .stats
                .cycles;
            let compiled =
                pc_compiler::compile(src, &config, mode.schedule_mode()).expect("compile");
            let code = Arc::new(
                DecodedProgram::decode(config, Arc::new(compiled.program)).expect("decode"),
            );
            let case = Case {
                id: format!("simcore/{}/{}", b.name, mode.label()),
                code,
                setup: b.setup,
                engine: EngineKind::Decoded,
                profiled: false,
                cycles,
            };
            // The scan oracle on the mode the decoded backend was built
            // to accelerate. Its id ends with the engine name, so
            // `/Coupled` floors don't catch it.
            let scan = (mode == MachineMode::Coupled).then(|| Case {
                id: format!("{}/scan", case.id),
                engine: EngineKind::Scan,
                ..case.clone()
            });
            cases.push(case);
            cases.extend(scan);
        }
    }
    // The cost of observation, next to the untraced case the gate
    // protects (tracing off must stay free).
    let matrix = cases.iter().find(|c| c.id == "simcore/Matrix/Coupled");
    let profiled = Case {
        id: "simcore/Matrix/Coupled/profiled".to_string(),
        profiled: true,
        ..matrix.expect("Matrix/Coupled case").clone()
    };
    cases.push(profiled);
    cases
}

fn main() {
    let cases = cases();
    // CI smoke mode: PC_BENCH_QUICK set to anything but "" or "0".
    let quick = std::env::var_os("PC_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0");
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };
    let mut times: Vec<Vec<u64>> = vec![Vec::with_capacity(rounds); cases.len()];
    for _ in 0..rounds {
        for (case, t) in cases.iter().zip(&mut times) {
            let start = Instant::now();
            black_box(case.run());
            t.push(start.elapsed().as_nanos() as u64);
        }
    }

    let mut lines = Vec::new();
    for (case, t) in cases.iter().zip(&mut times) {
        t.sort_unstable();
        let (min_ns, median_ns) = (t[0], t[rounds / 2]);
        let mean_ns = t.iter().sum::<u64>() / rounds as u64;
        let cps = case.cycles as f64 * 1e9 / min_ns.max(1) as f64;
        eprintln!(
            "{:<34} min {:>10.3} ms  median {:>10.3} ms  mean {:>10.3} ms  {cps:>12.0} cycles/s",
            case.id,
            min_ns as f64 / 1e6,
            median_ns as f64 / 1e6,
            mean_ns as f64 / 1e6,
        );
        lines.push(format!(
            "    {{\"id\": \"{}\", \"engine\": \"{}\", \"cycles_per_run\": {}, \
             \"rounds\": {rounds}, \"min_ns\": {min_ns}, \"median_ns\": {median_ns}, \
             \"mean_ns\": {mean_ns}, \"sim_cycles_per_sec\": {cps:.0}}}",
            case.id,
            case.engine.name(),
            case.cycles,
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"simcore-baseline-v5\",\n  \"host_cpus\": {},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        default_jobs(),
        lines.join(",\n"),
    );
    std::fs::write(BASELINE_PATH, &json).expect("write BENCH_simcore.json");
    eprintln!("wrote {BASELINE_PATH}");
}
