//! One sweep cell driven layer by layer through each layer's public
//! functions, with a span around every call — the same pipeline
//! `run_sweep` runs per cell, taken apart so each layer's time shows.

use crate::trace::Tracer;
use coupling::benchmarks::Benchmark;
use coupling::runner::CYCLE_LIMIT;
use coupling::sweep::codec::{parse_json, stats_from_value};
use coupling::sweep::{cache_key, CachedResult, ResultCache, SweepCell, CACHE_SCHEMA_VERSION};
use pc_compiler::ir::Func;
use pc_compiler::{front, lower, opt, sched, CompileError, ScheduleMode, SegmentInfo};
use pc_isa::{DebugMap, MachineConfig, Program, RegId, SegmentId};
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// A compile assembled pass by pass, plus the IR sizes between passes.
#[derive(Debug, Clone)]
pub struct TracedCompile {
    /// The validated program.
    pub program: Arc<Program>,
    /// Per-segment diagnostics.
    pub info: Vec<SegmentInfo>,
    /// Source-provenance table.
    pub debug: DebugMap,
    /// IR instructions after lowering.
    pub ir_ops_in: u64,
    /// IR instructions after optimization.
    pub ir_ops_out: u64,
}

impl TracedCompile {
    /// Peak per-cluster register count, as `CompileOutput::peak_registers`.
    pub fn peak_registers(&self) -> u32 {
        self.info
            .iter()
            .flat_map(|s| s.regs_per_cluster.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// True when `compile_with_options` (default options) emits the same
    /// program, provenance table and segment diagnostics.
    pub fn matches(&self, reference: &pc_compiler::CompileOutput) -> bool {
        *self.program == reference.program
            && self.debug == reference.debug
            && self.info.len() == reference.info.len()
            && self.info.iter().zip(&reference.info).all(|(a, b)| {
                (
                    a.name.as_str(),
                    a.rows,
                    a.ops,
                    &a.regs_per_cluster,
                    a.variant,
                ) == (
                    b.name.as_str(),
                    b.rows,
                    b.ops,
                    &b.regs_per_cluster,
                    b.variant,
                )
            })
    }
}

/// `pc_compiler::compile_with_options` with default options, one span
/// per pass; the glue between passes is the `compile` span's self time.
///
/// # Errors
/// Whatever the passes report.
pub fn compile_traced(
    t: &mut Tracer,
    cell: usize,
    src: &str,
    config: &MachineConfig,
    mode: ScheduleMode,
) -> Result<TracedCompile, CompileError> {
    let module = t.leaf("compiler.front", cell, || front::expand(src))?;
    let k = config.arith_clusters().count().max(1);
    let mut ir = t.leaf("compiler.lower", cell, || {
        lower::lower(&module, lower::LowerOptions { forall_variants: k })
    })?;
    let ir_ops = |funcs: &[Func]| funcs.iter().map(Func::inst_count).sum::<usize>() as u64;
    let ir_ops_in = ir_ops(&ir.funcs);
    t.leaf("compiler.opt", cell, || {
        for f in &mut ir.funcs {
            opt::optimize_with(f, false);
        }
    });
    let ir_ops_out = ir_ops(&ir.funcs);
    let scheduled = t.leaf("compiler.sched", cell, || {
        // Children are scheduled before the parents that fork them.
        let mut scheduled: Vec<Option<sched::Scheduled>> = vec![None; ir.funcs.len()];
        let mut child_params: HashMap<usize, Vec<RegId>> = HashMap::new();
        for idx in (0..ir.funcs.len()).rev() {
            let s = sched::schedule_func(&ir.funcs[idx], config, mode, &child_params)?;
            child_params.insert(idx, s.param_regs.clone());
            scheduled[idx] = Some(s);
        }
        Ok::<_, CompileError>(scheduled)
    })?;

    let mut program = Program::new();
    let mut info = Vec::with_capacity(scheduled.len());
    let mut debug = DebugMap {
        spans: ir.spans.clone(),
        loops: ir.loops.clone(),
        segments: Vec::new(),
    };
    for (s, f) in scheduled.into_iter().zip(&ir.funcs) {
        let s = s.expect("every function was scheduled");
        info.push(SegmentInfo {
            name: s.segment.name.clone(),
            rows: s.segment.rows.len(),
            ops: s.segment.op_count(),
            regs_per_cluster: s.segment.regs_per_cluster.clone(),
            variant: f.variant,
        });
        debug.segments.push(s.debug);
        program.add_segment(s.segment);
    }
    program.entry = SegmentId(0);
    for (name, _addr, len, _ty) in &ir.symbols {
        program.alloc_symbol(name.clone(), *len);
    }
    t.leaf("compiler.validate", cell, || {
        pc_isa::validate_program(&program, config)
    })
    .map_err(|e| CompileError::new(format!("internal: emitted invalid code: {e}")))?;
    Ok(TracedCompile {
        program: Arc::new(program),
        info,
        debug,
        ir_ops_in,
        ir_ops_out,
    })
}

/// Counts gathered at the layer boundaries over the traced passes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// IR instructions after lowering, summed.
    pub ir_ops_in: u64,
    /// IR instructions after optimization, summed.
    pub ir_ops_out: u64,
    /// Operations in the emitted programs, summed.
    pub emitted_ops: u64,
    /// Decoded operation records, summed.
    pub decoded_ops: u64,
    /// Guest cycles of the cells simulated here (not replayed).
    pub sim_cycles: u64,
    /// Host-profile phase estimates in ns, by phase name, from
    /// [`profile_cell`].
    pub phase_ns: BTreeMap<&'static str, u64>,
    /// `Machine::step` invocations, profiled.
    pub steps: u64,
    /// Full readiness-bitmask rebuilds, profiled.
    pub bitmask_rebuilds: u64,
    /// Dirty-mark wake repairs, profiled.
    pub wake_repairs: u64,
    /// Guest cycles elided by bulk idle skips, profiled.
    pub idle_cycles_skipped: u64,
    /// Guest cycles of the profiled runs.
    pub profiled_cycles: u64,
    /// Cache hits and misses (cells without a cache count as neither).
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
}

/// What one traced cell produced.
#[derive(Debug)]
pub struct CellOutcome {
    /// Guest statistics, fresh or replayed.
    pub stats: RunStats,
    /// Peak per-cluster registers from the compiler.
    pub peak_registers: u32,
    /// Served from the cache.
    pub cached: bool,
    /// The compile, when the cell compiled.
    pub compiled: Option<TracedCompile>,
}

/// Reads a cache entry as `ResultCache::lookup` does: the file read is
/// the `cache.lookup` span's self time, JSON parsing and `RunStats`
/// decoding are its `codec.decode` child. Any problem is a miss.
///
/// This copies `lookup`'s checks so the two halves can be timed apart;
/// [`check_lookup`] holds the copy to the original.
fn lookup_traced(t: &mut Tracer, cell: usize, root: &Path, key: &str) -> Option<CachedResult> {
    let span = t.open("cache.lookup", cell);
    let hit = std::fs::read_to_string(root.join(format!("{key}.json")))
        .ok()
        .and_then(|text| {
            t.leaf("codec.decode", cell, || {
                let v = parse_json(&text).ok()?;
                if v.get("schema")?.as_u64()? != u64::from(CACHE_SCHEMA_VERSION)
                    || v.get("key")?.as_str()? != key
                {
                    return None;
                }
                Some(CachedResult {
                    peak_registers: v.get("peak_registers")?.as_u64()? as u32,
                    stats: stats_from_value(v.get("stats")?).ok()?,
                })
            })
        });
    t.close(span);
    hit
}

/// True when `ResultCache::lookup` agrees with the traced copy on a
/// cell the traced pass served from `cache` (misses are checked by the
/// hit counts instead: a traced miss is stored right after).
pub fn check_lookup(
    cell: &SweepCell,
    bench: &Benchmark,
    cache: &ResultCache,
    traced: &CellOutcome,
) -> bool {
    let Some(src) = bench.source(cell.mode) else {
        return false;
    };
    let key = cache_key(&cell.bench, cell.mode, src, &cell.config());
    cache.lookup(&key).is_some_and(|r| {
        traced.cached && r.stats == traced.stats && r.peak_registers == traced.peak_registers
    })
}

/// Mean size in bytes of the entries in a cache directory, and their
/// count.
///
/// # Errors
/// The directory cannot be listed.
pub fn cache_entry_bytes(root: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut entries) = (0, 0);
    for e in std::fs::read_dir(root)? {
        let e = e?;
        if e.path().extension().is_some_and(|x| x == "json") {
            bytes += e.metadata()?.len();
            entries += 1;
        }
    }
    Ok((bytes, entries))
}

/// Simulates an already compiled cell again with the simulator's own
/// `HostProfile` sampling on, outside every span, and adds the profile
/// to `tally`. The traced passes run with it off, so `sim.run` times the
/// same code `run_sweep` runs.
///
/// # Errors
/// The first failing layer, described.
pub fn profile_cell(
    cell: &SweepCell,
    bench: &Benchmark,
    compiled: &TracedCompile,
    tally: &mut Tally,
) -> Result<(), String> {
    let code = DecodedProgram::decode(cell.config(), Arc::clone(&compiled.program))
        .map_err(|e| format!("decode error: {e}"))?;
    let mut machine =
        Machine::from_decoded(Arc::new(code)).map_err(|e| format!("simulation error: {e}"))?;
    machine.set_engine(EngineKind::default());
    (bench.setup)(&mut machine).map_err(|e| format!("simulation error: {e}"))?;
    machine.enable_host_telemetry();
    let stats = machine
        .run(CYCLE_LIMIT)
        .map_err(|e| format!("simulation error: {e}"))?;
    let p = machine
        .host_profile()
        .ok_or("host telemetry was on but left no profile")?;
    for phase in &p.phases {
        *tally.phase_ns.entry(phase.name).or_default() += phase.estimated_ns;
    }
    tally.steps += p.steps;
    tally.bitmask_rebuilds += p.bitmask_rebuilds;
    tally.wake_repairs += p.wake_repairs;
    tally.idle_cycles_skipped += p.idle_cycles_skipped;
    tally.profiled_cycles += stats.cycles;
    Ok(())
}

/// Runs one sweep cell the way `run_sweep` does — cache key, lookup,
/// then compile, decode, build, set-up, run, check and store — with a
/// `cell` span around it all and a span per layer call inside.
///
/// # Errors
/// The first failing layer, described.
pub fn run_cell(
    t: &mut Tracer,
    cell: &SweepCell,
    bench: &Benchmark,
    cache: Option<&ResultCache>,
    tally: &mut Tally,
) -> Result<CellOutcome, String> {
    let id = cell.index;
    let root = t.open("cell", id);
    let out = run_cell_inner(t, cell, bench, cache, tally);
    t.close(root);
    out.map_err(|e| format!("cell {}: {e}", cell.id()))
}

fn run_cell_inner(
    t: &mut Tracer,
    cell: &SweepCell,
    bench: &Benchmark,
    cache: Option<&ResultCache>,
    tally: &mut Tally,
) -> Result<CellOutcome, String> {
    let id = cell.index;
    let config = cell.config();
    let src = bench
        .source(cell.mode)
        .ok_or_else(|| format!("{} has no {} source", bench.name, cell.mode.label()))?;
    let key = cache.map(|_| {
        t.leaf("cache.key", id, || {
            cache_key(&cell.bench, cell.mode, src, &config)
        })
    });
    if let (Some(cache), Some(key)) = (cache, &key) {
        if let Some(hit) = lookup_traced(t, id, cache.root(), key) {
            tally.hits += 1;
            return Ok(CellOutcome {
                stats: hit.stats,
                peak_registers: hit.peak_registers,
                cached: true,
                compiled: None,
            });
        }
        tally.misses += 1;
    }

    let compile_span = t.open("compile", id);
    let compiled = compile_traced(t, id, src, &config, cell.mode.schedule_mode());
    t.close(compile_span);
    let compiled = compiled.map_err(|e| format!("compile error: {e}"))?;
    tally.ir_ops_in += compiled.ir_ops_in;
    tally.ir_ops_out += compiled.ir_ops_out;
    tally.emitted_ops += compiled.program.op_count() as u64;

    let code = t
        .leaf("decode", id, || {
            DecodedProgram::decode(config.clone(), Arc::clone(&compiled.program))
        })
        .map_err(|e| format!("decode error: {e}"))?;
    tally.decoded_ops += code.n_ops() as u64;
    let code = Arc::new(code);
    let mut machine = t
        .leaf("sim.build", id, || Machine::from_decoded(code))
        .map_err(|e| format!("simulation error: {e}"))?;
    machine.set_engine(EngineKind::default());
    t.leaf("sim.setup", id, || (bench.setup)(&mut machine))
        .map_err(|e| format!("simulation error: {e}"))?;
    let stats = t
        .leaf("sim.run", id, || machine.run(CYCLE_LIMIT))
        .map_err(|e| format!("simulation error: {e}"))?;
    tally.sim_cycles += stats.cycles;
    t.leaf("sim.check", id, || (bench.check)(&mut machine))
        .map_err(|e| format!("validation failed: {e}"))?;

    let peak_registers = compiled.peak_registers();
    if let (Some(cache), Some(key)) = (cache, &key) {
        let result = CachedResult {
            stats: stats.clone(),
            peak_registers,
        };
        t.leaf("cache.store", id, || cache.store(key, &cell.id(), &result))
            .map_err(|e| format!("cache store: {e}"))?;
    }
    Ok(CellOutcome {
        stats,
        peak_registers,
        cached: false,
        compiled: Some(compiled),
    })
}
