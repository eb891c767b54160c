//! The sweep batch engine: enumerate a configuration cross-product,
//! fan the cells over the block-stealing pool, serve repeats from the
//! content-addressed cache, and stream results as JSONL. The JSONL is
//! the record of finished cells that a killed run resumes from; a
//! write-once manifest next to it guards it against a different spec
//! or shard.
//!
//! The paper's tables are points sampled from the full grid
//! `benchmarks × modes × interconnect schemes × memory models × FU
//! mixes`; [`SweepSpec`] describes any sub-grid of it, and
//! [`run_sweep`] executes one for `pcsim sweep` and perfbench. The
//! experiment harness runs its point lists through the same two shared
//! pieces — the block-stealing pool and the runner's compile memo — but
//! without the cache or the JSONL stream.
//!
//! Determinism contract: the rows of a sweep (and the JSONL lines,
//! after zeroing the per-row `wall_ns` and `cached` fields) are a pure
//! function of the spec — independent of `jobs`, steal order, cache
//! state, sharding, or how many times the run was killed and resumed.
//! The pool hands rows back in **cell order**, and each is flushed as it
//! arrives, so even the byte order of a given run's output is
//! deterministic.

use super::cache::{CachedResult, KeyPrefix, ResultCache};
use super::codec::{escape_json, parse_json, stats_from_value, stats_to_json, Json};
use super::pool::run_pool;
use super::telemetry::SweepTelemetry;
use crate::benchmarks::{self, Benchmark};
use crate::mode::MachineMode;
use crate::runner::{run_compiled, CompileMemo, Observe, RunError};
use pc_compiler::CompileOptions;
use pc_isa::{InterconnectScheme, MachineConfig, MemoryModel};
use pc_sim::RunStats;
use std::collections::BTreeSet;
use std::fmt;
use std::io::Write as _;
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the JSONL row and manifest schema. Every row carries it,
/// so it moves only with the row format; manifests that still list
/// `total`/`done` parse under it, those fields ignored.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Grid axes
// ---------------------------------------------------------------------

/// The paper's three named memory models, as a closed enum so sweep
/// cells hash and print stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Every reference completes in one cycle.
    Min,
    /// 5% miss rate, 20–100 cycle penalty.
    Mem1,
    /// 10% miss rate, 20–100 cycle penalty.
    Mem2,
}

impl MemKind {
    /// All models, in the paper's order.
    pub fn all() -> [MemKind; 3] {
        [MemKind::Min, MemKind::Mem1, MemKind::Mem2]
    }

    /// The concrete latency model.
    pub fn model(self) -> MemoryModel {
        match self {
            MemKind::Min => MemoryModel::min(),
            MemKind::Mem1 => MemoryModel::mem1(),
            MemKind::Mem2 => MemoryModel::mem2(),
        }
    }

    /// Lowercase identifier used in cell ids and CLI filters.
    pub fn key(self) -> &'static str {
        match self {
            MemKind::Min => "min",
            MemKind::Mem1 => "mem1",
            MemKind::Mem2 => "mem2",
        }
    }

    /// Parses a CLI filter token.
    pub fn parse(s: &str) -> Option<MemKind> {
        MemKind::all().into_iter().find(|m| m.key() == s)
    }
}

/// A function-unit mix: the paper's baseline machine, or a Figure-8
/// style `with_mix(iu, fpu)` machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mix {
    /// [`MachineConfig::baseline`]: 4 arith clusters + 2 branch.
    Baseline,
    /// [`MachineConfig::with_mix`]: `iu` integer and `fpu` float units
    /// spread one-per-cluster over 4 memory-bearing clusters.
    Units {
        /// Integer units (1..=4).
        iu: usize,
        /// Float units (1..=4).
        fpu: usize,
    },
}

impl Mix {
    /// Lowercase identifier used in cell ids and CLI filters
    /// (`base`, `2x3`, …).
    pub fn key(self) -> String {
        match self {
            Mix::Baseline => "base".to_string(),
            Mix::Units { iu, fpu } => format!("{iu}x{fpu}"),
        }
    }

    /// Parses a CLI filter token (`base` or `IUxFPU`, each 1..=4).
    pub fn parse(s: &str) -> Option<Mix> {
        if s == "base" {
            return Some(Mix::Baseline);
        }
        let (iu, fpu) = s.split_once('x')?;
        let (iu, fpu) = (iu.parse().ok()?, fpu.parse().ok()?);
        if (1..=4).contains(&iu) && (1..=4).contains(&fpu) {
            Some(Mix::Units { iu, fpu })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Spec and cells
// ---------------------------------------------------------------------

/// A sub-grid of the full configuration cross-product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Benchmarks by lowercase name (`matrix`, `fft`, `lud`, `model`).
    pub benches: Vec<String>,
    /// Machine modes.
    pub modes: Vec<MachineMode>,
    /// Interconnect schemes.
    pub interconnects: Vec<InterconnectScheme>,
    /// Memory models.
    pub memories: Vec<MemKind>,
    /// Function-unit mixes.
    pub mixes: Vec<Mix>,
    /// Simulator RNG seed applied to every cell.
    pub seed: u64,
}

impl SweepSpec {
    /// The Table-2 grid: every benchmark × every mode on the baseline
    /// machine (Full interconnect, Min memory).
    pub fn table2() -> SweepSpec {
        SweepSpec {
            benches: benchmarks::all()
                .iter()
                .map(|b| b.name.to_lowercase())
                .collect(),
            modes: MachineMode::all().to_vec(),
            interconnects: vec![InterconnectScheme::Full],
            memories: vec![MemKind::Min],
            mixes: vec![Mix::Baseline],
            seed: 0,
        }
    }

    /// The full cross-product the paper only samples: benchmarks ×
    /// modes × all 5 interconnect schemes × all 3 memory models (on the
    /// baseline mix; add mixes explicitly for the Figure-8 axis).
    pub fn full() -> SweepSpec {
        SweepSpec {
            interconnects: InterconnectScheme::all().to_vec(),
            memories: MemKind::all().to_vec(),
            ..SweepSpec::table2()
        }
    }

    /// Enumerates the grid, skipping benchmark × mode pairs without a
    /// source variant (all four paper benchmarks now carry every mode;
    /// the filter still guards embedded variants like the Table-3 queue
    /// benchmarks). Cell indices are positions in this enumeration and
    /// are what sharding partitions.
    ///
    /// # Errors
    /// An unknown benchmark name, an axis left empty, or a value repeated
    /// on an axis (each cell id must name one row).
    pub fn cells(&self) -> Result<Vec<SweepCell>, String> {
        check_axis("benches", &self.benches, |b| b.clone())?;
        check_axis("modes", &self.modes, |m| m.label().into())?;
        check_axis("interconnects", &self.interconnects, |i| i.label().into())?;
        check_axis("memories", &self.memories, |m| m.key().into())?;
        check_axis("mixes", &self.mixes, |m| m.key())?;
        let suite = benchmarks::all();
        let mut cells = Vec::new();
        for name in &self.benches {
            let bench = suite
                .iter()
                .find(|b| b.name.to_lowercase() == *name)
                .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            for &mode in &self.modes {
                if bench.source(mode).is_none() {
                    continue;
                }
                for &interconnect in &self.interconnects {
                    for &memory in &self.memories {
                        for &mix in &self.mixes {
                            cells.push(SweepCell {
                                index: cells.len(),
                                bench: name.clone(),
                                mode,
                                interconnect,
                                memory,
                                mix,
                                seed: self.seed,
                            });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Content fingerprint of the spec (grid axes + seed), kept in the
    /// manifest to refuse resuming under a different spec.
    pub fn fingerprint(&self) -> String {
        let mut text = format!("pc-sweep-spec-v{SWEEP_SCHEMA_VERSION}\n");
        text.push_str(&self.benches.join(","));
        text.push('\n');
        for m in &self.modes {
            text.push_str(m.label());
            text.push(',');
        }
        text.push('\n');
        for i in &self.interconnects {
            text.push_str(i.label());
            text.push(',');
        }
        text.push('\n');
        for m in &self.memories {
            text.push_str(m.key());
            text.push(',');
        }
        text.push('\n');
        for m in &self.mixes {
            text.push_str(&m.key());
            text.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut text, format_args!("\nseed={}\n", self.seed));
        super::cache::sha256_hex(text.as_bytes())
    }
}

/// Rejects an empty axis, or a value repeated on one.
fn check_axis<T: PartialEq>(axis: &str, values: &[T], key: fn(&T) -> String) -> Result<(), String> {
    if values.is_empty() {
        return Err(format!("sweep spec has an empty {axis} axis"));
    }
    match (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
        Some(i) => Err(format!(
            "sweep spec repeats {:?} on the {axis} axis",
            key(&values[i])
        )),
        None => Ok(()),
    }
}

/// One point of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the spec's enumeration (what sharding partitions).
    pub index: usize,
    /// Benchmark, lowercase.
    pub bench: String,
    /// Machine mode.
    pub mode: MachineMode,
    /// Interconnect scheme.
    pub interconnect: InterconnectScheme,
    /// Memory model.
    pub memory: MemKind,
    /// Function-unit mix.
    pub mix: Mix,
    /// Simulator RNG seed.
    pub seed: u64,
}

impl SweepCell {
    /// Stable human-readable id:
    /// `bench/mode/interconnect/memory/mix/s<seed>` (all lowercase).
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/s{}",
            self.bench,
            self.mode.label().to_lowercase(),
            self.interconnect.label().to_lowercase().replace('-', ""),
            self.memory.key(),
            self.mix.key(),
            self.seed,
        )
    }

    /// The machine configuration this cell simulates.
    pub fn config(&self) -> MachineConfig {
        let base = match self.mix {
            Mix::Baseline => MachineConfig::baseline(),
            Mix::Units { iu, fpu } => MachineConfig::with_mix(iu, fpu),
        };
        base.with_interconnect(self.interconnect)
            .with_memory(self.memory.model())
            .with_seed(self.seed)
    }
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

// ---------------------------------------------------------------------
// Options, rows, summary, errors
// ---------------------------------------------------------------------

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial on the caller's thread).
    pub jobs: usize,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// JSONL sink: one row per completed cell, flushed in cell order.
    /// Rows already in the file are not rerun (resume). The spec/shard
    /// guard lives next to it in `<out>.manifest.json`, written once
    /// when absent and checked when present.
    pub out: Option<PathBuf>,
    /// Shard selector `(k, n)`, 1-based: run only cells with
    /// `index % n == k - 1`.
    pub shard: Option<(usize, usize)>,
    /// Collect host-side telemetry (pool, cache, and reorder-buffer
    /// metrics; see [`SweepTelemetry`]). Implied by `progress` and
    /// `metrics_out`. Never perturbs the rows — the determinism
    /// contract holds with telemetry on or off.
    pub telemetry: bool,
    /// Redraw a live progress line on stderr (cells/s, cache hit rate,
    /// ETA, per-worker utilization) while the sweep runs.
    pub progress: bool,
    /// Append a JSONL telemetry snapshot to this file roughly twice a
    /// second, plus one final snapshot when the sweep finishes. The
    /// file is truncated at the start of the run.
    pub metrics_out: Option<PathBuf>,
}

/// One completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The cell.
    pub cell: SweepCell,
    /// Run statistics (bit-identical whether fresh or cached).
    pub stats: RunStats,
    /// Peak per-cluster register count from the compiler.
    pub peak_registers: u32,
    /// True when the row was served from the cache.
    pub cached: bool,
    /// Wall-clock nanoseconds spent producing this row (lookup time for
    /// hits, full pipeline time for misses). Excluded from determinism
    /// comparisons.
    pub wall_ns: u64,
}

impl SweepRow {
    /// The row as one canonical JSONL line (no trailing newline).
    /// Everything except `wall_ns` and `cached` is deterministic.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"schema\":{SWEEP_SCHEMA_VERSION},\"cell\":\"{}\",\"bench\":\"{}\",\
             \"mode\":\"{}\",\"interconnect\":\"{}\",\"memory\":\"{}\",\"mix\":\"{}\",\
             \"seed\":{},\"cached\":{},\"wall_ns\":{},\"cycles\":{},\"ops\":{},\
             \"peak_registers\":{},\"stats\":{}}}",
            escape_json(&self.cell.id()),
            escape_json(&self.cell.bench),
            self.cell.mode.label(),
            self.cell.interconnect.label(),
            self.cell.memory.key(),
            self.cell.mix.key(),
            self.cell.seed,
            self.cached,
            self.wall_ns,
            self.stats.cycles,
            self.stats.ops_issued,
            self.peak_registers,
            stats_to_json(&self.stats),
        )
    }

    /// Parses one JSONL line back into a row. The cell is reconstructed
    /// from its printed axes.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_jsonl(line: &str) -> Result<SweepRow, String> {
        let v = parse_json(line)?;
        let get_str = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing {k:?}"))
        };
        let mode_label = get_str("mode")?;
        let mode = MachineMode::all()
            .into_iter()
            .find(|m| m.label() == mode_label)
            .ok_or_else(|| format!("unknown mode {mode_label:?}"))?;
        let xc_label = get_str("interconnect")?;
        let interconnect = InterconnectScheme::all()
            .into_iter()
            .find(|i| i.label() == xc_label)
            .ok_or_else(|| format!("unknown interconnect {xc_label:?}"))?;
        let mem_key = get_str("memory")?;
        let memory =
            MemKind::parse(mem_key).ok_or_else(|| format!("unknown memory {mem_key:?}"))?;
        let mix_key = get_str("mix")?;
        let mix = Mix::parse(mix_key).ok_or_else(|| format!("unknown mix {mix_key:?}"))?;
        let need = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {k:?}"))
        };
        Ok(SweepRow {
            cell: SweepCell {
                index: 0, // re-assigned by the caller against its spec
                bench: get_str("bench")?.to_string(),
                mode,
                interconnect,
                memory,
                mix,
                seed: need("seed")?,
            },
            stats: stats_from_value(v.get("stats").ok_or("missing stats")?)?,
            peak_registers: v
                .get("peak_registers")
                .and_then(Json::as_u32)
                .ok_or("missing or out-of-range \"peak_registers\"")?,
            cached: matches!(v.get("cached"), Some(Json::Bool(true))),
            wall_ns: need("wall_ns")?,
        })
    }
}

/// What a sweep did.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Newly produced rows, in cell order (cells whose rows the JSONL
    /// already held are not re-produced and appear only in that file).
    pub rows: Vec<SweepRow>,
    /// Cells in this shard's scope.
    pub total_cells: usize,
    /// Cells already done before this run (resume).
    pub prior_done: usize,
    /// Rows served from the cache.
    pub hits: usize,
    /// Rows computed fresh.
    pub misses: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Final telemetry snapshot, when any telemetry surface
    /// ([`SweepOptions::telemetry`] / `progress` / `metrics_out`) was
    /// enabled.
    pub telemetry: Option<pc_metrics::Snapshot>,
}

impl SweepSummary {
    /// Wall-clock seconds for the run.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Newly produced rows per wall-clock second (0.0 for an instant or
    /// empty run).
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.rows.len() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Cache hit rate over the newly produced rows, in `[0, 1]`
    /// (0.0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    /// One-line JSON summary (the `pcsim sweep` machine interface).
    /// `wall_ns`, `wall_s`, and `cells_per_sec` are host measurements
    /// and excluded from determinism comparisons.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"summary\":true,\"schema\":{SWEEP_SCHEMA_VERSION},\"total_cells\":{},\
             \"prior_done\":{},\"ran\":{},\"hits\":{},\"misses\":{},\"jobs\":{},\
             \"wall_ns\":{},\"wall_s\":{:.3},\"cells_per_sec\":{:.1},\
             \"cache_hit_rate\":{:.3}}}",
            self.total_cells,
            self.prior_done,
            self.rows.len(),
            self.hits,
            self.misses,
            self.jobs,
            self.wall_ns,
            self.wall_s(),
            self.cells_per_sec(),
            self.cache_hit_rate(),
        )
    }
}

/// Failures of a sweep run.
#[derive(Debug)]
pub enum SweepError {
    /// The spec is malformed (unknown benchmark, empty axis, bad shard).
    Spec(String),
    /// A cell's pipeline failed; deterministic lowest-index choice.
    Cell {
        /// The failing cell's id.
        cell: String,
        /// The underlying failure.
        error: RunError,
    },
    /// Manifest/JSONL handling failed.
    Io(std::io::Error),
    /// A resume manifest is unreadable or disagrees with the requested
    /// spec/shard.
    ManifestMismatch(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(msg) => write!(f, "bad sweep spec: {msg}"),
            SweepError::Cell { cell, error } => write!(f, "cell {cell}: {error}"),
            SweepError::Io(e) => write!(f, "sweep i/o error: {e}"),
            SweepError::ManifestMismatch(msg) => write!(f, "manifest mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// The spec/shard guard next to a sweep's JSONL: which spec and shard
/// the rows were produced for. Written once, before the first row; the
/// rows themselves are the record of finished cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// [`SweepSpec::fingerprint`] of the producing spec.
    pub spec: String,
    /// Shard selector, or `None` for the whole grid.
    pub shard: Option<(usize, usize)>,
}

impl Manifest {
    /// Serializes the manifest as one line of JSON.
    pub fn to_json(&self) -> String {
        let shard = match self.shard {
            Some((k, n)) => format!("\"{k}/{n}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":{SWEEP_SCHEMA_VERSION},\"spec\":\"{}\",\"shard\":{shard}}}\n",
            escape_json(&self.spec),
        )
    }

    /// Parses [`Manifest::to_json`] output. Fields of older manifests
    /// (`total`, `done`) are ignored.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = parse_json(text)?;
        let spec = v
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("missing spec")?
            .to_string();
        let shard = match v.get("shard") {
            Some(Json::Str(s)) => {
                let (k, n) = s.split_once('/').ok_or("bad shard")?;
                Some((
                    k.parse().map_err(|_| "bad shard k")?,
                    n.parse().map_err(|_| "bad shard n")?,
                ))
            }
            _ => None,
        };
        Ok(Manifest { spec, shard })
    }

    /// Checks the manifest at `path` against `self`, or writes `self`
    /// there (atomically) when there is none. An existing manifest is
    /// never rewritten.
    fn claim(&self, path: &Path) -> Result<(), SweepError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let tmp = path.with_extension("tmp");
                std::fs::write(&tmp, self.to_json())?;
                return Ok(std::fs::rename(&tmp, path)?);
            }
            Err(e) => return Err(e.into()),
        };
        let found = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(Manifest::from_json)
            .map_err(|e| {
                SweepError::ManifestMismatch(format!("manifest {}: {e}", path.display()))
            })?;
        if found.spec != self.spec {
            let prefix = |s: &str| s.chars().take(12).collect::<String>();
            return Err(SweepError::ManifestMismatch(format!(
                "manifest {} was produced by a different sweep spec \
                 (spec {}.. vs {}..); use a fresh --out",
                path.display(),
                prefix(&found.spec),
                prefix(&self.spec),
            )));
        }
        if found.shard != self.shard {
            return Err(SweepError::ManifestMismatch(format!(
                "manifest {} covers shard {:?}, this run requests {:?}",
                path.display(),
                found.shard,
                self.shard,
            )));
        }
        Ok(())
    }
}

/// Scans an existing JSONL file for the ids of rows already flushed —
/// the sweep's resume record — and whether it ends in a torn line with
/// no newline. Lines that are not UTF-8 or do not parse are skipped: a
/// torn final line simply gets recomputed.
fn scan_jsonl(path: &Path) -> (BTreeSet<String>, bool) {
    let Ok(bytes) = std::fs::read(path) else {
        return Default::default();
    };
    let done = bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| {
            let v = parse_json(std::str::from_utf8(line).ok()?).ok()?;
            Some(v.get("cell")?.as_str()?.to_string())
        })
        .collect();
    (done, bytes.last().is_some_and(|&b| b != b'\n'))
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// What a sweep resolves once per distinct (bench, mode) rather than
/// once per cell.
struct Program<'a> {
    name: &'a str,
    mode: MachineMode,
    bench: &'a Benchmark,
    source: &'a str,
    /// The hashed head of the cells' cache keys, when the sweep has a
    /// cache.
    key: Option<KeyPrefix>,
}

/// One cell's row, or its id with the error that failed it.
type CellResult = Result<SweepRow, (String, RunError)>;

/// Runs a sweep.
///
/// Block stealing across `opts.jobs` threads; each pending cell first
/// consults the cache (if configured), then compiles + simulates +
/// validates. Compiles are shared within the run: cells with the same
/// source, schedule mode and [compile
/// target](MachineConfig::compile_target) reuse one compiled image.
/// Completed rows stream to the JSONL sink **in cell order** (the pool
/// holds a row that finished ahead of an earlier cell), each flushed as
/// it lands. Before the first row, `<out>.manifest.json` is written
/// once if absent, or checked against the spec and shard if present.
/// Killing the process loses the rows still in flight and, with
/// `jobs >= 2`, also the finished rows held back in memory: every
/// worker but the first starts mid-grid, so rows past the flushed
/// prefix wait there for the cells before them. Nothing is corrupted:
/// a resume, reading the JSONL alone, recomputes exactly the missing
/// cells.
///
/// # Errors
/// Deterministically reports the lowest-indexed failing cell
/// ([`SweepError::Cell`]), spec problems, manifest mismatches, and I/O
/// failures of the sink or manifest.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepSummary, SweepError> {
    let started = Instant::now();
    let all_cells = spec.cells().map_err(SweepError::Spec)?;
    let cells: Vec<SweepCell> = match opts.shard {
        None => all_cells,
        Some((k, n)) => {
            if n == 0 || k == 0 || k > n {
                return Err(SweepError::Spec(format!(
                    "bad shard {k}/{n}: want 1 <= k <= n"
                )));
            }
            all_cells
                .into_iter()
                .filter(|c| c.index % n == k - 1)
                .collect()
        }
    };
    // Resume state: the rows already in the JSONL, once its manifest
    // vouches for the spec and shard.
    let (done, torn) = match &opts.out {
        Some(out) => {
            if let Some(parent) = out.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let mut manifest_path = out.as_os_str().to_owned();
            manifest_path.push(".manifest.json");
            Manifest {
                spec: spec.fingerprint(),
                shard: opts.shard,
            }
            .claim(Path::new(&manifest_path))?;
            scan_jsonl(out)
        }
        None => Default::default(),
    };
    let pending: Vec<&SweepCell> = cells.iter().filter(|c| !done.contains(&c.id())).collect();
    let prior_done = cells.len() - pending.len();

    let cache = match &opts.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    // Resolve each (bench, mode) once per sweep: its benchmark, source,
    // and (with a cache) the hashed head of its cells' keys.
    let suite = benchmarks::all();
    let mut programs: Vec<Program> = Vec::new();
    let mut program_of = Vec::with_capacity(pending.len());
    for cell in &pending {
        let known = programs
            .iter()
            .position(|p| p.mode == cell.mode && p.name == cell.bench);
        program_of.push(known.unwrap_or_else(|| {
            let bench = suite
                .iter()
                .find(|b| b.name.to_lowercase() == cell.bench)
                .expect("cells() validated benchmark names");
            let source = bench.source(cell.mode).expect("cells() filtered modes");
            programs.push(Program {
                name: &cell.bench,
                mode: cell.mode,
                bench,
                source,
                key: cache
                    .as_ref()
                    .map(|_| KeyPrefix::new(&cell.bench, cell.mode, source)),
            });
            programs.len() - 1
        }));
    }
    // Plan the compile memo: one key per distinct (bench, mode, mix),
    // counted once per pending cell so each image is freed after its
    // key's last cell. Looking keys up per cell would hash the source
    // for every cell, warm hits included. The other axes are runtime
    // fields, so a key's cells share its compile target (a cell that
    // did not would fail with `SimError::TargetMismatch`, never run a
    // stale image).
    let mut memo = CompileMemo::new();
    let mut keys: Vec<(usize, Mix, usize)> = Vec::new();
    let pending: Vec<(&SweepCell, usize, usize)> = pending
        .into_iter()
        .zip(program_of)
        .map(|(cell, i)| {
            let key = match keys.iter().find(|k| k.0 == i && k.1 == cell.mix) {
                Some(k) => k.2,
                None => {
                    let key = memo.key(
                        programs[i].source,
                        cell.mode.schedule_mode(),
                        CompileOptions::default(),
                        &cell.config(),
                    );
                    keys.push((i, cell.mix, key));
                    key
                }
            };
            memo.expect(key);
            (cell, i, key)
        })
        .collect();

    let mut sink: Option<std::io::BufWriter<std::fs::File>> = match &opts.out {
        Some(path) => {
            let mut file = std::fs::File::options()
                .create(true)
                .append(true)
                .open(path)?;
            // A kill mid-write can leave a torn final line with no
            // newline; terminate it so appended rows don't concatenate
            // onto the garbage (resume scanning skips the torn line).
            if torn {
                file.write_all(b"\n")?;
            }
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };

    // Fan the pending cells over the pool, which hands rows back in
    // pending order so output bytes are schedule-independent.
    let jobs = opts.jobs.max(1);
    // Telemetry is purely host-side: the rows and their JSONL bytes are
    // identical with it on or off (the determinism suite pins this).
    let tel: Option<Arc<SweepTelemetry>> =
        (opts.telemetry || opts.progress || opts.metrics_out.is_some()).then(|| {
            Arc::new(SweepTelemetry::new(
                jobs.clamp(1, pending.len().max(1)),
                pending.len(),
            ))
        });
    let tel_ref = tel.as_deref();
    let run_cell = |&(cell, i, compile_key): &(&SweepCell, usize, usize)| -> CellResult {
        let program = &programs[i];
        let config = cell.config();
        let t0 = Instant::now();
        let claim = memo.claim(compile_key);
        let key = program.key.as_ref().map(|prefix| prefix.key(&config));
        if let (Some(cache), Some(key)) = (&cache, &key) {
            let hit = cache.lookup(key);
            let lookup_ns = t0.elapsed().as_nanos() as u64;
            if let Some(hit) = hit {
                if let Some(t) = tel_ref {
                    t.cache_hits.inc();
                    t.cache_hit_ns.record(lookup_ns);
                    t.cells_done.inc();
                }
                return Ok(SweepRow {
                    cell: cell.clone(),
                    stats: hit.stats,
                    peak_registers: hit.peak_registers,
                    cached: true,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                });
            }
            if let Some(t) = tel_ref {
                t.cache_misses.inc();
                t.cache_miss_ns.record(lookup_ns);
            }
        } else if let Some(t) = tel_ref {
            t.cache_misses.inc();
        }
        let (image, compile_ns) = claim.image();
        if let Some(t) = tel_ref {
            match compile_ns {
                Some(ns) => {
                    t.compiles.inc();
                    t.compile_ns.record(ns);
                }
                None => t.compile_reuses.inc(),
            }
        }
        let out = image
            .and_then(|image| run_compiled(program.bench, &image, config, &Observe::default()))
            .map_err(|e| (cell.id(), e))?;
        if let (Some(cache), Some(key)) = (&cache, &key) {
            // A failed store must not fail the sweep — the result is in
            // hand; the next run simply recomputes.
            let t_store = Instant::now();
            let _ = cache.store(
                key,
                &cell.id(),
                &CachedResult {
                    stats: out.stats.clone(),
                    peak_registers: out.peak_registers,
                },
            );
            if let Some(t) = tel_ref {
                t.cache_store_ns.record(t_store.elapsed().as_nanos() as u64);
            }
        }
        if let Some(t) = tel_ref {
            t.cells_done.inc();
        }
        Ok(SweepRow {
            cell: cell.clone(),
            stats: out.stats,
            peak_registers: out.peak_registers,
            cached: false,
            wall_ns: t0.elapsed().as_nanos() as u64,
        })
    };

    // Monitor thread: redraws the live progress line and/or appends
    // periodic JSONL telemetry snapshots while the pool runs. Purely an
    // observer — it only reads the lock-free telemetry handles.
    let metrics_file: Option<std::fs::File> = match &opts.metrics_out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            Some(std::fs::File::create(path)?)
        }
        None => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let monitor: Option<std::thread::JoinHandle<()>> = match (&tel, opts.progress, metrics_file) {
        (Some(t), progress, file) if progress || file.is_some() => {
            let t = Arc::clone(t);
            let stop = Arc::clone(&stop);
            Some(std::thread::spawn(move || {
                let mut file = file.map(std::io::BufWriter::new);
                let mut tick = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    tick += 1;
                    if progress && tick % 2 == 0 {
                        eprint!("\r{}", t.progress_line(started.elapsed().as_secs_f64()));
                    }
                    if tick % 5 == 0 {
                        if let Some(w) = &mut file {
                            let _ = writeln!(w, "{}", t.snapshot().to_jsonl());
                            let _ = w.flush();
                        }
                    }
                }
                if progress {
                    eprintln!("\r{}", t.progress_line(started.elapsed().as_secs_f64()));
                }
                if let Some(w) = &mut file {
                    let _ = writeln!(w, "{}", t.snapshot().to_jsonl());
                    let _ = w.flush();
                }
            }))
        }
        _ => None,
    };

    // The pool delivers rows in cell order; each is written and flushed
    // as it lands. Writing stops at the first failure of any kind.
    let mut rows: Vec<SweepRow> = Vec::with_capacity(pending.len());
    let mut panic = None;
    let mut failure: Option<SweepError> = None;
    run_pool(
        &pending,
        jobs,
        run_cell,
        |_, outcome| match outcome {
            Err(payload) => {
                panic.get_or_insert(payload);
            }
            Ok(_) if panic.is_some() || failure.is_some() => {}
            Ok(Err((cell, error))) => failure = Some(SweepError::Cell { cell, error }),
            Ok(Ok(row)) => {
                if let Some(w) = &mut sink {
                    if let Err(e) = writeln!(w, "{}", row.to_jsonl()).and_then(|()| w.flush()) {
                        failure = Some(SweepError::Io(e));
                        return;
                    }
                }
                rows.push(row);
            }
        },
        tel.as_ref().map(|t| &t.pool),
    );
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = monitor {
        let _ = handle.join();
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let hits = rows.iter().filter(|r| r.cached).count();
    let misses = rows.len() - hits;
    Ok(SweepSummary {
        rows,
        total_cells: cells.len(),
        prior_done,
        hits,
        misses,
        jobs,
        wall_ns: started.elapsed().as_nanos() as u64,
        telemetry: tel.map(|t| t.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_grid_is_the_full_mode_cross_product() {
        let cells = SweepSpec::table2().cells().unwrap();
        // 4 benchmarks × 5 modes — every benchmark now has an Ideal
        // variant, so nothing is skipped.
        assert_eq!(cells.len(), 20);
        assert!(cells
            .iter()
            .any(|c| c.bench == "lud" && c.mode == MachineMode::Ideal));
        assert!(cells
            .iter()
            .any(|c| c.bench == "model" && c.mode == MachineMode::Ideal));
        // Indices are dense enumeration positions.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn each_compile_key_runs_on_one_image_freed_after_its_last_cell() {
        let spec = SweepSpec {
            benches: vec!["matrix".into()],
            modes: vec![MachineMode::Seq, MachineMode::Coupled],
            interconnects: InterconnectScheme::all().to_vec(),
            memories: MemKind::all().to_vec(),
            mixes: vec![Mix::Baseline],
            seed: 0,
        };
        for jobs in [1, 4] {
            let watch = crate::runner::tests::Watch::install();
            let run = run_sweep(
                &spec,
                &SweepOptions {
                    jobs,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert_eq!(run.rows.len(), 2 * 5 * 3);
            watch.assert_shared_and_freed(2 * 5 * 3, 2);
            // One worker takes a key's cells back to back, so it frees
            // each image before building the next.
            if jobs == 1 {
                assert_eq!(watch.peak_live(), 1);
            }
        }
    }

    #[test]
    fn cache_hits_give_up_their_key_too() {
        // Fill a cache with the Min-memory cells, then run the whole
        // grid against it: each key's hits and misses interleave, and
        // the image must still be gone once the sweep returns.
        let dir = std::env::temp_dir().join(format!("pc-memo-hits-{}", std::process::id()));
        let spec = |memories: Vec<MemKind>| SweepSpec {
            benches: vec!["matrix".into()],
            modes: vec![MachineMode::Seq, MachineMode::Coupled],
            interconnects: vec![InterconnectScheme::Full, InterconnectScheme::SharedBus],
            memories,
            mixes: vec![Mix::Baseline],
            seed: 0,
        };
        let opts = |jobs| SweepOptions {
            jobs,
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        for jobs in [1, 4] {
            let _ = std::fs::remove_dir_all(&dir);
            run_sweep(&spec(vec![MemKind::Min]), &opts(1)).unwrap();
            let watch = crate::runner::tests::Watch::install();
            let run = run_sweep(&spec(MemKind::all().to_vec()), &opts(jobs)).unwrap();
            let hits = run.rows.iter().filter(|r| r.cached).count();
            assert_eq!(hits, 4, "jobs {jobs}");
            watch.assert_shared_and_freed(run.rows.len() - hits, 2);
            if jobs == 1 {
                assert_eq!(watch.peak_live(), 1, "a key outlived its cells");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_grid_is_the_cross_product() {
        let cells = SweepSpec::full().cells().unwrap();
        assert_eq!(cells.len(), 20 * 5 * 3);
    }

    #[test]
    fn cell_ids_are_unique_and_stable() {
        let cells = SweepSpec::full().cells().unwrap();
        let ids: BTreeSet<String> = cells.iter().map(SweepCell::id).collect();
        assert_eq!(ids.len(), cells.len());
        assert_eq!(
            cells[0].id(),
            "matrix/seq/full/min/base/s0",
            "id format is the JSONL resume key"
        );
    }

    #[test]
    fn spec_fingerprint_tracks_every_axis() {
        let base = SweepSpec::table2();
        let fp = base.fingerprint();
        assert_eq!(fp, SweepSpec::table2().fingerprint());
        let mut changed = base.clone();
        changed.seed = 1;
        assert_ne!(fp, changed.fingerprint());
        let mut changed = base.clone();
        changed.memories = vec![MemKind::Mem2];
        assert_ne!(fp, changed.fingerprint());
        let mut changed = base.clone();
        changed.benches.pop();
        assert_ne!(fp, changed.fingerprint());
    }

    #[test]
    fn shard_partition_is_exact_and_disjoint() {
        let spec = SweepSpec::table2();
        let all: Vec<String> = spec.cells().unwrap().iter().map(SweepCell::id).collect();
        let mut seen = Vec::new();
        for k in 1..=3 {
            let opts = SweepOptions {
                shard: Some((k, 3)),
                ..SweepOptions::default()
            };
            // Use the same partition rule run_sweep applies.
            let cells = spec.cells().unwrap();
            let shard: Vec<String> = cells
                .iter()
                .filter(|c| c.index % 3 == k - 1)
                .map(SweepCell::id)
                .collect();
            let _ = opts;
            seen.extend(shard);
        }
        seen.sort();
        let mut want = all;
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn bad_shard_and_unknown_bench_are_spec_errors() {
        let spec = SweepSpec::table2();
        let err = run_sweep(
            &spec,
            &SweepOptions {
                shard: Some((3, 2)),
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Spec(_)), "{err}");
        let mut bad = spec.clone();
        bad.benches = vec!["nonesuch".to_string()];
        let err = run_sweep(&bad, &SweepOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nonesuch"), "{err}");
        let repeated = SweepSpec {
            benches: vec!["matrix".into(), "matrix".into()],
            interconnects: vec![InterconnectScheme::Full, InterconnectScheme::Full],
            ..spec
        };
        let err = run_sweep(&repeated, &SweepOptions::default()).unwrap_err();
        assert!(matches!(err, SweepError::Spec(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("\"matrix\" on the benches axis"), "{msg}");
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            spec: "abc123".to_string(),
            shard: Some((2, 4)),
        };
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
        let unsharded = Manifest {
            shard: None,
            ..m.clone()
        };
        assert_eq!(
            Manifest::from_json(&unsharded.to_json()).unwrap(),
            unsharded
        );
        assert!(Manifest::from_json("{}").is_err());
        // The older format, which also listed `total` and `done`.
        let old = r#"{"schema":1,"spec":"abc123","shard":"2/4","total":18,"done":["a/b"]}"#;
        assert_eq!(Manifest::from_json(old).unwrap(), m);
    }

    #[test]
    fn mix_and_memkind_parse_their_keys() {
        for m in MemKind::all() {
            assert_eq!(MemKind::parse(m.key()), Some(m));
        }
        assert_eq!(MemKind::parse("bogus"), None);
        assert_eq!(Mix::parse("base"), Some(Mix::Baseline));
        assert_eq!(Mix::parse("2x3"), Some(Mix::Units { iu: 2, fpu: 3 }));
        assert_eq!(Mix::parse("0x3"), None);
        assert_eq!(Mix::parse("5x1"), None);
        assert_eq!(Mix::parse("2x"), None);
    }
}
