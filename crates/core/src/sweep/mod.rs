//! Parallel batch execution of simulator runs.
//!
//! The paper's evaluation is a configuration cross-product — benchmarks
//! × modes × interconnect schemes × memory models × FU mixes — and each
//! cell is an independent simulate + validate pipeline over a program
//! compiled once per call for every cell that shares its compile target
//! (see [`pc_isa::MachineConfig::compile_target`] and the runner's
//! compile memo). `pcsim sweep`, perfbench and the simcore bench run
//! grids through [`run_sweep`]; the experiment harness shares the
//! [`pool`] (through [`try_par_map`]), the compile memo and its per-run
//! step (claim the key, build or reuse its image, run it).
//!
//! - [`pool`] — a block-stealing pool (each worker walks its own
//!   contiguous block from the front; an idle worker steals one item
//!   from the back of another's) that returns results in item order,
//!   behind the [`par_map`] / [`try_par_map`] combinators, so long LUD
//!   cells don't serialize behind short Matrix cells.
//! - [`cache`] — a content-addressed result cache keyed by the hash of
//!   a cell's *inputs* (program source, mode, machine configuration,
//!   cycle limit, schema version); hits replay stored [`pc_sim::RunStats`]
//!   bit-identical to a fresh run.
//! - [`codec`] — the canonical JSON codec for `RunStats` that makes the
//!   cache and the JSONL streams exactly round-trippable (every field is
//!   an integer, so no float-formatting hazards exist).
//! - [`engine`] — [`SweepSpec`]/[`run_sweep`]: grid enumeration, the
//!   per-run compile memo, and JSONL streaming in deterministic cell
//!   order. The JSONL is what a killed run (sharded with `--shard k/n`
//!   or not) resumes from; a write-once manifest guards its spec and
//!   shard.
//! - [`telemetry`] — [`SweepTelemetry`]: the lock-free host-side
//!   metrics registry behind `pcsim sweep --progress`, the periodic
//!   JSONL snapshot emitter, and the `pcsim metrics` report.

pub mod cache;
pub mod codec;
pub mod engine;
pub mod pool;
pub mod telemetry;

pub use cache::{cache_key, config_fingerprint, CachedResult, ResultCache, CACHE_SCHEMA_VERSION};
pub use engine::{
    run_sweep, Manifest, MemKind, Mix, SweepCell, SweepError, SweepOptions, SweepRow, SweepSpec,
    SweepSummary, SWEEP_SCHEMA_VERSION,
};
pub use pool::{default_jobs, par_map, try_par_map, PoolMetrics};
pub use telemetry::SweepTelemetry;
