//! The repository's benchmark of record: sweep cells through the public
//! `coupling::sweep::run_sweep` API, end-to-end metrics with tracing
//! off, and a separate traced run that drives the same cells through
//! each layer's public functions to give per-layer self times.
//!
//! See `README.md` beside this crate for the workloads, the metric map
//! and how to run each mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod report;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod workload;
