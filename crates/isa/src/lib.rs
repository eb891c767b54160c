//! # pc-isa — ISA and machine model for the processor-coupling reproduction
//!
//! This crate defines the instruction-set architecture and machine
//! description shared by every other crate in the workspace: the compiler
//! (`pc-compiler`) emits [`Program`]s of wide instruction words, the
//! simulator (`pc-sim`) executes them against a [`MachineConfig`], and the
//! assembler (`pc-asm`) prints and parses them.
//!
//! The model follows Keckler & Dally, *Processor Coupling: Integrating
//! Compile Time and Runtime Scheduling for Parallelism* (ISCA 1992):
//!
//! * A node is a collection of **clusters**, each grouping a few
//!   **function units** (integer, floating-point, memory, branch) around a
//!   shared multi-ported register file ([`MachineConfig`]).
//! * A thread's code is a sparse matrix of **operations**: each
//!   [`InstWord`] (row) holds at most one [`Operation`] per function unit,
//!   and rows issue in order with intra-row slip.
//! * Operations name up to `max_dsts` **destination registers** which may
//!   live in *other* clusters' register files — this is the coupling
//!   mechanism by which units place results directly into each other's
//!   register files.
//! * Memory references carry the **synchronizing flavors** of the paper's
//!   Table 1 ([`LoadFlavor`], [`StoreFlavor`]).
//!
//! The crate also centralizes **operation semantics**: [`op::eval_int`]
//! and [`op::eval_float`] are the only arithmetic evaluators. The
//! compiler's constant folder, the reference interpreter and both of
//! the simulator's engines (`Decoded` and `Scan`) call them, so they
//! all agree exactly.
//!
//! ```
//! use pc_isa::{MachineConfig, UnitClass};
//!
//! let mc = MachineConfig::baseline();
//! assert_eq!(mc.clusters().len(), 6); // 4 arithmetic + 2 branch clusters
//! assert_eq!(mc.units_of_class(UnitClass::Float).count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod debug;
pub mod error;
pub mod inst;
pub mod op;
pub mod program;
pub mod reg;
pub mod validate;
pub mod value;

pub use config::{
    ArbitrationPolicy, ClusterConfig, FuId, FuInfo, InterconnectScheme, MachineConfig, MemoryModel,
    UnitClass, UnitConfig,
};
pub use debug::{DebugMap, LoopInfo, SegmentDebug, SpanInfo, SrcSpan};
pub use error::{IsaError, Result};
pub use inst::InstWord;
pub use op::{BranchOp, FloatOp, IntOp, LoadFlavor, MemOp, OpKind, Operation, StoreFlavor};
pub use program::{CodeSegment, Program, SegmentId, Symbol};
pub use reg::{ClusterId, Operand, RegId};
pub use validate::validate_program;
pub use value::Value;
