//! # pc-sim — cycle-level simulator of a processor-coupled node
//!
//! Executes [`pc_isa::Program`]s on a machine described by
//! [`pc_isa::MachineConfig`], implementing the runtime mechanisms of the
//! paper:
//!
//! * **Cycle-by-cycle function-unit arbitration among threads.** Each
//!   function unit examines one pending operation per active thread (its
//!   *operation buffer*) and selects a ready one each cycle — round-robin
//!   or fixed thread priority.
//! * **Data-presence synchronization.** Registers carry presence bits: an
//!   operation issues only when all its sources are valid; issuing clears
//!   its destinations' bits; writeback sets them. A scoreboard of in-flight
//!   writers prevents write-after-write ambiguity.
//! * **In-order issue with intra-row slip.** Operations of one instruction
//!   word may issue in different cycles, but every operation of row *i*
//!   issues before any of row *i+1* (the paper's Figure 1 discipline).
//! * **Coupled writebacks.** Results are placed directly into any cluster's
//!   register file, arbitrating for write ports and buses through
//!   [`pc_xconn::Interconnect`]; denied writes retry and stall their unit.
//! * **Split-transaction memory** via [`pc_memsys::MemorySystem`]: memory
//!   units keep issuing while synchronizing references wait in the memory
//!   system.
//! * **Threads**: `fork` spawns, `halt` retires, presence bits in memory
//!   synchronize; probe markers record per-thread timing for the paper's
//!   interference study (Table 3).
//!
//! ```
//! use pc_isa::{FuId, InstWord, IntOp, MachineConfig, Operation, Operand,
//!              CodeSegment, ClusterId, Program, RegId};
//! use pc_sim::Machine;
//!
//! // One row: r0 <- 2 + 3 on cluster 0's integer unit.
//! let mut seg = CodeSegment::new("main");
//! let mut row = InstWord::new();
//! row.push(FuId(0), Operation::int(IntOp::Add,
//!     vec![Operand::ImmInt(2), Operand::ImmInt(3)],
//!     RegId::new(ClusterId(0), 0)));
//! seg.rows.push(row);
//! seg.regs_per_cluster = vec![1];
//! let mut program = Program::new();
//! program.add_segment(seg);
//!
//! let mut machine = Machine::new(MachineConfig::baseline(), program).unwrap();
//! let stats = machine.run(1_000).unwrap();
//! assert!(stats.cycles <= 2);
//! assert_eq!(stats.ops_issued, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod error;
mod inline_vec;
mod machine;
pub mod probe;
mod regfile;
mod stats;
pub mod telemetry;
mod thread;
pub mod trace;

pub use decode::DecodedProgram;
pub use error::SimError;
pub use machine::{EngineKind, Machine};
pub use probe::{
    ChromeTraceSink, EventCounts, Fanout, JsonlSink, Probe, ProbeEvent, RingSink, StallCause,
    StallProfiler,
};
pub use regfile::RegFileSet;
pub use stats::{ProbeRecord, RunStats, StallTable, ThreadStalls};
pub use telemetry::{HostPhase, HostProfile};
pub use thread::{ThreadId, ThreadState};
pub use trace::TraceEvent;
