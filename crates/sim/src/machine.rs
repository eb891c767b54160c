//! The machine: owns threads, function-unit pipelines, the memory system
//! and the interconnect, and advances them cycle by cycle.

use crate::decode::{
    AddrOperand, DecSrc, DecodedProgram, FlatList, OrderRule, RegList, SlotAction,
};
use crate::error::SimError;
use crate::inline_vec::InlineVec;
use crate::probe::{Probe, ProbeEvent, StallCause};
use crate::regfile::RegFileSet;
use crate::stats::{ProbeRecord, RunStats};
use crate::telemetry::{
    HostProfile, HostTelemetry, PH_ADVANCE, PH_ISSUE, PH_MEM, PH_PIPE, PH_SKIP, PH_WAKE,
    PH_WRITEBACK,
};
use crate::thread::{Thread, ThreadId, ThreadState};
use pc_isa::{
    op, ArbitrationPolicy, BranchOp, FuId, MachineConfig, MemOp, OpKind, Operation, Program, RegId,
    SegmentId, UnitClass, Value,
};
use pc_memsys::{MemCompletion, MemEvent, MemorySystem, RequestKind};
use pc_xconn::{Interconnect, PortDecision, WriteReq};
use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::sync::Arc;

/// Source values of an in-flight operation (every ALU/memory op has at
/// most three; only wide `fork` argument lists spill).
type ValList = InlineVec<Value, 4>;

/// Which issue/dispatch engine a [`Machine`] runs.
///
/// Both produce **bit-identical** simulated results — RunStats and stall
/// tables included — for every program (the differential tests pin
/// this); they differ only in host cost and independence:
///
/// * [`EngineKind::Decoded`] (default): event-driven candidate discovery
///   over per-thread readiness bitmasks plus decode-once dispatch — flat
///   pre-resolved operands, the opcode carried in each slot record,
///   precomputed latencies ([`DecodedProgram`]).
/// * [`EngineKind::Scan`]: the scan-every-cycle oracle. It re-grades
///   every thread × unit × slot each cycle and issues straight from the
///   program's operations, so no decoded record steers what it
///   simulates. Also disables bulk idle skipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Decode-once threaded-code dispatch (default).
    #[default]
    Decoded,
    /// Scan-every-cycle reference engine.
    Scan,
}

impl EngineKind {
    /// Stable lowercase name (`decoded` / `scan`), as accepted by
    /// `pcsim --engine` and printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Decoded => "decoded",
            EngineKind::Scan => "scan",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "decoded" => Ok(EngineKind::Decoded),
            "scan" => Ok(EngineKind::Scan),
            other => Err(format!(
                "unknown engine `{other}` (expected decoded or scan)"
            )),
        }
    }
}

/// An operation in a function unit's execution pipeline.
///
/// The semantic work — operand gather, ALU evaluation, the branch
/// decision — happens at issue, where the operands were just read
/// anyway; the pipeline carries only the finished effect, so completion
/// applies it instead of re-deriving it, and the entries stay small for
/// the per-unit FIFOs.
#[derive(Debug, Clone)]
struct Exec {
    thread: ThreadId,
    /// The slot's index into [`DecodedProgram::ops`], carried so result
    /// retirement reaches the destination lists in one load instead of
    /// re-walking segment → row → slot.
    op: u32,
    /// The effect to apply at `done`.
    payload: ExecPayload,
    done: u64,
}

/// The precomputed effect of a pipeline entry.
#[derive(Debug, Clone)]
enum ExecPayload {
    /// An ALU result awaiting writeback.
    Result(Value),
    /// A decided control transfer (the branch condition was evaluated
    /// against the issue-time operand values; resolution order is
    /// unchanged because those values were latched at issue either way).
    Branch(Transfer),
    /// A `fork`: the spawn itself happens at completion, from the
    /// argument values gathered at issue. Boxed — forks are rare and
    /// wide, and an inline argument list would dominate every entry.
    Fork(Box<ForkPayload>),
}

/// A pending `fork`'s spawn arguments.
#[derive(Debug, Clone)]
struct ForkPayload {
    segment: SegmentId,
    arg_dsts: Arc<[RegId]>,
    vals: ValList,
}

/// A result in the writeback queue: the writes of it that were denied a
/// port and have not landed yet.
///
/// Destinations are carried in both spellings: `dsts` routes the
/// interconnect requests (cluster) and `dsts_flat` the register-file
/// writes, index-aligned so removals keep the two in lockstep.
#[derive(Debug, Clone)]
struct Writeback {
    thread: ThreadId,
    fu: FuId,
    dsts: RegList,
    dsts_flat: FlatList,
    value: Value,
}

/// A control transfer decided by a resolved branch, applied once the
/// branch's whole row has issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transfer {
    Halt,
    To(u32),
    FallThrough,
}

/// What an issued slot does with its gathered operands — decided by the
/// running engine's dispatch ([`Machine::dispatch_decoded`] or
/// [`Machine::dispatch_scan`]), applied by the shared tail of
/// [`Machine::issue_one`].
#[derive(Debug)]
enum Effect {
    /// A memory reference to submit.
    Mem { addr: u64, kind: RequestKind },
    /// A probe: completes at issue.
    Probe(u32),
    /// An ALU result or control transfer entering the unit's pipeline.
    Pipe(ExecPayload),
}

#[derive(Debug, Clone, Copy)]
struct MemToken {
    thread: ThreadId,
    fu: FuId,
    is_load: bool,
}

/// Slab of in-flight memory-reference tokens.
///
/// Slot indices double as the token ids handed to the memory system.
/// Freed slots are reused, which is safe because the memory system orders
/// completions by submission sequence — never by token id — and an id is
/// freed only once its completion retires, so live ids are always unique.
/// In steady state the slab reaches the peak number of concurrently
/// outstanding references and never allocates again.
#[derive(Debug, Default)]
struct TokenTable {
    slots: Vec<Option<(MemToken, u32)>>,
    free: Vec<u32>,
}

impl TokenTable {
    /// `op` indexes the reference's decoded slot — destinations and the
    /// remote-write count are read back from there at completion, so the
    /// slab stores a handle, not copies of the lists.
    fn insert(&mut self, tok: MemToken, op: u32) -> u64 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some((tok, op));
                u64::from(i)
            }
            None => {
                self.slots.push(Some((tok, op)));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<(MemToken, u32)> {
        let entry = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id as u32);
        Some(entry)
    }

    fn get(&self, id: u64) -> Option<&(MemToken, u32)> {
        self.slots.get(id as usize)?.as_ref()
    }
}

/// Reusable per-cycle buffers for [`Machine::step`]'s phases. Each phase
/// takes its buffer, clears it, and puts it back, so after warm-up the
/// hot loop performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Phase A2: the cycle's memory completions.
    mem: Vec<MemCompletion>,
    /// Phase B: one unit's issue candidates.
    cand: Vec<(ThreadId, usize)>,
    /// Phase B (decoded engine): per-unit candidate buckets filled by a
    /// single pass over the live threads.
    buckets: Vec<Vec<(ThreadId, u16)>>,
    /// Phases B/C: snapshot of live thread ids (spawn/halt mutate `live`).
    live: Vec<u32>,
    /// Phase B (lockstep): units claimed by already-issued rows.
    units: Vec<FuId>,
    /// Phase B (lockstep): one row's `(unit, slot)` pairs.
    slots: Vec<(FuId, u32)>,
}

/// How close an operation is to issuing — the single source of truth
/// shared by the issue logic ([`Machine::ready`]) and stall attribution,
/// so the profiler can never disagree with the machine about why a slot
/// waited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    /// All sources present, destinations unclaimed, ordering satisfied.
    Ready,
    /// A source operand is absent or a destination still has an
    /// in-flight writer.
    Operands,
    /// Blocked by a memory-ordering rule: a synchronizing fence, a
    /// same-address hazard, or the `fork` fence.
    MemOrder,
}

/// Observability state: the attached [`Probe`] sink — the machine's one
/// guest-side observation path — and the scratch it needs. The hot loop
/// tests only whether a sink is attached, so an unobserved run pays a
/// single predicted branch per emission point and allocates nothing.
#[derive(Default)]
struct Obs {
    /// Structured event sink.
    sink: Option<Box<dyn Probe>>,
    /// Scratch: drained memory-system events.
    mem_events: Vec<MemEvent>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

/// A processor-coupled node executing one [`Program`].
///
/// Construction validates the program against the configuration. Use
/// [`Machine::write_global`] / [`Machine::set_global_empty`] to set up
/// inputs, [`Machine::run`] to execute, and [`Machine::read_global`] to
/// extract results.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    program: Arc<Program>,
    /// The decode-once program representation every engine dispatches
    /// over; shared so repeated machines skip validation + translation.
    code: Arc<DecodedProgram>,
    /// Which issue/dispatch engine runs. Forced to [`EngineKind::Scan`]
    /// when the configuration has more than 64 units — the readiness
    /// cache is a u64 bitmask. See [`Machine::set_engine`].
    engine: EngineKind,
    threads: Vec<Thread>,
    /// Ids of non-halted threads, in spawn order (iteration hot path).
    live: Vec<u32>,
    transfers: Vec<Option<Transfer>>,
    mem: MemorySystem,
    xconn: Interconnect,
    /// Per-unit execution pipelines. A unit's latency is constant, so
    /// each pipe is strictly FIFO (one issue per unit per cycle, each
    /// due `latency` later): completions are a prefix pop, never a scan.
    pipes: Vec<VecDeque<Exec>>,
    /// Exact earliest `done` cycle per pipe (`u64::MAX` when empty):
    /// min-updated on push, recomputed when a pipe drains. Lets the
    /// completion phase skip pipes with nothing due without scanning.
    pipe_next: Vec<u64>,
    /// Global minimum over `pipe_next` — one compare decides whether the
    /// completion phase touches the pipes at all.
    next_pipe_due: u64,
    /// Total in-flight pipeline entries over all units (O(1) emptiness
    /// checks for `finished` / `pending_latency`).
    pipe_total: usize,
    /// Results with writes denied a port, oldest first: each cycle
    /// retries them before any new result asks, so no write starves.
    wb_fifo: VecDeque<Writeback>,
    /// Per-unit count of `wb_fifo` entries — the unit's occupied
    /// writeback buffer slots, gating its issue at `wb_buffer`.
    wb_held: Vec<usize>,
    /// Per-unit: was the unit's most recent writeback denial for bus
    /// capacity (true) rather than a write port (false)? Stall
    /// attribution reads it to tell `BusFull` from `WritePortFull`.
    wb_denied_bus: Vec<bool>,
    /// Set whenever a thread may become eligible for a row advance or
    /// control transfer (its row fully issued, a transfer was applied to
    /// an empty row, or a thread spawned); phase C short-circuits to a
    /// no-op when clear. Conservative: spurious sets only cost one scan.
    advance_hint: bool,
    rr: Vec<u32>,
    tokens: TokenTable,
    scratch: Scratch,
    cycle: u64,
    ops_issued: u64,
    busy_cycles: u64,
    peak_threads: usize,
    probes: Vec<ProbeRecord>,
    ops_by_unit: Vec<u64>,
    obs: Obs,
    /// Host-side phase timers / event counters
    /// ([`Machine::enable_host_telemetry`]); `None` costs one predicted
    /// branch per phase. Never touches simulated state, so telemetry-on
    /// runs are bit-identical to telemetry-off runs.
    host: Option<Box<HostTelemetry>>,
}

impl Machine {
    /// Builds a machine for `program` under `config`.
    ///
    /// # Errors
    /// Returns [`SimError::Isa`] when the program fails
    /// [`pc_isa::validate_program`].
    pub fn new(config: MachineConfig, program: Program) -> Result<Self, SimError> {
        let code = DecodedProgram::decode(config, Arc::new(program))?;
        Self::from_decoded(Arc::new(code))
    }

    /// Builds a machine from an already [decoded](DecodedProgram::decode)
    /// program, skipping validation and translation entirely — the
    /// cheapest way to construct machines in bulk (benchmark iterations,
    /// sweep points) over the same code. The machine runs under the
    /// configuration the program was decoded against.
    ///
    /// # Errors
    /// Returns [`SimError::ThreadLimit`] if the configuration admits no
    /// thread to run the entry segment.
    pub fn from_decoded(code: Arc<DecodedProgram>) -> Result<Self, SimError> {
        let config = code.config().clone();
        Self::build(code, config)
    }

    /// Builds a machine that runs `code` under `config`: the decoded
    /// image supplies the program and everything decode precomputed from
    /// the clusters, units and latencies, and `config` supplies the
    /// runtime half (interconnect, memory model, arbitration, seed, …).
    /// One image decoded against a
    /// [compile target](MachineConfig::compile_target) thus serves every
    /// configuration that shares it.
    ///
    /// # Errors
    /// Returns [`SimError::TargetMismatch`] when `config`'s compile target
    /// differs from that of the configuration `code` was decoded against,
    /// and [`SimError::ThreadLimit`] if `config` admits no thread to run
    /// the entry segment.
    pub fn with_config(code: Arc<DecodedProgram>, config: MachineConfig) -> Result<Self, SimError> {
        if config.compile_target() != code.config().compile_target() {
            return Err(SimError::TargetMismatch);
        }
        Self::build(code, config)
    }

    fn build(code: Arc<DecodedProgram>, config: MachineConfig) -> Result<Self, SimError> {
        let program = Arc::clone(code.program());
        let n_units = config.units().len();
        let n_clusters = config.clusters().len();
        let mem = MemorySystem::new(config.memory, program.memory_size, config.seed);
        let xconn = Interconnect::new(config.interconnect, n_clusters);
        let mut m = Machine {
            config,
            program,
            code,
            engine: if n_units > 64 {
                EngineKind::Scan
            } else {
                EngineKind::default()
            },
            threads: Vec::new(),
            live: Vec::new(),
            transfers: Vec::new(),
            mem,
            xconn,
            pipes: vec![VecDeque::new(); n_units],
            pipe_next: vec![u64::MAX; n_units],
            next_pipe_due: u64::MAX,
            pipe_total: 0,
            wb_fifo: VecDeque::new(),
            wb_held: vec![0; n_units],
            wb_denied_bus: vec![false; n_units],
            advance_hint: true,
            rr: vec![0; n_units],
            tokens: TokenTable::default(),
            scratch: Scratch {
                buckets: vec![Vec::new(); n_units],
                ..Scratch::default()
            },
            cycle: 0,
            ops_issued: 0,
            busy_cycles: 0,
            peak_threads: 0,
            probes: Vec::new(),
            ops_by_unit: vec![0; n_units],
            obs: Obs::default(),
            host: None,
        };
        let entry = m.program.entry;
        m.spawn(entry, &[], &[])?;
        Ok(m)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Writes `values` into the global named `name`, marking the words
    /// full.
    ///
    /// # Errors
    /// [`SimError::Isa`] if the symbol is unknown or `values` exceeds its
    /// extent; [`SimError::Mem`] on address errors.
    pub fn write_global(&mut self, name: &str, values: &[Value]) -> Result<(), SimError> {
        let sym = self.lookup(name)?;
        if values.len() as u64 > sym.1 {
            return Err(SimError::Isa(pc_isa::IsaError::Invalid(format!(
                "{} values exceed symbol {name} ({} words)",
                values.len(),
                sym.1
            ))));
        }
        for (i, v) in values.iter().enumerate() {
            self.mem.write_word(sym.0 + i as u64, *v)?;
        }
        Ok(())
    }

    /// Marks every word of global `name` empty (synchronization cells).
    ///
    /// # Errors
    /// [`SimError::Isa`] if the symbol is unknown.
    pub fn set_global_empty(&mut self, name: &str) -> Result<(), SimError> {
        let sym = self.lookup(name)?;
        self.mem.set_empty(sym.0, sym.1)?;
        Ok(())
    }

    /// Reads the full extent of global `name`.
    ///
    /// # Errors
    /// [`SimError::Isa`] if the symbol is unknown.
    pub fn read_global(&mut self, name: &str) -> Result<Vec<Value>, SimError> {
        let sym = self.lookup(name)?;
        let mut out = Vec::with_capacity(sym.1 as usize);
        for a in sym.0..sym.0 + sym.1 {
            out.push(self.mem.read_word(a)?);
        }
        Ok(out)
    }

    fn lookup(&self, name: &str) -> Result<(u64, u64), SimError> {
        self.program
            .symbol(name)
            .map(|s| (s.addr, s.len))
            .ok_or_else(|| {
                SimError::Isa(pc_isa::IsaError::Invalid(format!("unknown global {name}")))
            })
    }

    /// Direct access to the memory system (advanced inspection).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Selects the issue/dispatch engine. Both engines simulate
    /// identically (see [`EngineKind`]); this only trades host cost for
    /// oracle independence. Configurations with more than 64 function
    /// units force [`EngineKind::Scan`] regardless of `kind` — the
    /// decoded engine's readiness bitmask is a u64.
    pub fn set_engine(&mut self, kind: EngineKind) {
        self.engine = if self.config.units().len() > 64 {
            EngineKind::Scan
        } else {
            kind
        };
    }

    /// The engine currently selected (after any >64-unit clamping).
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Turns on host-side telemetry: sampled per-phase wall timers and
    /// exact event counters for the wake-repair machinery, readable via
    /// [`Machine::host_profile`] after (or during) a run. Purely
    /// host-side — the simulated schedule, stats, and stall tables are
    /// bit-identical with telemetry on or off.
    pub fn enable_host_telemetry(&mut self) {
        if self.host.is_none() {
            self.host = Some(Box::default());
        }
    }

    /// Snapshot of the host-side profile, or `None` unless
    /// [`Machine::enable_host_telemetry`] was called. `decode_ns` in the
    /// profile is the program's one-time decode cost, charged even when
    /// the decode predates this machine (shared [`DecodedProgram`]s).
    pub fn host_profile(&self) -> Option<HostProfile> {
        self.host.as_ref().map(|h| h.profile(self.code.decode_ns()))
    }

    /// Attaches a [`Probe`] sink receiving the structured event stream
    /// (issues, stalls, writebacks, arbitration losses, memory events) —
    /// the issue trace for the Figure 1/2 renderers ([`crate::RingSink`])
    /// and stall profiling ([`crate::StallProfiler`]) included. Replaces
    /// any previous sink, finishing it first. Observation never perturbs
    /// the simulated schedule.
    pub fn attach_probe(&mut self, sink: Box<dyn Probe>) {
        if let Some(mut old) = self.obs.sink.take() {
            old.finish();
        }
        self.obs.sink = Some(sink);
        self.mem.set_event_recording(true);
    }

    /// Detaches the current sink (calling its [`Probe::finish`]) and
    /// returns it, e.g. to inspect a [`crate::RingSink`]'s contents.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        let mut sink = self.obs.sink.take();
        if let Some(s) = &mut sink {
            s.finish();
        }
        self.mem.set_event_recording(false);
        sink
    }

    /// Runs until every thread halts and all traffic drains, or `limit`
    /// cycles elapse.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when no progress is possible,
    /// [`SimError::CycleLimit`] past `limit`, or any runtime error.
    pub fn run(&mut self, limit: u64) -> Result<RunStats, SimError> {
        while !self.finished() {
            if self.cycle >= limit {
                return Err(SimError::CycleLimit { limit });
            }
            if !self.step()? {
                let t0 = self.host.as_mut().and_then(|h| h.timers.start(PH_SKIP));
                let before = self.cycle;
                self.skip_idle_span(limit);
                let skipped = self.cycle - before;
                if let Some(h) = self.host.as_mut() {
                    h.timers.stop(PH_SKIP, t0);
                    if skipped != 0 {
                        h.idle_spans_skipped += 1;
                        h.idle_cycles_skipped += skipped;
                    }
                }
            }
        }
        if let Some(sink) = &mut self.obs.sink {
            sink.finish();
        }
        Ok(self.stats())
    }

    fn finished(&self) -> bool {
        self.live.is_empty()
            && self.pipe_total == 0
            && self.wb_fifo.is_empty()
            && self.mem.quiescent()
    }

    /// Snapshot of statistics so far. The stall table is left empty: a
    /// [`crate::StallProfiler`] sink folds it from the event stream.
    pub fn stats(&self) -> RunStats {
        RunStats {
            cycles: self.cycle,
            ops_issued: self.ops_issued,
            ops_by_class: {
                // Validation pins every slot's op class to its unit's
                // class, so the per-class counts are the per-unit counts
                // grouped by unit class — no hot-path map updates needed.
                let mut by_class = std::collections::BTreeMap::new();
                for (u, &n) in self.ops_by_unit.iter().enumerate() {
                    if n != 0 {
                        *by_class
                            .entry(self.config.fu(FuId(u as u16)).class)
                            .or_insert(0) += n;
                    }
                }
                by_class
            },
            ops_by_thread: self.threads.iter().map(|t| t.ops_issued).collect(),
            ops_by_unit: self.ops_by_unit.clone(),
            threads_spawned: self.threads.len(),
            probes: self.probes.clone(),
            thread_spans: self
                .threads
                .iter()
                .map(|t| (t.spawned_at, t.halted_at))
                .collect(),
            mem: self.mem.stats(),
            xconn: self.xconn.stats(),
            busy_cycles: self.busy_cycles,
            peak_threads: self.peak_threads,
            stalls: Default::default(),
        }
    }

    /// Spawns a thread on `segment`, installing `args` into `arg_dsts` of
    /// its fresh register set.
    fn spawn(
        &mut self,
        segment: SegmentId,
        args: &[Value],
        arg_dsts: &[RegId],
    ) -> Result<ThreadId, SimError> {
        let alive = self.live.len();
        if alive >= self.config.max_threads {
            return Err(SimError::ThreadLimit {
                max: self.config.max_threads,
            });
        }
        let id = ThreadId(self.threads.len() as u32);
        let seg = self.program.segment(segment);
        let regs = RegFileSet::new(&seg.regs_per_cluster, self.config.clusters().len());
        let mut t = Thread::new(id, segment, regs, self.cycle);
        for (v, d) in args.iter().zip(arg_dsts) {
            t.regs.install(*d, *v);
        }
        let n = seg.rows.first().map(|r| r.len()).unwrap_or(0);
        if seg.rows.is_empty() {
            t.halt(self.cycle);
        } else {
            t.enter_row(n);
            self.live.push(id.0);
        }
        self.threads.push(t);
        self.transfers.push(None);
        self.advance_hint = true;
        self.peak_threads = self.peak_threads.max(self.live.len());
        Ok(id)
    }

    /// Executes one cycle. Returns whether anything progressed (an op
    /// completed, retired, issued, or a thread advanced) — the bulk
    /// idle-skip in [`Machine::run`] keys off a `false` return.
    fn step(&mut self) -> Result<bool, SimError> {
        let now = self.cycle;
        let mut progress = false;
        if let Some(h) = self.host.as_mut() {
            h.steps += 1;
        }

        // ---- Phase A0: retry writes denied a port, oldest first ----------
        // Before this cycle's completions ask for ports, so the cycle's
        // budgets go oldest first overall: queued writes in queue order,
        // then new results in completion order.
        if !self.wb_fifo.is_empty() {
            let t0 = self
                .host
                .as_mut()
                .and_then(|h| h.timers.start(PH_WRITEBACK));
            progress |= self.retry_writebacks();
            if let Some(h) = self.host.as_mut() {
                h.timers.stop(PH_WRITEBACK, t0);
            }
        }

        // ---- Phase A1: function-unit pipeline completions ----------------
        // Each completing result asks for its write ports on the spot.
        // One compare skips the whole phase on cycles with nothing due.
        if self.next_pipe_due <= now {
            let t0 = self.host.as_mut().and_then(|h| h.timers.start(PH_PIPE));
            for fu_idx in 0..self.pipes.len() {
                if self.pipe_next[fu_idx] > now {
                    continue;
                }
                // Constant per-unit latency makes the pipe FIFO in `done`:
                // the due entries are exactly the front prefix, popped off
                // without cloning or scanning the tail.
                loop {
                    match self.pipes[fu_idx].front() {
                        Some(e) if e.done <= now => {}
                        _ => break,
                    }
                    let e = self.pipes[fu_idx].pop_front().expect("front checked");
                    self.pipe_total -= 1;
                    progress = true;
                    self.complete_exec(FuId(fu_idx as u16), e)?;
                }
                self.pipe_next[fu_idx] = self.pipes[fu_idx].front().map_or(u64::MAX, |e| e.done);
            }
            // Exact once the drain settles; this cycle's issue phase
            // min-updates it again at each pipeline push.
            self.next_pipe_due = self.pipe_next.iter().copied().min().unwrap_or(u64::MAX);
            if let Some(h) = self.host.as_mut() {
                h.timers.stop(PH_PIPE, t0);
            }
        }

        // ---- Phase A2: memory-system completions --------------------------
        // Each completing load asks for its write ports on the spot.
        // One compare skips the phase on cycles with nothing due (parked
        // references only complete through a due reference's attempt).
        if self.mem.has_due(now) {
            let t0 = self.host.as_mut().and_then(|h| h.timers.start(PH_MEM));
            let mut completions = mem::take(&mut self.scratch.mem);
            self.mem.tick_into(now, &mut completions)?;
            for c in completions.drain(..) {
                progress = true;
                let Some((tok, op)) = self.tokens.remove(c.id) else {
                    return Err(SimError::UnknownToken { token: c.id });
                };
                let th = &mut self.threads[tok.thread.0 as usize];
                th.outstanding_mem.retain(|&(t, _, _)| t != c.id);
                // Draining outstanding traffic can unfence ordered slots.
                self.update_ready_after_mem_drain(tok.thread.0 as usize);
                if tok.is_load {
                    let Some(value) = c.value else {
                        return Err(SimError::MissingLoadValue { token: c.id });
                    };
                    self.retire_result(tok.thread, tok.fu, op, value);
                }
            }
            self.scratch.mem = completions;
            if let Some(h) = self.host.as_mut() {
                h.timers.stop(PH_MEM, t0);
            }
        }
        if self.obs.sink.is_some() {
            self.drain_mem_events(now);
        }

        // ---- Phase B: issue ----------------------------------------------
        let t0 = self.host.as_mut().and_then(|h| h.timers.start(PH_ISSUE));
        let issued_any = self.issue_all(now)?;
        if let Some(h) = self.host.as_mut() {
            h.timers.stop(PH_ISSUE, t0);
        }
        progress |= issued_any;
        if issued_any {
            self.busy_cycles += 1;
        }

        // ---- Attribution (observing runs only): report every live
        // thread that issued nothing with its stall cause, after issue
        // decided and before row advance clobbers the row state it
        // explains. Guarded here too so unobserved cycles skip the call.
        if self.obs.sink.is_some() {
            self.attribute(now, 1);
        }

        // ---- Phase C: row advance / control transfer ----------------------
        let t0 = self.host.as_mut().and_then(|h| h.timers.start(PH_ADVANCE));
        progress |= self.advance_threads(now)?;
        if let Some(h) = self.host.as_mut() {
            h.timers.stop(PH_ADVANCE, t0);
        }

        self.cycle = now + 1;

        if !progress && !self.finished() && !self.pending_latency() {
            return Err(SimError::Deadlock {
                cycle: now,
                alive: self.live.len(),
                parked: self.mem.parked_count(),
            });
        }
        Ok(progress)
    }

    /// After a no-progress cycle, jumps the clock straight to the next
    /// cycle where anything can happen — the earliest pipeline or
    /// memory-system completion.
    ///
    /// Only taken when the writeback queue is empty: the machine state
    /// is then frozen over the span (no completion, no retirement, and
    /// re-evaluating issue on identical inputs issues nothing — the
    /// opening cycle proved that), so each skipped cycle would have
    /// replayed the same non-event. An attached sink receives the span as
    /// one stall event per thread covering all of its cycles, with the
    /// causes the per-cycle engine would have reported, so observed runs
    /// skip too. The jump is capped at `limit` so
    /// [`SimError::CycleLimit`] fires at the same cycle with the same
    /// attribution as under per-cycle stepping.
    fn skip_idle_span(&mut self, limit: u64) {
        if self.engine == EngineKind::Scan {
            // The reference engine steps every cycle by definition.
            return;
        }
        if !self.wb_fifo.is_empty() {
            // Queued writes may retire next cycle under a restricted
            // scheme; state is not frozen.
            return;
        }
        let next_pipe = (self.next_pipe_due != u64::MAX).then_some(self.next_pipe_due);
        let next = match (next_pipe, self.mem.next_ready_cycle()) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            // No future event: the step that opened the span either
            // already reported a deadlock or the machine is finished.
            (None, None) => return,
        };
        let target = next.min(limit);
        if target <= self.cycle {
            return;
        }
        self.attribute(self.cycle, target - self.cycle);
        self.cycle = target;
    }

    /// True when latent in-flight work guarantees progress on a later
    /// cycle even though none occurred this cycle: memory references whose
    /// latency has not elapsed, operations still in unit pipelines, or
    /// results queued for write-port arbitration. Queued writebacks count
    /// — a cycle where every pending write loses arbitration makes no
    /// visible progress, yet those writes retire later, so reporting a
    /// deadlock there would be spurious.
    fn pending_latency(&self) -> bool {
        self.mem.in_flight_count() > 0 || self.pipe_total > 0 || !self.wb_fifo.is_empty()
    }

    /// Forwards the memory system's park/wake log to the sink as
    /// `SyncRetry` events (observing runs only).
    fn drain_mem_events(&mut self, now: u64) {
        let mut events = mem::take(&mut self.obs.mem_events);
        self.mem.drain_events_into(&mut events);
        if let Some(sink) = &mut self.obs.sink {
            for e in &events {
                let (id, addr, parked) = match e {
                    MemEvent::Parked { id, addr } => (*id, *addr, true),
                    MemEvent::Woken { id, addr, .. } => (*id, *addr, false),
                };
                // Parked references stay in the token table until their
                // completion retires, so the owner is still known.
                let thread = self
                    .tokens
                    .get(id)
                    .map(|(tok, ..)| tok.thread.0)
                    .unwrap_or(u32::MAX);
                sink.event(&ProbeEvent::SyncRetry {
                    cycle: now,
                    thread,
                    addr,
                    parked,
                });
            }
        }
        events.clear();
        self.obs.mem_events = events;
    }

    /// Reports each live running thread that did not issue at `now` to
    /// the sink as one stall of `cycles` cycles with its primary cause —
    /// the single attribution path for stepped cycles (`cycles == 1`) and
    /// skipped idle spans alike. Threads that issued are busy; the sink
    /// learns that from their issue events, so a profiler keeps
    /// `alive == busy + Σ by_cause` per thread (see
    /// [`crate::StallTable`]). A no-op without a sink.
    fn attribute(&mut self, now: u64, cycles: u64) {
        if self.obs.sink.is_none() {
            return;
        }
        for idx in 0..self.live.len() {
            let ti = self.live[idx];
            let t = &self.threads[ti as usize];
            if t.state != ThreadState::Running || t.last_issue == now {
                continue;
            }
            let (cause, class, at) = self.stall_reason(t);
            if let Some(sink) = &mut self.obs.sink {
                sink.event(&ProbeEvent::Stall {
                    cycle: now,
                    cycles,
                    thread: ti,
                    cause,
                    class,
                    at,
                });
            }
        }
    }

    /// Primary stall cause for a thread that issued nothing this cycle,
    /// decided from the same [`Readiness`] the issue logic used. The
    /// third element is the blocked slot's static-code coordinate
    /// `(segment, row, slot)`, absent for control bubbles.
    fn stall_reason(&self, t: &Thread) -> (StallCause, Option<UnitClass>, Option<(u32, u32, u16)>) {
        let seg = self.program.segment(t.segment);
        let Some(row) = seg.rows.get(t.ip as usize) else {
            return (StallCause::EmptyRow, None, None);
        };
        // First ready-but-blocked slot and first unready slot, in row
        // order.
        let mut blocked: Option<(StallCause, UnitClass, u16)> = None;
        let mut unready: Option<(StallCause, UnitClass, u16)> = None;
        for (i, (fu, op)) in row.slots().iter().enumerate() {
            if t.issued.get(i).copied().unwrap_or(true) {
                continue;
            }
            let class = self.config.fu(*fu).class;
            match Self::readiness(t, op) {
                Readiness::Ready => {
                    // Data-ready but not issued: the unit was
                    // backpressured by its writeback buffer, or another
                    // thread won arbitration.
                    let cause = if self.wb_held[fu.0 as usize] >= self.config.wb_buffer {
                        if self.wb_denied_bus[fu.0 as usize] {
                            StallCause::BusFull
                        } else {
                            StallCause::WritePortFull
                        }
                    } else {
                        StallCause::LostArbitration
                    };
                    if blocked.is_none() {
                        blocked = Some((cause, class, i as u16));
                    }
                }
                Readiness::Operands => {
                    let cause = if self.operand_fed_by_memory(t, op) {
                        StallCause::MemoryBusy
                    } else {
                        StallCause::OperandNotPresent
                    };
                    if unready.is_none() {
                        unready = Some((cause, class, i as u16));
                    }
                }
                Readiness::MemOrder => {
                    if unready.is_none() {
                        unready = Some((StallCause::MemoryBusy, class, i as u16));
                    }
                }
            }
        }
        // Under slip a ready-but-blocked slot is the story (work existed
        // that could not be placed); under lockstep the whole row waits
        // on its unready slots, so those dominate.
        let primary = if self.config.lockstep_issue {
            unready.or(blocked)
        } else {
            blocked.or(unready)
        };
        match primary {
            Some((cause, class, slot)) => (cause, Some(class), Some((t.segment.0, t.ip, slot))),
            // Row fully issued: a control bubble awaiting branch
            // resolution.
            None => (StallCause::EmptyRow, None, None),
        }
    }

    /// True when an absent operand (or claimed destination) of `op` is
    /// fed by one of the thread's in-flight memory references — such a
    /// wait is the memory system's, not a plain data dependence.
    fn operand_fed_by_memory(&self, t: &Thread, op: &Operation) -> bool {
        let fed = |r: RegId| {
            t.outstanding_mem.iter().any(|&(tok, _, _)| {
                self.tokens
                    .get(tok)
                    .is_some_and(|&(_, op)| self.code.ops[op as usize].dsts.iter().any(|d| *d == r))
            })
        };
        op.src_regs().any(|r| !t.regs.is_present(r) && fed(r))
            || op.dsts.iter().any(|d| !t.regs.no_writers(*d) && fed(*d))
    }

    /// Applies a finished pipeline entry. The semantic work happened at
    /// issue ([`Machine::issue_one`] gathers operands, evaluates results,
    /// and takes branch decisions there); completion is the timing event
    /// that makes the effect architecturally visible — results enter
    /// writeback, transfers unblock their thread, forks spawn.
    fn complete_exec(&mut self, fu: FuId, e: Exec) -> Result<(), SimError> {
        match e.payload {
            ExecPayload::Result(v) => self.retire_result(e.thread, fu, e.op, v),
            ExecPayload::Branch(t) => self.finish_branch(e.thread, t),
            ExecPayload::Fork(f) => {
                self.spawn(f.segment, f.vals.as_slice(), &f.arg_dsts)?;
                self.finish_branch(e.thread, Transfer::FallThrough);
            }
        }
        Ok(())
    }

    /// The decoded engine's dispatch: gathers sources through
    /// pre-resolved flat register indices and unboxed immediates
    /// ([`DecSrc`]), claims destinations by flat index, and decides the
    /// slot record's [`SlotAction`] — ALU ops through the same
    /// [`op::eval_int`]/[`op::eval_float`] calls [`Self::dispatch_scan`]
    /// makes, the fork argument list shared (its clone is a pointer
    /// bump, not a copy). Returns the unit latency with the effect.
    fn dispatch_decoded(&mut self, tid: ThreadId, op_idx: u32) -> Result<(u64, Effect), SimError> {
        let sm = &self.code.ops[op_idx as usize];
        let regs = &mut self.threads[tid.0 as usize].regs;
        let vals: ValList = sm
            .srcs
            .iter()
            .map(|s| match s {
                DecSrc::Reg(i) => regs.value_at(*i),
                DecSrc::Imm(v) => *v,
            })
            .collect();
        for &i in sm.dsts_flat.iter() {
            regs.begin_write_at(i);
        }
        let effect = match &sm.action {
            SlotAction::Int(i) => {
                Effect::Pipe(ExecPayload::Result(op::eval_int(*i, vals.as_slice())?))
            }
            SlotAction::Float(f) => {
                Effect::Pipe(ExecPayload::Result(op::eval_float(*f, vals.as_slice())?))
            }
            SlotAction::Mem(m) => Self::mem_effect(*m, &vals)?,
            SlotAction::Probe(id) => Effect::Probe(*id),
            SlotAction::Halt => Effect::Pipe(ExecPayload::Branch(Transfer::Halt)),
            SlotAction::Jmp(target) => Effect::Pipe(ExecPayload::Branch(Transfer::To(*target))),
            SlotAction::Br { on_true, target } => Self::br_effect(vals[0], *on_true, *target)?,
            SlotAction::Fork { segment, arg_dsts } => {
                Effect::Pipe(ExecPayload::Fork(Box::new(ForkPayload {
                    segment: *segment,
                    arg_dsts: Arc::clone(arg_dsts),
                    vals,
                })))
            }
        };
        Ok((sm.latency, effect))
    }

    /// The scan oracle's dispatch, straight off the program's
    /// [`Operation`]: sources, destination claims, the unit's latency,
    /// the opcode and the branch are read as the compiler wrote them,
    /// never from a decoded record.
    fn dispatch_scan(
        &mut self,
        fu: FuId,
        tid: ThreadId,
        slot_idx: usize,
    ) -> Result<(u64, Effect), SimError> {
        let t = &mut self.threads[tid.0 as usize];
        let (_, operation) = &self.program.segment(t.segment).rows[t.ip as usize].slots()[slot_idx];
        let vals: ValList = operation
            .srcs
            .iter()
            .map(|s| match s {
                pc_isa::Operand::Reg(r) => t.regs.value(*r),
                pc_isa::Operand::ImmInt(i) => Value::Int(*i),
                pc_isa::Operand::ImmFloat(f) => Value::Float(*f),
            })
            .collect();
        for d in &operation.dsts {
            t.regs.begin_write(*d);
        }
        let effect = match &operation.kind {
            OpKind::Int(i) => Effect::Pipe(ExecPayload::Result(op::eval_int(*i, vals.as_slice())?)),
            OpKind::Float(f) => {
                Effect::Pipe(ExecPayload::Result(op::eval_float(*f, vals.as_slice())?))
            }
            OpKind::Mem(m) => Self::mem_effect(*m, &vals)?,
            OpKind::Branch(BranchOp::Probe { id }) => Effect::Probe(*id),
            OpKind::Branch(BranchOp::Halt) => Effect::Pipe(ExecPayload::Branch(Transfer::Halt)),
            OpKind::Branch(BranchOp::Jmp { target }) => {
                Effect::Pipe(ExecPayload::Branch(Transfer::To(*target)))
            }
            OpKind::Branch(BranchOp::Br { on_true, target }) => {
                Self::br_effect(vals[0], *on_true, *target)?
            }
            OpKind::Branch(BranchOp::Fork { segment, arg_dsts }) => {
                Effect::Pipe(ExecPayload::Fork(Box::new(ForkPayload {
                    segment: *segment,
                    arg_dsts: arg_dsts.clone().into(),
                    vals,
                })))
            }
        };
        Ok((u64::from(self.config.fu(fu).latency), effect))
    }

    /// A conditional branch decided against its issue-time condition.
    fn br_effect(cond: Value, on_true: bool, target: u32) -> Result<Effect, SimError> {
        Ok(Effect::Pipe(ExecPayload::Branch(
            if cond.as_cond()? == on_true {
                Transfer::To(target)
            } else {
                Transfer::FallThrough
            },
        )))
    }

    /// A memory reference's request: address `vals[0] + vals[1]`, and
    /// for stores the value `vals[2]`.
    fn mem_effect(m: MemOp, vals: &ValList) -> Result<Effect, SimError> {
        let addr = vals[0].as_int()?.wrapping_add(vals[1].as_int()?);
        if addr < 0 {
            return Err(SimError::Mem(pc_memsys::MemError::OutOfBounds {
                addr: addr as u64,
            }));
        }
        let kind = match m {
            MemOp::Load(fl) => RequestKind::Load(fl),
            MemOp::Store(fl) => RequestKind::Store(fl, vals[2]),
        };
        Ok(Effect::Mem {
            addr: addr as u64,
            kind,
        })
    }

    /// Shared tail of branch resolution: clears the pending flag, records
    /// the transfer, and takes the fully-issued fast path.
    fn finish_branch(&mut self, tid: ThreadId, transfer: Transfer) {
        let t = &mut self.threads[tid.0 as usize];
        t.branch_pending = false;
        self.transfers[tid.0 as usize] = Some(transfer);
        // Fast path: when the branch's row has fully issued by resolution
        // time, transfer control immediately so the target row can issue
        // this very cycle (a 1-cycle branch bubble instead of 2).
        if self.threads[tid.0 as usize].unissued == 0 {
            self.apply_transfer(tid.0 as usize, transfer, self.cycle);
        }
    }

    /// Applies a control transfer to thread `i` at cycle `now`. Row
    /// bounds and widths come off the decoded metadata — the per-advance
    /// path never dereferences the program.
    fn apply_transfer(&mut self, i: usize, transfer: Transfer, now: u64) {
        self.transfers[i] = None;
        let t = &mut self.threads[i];
        let seg_len = self.code.seg_len(t.segment);
        match transfer {
            Transfer::Halt => {
                t.halt(now);
                self.live.retain(|&id| id as usize != i);
            }
            Transfer::To(target) => {
                t.ip = target;
                let n = self
                    .code
                    .row(t.segment, target)
                    .expect("validated branch target")
                    .n_slots as usize;
                t.enter_row(n);
                if n == 0 {
                    // An empty row is eligible to advance again next cycle.
                    self.advance_hint = true;
                }
            }
            Transfer::FallThrough => {
                if t.ip + 1 >= seg_len {
                    t.halt(now);
                    self.live.retain(|&id| id as usize != i);
                } else {
                    t.ip += 1;
                    let n = self
                        .code
                        .row(t.segment, t.ip)
                        .expect("fall-through stays in range")
                        .n_slots as usize;
                    t.enter_row(n);
                    if n == 0 {
                        self.advance_hint = true;
                    }
                }
            }
        }
    }

    /// Retires an op's result by its decoded-slot handle: each write asks
    /// for its port now, and any denied ones join the back of `wb_fifo`
    /// as one entry. A result with no destinations never takes a slot.
    fn retire_result(&mut self, thread: ThreadId, fu: FuId, op: u32, value: Value) {
        let mut denied: Option<Writeback> = None;
        // Indexed, re-borrowing the slot record each step: `request_port`
        // needs the machine mutably.
        for di in 0..self.code.ops[op as usize].dsts.len() {
            let sm = &self.code.ops[op as usize];
            let (dst, flat) = (sm.dsts[di], sm.dsts_flat[di]);
            if !self.request_port(thread, fu, dst, flat, value) {
                let wb = denied.get_or_insert_with(|| Writeback {
                    thread,
                    fu,
                    dsts: RegList::new(),
                    dsts_flat: FlatList::new(),
                    value,
                });
                wb.dsts.push(dst);
                wb.dsts_flat.push(flat);
            }
        }
        if let Some(wb) = denied {
            self.wb_held[fu.0 as usize] += 1;
            self.wb_fifo.push_back(wb);
        }
    }

    /// Retries every queued write in `wb_fifo` order, dropping entries
    /// whose writes have all landed; returns whether any write landed.
    fn retry_writebacks(&mut self) -> bool {
        let mut fifo = mem::take(&mut self.wb_fifo);
        let mut any = false;
        fifo.retain_mut(|wb| {
            let mut di = 0;
            while di < wb.dsts.len() {
                if self.request_port(wb.thread, wb.fu, wb.dsts[di], wb.dsts_flat[di], wb.value) {
                    wb.dsts.remove(di);
                    wb.dsts_flat.remove(di);
                    any = true;
                } else {
                    di += 1;
                }
            }
            if wb.dsts.is_empty() {
                self.wb_held[wb.fu.0 as usize] -= 1;
            }
            !wb.dsts.is_empty()
        });
        self.wb_fifo = fifo;
        any
    }

    /// Asks the interconnect for a port for one write of a result this
    /// cycle — the one arbitration step for first attempts and retries
    /// alike. A granted write lands at once; a denial is recorded for
    /// stall attribution. Returns whether the write was granted.
    #[inline]
    fn request_port(
        &mut self,
        thread: ThreadId,
        fu: FuId,
        dst: RegId,
        flat: u32,
        value: Value,
    ) -> bool {
        let now = self.cycle;
        let req = WriteReq {
            src_cluster: self.config.fu(fu).cluster,
            dst_cluster: dst.cluster,
        };
        let decision = self.xconn.request(now, &req);
        if decision.granted() {
            if let Some(sink) = &mut self.obs.sink {
                sink.event(&ProbeEvent::Writeback {
                    cycle: now,
                    thread: thread.0,
                    fu,
                });
            }
            let ti = thread.0 as usize;
            if self.threads[ti].is_alive() {
                self.threads[ti].regs.complete_write_at(flat, value);
                // Arriving data can make cached-unready slots ready.
                self.update_ready_after_write(ti, flat);
            }
            return true;
        }
        let bus = decision == PortDecision::DeniedBusBusy;
        self.wb_denied_bus[fu.0 as usize] = bus;
        if let Some(sink) = &mut self.obs.sink {
            sink.event(&ProbeEvent::WbDenied {
                cycle: now,
                thread: thread.0,
                fu,
                bus,
            });
        }
        false
    }

    /// Per-unit arbitration and issue. Returns whether any op issued.
    fn issue_all(&mut self, now: u64) -> Result<bool, SimError> {
        if self.config.lockstep_issue {
            return self.issue_all_lockstep(now);
        }
        match self.engine {
            EngineKind::Scan => self.issue_all_scan(now),
            EngineKind::Decoded => self.issue_all_cached(now),
        }
    }

    /// Event-driven issue: each thread carries a cached per-unit
    /// readiness bitmask ([`Thread::ready_units`]), rebuilt lazily when
    /// an event marks it dirty (row entry, own issue, writeback into its
    /// registers, memory completion). Candidate sets, arbitration, and
    /// issue order are exactly those of [`Machine::issue_all_scan`] —
    /// candidates accumulate in live order and feed the same
    /// [`Machine::select`] — so the engines are bit-identical; only the
    /// cost of discovering candidates differs. Issue dispatches over the
    /// decoded records.
    fn issue_all_cached(&mut self, now: u64) -> Result<bool, SimError> {
        let mut any = false;
        // One pass over the live threads repairs dirty caches, unions the
        // units with at least one ready slot, and distributes each
        // thread's ready slots into per-unit candidate buckets — visiting
        // threads in live (spawn) order, so every bucket holds its
        // candidates in exactly the order the reference engine's per-unit
        // rescan produces.
        // Buckets are left empty on exit (cleared below by `unit_mask`),
        // so entry skips the per-unit sweep entirely.
        let mut buckets = mem::take(&mut self.scratch.buckets);
        debug_assert!(buckets.iter().all(Vec::is_empty));
        let mut unit_mask = 0u64;
        for li in 0..self.live.len() {
            let ti = self.live[li] as usize;
            if self.threads[ti].ready_dirty {
                self.refresh_ready(ti);
            }
            let t = &self.threads[ti];
            let mut m = t.ready_units;
            if m == 0 {
                continue;
            }
            unit_mask |= m;
            // A set readiness bit implies a current row exists.
            let row = self.code.row(t.segment, t.ip).expect("ready bit, no row");
            let slot_of_unit = self.code.slot_of_unit(row);
            while m != 0 {
                let u = m.trailing_zeros() as usize;
                m &= m - 1;
                buckets[u].push((t.id, slot_of_unit[u]));
            }
        }
        // Units outside `unit_mask` have no candidates: the reference
        // engine skips them without touching arbitration state, so the
        // decoded engine may too. Within one cycle's issue phase a
        // thread's readiness only ever *shrinks* (its own issues claim
        // registers and add outstanding traffic; nothing completes
        // mid-phase), and every issue repairs its thread's cache in place
        // ([`Machine::update_ready_after_issue`]), so each bucket is a
        // superset of the unit's candidates at its turn: re-checking the
        // (exact) bitmask bit filters out entries stale by an earlier
        // issue this phase.
        let mut candidates = mem::take(&mut self.scratch.cand);
        let mut m = unit_mask;
        while m != 0 {
            let fu_idx = m.trailing_zeros() as usize;
            m &= m - 1;
            let fu = FuId(fu_idx as u16);
            // Results denied a write port wait in a small per-unit buffer;
            // the unit stalls only when that buffer fills (the paper's
            // restricted schemes cost ~4% — whole-unit stalls on any
            // pending write would be far harsher than its model).
            if self.wb_held[fu_idx] >= self.config.wb_buffer {
                continue;
            }
            let bit = 1u64 << fu_idx;
            candidates.clear();
            for &(tid, slot) in &buckets[fu_idx] {
                if self.threads[tid.0 as usize].ready_units & bit != 0 {
                    candidates.push((tid, slot as usize));
                }
            }
            let Some(&(tid, slot_idx)) = self.select(fu, &candidates) else {
                continue;
            };
            if let Some(sink) = &mut self.obs.sink {
                for &(loser, _) in candidates.iter().filter(|(c, _)| *c != tid) {
                    sink.event(&ProbeEvent::ArbLoss {
                        cycle: now,
                        thread: loser.0,
                        fu,
                    });
                }
            }
            self.issue_one(now, fu, tid, slot_idx)?;
            any = true;
        }
        // Leave every touched bucket empty for the next cycle (exactly
        // the `unit_mask` units were filled; the rest never changed).
        let mut m = unit_mask;
        while m != 0 {
            let u = m.trailing_zeros() as usize;
            m &= m - 1;
            buckets[u].clear();
        }
        self.scratch.cand = candidates;
        self.scratch.buckets = buckets;
        Ok(any)
    }

    /// Rebuilds a thread's per-unit readiness bitmask from its current
    /// row: packed operand masks decide the data check, and only slots
    /// with memory-ordering rules fall back to the full
    /// [`Machine::readiness`] grading.
    fn refresh_ready(&mut self, ti: usize) {
        let t0 = self.host.as_mut().and_then(|h| {
            h.bitmask_rebuilds += 1;
            h.timers.start(PH_WAKE)
        });
        let t = &self.threads[ti];
        let mut mask = 0u64;
        if t.state == ThreadState::Running {
            if let Some(row) = self.code.row(t.segment, t.ip) {
                let slots = self.code.slots(row);
                if row.two_word {
                    // Fast grade: the whole row's operand masks live in
                    // bit words 0 and 1, loaded once for the walk.
                    let (p0, p1, w0, w1) = t.regs.words01();
                    for (sm, &issued) in slots.iter().zip(&t.issued) {
                        if issued
                            || (p0 & sm.src01[0]) != sm.src01[0]
                            || (p1 & sm.src01[1]) != sm.src01[1]
                            || (w0 & sm.dst01[0]) != 0
                            || (w1 & sm.dst01[1]) != 0
                            || (sm.has_order && !Self::order_ok(t, &sm.order))
                        {
                            continue;
                        }
                        mask |= 1u64 << sm.fu.0;
                    }
                } else {
                    for (sm, &issued) in slots.iter().zip(&t.issued) {
                        if issued
                            || !t.regs.masks_ready(&sm.src, &sm.dst)
                            || (sm.has_order && !Self::order_ok(t, &sm.order))
                        {
                            continue;
                        }
                        mask |= 1u64 << sm.fu.0;
                    }
                }
            }
        }
        let t = &mut self.threads[ti];
        t.ready_units = mask;
        t.ready_dirty = false;
        if let Some(h) = self.host.as_mut() {
            h.timers.stop(PH_WAKE, t0);
        }
    }

    /// Invalidates a clean readiness cache after the register at flat
    /// index `bit` of thread `ti` was written — but only when it can
    /// actually change a grade: the row-level touch union rejects
    /// writebacks landing registers consumed by *later* rows without
    /// walking the slots. A hit marks the cache dirty rather than
    /// repairing in place, so a burst of same-cycle writebacks costs one
    /// [`Machine::refresh_ready`] at the next issue phase instead of one
    /// row walk per destination. (The scan engine and lockstep issue
    /// never clean the caches, so they are unaffected.)
    fn update_ready_after_write(&mut self, ti: usize, bit: u32) {
        if let Some(h) = self.host.as_mut() {
            h.wake_repairs += 1;
        }
        let t = &self.threads[ti];
        if t.ready_dirty || t.state != ThreadState::Running {
            return;
        }
        let Some(row) = self.code.row(t.segment, t.ip) else {
            return;
        };
        let key = bit / 64;
        let m = 1u64 << (bit % 64);
        let hit = if key < 2 {
            row.touch01[key as usize] & m != 0
        } else {
            row.touch_union.iter().any(|&(k, w)| k == key && w & m != 0)
        };
        if hit {
            self.threads[ti].ready_dirty = true;
        }
    }

    /// Targeted repair of a clean readiness cache after some of thread
    /// `ti`'s outstanding memory traffic drained: register state is
    /// untouched, so only order-ruled slots can change grade — and only
    /// from unready to ready (draining relaxes every [`OrderRule`]), so
    /// set bits are kept and only absent ordered bits are re-graded.
    fn update_ready_after_mem_drain(&mut self, ti: usize) {
        if let Some(h) = self.host.as_mut() {
            h.mem_drain_regrades += 1;
        }
        let t = &self.threads[ti];
        if t.ready_dirty || t.state != ThreadState::Running {
            return;
        }
        let Some(row) = self.code.row(t.segment, t.ip) else {
            return;
        };
        let slots = self.code.slots(row);
        let slot_of_unit = self.code.slot_of_unit(row);
        let mut add = row.ordered_units & !t.ready_units;
        let mut mask = t.ready_units;
        while add != 0 {
            let u = add.trailing_zeros() as usize;
            add &= add - 1;
            let i = slot_of_unit[u] as usize;
            let sm = &slots[i];
            if !t.issued[i] && t.regs.masks_ready(&sm.src, &sm.dst) && Self::order_ok(t, &sm.order)
            {
                mask |= 1u64 << u;
            }
        }
        self.threads[ti].ready_units = mask;
    }

    /// Grades a slot's precomputed [`OrderRule`] — the readiness cache's
    /// form of the `OpKind` match inside [`Machine::readiness`] (register
    /// readiness was already established by the packed-mask check). The
    /// differential tests pin the two implementations to each other.
    #[inline]
    fn order_ok(t: &Thread, rule: &OrderRule) -> bool {
        match rule {
            OrderRule::None => true,
            OrderRule::FenceAll => t.outstanding_mem.is_empty(),
            OrderRule::FenceStores => t.outstanding_mem.iter().all(|&(_, _, s)| !s),
            OrderRule::Hazard {
                base,
                off,
                is_store,
            } => {
                // No outstanding traffic cannot conflict — skip the
                // address computation entirely (the common case on the
                // first reference of a burst).
                if t.outstanding_mem.is_empty() {
                    return true;
                }
                let v = |o: &AddrOperand| match o {
                    AddrOperand::Reg(idx) => t.regs.value_at(*idx).as_int(),
                    AddrOperand::Imm(i) => Ok(*i),
                };
                let addr = match (v(base), v(off)) {
                    (Ok(b), Ok(o)) => b.wrapping_add(o) as u64,
                    // Let issue_one surface the type error.
                    _ => return true,
                };
                !t.outstanding_mem
                    .iter()
                    .any(|&(_, a, s)| a == addr && (s || *is_store))
            }
        }
    }

    /// The scan-every-cycle reference engine: rescans every live
    /// thread's row for every unit, grading readiness straight off the
    /// program's operations. Selectable via [`Machine::set_engine`] as
    /// the oracle the decoded engine is verified against.
    fn issue_all_scan(&mut self, now: u64) -> Result<bool, SimError> {
        let mut any = false;
        let mut candidates = mem::take(&mut self.scratch.cand);
        for fu_idx in 0..self.config.units().len() {
            let fu = FuId(fu_idx as u16);
            if self.wb_held[fu_idx] >= self.config.wb_buffer {
                continue;
            }
            // Operation buffer: the unissued op of each running thread's
            // current row bound to this unit, if ready.
            candidates.clear();
            for &ti in &self.live {
                let t = &self.threads[ti as usize];
                if t.state != ThreadState::Running {
                    continue;
                }
                let seg = self.program.segment(t.segment);
                let Some(row) = seg.rows.get(t.ip as usize) else {
                    continue;
                };
                for (slot_idx, (slot_fu, op)) in row.slots().iter().enumerate() {
                    if *slot_fu != fu || t.issued[slot_idx] {
                        continue;
                    }
                    if Self::ready(t, op) {
                        candidates.push((t.id, slot_idx));
                    }
                    break; // at most one slot per unit per row
                }
            }
            let Some(&(tid, slot_idx)) = self.select(fu, &candidates) else {
                continue;
            };
            if let Some(sink) = &mut self.obs.sink {
                for &(loser, _) in candidates.iter().filter(|(c, _)| *c != tid) {
                    sink.event(&ProbeEvent::ArbLoss {
                        cycle: now,
                        thread: loser.0,
                        fu,
                    });
                }
            }
            self.issue_one(now, fu, tid, slot_idx)?;
            any = true;
        }
        self.scratch.cand = candidates;
        Ok(any)
    }

    /// Strict-VLIW ablation: a thread's current row issues atomically —
    /// every operation data-ready and every needed unit free — or not at
    /// all (no intra-row slip). Threads are considered in rotating order
    /// for fairness; each slot issues through the selected engine's
    /// dispatch.
    fn issue_all_lockstep(&mut self, now: u64) -> Result<bool, SimError> {
        if self.live.is_empty() {
            return Ok(false);
        }
        let mut any = false;
        let mut used_units = mem::take(&mut self.scratch.units);
        used_units.clear();
        let mut live_now = mem::take(&mut self.scratch.live);
        live_now.clear();
        live_now.extend_from_slice(&self.live);
        let mut slots = mem::take(&mut self.scratch.slots);
        let start = (now as usize) % live_now.len();
        for k in 0..live_now.len() {
            let ti = live_now[(start + k) % live_now.len()];
            let t = &self.threads[ti as usize];
            if t.state != ThreadState::Running {
                continue;
            }
            let seg = self.program.segment(t.segment);
            let Some(row) = seg.rows.get(t.ip as usize) else {
                continue;
            };
            if row.is_empty() {
                continue;
            }
            let all_ready = row.slots().iter().enumerate().all(|(i, (fu, op))| {
                !t.issued.get(i).copied().unwrap_or(true)
                    && !used_units.contains(fu)
                    && Self::ready(t, op)
            });
            if !all_ready {
                continue;
            }
            slots.clear();
            slots.extend(
                row.slots()
                    .iter()
                    .enumerate()
                    .map(|(i, (fu, _))| (*fu, i as u32)),
            );
            for &(fu, slot_idx) in &slots {
                used_units.push(fu);
                self.issue_one(now, fu, ThreadId(ti), slot_idx as usize)?;
                any = true;
            }
        }
        self.scratch.units = used_units;
        self.scratch.live = live_now;
        self.scratch.slots = slots;
        Ok(any)
    }

    /// Data-presence and scoreboard check, plus the memory-consistency
    /// rules: synchronizing references and `fork` fence on the thread's
    /// outstanding memory traffic, and a reference may not issue while a
    /// same-address reference involving a store is outstanding (stores
    /// otherwise complete out of order under variable latency).
    fn ready(t: &Thread, op: &Operation) -> bool {
        Self::readiness(t, op) == Readiness::Ready
    }

    /// The graded form of [`Machine::ready`], shared with stall
    /// attribution so the profiler explains slots with exactly the logic
    /// that gated them. An associated function (state comes entirely
    /// from the thread and the operation) so the lazy readiness refresh
    /// can call it under split borrows of the machine.
    fn readiness(t: &Thread, op: &Operation) -> Readiness {
        if !op.src_regs().all(|r| t.regs.is_present(r))
            || !op.dsts.iter().all(|d| t.regs.no_writers(*d))
        {
            return Readiness::Operands;
        }
        match &op.kind {
            OpKind::Mem(m) => {
                // Synchronizing stores fence on all outstanding references;
                // synchronizing loads only on outstanding *stores* (their
                // precondition cannot depend on our own loads), letting a
                // wave of consumes pipeline.
                match m {
                    MemOp::Store(fl) if *fl != pc_isa::StoreFlavor::Plain => {
                        return if t.outstanding_mem.is_empty() {
                            Readiness::Ready
                        } else {
                            Readiness::MemOrder
                        };
                    }
                    MemOp::Load(fl) if *fl != pc_isa::LoadFlavor::Plain => {
                        return if t.outstanding_mem.iter().all(|&(_, _, s)| !s) {
                            Readiness::Ready
                        } else {
                            Readiness::MemOrder
                        };
                    }
                    _ => {}
                }
                let addr = {
                    let v = |o: &pc_isa::Operand| match o {
                        pc_isa::Operand::Reg(r) => t.regs.value(*r).as_int(),
                        pc_isa::Operand::ImmInt(i) => Ok(*i),
                        pc_isa::Operand::ImmFloat(_) => Ok(0),
                    };
                    match (v(&op.srcs[0]), v(&op.srcs[1])) {
                        (Ok(b), Ok(o)) => b.wrapping_add(o) as u64,
                        // Let issue_one surface the type error.
                        _ => return Readiness::Ready,
                    }
                };
                let is_store = matches!(m, MemOp::Store(_));
                if t.outstanding_mem
                    .iter()
                    .any(|&(_, a, s)| a == addr && (s || is_store))
                {
                    Readiness::MemOrder
                } else {
                    Readiness::Ready
                }
            }
            OpKind::Branch(BranchOp::Fork { .. }) => {
                if t.outstanding_mem.is_empty() {
                    Readiness::Ready
                } else {
                    Readiness::MemOrder
                }
            }
            _ => Readiness::Ready,
        }
    }

    /// Applies the arbitration policy to the unit's candidate set.
    fn select<'a>(
        &mut self,
        fu: FuId,
        candidates: &'a [(ThreadId, usize)],
    ) -> Option<&'a (ThreadId, usize)> {
        if candidates.is_empty() {
            return None;
        }
        // A lone candidate wins under either policy; round-robin still
        // records it so the next contended round starts past it.
        if let [only] = candidates {
            if matches!(self.config.arbitration, ArbitrationPolicy::RoundRobin) {
                self.rr[fu.0 as usize] = only.0 .0 + 1;
            }
            return Some(only);
        }
        match self.config.arbitration {
            ArbitrationPolicy::FixedPriority => candidates
                .iter()
                .min_by_key(|(tid, _)| self.threads[tid.0 as usize].priority),
            ArbitrationPolicy::RoundRobin => {
                let start = self.rr[fu.0 as usize];
                let chosen = candidates
                    .iter()
                    .filter(|(tid, _)| tid.0 >= start)
                    .chain(candidates.iter())
                    .next();
                if let Some((tid, _)) = chosen {
                    self.rr[fu.0 as usize] = tid.0 + 1;
                }
                chosen
            }
        }
    }

    /// Enqueues a precomputed effect on `fu`'s pipeline, due at `done`,
    /// maintaining the O(1) due-cycle counters.
    fn push_pipe(&mut self, fu: FuId, tid: ThreadId, op: u32, payload: ExecPayload, done: u64) {
        self.pipe_next[fu.0 as usize] = self.pipe_next[fu.0 as usize].min(done);
        self.next_pipe_due = self.next_pipe_due.min(done);
        self.pipe_total += 1;
        debug_assert!(self.pipes[fu.0 as usize]
            .back()
            .map_or(true, |b| b.done <= done));
        self.pipes[fu.0 as usize].push_back(Exec {
            thread: tid,
            op,
            payload,
            done,
        });
    }

    /// Issues one operation: records the issue, lets the selected
    /// engine gather sources, claim destinations and decide the effect
    /// ([`Machine::dispatch_decoded`] / [`Machine::dispatch_scan`]), then
    /// enters the effect into the pipeline / memory system / probe
    /// trace.
    fn issue_one(
        &mut self,
        now: u64,
        fu: FuId,
        tid: ThreadId,
        slot_idx: usize,
    ) -> Result<(), SimError> {
        let t = &mut self.threads[tid.0 as usize];
        let seg_id = t.segment;
        let row = t.ip;
        t.issued[slot_idx] = true;
        t.unissued -= 1;
        let row_done = t.unissued == 0;
        t.ops_issued += 1;
        t.last_issue = now;
        // Issue claims registers and (below) may add outstanding memory
        // traffic. A clean readiness cache is repaired incrementally at
        // the end of this function; a dirty one stays dirty.
        let was_clean = !t.ready_dirty;
        self.ops_issued += 1;
        self.ops_by_unit[fu.0 as usize] += 1;
        if let Some(sink) = &mut self.obs.sink {
            let (_, op) = &self.program.segment(seg_id).rows[row as usize].slots()[slot_idx];
            sink.event(&ProbeEvent::Issue(crate::trace::TraceEvent {
                cycle: now,
                fu,
                thread: tid.0,
                mnemonic: op.kind.mnemonic(),
                seg: seg_id.0,
                row,
                slot: slot_idx as u16,
            }));
        }

        // The op index rides the pipeline entry and the memory token, so
        // retirement reaches the slot's destination lists in one load.
        let op_idx = self
            .code
            .row(seg_id, row)
            .expect("issue targets a current row")
            .op_base
            + slot_idx as u32;
        let (latency, effect) = match self.engine {
            EngineKind::Decoded => self.dispatch_decoded(tid, op_idx)?,
            EngineKind::Scan => self.dispatch_scan(fu, tid, slot_idx)?,
        };
        let added_mem = matches!(effect, Effect::Mem { .. });
        match effect {
            Effect::Mem { addr, kind } => {
                let is_load = matches!(kind, RequestKind::Load(_));
                let token = self.tokens.insert(
                    MemToken {
                        thread: tid,
                        fu,
                        is_load,
                    },
                    op_idx,
                );
                // The reference spends the unit's latency in the pipeline
                // before reaching the memory system proper; we fold that
                // into the submission cycle (unit latency 1 == submit now).
                let bank_wait = self.mem.submit(now + latency - 1, token, addr, kind);
                if bank_wait > 0 {
                    if let Some(sink) = &mut self.obs.sink {
                        sink.event(&ProbeEvent::BankConflict {
                            cycle: now,
                            thread: tid.0,
                            addr,
                            wait: bank_wait,
                        });
                    }
                }
                self.threads[tid.0 as usize]
                    .outstanding_mem
                    .push((token, addr, !is_load));
            }
            Effect::Probe(id) => {
                self.probes.push(ProbeRecord {
                    thread: tid.0,
                    id,
                    cycle: now,
                });
            }
            Effect::Pipe(payload) => {
                if !matches!(payload, ExecPayload::Result(_)) {
                    self.threads[tid.0 as usize].branch_pending = true;
                }
                self.push_pipe(fu, tid, op_idx, payload, now + latency);
            }
        }
        if was_clean {
            self.update_ready_after_issue(tid.0 as usize, slot_idx, added_mem);
        }
        if row_done {
            self.advance_hint = true;
        }
        Ok(())
    }

    /// Incrementally repairs a *clean* readiness cache after its thread
    /// issues `slot_idx`: within one issue phase a thread's readiness only
    /// shrinks from its own issues (writebacks and memory completions land
    /// in earlier step phases), so it suffices to drop the issued unit's
    /// bit and exactly re-grade the sibling slots the issue can unready —
    /// those whose operands the issued slot writes (`kills`), plus every
    /// ordered slot when the issue added outstanding memory traffic.
    fn update_ready_after_issue(&mut self, ti: usize, slot_idx: usize, added_mem: bool) {
        let mask = {
            let t = &self.threads[ti];
            let row = self
                .code
                .row(t.segment, t.ip)
                .expect("issued slot implies a current row");
            let slots = self.code.slots(row);
            let slot_of_unit = self.code.slot_of_unit(row);
            let sm = &slots[slot_idx];
            let mut mask = t.ready_units & !(1u64 << sm.fu.0);
            let mut recheck = sm.kills & mask;
            if added_mem {
                recheck |= row.ordered_units & mask;
            }
            if recheck != 0 {
                let two = row.two_word;
                let (p0, p1, w0, w1) = t.regs.words01();
                while recheck != 0 {
                    let u = recheck.trailing_zeros() as usize;
                    recheck &= recheck - 1;
                    let i = slot_of_unit[u] as usize;
                    let smi = &slots[i];
                    let data_ready = if two {
                        (p0 & smi.src01[0]) == smi.src01[0]
                            && (p1 & smi.src01[1]) == smi.src01[1]
                            && (w0 & smi.dst01[0]) == 0
                            && (w1 & smi.dst01[1]) == 0
                    } else {
                        t.regs.masks_ready(&smi.src, &smi.dst)
                    };
                    if !data_ready || (smi.has_order && !Self::order_ok(t, &smi.order)) {
                        mask &= !(1u64 << u);
                    }
                }
            }
            mask
        };
        self.threads[ti].ready_units = mask;
    }

    /// Advances instruction pointers once rows fully issue and transfers
    /// resolve. Returns whether any thread advanced or halted.
    fn advance_threads(&mut self, now: u64) -> Result<bool, SimError> {
        // Nothing since the last scan made any thread eligible to advance:
        // rows complete only through issue (`row_done` in `issue_one`), and
        // branch resolutions on completed rows transfer directly in
        // `finish_branch`'s fast path.
        if !self.advance_hint {
            return Ok(false);
        }
        self.advance_hint = false;
        let mut any = false;
        // Snapshot: apply_transfer edits `live` (halts, fork spawns).
        let mut live_now = mem::take(&mut self.scratch.live);
        live_now.clear();
        live_now.extend_from_slice(&self.live);
        for &ti in &live_now {
            let i = ti as usize;
            let t = &self.threads[i];
            debug_assert_eq!(t.unissued == 0, t.row_fully_issued());
            if t.state != ThreadState::Running || t.unissued != 0 || t.branch_pending {
                continue;
            }
            let transfer = self.transfers[i].take().unwrap_or(Transfer::FallThrough);
            self.apply_transfer(i, transfer, now);
            any = true;
        }
        self.scratch.live = live_now;
        Ok(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_isa::{
        ClusterId, CodeSegment, FloatOp, InstWord, IntOp, LoadFlavor, Operand, StoreFlavor,
    };

    fn r(c: u16, i: u32) -> RegId {
        RegId::new(ClusterId(c), i)
    }

    /// Builds a single-segment program with the baseline register budget.
    fn program_of(rows: Vec<InstWord>, regs: Vec<u32>) -> Program {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        seg.rows = rows;
        seg.regs_per_cluster = regs;
        p.add_segment(seg);
        p
    }

    fn run_program(p: Program) -> RunStats {
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.run(100_000).unwrap()
    }

    #[test]
    fn with_config_shares_an_image_across_runtime_fields_only() {
        let mut row = InstWord::new();
        row.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::ImmInt(2), Operand::ImmInt(3)],
                r(0, 0),
            ),
        );
        let program = Arc::new(program_of(vec![row], vec![1]));
        let target = MachineConfig::baseline().compile_target();
        let code = Arc::new(DecodedProgram::decode(target, program).unwrap());
        let runtime = MachineConfig::baseline()
            .with_interconnect(pc_isa::InterconnectScheme::SharedBus)
            .with_seed(9);
        let mut m = Machine::with_config(Arc::clone(&code), runtime.clone()).unwrap();
        assert_eq!(m.config(), &runtime);
        assert_eq!(m.run(100).unwrap().ops_issued, 1);
        // Same program, other unit mix: a typed error, not a run on the
        // image's units and latencies.
        let other = Machine::with_config(code, MachineConfig::with_mix(2, 3));
        assert!(matches!(other, Err(SimError::TargetMismatch)));
    }

    #[test]
    fn single_add_completes() {
        let mut row = InstWord::new();
        row.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::ImmInt(2), Operand::ImmInt(3)],
                r(0, 0),
            ),
        );
        let stats = run_program(program_of(vec![row], vec![1, 0, 0, 0, 0, 0]));
        assert_eq!(stats.ops_issued, 1);
        assert!(stats.cycles <= 3);
        assert_eq!(stats.threads_spawned, 1);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // r0 = 1 + 1 ; r1 = r0 + 1 ; r2 = r1 + 1  (separate rows)
        let mk = |src: Operand, dst: RegId| {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(IntOp::Add, vec![src, Operand::ImmInt(1)], dst),
            );
            row
        };
        let rows = vec![
            mk(Operand::ImmInt(1), r(0, 0)),
            mk(Operand::Reg(r(0, 0)), r(0, 1)),
            mk(Operand::Reg(r(0, 1)), r(0, 2)),
        ];
        let stats = run_program(program_of(rows, vec![3, 0, 0, 0, 0, 0]));
        assert_eq!(stats.ops_issued, 3);
        // Each op waits for the previous writeback: ≥ 3 cycles of issue.
        assert!(stats.cycles >= 3, "cycles {}", stats.cycles);
    }

    #[test]
    fn independent_ops_issue_in_parallel_across_clusters() {
        let mut row = InstWord::new();
        for c in 0..4u16 {
            let fu = FuId(c * 3); // integer unit of each arithmetic cluster
            row.push(
                fu,
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(1), Operand::ImmInt(2)],
                    r(c, 0),
                ),
            );
        }
        let stats = run_program(program_of(vec![row], vec![1, 1, 1, 1, 0, 0]));
        assert_eq!(stats.ops_issued, 4);
        assert!(stats.cycles <= 3, "cycles {}", stats.cycles);
    }

    #[test]
    fn intra_row_slip() {
        // Row 0: u0 produces r0 (from immediate), u1 (FPU) waits on r1
        // which is produced by nothing yet -> deadlock unless slip works.
        // Build: row0: u0: r0 <- 1+2 ; u3: r1' in cluster1... simpler:
        // row0 has op A on u0 (ready) and op B on u1 reading r0 (not ready
        // until A writes back). They are in the SAME row: B slips.
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmFloat(1.5)],
                vec![r(0, 0)],
            ),
        );
        row0.push(
            FuId(1),
            Operation::float(
                FloatOp::Fadd,
                vec![Operand::Reg(r(0, 0)), Operand::ImmFloat(1.0)],
                r(0, 1),
            ),
        );
        let stats = run_program(program_of(vec![row0], vec![2, 0, 0, 0, 0, 0]));
        assert_eq!(stats.ops_issued, 2);
        assert!(stats.cycles >= 2); // B issued at least a cycle after A
    }

    #[test]
    fn in_order_issue_across_rows() {
        // Row 1 must not issue before every op of row 0 has issued, even
        // when row 1 is data-ready.
        let mut row0 = InstWord::new();
        // Not ready until r0 written by... nothing writes r0: use a mov
        // chain: row0 op reads r1 written by row0's own other op? Simplest
        // demonstration: row0 has a slow dependency via FPU latency.
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmInt(7)],
                vec![r(0, 0)],
            ),
        );
        row0.push(
            FuId(1),
            Operation::float(
                FloatOp::Fadd,
                vec![Operand::Reg(r(0, 1)), Operand::ImmFloat(1.0)],
                r(0, 2),
            ),
        );
        // r1 produced only in row... r1 never produced: would deadlock.
        // Instead produce r1 from row0's mov destination r0 via a second
        // mov scheduled on cluster0 IU in row0? Can't: one op per unit per
        // row. Use cluster 1's IU writing remotely into c0.r1.
        row0.push(
            FuId(3),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmFloat(2.0)],
                vec![r(0, 1)],
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmInt(9)],
                vec![r(0, 3)],
            ),
        );
        let stats = run_program(program_of(vec![row0, row1], vec![4, 0, 0, 0, 0, 0]));
        assert_eq!(stats.ops_issued, 4);
    }

    #[test]
    fn two_threads_share_one_unit() {
        // Child and parent both hammer cluster 0's integer unit.
        let mut p = Program::new();
        let mut child = CodeSegment::new("child");
        for _ in 0..8 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                    r(0, 0),
                ),
            );
            child.rows.push(row);
        }
        child.regs_per_cluster = vec![1, 0, 0, 0, 0, 0];
        let mut main = CodeSegment::new("main");
        let mut fork_row = InstWord::new();
        fork_row.push(
            FuId(12),
            Operation::new(
                OpKind::Branch(BranchOp::Fork {
                    segment: SegmentId(1),
                    arg_dsts: vec![],
                }),
                vec![],
                vec![],
            ),
        );
        main.rows.push(fork_row);
        for _ in 0..8 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(2), Operand::ImmInt(2)],
                    r(0, 0),
                ),
            );
            main.rows.push(row);
        }
        main.regs_per_cluster = vec![1, 0, 0, 0, 0, 0];
        p.add_segment(main);
        p.add_segment(child);
        let stats = run_program(p);
        assert_eq!(stats.threads_spawned, 2);
        assert_eq!(stats.ops_issued, 17);
        // 16 adds through one unit: at least 16 cycles.
        assert!(stats.cycles >= 16, "cycles {}", stats.cycles);
        assert!(stats.peak_threads == 2);
    }

    #[test]
    fn branch_loop_executes_n_iterations() {
        // r0 starts 0 (installed by an initial mov); loop: r0 += 1;
        // cond = r0 < 3 -> branch back.
        // Row 0: mov r0 <- 0 (IU), row 1: add r0 += 1 and (branch cluster)
        // needs cond in branch cluster's register file.
        // Layout: row1: IU: r0 += 1 writes both c0.r0 and... cond computed
        // row2: IU: slt c0.r1 <- r0 < 3 with second dst c4.r0
        // row3: BR: bt c4.r0 -> row 1
        let mut rows = Vec::new();
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmInt(0)],
                vec![r(0, 0)],
            ),
        );
        rows.push(row0);
        let mut row1 = InstWord::new();
        row1.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::Reg(r(0, 0)), Operand::ImmInt(1)],
                r(0, 0),
            ),
        );
        rows.push(row1);
        let mut row2 = InstWord::new();
        row2.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Slt),
                vec![Operand::Reg(r(0, 0)), Operand::ImmInt(3)],
                vec![r(4, 0)],
            ),
        );
        rows.push(row2);
        let mut row3 = InstWord::new();
        row3.push(
            FuId(12),
            Operation::new(
                OpKind::Branch(BranchOp::Br {
                    on_true: true,
                    target: 1,
                }),
                vec![Operand::Reg(r(4, 0))],
                vec![],
            ),
        );
        rows.push(row3);
        let stats = run_program(program_of(rows, vec![1, 0, 0, 0, 1, 0]));
        // 1 mov + 3 iterations × (add, slt, br) = 10 ops.
        assert_eq!(stats.ops_issued, 10);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut row0 = InstWord::new();
        row0.push(
            FuId(2),
            Operation::store(
                StoreFlavor::Plain,
                Operand::ImmInt(40),
                Operand::ImmInt(2),
                Operand::ImmFloat(6.5),
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(2),
            Operation::load(
                LoadFlavor::Plain,
                Operand::ImmInt(40),
                Operand::ImmInt(2),
                r(0, 0),
            ),
        );
        // Copy loaded value to another address so we can observe it.
        let mut row2 = InstWord::new();
        row2.push(
            FuId(2),
            Operation::store(
                StoreFlavor::Plain,
                Operand::ImmInt(50),
                Operand::ImmInt(0),
                Operand::Reg(r(0, 0)),
            ),
        );
        let p = program_of(vec![row0, row1, row2], vec![1, 0, 0, 0, 0, 0]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.run(1000).unwrap();
        assert_eq!(m.memory_mut().read_word(42).unwrap(), Value::Float(6.5));
        assert_eq!(m.memory_mut().read_word(50).unwrap(), Value::Float(6.5));
    }

    #[test]
    fn deadlock_is_detected() {
        // A load that consumes an empty cell nobody fills, then an op
        // depending on it.
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        let mut row0 = InstWord::new();
        row0.push(
            FuId(2),
            Operation::load(
                LoadFlavor::Consume,
                Operand::ImmInt(0),
                Operand::ImmInt(0),
                r(0, 0),
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::Reg(r(0, 0)), Operand::ImmInt(1)],
                r(0, 1),
            ),
        );
        seg.rows = vec![row0, row1];
        seg.regs_per_cluster = vec![2, 0, 0, 0, 0, 0];
        p.add_segment(seg);
        p.memory_size = 4;
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.memory_mut().set_empty(0, 1).unwrap();
        let err = m.run(10_000).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { parked: 1, .. }), "{err}");
    }

    #[test]
    fn cycle_limit_fires() {
        // An infinite loop.
        let mut row = InstWord::new();
        row.push(
            FuId(12),
            Operation::new(OpKind::Branch(BranchOp::Jmp { target: 0 }), vec![], vec![]),
        );
        let p = program_of(vec![row], vec![0; 6]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        assert!(matches!(
            m.run(50).unwrap_err(),
            SimError::CycleLimit { limit: 50 }
        ));
    }

    #[test]
    fn probes_record_thread_and_cycle() {
        let mut row = InstWord::new();
        row.push(
            FuId(12),
            Operation::new(OpKind::Branch(BranchOp::Probe { id: 9 }), vec![], vec![]),
        );
        let stats = run_program(program_of(vec![row], vec![0; 6]));
        assert_eq!(stats.probes.len(), 1);
        assert_eq!(stats.probes[0].id, 9);
        assert_eq!(stats.probes[0].thread, 0);
    }

    #[test]
    fn fixed_priority_prefers_low_thread_ids() {
        // Two children contend for u0; thread 1 (spawned first) has higher
        // priority than thread 2 under FixedPriority. Both run long loops;
        // check thread 1 finishes first via halted_at ordering — observable
        // through per-thread issue counts at a midpoint is complex, so we
        // simply check the run completes and both threads issued equally.
        let mut p = Program::new();
        let mut child = CodeSegment::new("child");
        for _ in 0..20 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                    r(0, 0),
                ),
            );
            child.rows.push(row);
        }
        child.regs_per_cluster = vec![1, 0, 0, 0, 0, 0];

        let mut main = CodeSegment::new("main");
        for _ in 0..2 {
            let mut fork_row = InstWord::new();
            fork_row.push(
                FuId(12),
                Operation::new(
                    OpKind::Branch(BranchOp::Fork {
                        segment: SegmentId(1),
                        arg_dsts: vec![],
                    }),
                    vec![],
                    vec![],
                ),
            );
            main.rows.push(fork_row);
        }
        main.regs_per_cluster = vec![0; 6];
        p.add_segment(main);
        p.add_segment(child);

        let mc = MachineConfig::baseline().with_arbitration(ArbitrationPolicy::FixedPriority);
        let mut m = Machine::new(mc, p).unwrap();
        let stats = m.run(10_000).unwrap();
        assert_eq!(stats.threads_spawned, 3);
        assert_eq!(stats.ops_by_thread[1], 20);
        assert_eq!(stats.ops_by_thread[2], 20);
    }

    #[test]
    fn utilization_counts_by_class() {
        let mut row = InstWord::new();
        row.push(
            FuId(1),
            Operation::float(
                FloatOp::Fadd,
                vec![Operand::ImmFloat(1.0), Operand::ImmFloat(2.0)],
                r(0, 0),
            ),
        );
        let stats = run_program(program_of(vec![row], vec![1, 0, 0, 0, 0, 0]));
        assert_eq!(*stats.ops_by_class.get(&UnitClass::Float).unwrap(), 1);
        assert!(stats.utilization(UnitClass::Float) > 0.0);
    }

    #[test]
    fn lockstep_issue_forbids_slip() {
        // Row 0: a ready mov and an fadd depending on it. With slip the
        // row issues over two cycles; in lockstep the whole row waits
        // forever (the dependence can never be satisfied within one
        // cycle) — deadlock.
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Mov),
                vec![Operand::ImmFloat(1.5)],
                vec![r(0, 0)],
            ),
        );
        row0.push(
            FuId(1),
            Operation::float(
                FloatOp::Fadd,
                vec![Operand::Reg(r(0, 0)), Operand::ImmFloat(1.0)],
                r(0, 1),
            ),
        );
        let p = program_of(vec![row0], vec![2, 0, 0, 0, 0, 0]);
        let mc = MachineConfig::baseline().with_lockstep_issue(true);
        let mut m = Machine::new(mc, p).unwrap();
        assert!(matches!(m.run(1000), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn lockstep_issues_independent_rows_atomically() {
        let mut row = InstWord::new();
        for c in 0..4u16 {
            row.push(
                FuId(c * 3),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(1), Operand::ImmInt(2)],
                    r(c, 0),
                ),
            );
        }
        let p = program_of(vec![row], vec![1, 1, 1, 1, 0, 0]);
        let mc = MachineConfig::baseline().with_lockstep_issue(true);
        let mut m = Machine::new(mc, p).unwrap();
        let stats = m.run(1000).unwrap();
        assert_eq!(stats.ops_issued, 4);
        assert!(stats.cycles <= 3);
    }

    #[test]
    fn wb_buffer_depth_one_still_completes() {
        let mut rows = Vec::new();
        for i in 0..6 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(i), Operand::ImmInt(1)],
                    r(0, i as u32),
                ),
            );
            rows.push(row);
        }
        let p = program_of(rows, vec![6, 0, 0, 0, 0, 0]);
        let mc = MachineConfig::baseline()
            .with_interconnect(pc_isa::InterconnectScheme::SinglePort)
            .with_wb_buffer(1);
        let mut m = Machine::new(mc, p).unwrap();
        let stats = m.run(1000).unwrap();
        assert_eq!(stats.ops_issued, 6);
    }

    #[test]
    fn globals_roundtrip_through_machine() {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        seg.rows.push(InstWord::new());
        p.add_segment(seg);
        p.alloc_symbol("xs", 4);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.write_global("xs", &[Value::Int(1), Value::Int(2)])
            .unwrap();
        m.run(100).unwrap();
        let xs = m.read_global("xs").unwrap();
        assert_eq!(xs[0], Value::Int(1));
        assert_eq!(xs[1], Value::Int(2));
        assert!(m.read_global("nope").is_err());
        assert!(m.write_global("xs", &[Value::Int(0); 9]).is_err());
    }

    #[test]
    fn pending_writebacks_count_as_latent_work() {
        // Regression: the deadlock detector once ignored queued
        // writebacks, so a no-progress cycle with writes still waiting for
        // a port (and nothing in pipelines or memory) would have been
        // misreported as a deadlock. Under SinglePort the add's two
        // cluster-0 writes need two cycles: on cycle 1 one lands and one
        // is queued, with the thread already gone and nothing else in
        // flight — the queued write alone must read as latent work.
        let mut row = InstWord::new();
        row.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Add),
                vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                vec![r(0, 0), r(0, 1)],
            ),
        );
        let p = program_of(vec![row], vec![2, 0, 0, 0, 0, 0]);
        let mc =
            MachineConfig::baseline().with_interconnect(pc_isa::InterconnectScheme::SinglePort);
        let mut m = Machine::new(mc, p).unwrap();
        m.step().unwrap();
        m.step().unwrap();
        assert_eq!(m.wb_fifo.len(), 1);
        assert!(m.live.is_empty() && m.pipe_total == 0 && m.mem.quiescent());
        assert!(m.pending_latency());
        assert!(m.step().unwrap(), "the queued write retires");
        assert!(!m.pending_latency() && m.finished());
    }

    #[test]
    fn empty_destination_results_retire_without_queueing() {
        // A result with no destinations must not occupy a writeback slot:
        // no arbitration round could ever drain it, so it would read as
        // latent work forever. Only loads and ALU ops retire results, and
        // validate_program gives those a destination, so this guards the
        // internal path only: retire a store's (destination-free) slot.
        let mut row = InstWord::new();
        row.push(
            FuId(2),
            Operation::store(
                StoreFlavor::Plain,
                Operand::ImmInt(0),
                Operand::ImmInt(0),
                Operand::ImmInt(7),
            ),
        );
        let p = program_of(vec![row], vec![0, 0, 0, 0, 0, 0]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.retire_result(ThreadId(0), FuId(2), 0, Value::Int(3));
        assert!(m.wb_fifo.is_empty() && m.wb_held.iter().all(|&n| n == 0));
        assert!(!m.pending_latency());
    }

    #[test]
    fn denied_write_beats_next_cycles_completion_for_the_port() {
        // SinglePort: cluster 0's file retires one write per cycle. Row
        // 0's add completes on cycle 1 with two cluster-0 destinations,
        // so one lands and one is denied. Row 1's add completes on cycle
        // 2 wanting the same port; the write denied on cycle 1 is older
        // and must win it, leaving the newer write for cycle 3.
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Add),
                vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                vec![r(0, 0), r(0, 1)],
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::ImmInt(2), Operand::ImmInt(2)],
                r(0, 2),
            ),
        );
        // Keeps the thread alive until row 1's result lands.
        let mut row2 = InstWord::new();
        row2.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::Reg(r(0, 2)), Operand::ImmInt(0)],
                r(0, 3),
            ),
        );
        let p = program_of(vec![row0, row1, row2], vec![4, 0, 0, 0, 0, 0]);
        let mc =
            MachineConfig::baseline().with_interconnect(pc_isa::InterconnectScheme::SinglePort);
        let mut m = Machine::new(mc, p).unwrap();
        for _ in 0..3 {
            m.step().unwrap();
        }
        // Had row 1's write landed on cycle 2, row 2 would have issued
        // and the thread halted.
        let t = &m.threads[0];
        assert!(
            t.is_alive() && !t.regs.is_present(r(0, 2)),
            "cycle 2's completion took the port from the write denied on cycle 1"
        );
        assert!(t.regs.is_present(r(0, 0)) && t.regs.is_present(r(0, 1)));
        // The newer write lands on cycle 3, releasing row 2 that cycle.
        m.step().unwrap();
        assert_eq!(m.threads[0].last_issue, 3);
        assert_eq!(m.run(100).unwrap().ops_issued, 3);
    }

    #[test]
    fn saturated_write_port_does_not_deadlock() {
        // Every op writes two destinations in the same cluster, but
        // SinglePort retires one write per file per cycle — the writeback
        // queue stays saturated for many cycles and the run must still
        // finish with every write applied.
        let mut rows = Vec::new();
        for i in 0..8u32 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::new(
                    OpKind::Int(IntOp::Add),
                    vec![Operand::ImmInt(i64::from(i)), Operand::ImmInt(100)],
                    vec![r(0, 2 * i), r(0, 2 * i + 1)],
                ),
            );
            rows.push(row);
        }
        let p = program_of(rows, vec![16, 0, 0, 0, 0, 0]);
        let mc = MachineConfig::baseline()
            .with_interconnect(pc_isa::InterconnectScheme::SinglePort)
            .with_wb_buffer(16);
        let mut m = Machine::new(mc, p).unwrap();
        let stats = m.run(10_000).unwrap();
        assert_eq!(stats.ops_issued, 8);
        // 16 register writes through one port: at least 16 cycles.
        assert!(stats.cycles >= 16, "cycles {}", stats.cycles);
    }

    #[test]
    fn unknown_memory_token_is_an_error_not_a_panic() {
        // A completion the machine never issued surfaces as a typed error.
        let mut row = InstWord::new();
        row.push(
            FuId(2),
            Operation::load(
                LoadFlavor::Plain,
                Operand::ImmInt(0),
                Operand::ImmInt(0),
                r(0, 0),
            ),
        );
        let p = program_of(vec![row], vec![1, 0, 0, 0, 0, 0]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.memory_mut()
            .submit(0, 999, 0, pc_memsys::RequestKind::Load(LoadFlavor::Plain));
        let err = m.run(1000).unwrap_err();
        assert!(
            matches!(err, SimError::UnknownToken { token: 999 }),
            "{err}"
        );
    }

    #[test]
    fn token_ids_are_reused_without_confusing_outstanding_refs() {
        // A long chain of memory references recycles slab token ids; each
        // completion must still pair with its own reference.
        let mut rows = Vec::new();
        for i in 0..10 {
            let mut row = InstWord::new();
            row.push(
                FuId(2),
                Operation::store(
                    StoreFlavor::Plain,
                    Operand::ImmInt(i),
                    Operand::ImmInt(0),
                    Operand::ImmInt(i * 7),
                ),
            );
            rows.push(row);
        }
        let p = program_of(rows, vec![0; 6]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.run(10_000).unwrap();
        for i in 0..10 {
            assert_eq!(
                m.memory_mut().read_word(i as u64).unwrap(),
                Value::Int(i * 7)
            );
        }
    }

    /// Two threads hammering cluster 0's integer unit (the contention
    /// workload of `two_threads_share_one_unit`).
    fn contention_program() -> Program {
        let mut p = Program::new();
        let mut child = CodeSegment::new("child");
        for _ in 0..8 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                    r(0, 0),
                ),
            );
            child.rows.push(row);
        }
        child.regs_per_cluster = vec![1, 0, 0, 0, 0, 0];
        let mut main = CodeSegment::new("main");
        let mut fork_row = InstWord::new();
        fork_row.push(
            FuId(12),
            Operation::new(
                OpKind::Branch(BranchOp::Fork {
                    segment: SegmentId(1),
                    arg_dsts: vec![],
                }),
                vec![],
                vec![],
            ),
        );
        main.rows.push(fork_row);
        for _ in 0..8 {
            let mut row = InstWord::new();
            row.push(
                FuId(0),
                Operation::int(
                    IntOp::Add,
                    vec![Operand::ImmInt(2), Operand::ImmInt(2)],
                    r(0, 0),
                ),
            );
            main.rows.push(row);
        }
        main.regs_per_cluster = vec![1, 0, 0, 0, 0, 0];
        p.add_segment(main);
        p.add_segment(child);
        p
    }

    /// Runs `m` with a [`crate::StallProfiler`] attached, returning the
    /// stats and the profiler's stall table.
    fn run_profiled(mut m: Machine, limit: u64) -> (RunStats, crate::StallTable) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let profiler = Rc::new(RefCell::new(crate::StallProfiler::new(m.program())));
        m.attach_probe(Box::new(Rc::clone(&profiler)));
        let stats = m.run(limit).unwrap();
        let table = profiler.borrow().table();
        (stats, table)
    }

    #[test]
    fn profiling_attributes_every_live_cycle() {
        let m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        let (stats, stalls) = run_profiled(m, 10_000);
        assert!(!stalls.is_empty());
        assert!(stalls.consistent(), "alive != busy + stalls");
        // Two threads fight for one integer unit: someone must lose
        // arbitration, and the loser's blocked slot is an integer op.
        assert!(stalls.total_cause(StallCause::LostArbitration) > 0);
        assert!(stalls.by_class.contains_key(&UnitClass::Integer));
        // No thread can be attributed more cycles than the run had.
        for t in &stalls.threads {
            assert!(t.alive <= stats.cycles);
        }
    }

    #[test]
    fn profiling_does_not_perturb_the_schedule() {
        let mut plain = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        let base = plain.run(10_000).unwrap();
        let profiled = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        let (observed, stalls) = run_profiled(profiled, 10_000);
        assert!(!stalls.is_empty());
        assert_eq!(base, observed);
    }

    #[test]
    fn decoded_engine_matches_reference_engine() {
        // The contention program exercises arbitration losses, writeback
        // bursts, and memory ordering — the paths whose readiness-cache
        // repairs and decoded dispatch must reproduce the scan engine's
        // schedule exactly.
        for profiled in [false, true] {
            let run = |kind: EngineKind| {
                let mut m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
                m.set_engine(kind);
                if profiled {
                    run_profiled(m, 10_000)
                } else {
                    (m.run(10_000).unwrap(), crate::StallTable::default())
                }
            };
            assert_eq!(
                run(EngineKind::Decoded),
                run(EngineKind::Scan),
                "decoded engine diverges from scan (profiled={profiled})"
            );
        }
    }

    #[test]
    fn set_engine_round_trips_every_kind() {
        let mut m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        assert_eq!(m.engine(), EngineKind::Decoded);
        for kind in [EngineKind::Scan, EngineKind::Decoded] {
            m.set_engine(kind);
            assert_eq!(m.engine(), kind);
        }
    }

    #[test]
    fn host_telemetry_never_perturbs_the_run() {
        for kind in [EngineKind::Decoded, EngineKind::Scan] {
            let mut plain = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
            plain.set_engine(kind);
            let want = plain.run(100_000).unwrap();

            let mut timed = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
            timed.set_engine(kind);
            assert!(timed.host_profile().is_none());
            timed.enable_host_telemetry();
            let got = timed.run(100_000).unwrap();
            assert_eq!(want, got, "{} engine diverges under telemetry", kind.name());

            let p = timed.host_profile().expect("telemetry enabled");
            assert!(p.steps > 0);
            // step() times the issue phase on every stepped cycle.
            assert_eq!(p.phases[PH_ISSUE].calls, p.steps);
            assert!(p.phases[PH_ISSUE].sampled_calls > 0);
        }
    }

    #[test]
    fn host_profile_counts_wake_repairs_on_decoded_engine() {
        let mut m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        m.enable_host_telemetry();
        m.run(100_000).unwrap();
        let p = m.host_profile().unwrap();
        // The contention program writes registers and rebuilds readiness
        // masks; the decoded engine must report both.
        assert!(p.bitmask_rebuilds > 0, "{p:?}");
        assert!(p.wake_repairs > 0, "{p:?}");
        assert_eq!(p.phases[PH_WAKE].calls, p.bitmask_rebuilds);
    }

    #[test]
    fn engine_kind_parses_and_prints() {
        for (s, k) in [("decoded", EngineKind::Decoded), ("scan", EngineKind::Scan)] {
            assert_eq!(s.parse::<EngineKind>().unwrap(), k);
            assert_eq!(k.name(), s);
        }
        // The retired event engine is rejected like any unknown name.
        for s in ["event", "fast"] {
            assert_eq!(
                s.parse::<EngineKind>().unwrap_err(),
                format!("unknown engine `{s}` (expected decoded or scan)")
            );
        }
    }

    #[test]
    fn ring_sink_sees_every_issue_and_stall_events() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let ring = Rc::new(RefCell::new(crate::probe::RingSink::new(4096)));
        let mut m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        m.attach_probe(Box::new(Rc::clone(&ring)));
        let stats = m.run(10_000).unwrap();
        let counts = ring.borrow().counts();
        assert_eq!(counts.issues, stats.ops_issued);
        // Contention for one unit produces arbitration losses, and the
        // losers' cycles surface as stall events too.
        assert!(counts.arb_losses > 0);
        assert!(counts.stalls > 0);
        assert!(counts.writebacks > 0);
        // A sink alone must not populate the stats-side stall table.
        assert!(stats.stalls.is_empty());
    }

    #[test]
    fn observed_run_matches_unobserved_stats() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut plain = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        let base = plain.run(10_000).unwrap();
        let ring = Rc::new(RefCell::new(crate::probe::RingSink::new(16)));
        let mut m = Machine::new(MachineConfig::baseline(), contention_program()).unwrap();
        m.attach_probe(Box::new(Rc::clone(&ring)));
        let observed = m.run(10_000).unwrap();
        assert_eq!(base, observed);
    }

    #[test]
    fn remote_destination_write_reaches_other_cluster() {
        // Cluster 0 computes, writes to cluster 1; cluster 1 stores it.
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::new(
                OpKind::Int(IntOp::Add),
                vec![Operand::ImmInt(20), Operand::ImmInt(22)],
                vec![r(1, 0)],
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(5), // cluster 1 memory unit
            Operation::store(
                StoreFlavor::Plain,
                Operand::ImmInt(7),
                Operand::ImmInt(0),
                Operand::Reg(r(1, 0)),
            ),
        );
        let p = program_of(vec![row0, row1], vec![0, 1, 0, 0, 0, 0]);
        let mut m = Machine::new(MachineConfig::baseline(), p).unwrap();
        m.run(1000).unwrap();
        assert_eq!(m.memory_mut().read_word(7).unwrap(), Value::Int(42));
    }
}
