//! Observability: the one guest-side observation path of the simulator
//! — a structured per-cycle event stream and pluggable sinks.
//!
//! The machine emits one [`ProbeEvent`] per interesting micro-action —
//! operation issue, stall with an attributed cause, writeback retirement,
//! function-unit arbitration loss, interconnect write denial, memory bank
//! conflict, synchronization park/wake — into the [`Probe`] sink attached
//! with [`crate::Machine::attach_probe`]. With no sink attached the hot
//! loop takes a single predicted branch per emission point and allocates
//! nothing.
//!
//! A `stall` event covers [`ProbeEvent::Stall::cycles`] cycles: 1 on a
//! stepped cycle, the whole span when the decoded engine jumps over a
//! frozen idle span (every skipped cycle would have produced the same
//! stall). Sinks therefore see every cycle either way, and the bulk skip
//! stays on while observing.
//!
//! Four sinks ship with the simulator:
//!
//! * [`RingSink`] — a bounded in-memory ring buffer (keeps the last *N*
//!   events; per-kind counts are exact over the whole run); its
//!   [`RingSink::issue_events`] feed the Figure 1/2 renderers in
//!   [`crate::trace`];
//! * [`StallProfiler`] — folds `issue` and `stall` events into the
//!   [`StallTable`] reported as [`crate::RunStats::stalls`];
//! * [`JsonlSink`] — one JSON object per line, streamed to any
//!   [`std::io::Write`];
//! * [`ChromeTraceSink`] — the Chrome `trace_event` JSON array format,
//!   loadable in `about://tracing` or [Perfetto](https://ui.perfetto.dev):
//!   each simulated thread becomes a track (process) and each function
//!   unit a lane (thread) within it.
//!
//! [`Fanout`] combines sinks. Host-side telemetry
//! ([`crate::Machine::enable_host_telemetry`]) is deliberately not a
//! probe: it times the simulator, not the simulated machine.

use crate::stats::StallTable;
use crate::trace::TraceEvent;
use pc_isa::{FuId, Program, UnitClass};
use std::collections::VecDeque;
use std::io::{self, Write};

/// Why a thread (or one of its instruction slots) could not issue this
/// cycle. The six causes of the paper's evaluation narrative: presence
/// bits, function-unit arbitration, write-port and bus budgets, the
/// memory system, and control bubbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// A source register's presence bit is clear (or a destination still
    /// has an in-flight writer) and the producer is not a memory
    /// reference — the op waits on an ALU result or a remote write.
    OperandNotPresent,
    /// The operation was data-ready but lost function-unit arbitration
    /// to another thread (or, under lockstep issue, its row could not
    /// claim every unit it needs).
    LostArbitration,
    /// The unit's writeback buffer is full of results denied a register
    /// write port, so the unit cannot accept new operations.
    WritePortFull,
    /// The unit's writeback buffer is full and its most recent denial
    /// was for bus capacity rather than a port.
    BusFull,
    /// Blocked by the memory system: a synchronizing reference fencing
    /// on outstanding traffic, a same-address ordering hazard, a `fork`
    /// fence, or an operand fed by an in-flight memory reference.
    MemoryBusy,
    /// The current row has nothing left to issue (fully issued or empty)
    /// and the thread waits on branch resolution — a control bubble.
    EmptyRow,
}

impl StallCause {
    /// Number of distinct causes (array dimension for accounting).
    pub const COUNT: usize = 6;

    /// All causes, in display order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::OperandNotPresent,
        StallCause::LostArbitration,
        StallCause::WritePortFull,
        StallCause::BusFull,
        StallCause::MemoryBusy,
        StallCause::EmptyRow,
    ];

    /// Dense index (for `[u64; COUNT]` accounting arrays).
    pub fn index(self) -> usize {
        match self {
            StallCause::OperandNotPresent => 0,
            StallCause::LostArbitration => 1,
            StallCause::WritePortFull => 2,
            StallCause::BusFull => 3,
            StallCause::MemoryBusy => 4,
            StallCause::EmptyRow => 5,
        }
    }

    /// Short label (report column headers, JSON `cause` field).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::OperandNotPresent => "operand",
            StallCause::LostArbitration => "lost-arb",
            StallCause::WritePortFull => "wb-port",
            StallCause::BusFull => "bus",
            StallCause::MemoryBusy => "memory",
            StallCause::EmptyRow => "empty-row",
        }
    }
}

/// One observability event. Cycle numbers are simulation cycles; thread
/// ids are dense spawn-order ids (matching [`crate::RunStats`] vectors).
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeEvent {
    /// An operation issued (the payload is the record the Figure 1/2
    /// renderers in [`crate::trace`] read).
    Issue(TraceEvent),
    /// A live thread issued nothing for `cycles` cycles starting at
    /// `cycle`; `cause` is the primary attributed reason and `class` the
    /// unit class of the blocked slot (absent for control bubbles).
    Stall {
        /// First cycle of the stall.
        cycle: u64,
        /// Cycles covered: 1 on a stepped cycle, the span length on a
        /// bulk-skipped idle span (the state is frozen over the span, so
        /// every cycle of it has this same stall).
        cycles: u64,
        /// The stalled thread.
        thread: u32,
        /// Primary attributed cause.
        cause: StallCause,
        /// Unit class of the blocked slot, when one exists.
        class: Option<UnitClass>,
        /// Static-code coordinate `(segment, row, slot)` of the blocked
        /// slot — the key into [`pc_isa::DebugMap`]. Absent for control
        /// bubbles (empty rows, threads past their last row).
        at: Option<(u32, u32, u16)>,
    },
    /// One register write retired through the interconnect.
    ///
    /// Within a cycle, `Writeback` and [`ProbeEvent::WbDenied`] events
    /// arrive in arbitration order — writes queued on earlier cycles
    /// first, oldest first, then the cycle's new results in completion
    /// order — and before the cycle's [`ProbeEvent::SyncRetry`] events.
    Writeback {
        /// Cycle of retirement.
        cycle: u64,
        /// Owning thread.
        thread: u32,
        /// Producing function unit.
        fu: FuId,
    },
    /// A data-ready candidate lost function-unit arbitration.
    ArbLoss {
        /// Cycle of the loss.
        cycle: u64,
        /// The losing thread.
        thread: u32,
        /// The contested unit.
        fu: FuId,
    },
    /// A register write was denied a write port or bus this cycle; it
    /// waits in the writeback queue and retries next cycle. Ordered as
    /// [`ProbeEvent::Writeback`].
    WbDenied {
        /// Cycle of the denial.
        cycle: u64,
        /// Owning thread.
        thread: u32,
        /// Producing function unit.
        fu: FuId,
        /// True when bus capacity (not a port) was the limit.
        bus: bool,
    },
    /// A memory reference waited for a busy interleaved bank.
    BankConflict {
        /// Cycle of submission.
        cycle: u64,
        /// Submitting thread.
        thread: u32,
        /// Word address of the reference.
        addr: u64,
        /// Cycles of bank wait incurred.
        wait: u64,
    },
    /// A synchronizing reference parked in (or woke inside) the memory
    /// system — the split-transaction retry channel.
    SyncRetry {
        /// Cycle observed.
        cycle: u64,
        /// Owning thread.
        thread: u32,
        /// The synchronizing address.
        addr: u64,
        /// True on park, false on successful wake.
        parked: bool,
    },
}

impl ProbeEvent {
    /// Stable kind tag (JSON `kind` field, per-kind counters).
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::Issue(_) => "issue",
            ProbeEvent::Stall { .. } => "stall",
            ProbeEvent::Writeback { .. } => "writeback",
            ProbeEvent::ArbLoss { .. } => "arb-loss",
            ProbeEvent::WbDenied { .. } => "wb-denied",
            ProbeEvent::BankConflict { .. } => "bank-conflict",
            ProbeEvent::SyncRetry { .. } => "sync-retry",
        }
    }

    /// The event's cycle.
    pub fn cycle(&self) -> u64 {
        match self {
            ProbeEvent::Issue(e) => e.cycle,
            ProbeEvent::Stall { cycle, .. }
            | ProbeEvent::Writeback { cycle, .. }
            | ProbeEvent::ArbLoss { cycle, .. }
            | ProbeEvent::WbDenied { cycle, .. }
            | ProbeEvent::BankConflict { cycle, .. }
            | ProbeEvent::SyncRetry { cycle, .. } => *cycle,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            ProbeEvent::Issue(e) => write!(
                out,
                r#"{{"kind":"issue","cycle":{},"thread":{},"fu":{},"mnemonic":"{}","seg":{},"row":{},"slot":{}}}"#,
                e.cycle, e.thread, e.fu.0, e.mnemonic, e.seg, e.row, e.slot
            ),
            ProbeEvent::Stall {
                cycle,
                cycles,
                thread,
                cause,
                class,
                at,
            } => {
                let class = class.map(|c| c.label()).unwrap_or("-");
                let at = at
                    .map(|(s, r, sl)| format!("[{s},{r},{sl}]"))
                    .unwrap_or_else(|| "null".to_string());
                write!(
                    out,
                    r#"{{"kind":"stall","cycle":{cycle},"cycles":{cycles},"thread":{thread},"cause":"{}","class":"{class}","at":{at}}}"#,
                    cause.label()
                )
            }
            ProbeEvent::Writeback { cycle, thread, fu } => write!(
                out,
                r#"{{"kind":"writeback","cycle":{cycle},"thread":{thread},"fu":{}}}"#,
                fu.0
            ),
            ProbeEvent::ArbLoss { cycle, thread, fu } => write!(
                out,
                r#"{{"kind":"arb-loss","cycle":{cycle},"thread":{thread},"fu":{}}}"#,
                fu.0
            ),
            ProbeEvent::WbDenied {
                cycle,
                thread,
                fu,
                bus,
            } => write!(
                out,
                r#"{{"kind":"wb-denied","cycle":{cycle},"thread":{thread},"fu":{},"bus":{bus}}}"#,
                fu.0
            ),
            ProbeEvent::BankConflict {
                cycle,
                thread,
                addr,
                wait,
            } => write!(
                out,
                r#"{{"kind":"bank-conflict","cycle":{cycle},"thread":{thread},"addr":{addr},"wait":{wait}}}"#,
            ),
            ProbeEvent::SyncRetry {
                cycle,
                thread,
                addr,
                parked,
            } => write!(
                out,
                r#"{{"kind":"sync-retry","cycle":{cycle},"thread":{thread},"addr":{addr},"parked":{parked}}}"#,
            ),
        }
        .expect("String write is infallible");
    }
}

/// A sink for [`ProbeEvent`]s.
///
/// Implementations must not assume events arrive strictly ordered by
/// cycle *within* a cycle (phases emit in machine order), but cycles are
/// monotonically non-decreasing.
pub trait Probe {
    /// Receives one event.
    fn event(&mut self, e: &ProbeEvent);

    /// Called once when the machine finishes (or the sink is detached):
    /// flush buffered output, write trailers.
    fn finish(&mut self) {}
}

/// A shared handle to a sink: attach `Box::new(Rc::clone(&sink))` to a
/// machine while keeping the `Rc` to inspect the sink afterwards (the
/// machine otherwise owns its probe).
impl<P: Probe> Probe for std::rc::Rc<std::cell::RefCell<P>> {
    fn event(&mut self, e: &ProbeEvent) {
        self.borrow_mut().event(e);
    }

    fn finish(&mut self) {
        self.borrow_mut().finish();
    }
}

/// Exact per-kind event counts, kept by every shipped sink so lossy
/// sinks (the ring) and streaming sinks can still be cross-checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `issue` events.
    pub issues: u64,
    /// `stall` events.
    pub stalls: u64,
    /// `writeback` events.
    pub writebacks: u64,
    /// `arb-loss` events.
    pub arb_losses: u64,
    /// `wb-denied` events.
    pub wb_denials: u64,
    /// `bank-conflict` events.
    pub bank_conflicts: u64,
    /// `sync-retry` events.
    pub sync_retries: u64,
}

impl EventCounts {
    fn record(&mut self, e: &ProbeEvent) {
        match e {
            ProbeEvent::Issue(_) => self.issues += 1,
            ProbeEvent::Stall { .. } => self.stalls += 1,
            ProbeEvent::Writeback { .. } => self.writebacks += 1,
            ProbeEvent::ArbLoss { .. } => self.arb_losses += 1,
            ProbeEvent::WbDenied { .. } => self.wb_denials += 1,
            ProbeEvent::BankConflict { .. } => self.bank_conflicts += 1,
            ProbeEvent::SyncRetry { .. } => self.sync_retries += 1,
        }
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.issues
            + self.stalls
            + self.writebacks
            + self.arb_losses
            + self.wb_denials
            + self.bank_conflicts
            + self.sync_retries
    }
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// exact per-kind counts over the whole run.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<ProbeEvent>,
    capacity: usize,
    counts: EventCounts,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            counts: EventCounts::default(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.buf.iter()
    }

    /// Retained `issue` events as trace records (renderer input).
    pub fn issue_events(&self) -> Vec<TraceEvent> {
        self.buf
            .iter()
            .filter_map(|e| match e {
                ProbeEvent::Issue(t) => Some(t.clone()),
                _ => None,
            })
            .collect()
    }

    /// Exact per-kind counts over the whole run (not just retained).
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Events evicted to honor the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Probe for RingSink {
    fn event(&mut self, e: &ProbeEvent) {
        self.counts.record(e);
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e.clone());
    }
}

/// Built-in sink folding `issue` and `stall` events into a
/// [`StallTable`] — the stall profiler behind [`crate::RunStats::stalls`].
/// A thread is busy on a cycle it issued on and charged each stall event's
/// `cycles` otherwise, so `alive == busy + Σ causes` holds per thread.
/// Per-slot counts live in dense arrays laid out over the program's slots
/// (one increment per event) and are folded into the table's map form by
/// [`StallProfiler::table`].
#[derive(Debug)]
pub struct StallProfiler {
    /// Per-thread, per-class and unattributed counters.
    table: StallTable,
    /// Per segment, per row: index of the row's first slot in the dense
    /// arrays.
    slot_base: Vec<Vec<u32>>,
    /// Static-code coordinate of each dense index.
    keys: Vec<(u32, u32, u16)>,
    /// Issued operations per static slot.
    issued: Vec<u64>,
    /// Stalled cycles per static slot × cause.
    stalled: Vec<[u64; StallCause::COUNT]>,
    /// Per thread: the cycle last charged busy (`u64::MAX` = never), so
    /// several issues in one cycle count one busy cycle.
    busy_at: Vec<u64>,
}

impl StallProfiler {
    /// A profiler for runs of `program` (sizes the per-slot arrays).
    pub fn new(program: &Program) -> Self {
        let mut slot_base = Vec::with_capacity(program.segments.len());
        let mut keys = Vec::new();
        for (si, seg) in program.segments.iter().enumerate() {
            let mut bases = Vec::with_capacity(seg.rows.len());
            for (ri, row) in seg.rows.iter().enumerate() {
                bases.push(keys.len() as u32);
                keys.extend((0..row.len()).map(|s| (si as u32, ri as u32, s as u16)));
            }
            slot_base.push(bases);
        }
        StallProfiler {
            table: StallTable::default(),
            slot_base,
            issued: vec![0; keys.len()],
            stalled: vec![[0; StallCause::COUNT]; keys.len()],
            keys,
            busy_at: Vec::new(),
        }
    }

    fn index(&self, seg: u32, row: u32, slot: u16) -> usize {
        self.slot_base[seg as usize][row as usize] as usize + slot as usize
    }

    /// The stall table so far, per-slot breakdowns included (slots that
    /// never issued or stalled are omitted).
    pub fn table(&self) -> StallTable {
        let mut t = self.table.clone();
        for (i, &key) in self.keys.iter().enumerate() {
            if self.issued[i] != 0 {
                t.issued_by_slot.insert(key, self.issued[i]);
            }
            if self.stalled[i].iter().any(|&c| c != 0) {
                t.by_slot.insert(key, self.stalled[i]);
            }
        }
        t
    }
}

impl Probe for StallProfiler {
    fn event(&mut self, e: &ProbeEvent) {
        match e {
            ProbeEvent::Issue(ev) => {
                let i = self.index(ev.seg, ev.row, ev.slot);
                self.issued[i] += 1;
                let t = ev.thread as usize;
                if t >= self.busy_at.len() {
                    self.busy_at.resize(t + 1, u64::MAX);
                }
                if self.busy_at[t] != ev.cycle {
                    self.busy_at[t] = ev.cycle;
                    self.table.record_busy(ev.thread);
                }
            }
            ProbeEvent::Stall {
                cycles,
                thread,
                cause,
                class,
                at,
                ..
            } => {
                self.table.record_stall(*thread, *cause, *class, *cycles);
                match at {
                    Some((s, r, sl)) => {
                        let i = self.index(*s, *r, *sl);
                        self.stalled[i][cause.index()] += cycles;
                    }
                    None => self.table.unattributed[cause.index()] += cycles,
                }
            }
            _ => {}
        }
    }
}

/// Streaming sink: one JSON object per line. IO errors are sticky and
/// surfaced by [`JsonlSink::into_result`] rather than panicking the
/// simulation.
pub struct JsonlSink<W: Write> {
    w: W,
    line: String,
    counts: EventCounts,
    err: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (callers wanting buffering pass a
    /// [`std::io::BufWriter`]).
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            line: String::new(),
            counts: EventCounts::default(),
            err: None,
        }
    }

    /// Exact per-kind counts written so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Consumes the sink, returning the writer or the first IO error.
    ///
    /// # Errors
    /// The first write/flush error encountered, if any.
    pub fn into_result(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("counts", &self.counts)
            .field("err", &self.err)
            .finish_non_exhaustive()
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    fn event(&mut self, e: &ProbeEvent) {
        if self.err.is_some() {
            return;
        }
        self.counts.record(e);
        self.line.clear();
        e.write_json(&mut self.line);
        self.line.push('\n');
        if let Err(err) = self.w.write_all(self.line.as_bytes()) {
            self.err = Some(err);
        }
    }

    fn finish(&mut self) {
        if self.err.is_none() {
            if let Err(err) = self.w.flush() {
                self.err = Some(err);
            }
        }
    }
}

/// Chrome `trace_event` exporter (the JSON array format understood by
/// `about://tracing` and [Perfetto](https://ui.perfetto.dev)).
///
/// Mapping: each simulated **thread is a track** (a trace process,
/// `pid = thread id`) and each **function unit a lane** within it (a
/// trace thread, `tid = unit id`), so one glance shows which units each
/// thread occupied cycle by cycle. Issues become 1-cycle duration (`X`)
/// events with the mnemonic as the name; stalls become instant (`i`)
/// events on a synthetic `stalls` lane, with the cycles they cover in
/// `args.cycles`. Timestamps are in "microseconds"
/// = simulation cycles.
pub struct ChromeTraceSink<W: Write> {
    w: W,
    line: String,
    counts: EventCounts,
    first: bool,
    closed: bool,
    /// `(pid, tid)` pairs already given metadata records.
    named: Vec<(u32, u16)>,
    err: Option<io::Error>,
    /// Optional source side-table: when present, issue and stall records
    /// carry `args: {line, loop}` resolved from their static coordinate.
    debug: Option<pc_isa::DebugMap>,
}

/// Synthetic lane id carrying a thread's stall instants.
const STALL_LANE: u16 = u16::MAX;

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps a writer and emits the array opener.
    pub fn new(mut w: W) -> Self {
        let err = w.write_all(b"[\n").err();
        ChromeTraceSink {
            w,
            line: String::new(),
            counts: EventCounts::default(),
            first: true,
            closed: false,
            named: Vec::new(),
            err,
            debug: None,
        }
    }

    /// [`ChromeTraceSink::new`] plus a source side-table: every drawn
    /// record's `args` gains the source `line` (and `loop` label when the
    /// span sits inside one) resolved from its `(segment, row, slot)`.
    pub fn with_debug(w: W, debug: pc_isa::DebugMap) -> Self {
        let mut s = ChromeTraceSink::new(w);
        s.debug = Some(debug);
        s
    }

    /// `,"line":N` (and `,"loop":"i@N"`) fragment for a static coordinate,
    /// empty when no provenance is known.
    fn src_args(&self, seg: u32, row: u32, slot: u16) -> String {
        let Some(d) = &self.debug else {
            return String::new();
        };
        let Some(ids) = d.lookup(pc_isa::SegmentId(seg), row, slot) else {
            return String::new();
        };
        let Some(primary) = ids.iter().min().copied() else {
            return String::new();
        };
        let mut s = format!(r#","line":{}"#, d.line_of(primary));
        if let Some(label) = d.loop_label_of(primary) {
            s.push_str(&format!(r#","loop":"{label}""#));
        }
        s
    }

    /// Exact per-kind counts of the *simulation* events consumed (the
    /// JSON stream additionally contains metadata records).
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Consumes the sink, returning the writer or the first IO error.
    /// The array closer is written here if [`Probe::finish`] has not run.
    ///
    /// # Errors
    /// The first write/flush error encountered, if any.
    pub fn into_result(mut self) -> io::Result<W> {
        self.finish();
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        Ok(self.w)
    }

    fn push_record(&mut self, record: &str) {
        if self.err.is_some() {
            return;
        }
        self.line.clear();
        if self.first {
            self.first = false;
        } else {
            self.line.push_str(",\n");
        }
        self.line.push_str(record);
        if let Err(err) = self.w.write_all(self.line.as_bytes()) {
            self.err = Some(err);
        }
    }

    /// Emits process/thread naming metadata the first time a lane is
    /// seen, so Perfetto shows `thread N` / `uM` instead of raw ids.
    fn ensure_named(&mut self, pid: u32, tid: u16, lane: &str) {
        if self.named.contains(&(pid, tid)) {
            return;
        }
        self.named.push((pid, tid));
        let process = format!(
            r#"{{"ph":"M","name":"process_name","pid":{pid},"tid":0,"args":{{"name":"thread {pid}"}}}}"#
        );
        self.push_record(&process);
        let thread = format!(
            r#"{{"ph":"M","name":"thread_name","pid":{pid},"tid":{tid},"args":{{"name":"{lane}"}}}}"#
        );
        self.push_record(&thread);
    }
}

impl<W: Write> std::fmt::Debug for ChromeTraceSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("counts", &self.counts)
            .field("err", &self.err)
            .finish_non_exhaustive()
    }
}

impl<W: Write> Probe for ChromeTraceSink<W> {
    fn event(&mut self, e: &ProbeEvent) {
        self.counts.record(e);
        match e {
            ProbeEvent::Issue(t) => {
                self.ensure_named(t.thread, t.fu.0, &format!("u{}", t.fu.0));
                let src = self.src_args(t.seg, t.row, t.slot);
                let rec = format!(
                    r#"{{"ph":"X","name":"{}","cat":"issue","ts":{},"dur":1,"pid":{},"tid":{},"args":{{"row":{}{src}}}}}"#,
                    t.mnemonic, t.cycle, t.thread, t.fu.0, t.row
                );
                self.push_record(&rec);
            }
            ProbeEvent::Stall {
                cycle,
                cycles,
                thread,
                cause,
                at,
                ..
            } => {
                self.ensure_named(*thread, STALL_LANE, "stalls");
                let src = at
                    .map(|(s, r, sl)| self.src_args(s, r, sl))
                    .unwrap_or_default();
                let rec = format!(
                    r#"{{"ph":"i","name":"{}","cat":"stall","s":"t","ts":{cycle},"pid":{thread},"tid":{STALL_LANE},"args":{{"cycles":{cycles}{src}}}}}"#,
                    cause.label()
                );
                self.push_record(&rec);
            }
            // Writebacks, arbitration and memory events would clutter the
            // lanes; they are counted but not drawn.
            _ => {}
        }
    }

    fn finish(&mut self) {
        if self.err.is_some() || self.closed {
            return;
        }
        self.closed = true;
        if let Err(err) = self.w.write_all(b"\n]\n").and_then(|()| self.w.flush()) {
            self.err = Some(err);
        }
    }
}

/// Broadcasts every event to several sinks (e.g. a ring for in-process
/// inspection plus a JSONL file on disk).
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Probe>>,
}

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: Box<dyn Probe>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fanout({} sinks)", self.sinks.len())
    }
}

impl Probe for Fanout {
    fn event(&mut self, e: &ProbeEvent) {
        for s in &mut self.sinks {
            s.event(e);
        }
    }

    fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64, fu: u16, thread: u32) -> ProbeEvent {
        ProbeEvent::Issue(TraceEvent {
            cycle,
            fu: FuId(fu),
            thread,
            mnemonic: "add",
            seg: 0,
            row: 0,
            slot: 0,
        })
    }

    #[test]
    fn ring_keeps_last_n_with_exact_counts() {
        let mut ring = RingSink::new(2);
        for c in 0..5 {
            ring.event(&issue(c, 0, 0));
        }
        ring.event(&ProbeEvent::Stall {
            cycle: 5,
            cycles: 1,
            thread: 0,
            cause: StallCause::EmptyRow,
            class: None,
            at: None,
        });
        assert_eq!(ring.counts().issues, 5);
        assert_eq!(ring.counts().stalls, 1);
        assert_eq!(ring.counts().total(), 6);
        assert_eq!(ring.dropped(), 4);
        let cycles: Vec<u64> = ring.events().map(ProbeEvent::cycle).collect();
        assert_eq!(cycles, vec![4, 5]);
        assert_eq!(ring.issue_events().len(), 1);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(&issue(3, 1, 2));
        sink.event(&ProbeEvent::SyncRetry {
            cycle: 4,
            thread: 2,
            addr: 17,
            parked: true,
        });
        sink.finish();
        assert_eq!(sink.counts().total(), 2);
        let bytes = sink.into_result().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""kind":"issue""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""mnemonic":"add""#));
        assert!(lines[1].contains(r#""kind":"sync-retry""#));
        assert!(lines[1].contains(r#""parked":true"#));
    }

    #[test]
    fn chrome_trace_is_a_json_array_with_metadata() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.event(&issue(0, 0, 1));
        sink.event(&issue(1, 0, 1)); // same lane: no second metadata pair
        sink.event(&ProbeEvent::Stall {
            cycle: 2,
            cycles: 3,
            thread: 1,
            cause: StallCause::MemoryBusy,
            class: Some(UnitClass::Memory),
            at: Some((0, 2, 0)),
        });
        sink.event(&ProbeEvent::Writeback {
            cycle: 2,
            thread: 1,
            fu: FuId(0),
        }); // counted, not drawn
        let bytes = sink.into_result().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches(r#""ph":"X""#).count(), 2);
        assert_eq!(text.matches(r#""ph":"i""#).count(), 1);
        // Metadata: one process_name + thread_name pair per new lane
        // (thread 1's u0 lane, thread 1's stalls lane).
        assert_eq!(text.matches(r#""thread_name""#).count(), 2);
        assert!(text.contains(r#""name":"memory""#));
        assert!(text.contains(r#""args":{"cycles":3}"#), "{text}");
    }

    #[test]
    fn stall_profiler_folds_issues_and_stall_spans() {
        use pc_isa::{ClusterId, CodeSegment, InstWord, IntOp, Operand, Operation, RegId};
        let mut row = InstWord::new();
        for fu in [0, 3] {
            let add = vec![Operand::ImmInt(1), Operand::ImmInt(2)];
            row.push(
                FuId(fu),
                Operation::int(IntOp::Add, add, RegId::new(ClusterId(0), 0)),
            );
        }
        let mut seg = CodeSegment::new("main");
        seg.rows = vec![InstWord::new(), row];
        let mut program = Program::new();
        program.add_segment(seg);

        let mut p = StallProfiler::new(&program);
        let at = |slot: u16| {
            ProbeEvent::Issue(TraceEvent {
                cycle: 0,
                fu: FuId(slot * 3),
                thread: 0,
                mnemonic: "add",
                seg: 0,
                row: 1,
                slot,
            })
        };
        // Two issues in one cycle are one busy cycle.
        p.event(&at(0));
        p.event(&at(1));
        p.event(&ProbeEvent::Stall {
            cycle: 1,
            cycles: 4,
            thread: 0,
            cause: StallCause::OperandNotPresent,
            class: Some(UnitClass::Integer),
            at: Some((0, 1, 1)),
        });
        p.event(&ProbeEvent::Stall {
            cycle: 5,
            cycles: 1,
            thread: 1,
            cause: StallCause::EmptyRow,
            class: None,
            at: None,
        });
        let t = p.table();
        assert!(t.consistent());
        assert_eq!((t.threads[0].alive, t.threads[0].busy), (5, 1));
        assert_eq!(t.threads[0].cause(StallCause::OperandNotPresent), 4);
        assert_eq!(t.threads[1].stalled(), 1);
        assert_eq!(t.issued_by_slot.len(), 2);
        assert_eq!(
            t.by_slot[&(0, 1, 1)][StallCause::OperandNotPresent.index()],
            4
        );
        assert_eq!(t.by_class[&UnitClass::Integer].iter().sum::<u64>(), 4);
        assert_eq!(t.unattributed[StallCause::EmptyRow.index()], 1);
    }

    #[test]
    fn fanout_broadcasts() {
        let ring_a = RingSink::new(8);
        let ring_b = RingSink::new(8);
        let mut fan = Fanout::new().with(Box::new(ring_a)).with(Box::new(ring_b));
        assert_eq!(fan.len(), 2);
        assert!(!fan.is_empty());
        fan.event(&issue(0, 0, 0));
        fan.finish();
    }

    #[test]
    fn cause_indices_are_dense_and_unique() {
        let mut seen = [false; StallCause::COUNT];
        for c in StallCause::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::COUNT);
    }

    #[test]
    fn json_serialization_is_valid_shape_for_every_kind() {
        let events = [
            issue(1, 2, 3),
            ProbeEvent::Stall {
                cycle: 1,
                cycles: 1,
                thread: 0,
                cause: StallCause::LostArbitration,
                class: Some(UnitClass::Integer),
                at: Some((0, 1, 2)),
            },
            ProbeEvent::Writeback {
                cycle: 1,
                thread: 0,
                fu: FuId(1),
            },
            ProbeEvent::ArbLoss {
                cycle: 1,
                thread: 0,
                fu: FuId(1),
            },
            ProbeEvent::WbDenied {
                cycle: 1,
                thread: 0,
                fu: FuId(1),
                bus: false,
            },
            ProbeEvent::BankConflict {
                cycle: 1,
                thread: 0,
                addr: 9,
                wait: 2,
            },
            ProbeEvent::SyncRetry {
                cycle: 1,
                thread: 0,
                addr: 9,
                parked: false,
            },
        ];
        for e in &events {
            let mut s = String::new();
            e.write_json(&mut s);
            assert!(s.starts_with('{') && s.ends_with('}'), "{s}");
            assert!(s.contains(&format!(r#""kind":"{}""#, e.kind())), "{s}");
            assert_eq!(s.matches('{').count(), s.matches('}').count());
        }
    }
}
