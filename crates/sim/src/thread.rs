//! Thread contexts: instruction pointer, per-row issue state, and the
//! distributed register set.

use crate::regfile::RegFileSet;
use pc_isa::SegmentId;
use std::fmt;

/// Identifies a thread within one simulation (dense, in spawn order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Fetching and issuing operations.
    Running,
    /// Terminated (explicit `halt` or fell off the end of its segment).
    Halted,
}

/// One hardware thread context.
#[derive(Debug, Clone)]
pub struct Thread {
    /// The thread's id (== index in the machine's thread table).
    pub id: ThreadId,
    /// The code segment being executed.
    pub segment: SegmentId,
    /// Current row index.
    pub ip: u32,
    /// Issue flags for the current row's slots (parallel to
    /// `row.slots()`).
    pub issued: Vec<bool>,
    /// Count of `false` entries in `issued` — the machine's O(1) form of
    /// [`Thread::row_fully_issued`]. Maintained by `enter_row` and the
    /// machine's issue path.
    pub unissued: u32,
    /// Lifecycle state.
    pub state: ThreadState,
    /// True while a control-transfer operation from the current row is in
    /// flight.
    pub branch_pending: bool,
    /// Arbitration priority: lower wins under
    /// [`pc_isa::ArbitrationPolicy::FixedPriority`]. Defaults to spawn
    /// order.
    pub priority: u32,
    /// The distributed register set.
    pub regs: RegFileSet,
    /// Operations this thread has issued (statistics).
    pub ops_issued: u64,
    /// Outstanding memory references: `(token, address, is_store)`.
    /// Synchronizing references and `fork` wait for this to drain
    /// (fence semantics), and same-address store ordering is enforced
    /// against it.
    pub outstanding_mem: Vec<(u64, u64, bool)>,
    /// Cycle the thread was spawned.
    pub spawned_at: u64,
    /// Cycle the thread halted (meaningful once halted).
    pub halted_at: u64,
    /// Cycle of the thread's most recent issue (stall attribution reads
    /// this to tell busy cycles from stalled ones).
    pub last_issue: u64,
    /// Readiness cache for the event-driven issue engine: bit `k` is set
    /// when the current row has an unissued slot on unit `k` whose
    /// operands (and memory-ordering constraints) allow issue. Valid
    /// only while `ready_dirty` is false; the machine rebuilds it lazily.
    pub ready_units: u64,
    /// Set by every event that can change this thread's readiness
    /// (row entry, own issue, writeback into its registers, memory
    /// completion); cleared when `ready_units` is rebuilt.
    pub ready_dirty: bool,
}

impl Thread {
    /// Creates a thread at row 0 of `segment`.
    pub fn new(id: ThreadId, segment: SegmentId, regs: RegFileSet, now: u64) -> Self {
        Thread {
            id,
            segment,
            ip: 0,
            issued: Vec::new(),
            unissued: 0,
            state: ThreadState::Running,
            branch_pending: false,
            priority: id.0,
            regs,
            ops_issued: 0,
            outstanding_mem: Vec::new(),
            spawned_at: now,
            halted_at: 0,
            last_issue: u64::MAX,
            ready_units: 0,
            ready_dirty: true,
        }
    }

    /// True unless halted.
    pub fn is_alive(&self) -> bool {
        self.state != ThreadState::Halted
    }

    /// Marks the thread halted at `now` and frees its registers.
    pub fn halt(&mut self, now: u64) {
        self.state = ThreadState::Halted;
        self.halted_at = now;
        self.regs.clear();
    }

    /// Resets per-row issue flags for a row of `n` slots.
    pub fn enter_row(&mut self, n: usize) {
        self.issued.clear();
        self.issued.resize(n, false);
        self.unissued = n as u32;
        self.branch_pending = false;
        self.ready_dirty = true;
    }

    /// True when every slot of the current row has issued.
    pub fn row_fully_issued(&self) -> bool {
        self.issued.iter().all(|&b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = Thread::new(ThreadId(3), SegmentId(0), RegFileSet::default(), 10);
        assert!(t.is_alive());
        assert_eq!(t.priority, 3);
        assert_eq!(t.spawned_at, 10);
        t.halt(20);
        assert!(!t.is_alive());
        assert_eq!(t.halted_at, 20);
    }

    #[test]
    fn row_issue_tracking() {
        let mut t = Thread::new(ThreadId(0), SegmentId(0), RegFileSet::default(), 0);
        t.enter_row(2);
        assert!(!t.row_fully_issued());
        t.issued[0] = true;
        assert!(!t.row_fully_issued());
        t.issued[1] = true;
        assert!(t.row_fully_issued());
        t.enter_row(0);
        assert!(t.row_fully_issued()); // empty rows are trivially complete
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(7).to_string(), "t7");
    }
}
