//! Run statistics: the numbers the paper's tables and figures are built
//! from.
//!
//! [`RunStats`] is what [`crate::Machine::run`] returns. Its stall table
//! is not kept by the machine: [`crate::StallProfiler`], a probe like any
//! other sink, folds it from the `issue` and `stall` event stream, and the
//! caller stores the result in [`RunStats::stalls`] (as
//! `coupling::run_benchmark_observed` does for profiled runs).

use crate::probe::StallCause;
use pc_isa::UnitClass;
use pc_memsys::MemStats;
use pc_xconn::XconnStats;
use std::collections::BTreeMap;

/// One probe-marker event (`probe` operation) — used by the Table 3
/// interference study to time loop iterations per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Issuing thread.
    pub thread: u32,
    /// The probe's id.
    pub id: u32,
    /// Cycle at which the probe issued.
    pub cycle: u64,
}

/// Per-thread stall accounting: for every cycle the thread was live and
/// running, exactly one counter advances — `busy` when the thread issued
/// at least one operation, otherwise one cause in `by_cause`. The
/// invariant `alive == busy + Σ by_cause` therefore holds whenever
/// profiling covered the thread's whole life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStalls {
    /// Cycles the thread was live and attributed (running state).
    pub alive: u64,
    /// Cycles the thread issued at least one operation.
    pub busy: u64,
    /// Stalled cycles, by primary cause (indexed by
    /// [`StallCause::index`]).
    pub by_cause: [u64; StallCause::COUNT],
}

impl ThreadStalls {
    /// Total stalled cycles across all causes.
    pub fn stalled(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    /// Cycles attributed to one cause.
    pub fn cause(&self, c: StallCause) -> u64 {
        self.by_cause[c.index()]
    }
}

/// Stall-attribution table: per-thread and per-unit-class breakdowns of
/// why issue slots went unused, as folded by a [`crate::StallProfiler`].
/// Empty in the stats of an unprofiled run (and two runs differing only
/// in profiling compare equal after clearing it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallTable {
    /// Per-thread accounting, indexed by thread id.
    pub threads: Vec<ThreadStalls>,
    /// Stalled cycles by the blocked slot's unit class (control bubbles
    /// carry no class and appear only in the per-thread rows).
    pub by_class: BTreeMap<UnitClass, [u64; StallCause::COUNT]>,
    /// Stalled cycles by the blocked slot's static-code coordinate
    /// `(segment, row, slot)` — the key a [`pc_isa::DebugMap`] resolves
    /// back to a source line. Stalls with no blocked slot (control
    /// bubbles) accumulate in [`StallTable::unattributed`] instead, so
    /// `Σ by_slot + Σ unattributed == Σ threads.by_cause`.
    pub by_slot: BTreeMap<(u32, u32, u16), [u64; StallCause::COUNT]>,
    /// Stalled cycles whose stall had no specific blocked slot.
    pub unattributed: [u64; StallCause::COUNT],
    /// Operations issued per static-code coordinate (populated alongside
    /// the stall counters when profiling).
    pub issued_by_slot: BTreeMap<(u32, u32, u16), u64>,
}

impl StallTable {
    /// True when profiling recorded anything.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Records a busy (issuing) cycle for `thread`.
    pub fn record_busy(&mut self, thread: u32) {
        let t = self.slot(thread);
        t.alive += 1;
        t.busy += 1;
    }

    /// Records `n` stalled cycles for `thread` with their primary cause
    /// and, when a specific slot was blocked, that slot's unit class. The
    /// per-slot half (`by_slot` or `unattributed`) is the caller's:
    /// [`crate::StallProfiler`] keeps it in dense counters and folds it in
    /// at snapshot time, and [`StallTable::consistent`] only holds once
    /// that fold has happened.
    pub fn record_stall(
        &mut self,
        thread: u32,
        cause: StallCause,
        class: Option<UnitClass>,
        n: u64,
    ) {
        let t = self.slot(thread);
        t.alive += n;
        t.by_cause[cause.index()] += n;
        if let Some(c) = class {
            self.by_class.entry(c).or_insert([0; StallCause::COUNT])[cause.index()] += n;
        }
    }

    fn slot(&mut self, thread: u32) -> &mut ThreadStalls {
        let i = thread as usize;
        if i >= self.threads.len() {
            self.threads.resize(i + 1, ThreadStalls::default());
        }
        &mut self.threads[i]
    }

    /// Total cycles attributed to `cause` across all threads.
    pub fn total_cause(&self, cause: StallCause) -> u64 {
        self.threads.iter().map(|t| t.cause(cause)).sum()
    }

    /// Total busy (issuing) thread-cycles.
    pub fn total_busy(&self) -> u64 {
        self.threads.iter().map(|t| t.busy).sum()
    }

    /// Total attributed thread-cycles (`Σ alive`).
    pub fn total_alive(&self) -> u64 {
        self.threads.iter().map(|t| t.alive).sum()
    }

    /// Checks the accounting invariant on every thread:
    /// `alive == busy + Σ by_cause`, and that the per-slot breakdown
    /// (plus the unattributed bucket) sums to the same stall totals.
    pub fn consistent(&self) -> bool {
        let per_thread = self.threads.iter().all(|t| t.alive == t.busy + t.stalled());
        let slot_total: u64 = self
            .by_slot
            .values()
            .flat_map(|a| a.iter())
            .chain(self.unattributed.iter())
            .sum();
        let stall_total: u64 = self.threads.iter().map(ThreadStalls::stalled).sum();
        per_thread && slot_total == stall_total
    }
}

/// Statistics of one completed simulation.
///
/// `PartialEq` compares every counter, so two runs of the same program
/// on the same configuration can be checked for bit-identical behaviour
/// (the determinism guardrail for the sweep driver).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles until the last thread halted.
    pub cycles: u64,
    /// Operations issued (the paper's dynamic operation count).
    pub ops_issued: u64,
    /// Operations issued per unit class.
    pub ops_by_class: BTreeMap<UnitClass, u64>,
    /// Operations issued per thread (indexed by thread id).
    pub ops_by_thread: Vec<u64>,
    /// Operations issued per function unit (indexed by `FuId`).
    pub ops_by_unit: Vec<u64>,
    /// Threads spawned over the run (including the initial thread).
    pub threads_spawned: usize,
    /// Probe events in issue order.
    pub probes: Vec<ProbeRecord>,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Interconnect contention statistics.
    pub xconn: XconnStats,
    /// Per-thread `(spawn cycle, halt cycle)` spans (halt = 0 if alive).
    pub thread_spans: Vec<(u64, u64)>,
    /// Cycles in which at least one operation issued.
    pub busy_cycles: u64,
    /// Peak simultaneously live threads.
    pub peak_threads: usize,
    /// Stall attribution (empty unless the run was profiled with a
    /// [`crate::StallProfiler`]).
    pub stalls: StallTable,
}

impl RunStats {
    /// Busy fraction of one function unit (issues / cycles).
    pub fn unit_occupancy(&self, unit: pc_isa::FuId) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops_by_unit
            .get(unit.0 as usize)
            .map(|&n| n as f64 / self.cycles as f64)
            .unwrap_or(0.0)
    }

    /// Average operations of `class` issued per cycle — the paper's
    /// "utilization" metric (e.g. FPU utilization 2.16 means 2.16 floating
    /// point operations per cycle across all FPUs).
    pub fn utilization(&self, class: UnitClass) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        *self.ops_by_class.get(&class).unwrap_or(&0) as f64 / self.cycles as f64
    }

    /// Cycles between consecutive probes with the same id on the same
    /// thread — iteration times for the Table 3 study.
    pub fn probe_intervals(&self, thread: u32, id: u32) -> Vec<u64> {
        let cycles: Vec<u64> = self
            .probes
            .iter()
            .filter(|p| p.thread == thread && p.id == id)
            .map(|p| p.cycle)
            .collect();
        cycles.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of probe events with the given id on the given thread.
    pub fn probe_count(&self, thread: u32, id: u32) -> usize {
        self.probes
            .iter()
            .filter(|p| p.thread == thread && p.id == id)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_divides_by_cycles() {
        let mut s = RunStats {
            cycles: 100,
            ..RunStats::default()
        };
        s.ops_by_class.insert(UnitClass::Float, 250);
        assert!((s.utilization(UnitClass::Float) - 2.5).abs() < 1e-12);
        assert_eq!(s.utilization(UnitClass::Integer), 0.0);
    }

    #[test]
    fn utilization_of_empty_run_is_zero() {
        assert_eq!(RunStats::default().utilization(UnitClass::Float), 0.0);
    }

    #[test]
    fn unit_occupancy_divides_per_unit_issues() {
        let s = RunStats {
            cycles: 50,
            ops_by_unit: vec![25, 0, 10],
            ..RunStats::default()
        };
        assert!((s.unit_occupancy(pc_isa::FuId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(s.unit_occupancy(pc_isa::FuId(1)), 0.0);
        assert!((s.unit_occupancy(pc_isa::FuId(2)) - 0.2).abs() < 1e-12);
        // Out-of-range units and empty runs are zero, not panics.
        assert_eq!(s.unit_occupancy(pc_isa::FuId(9)), 0.0);
        assert_eq!(RunStats::default().unit_occupancy(pc_isa::FuId(0)), 0.0);
    }

    #[test]
    fn stall_table_accounting_holds_invariant() {
        let mut t = StallTable::default();
        assert!(t.is_empty());
        t.record_busy(0);
        t.record_stall(
            0,
            StallCause::OperandNotPresent,
            Some(UnitClass::Integer),
            1,
        );
        t.record_stall(1, StallCause::EmptyRow, None, 1);
        t.record_stall(0, StallCause::MemoryBusy, Some(UnitClass::Memory), 1);
        t.unattributed = [1, 0, 0, 0, 1, 1];
        assert!(!t.is_empty());
        assert!(t.consistent());
        assert_eq!(t.total_alive(), 4);
        assert_eq!(t.total_busy(), 1);
        assert_eq!(t.total_cause(StallCause::OperandNotPresent), 1);
        assert_eq!(t.total_cause(StallCause::EmptyRow), 1);
        assert_eq!(t.threads[0].stalled(), 2);
        assert_eq!(
            t.by_class[&UnitClass::Integer][StallCause::OperandNotPresent.index()],
            1
        );
        // Control bubbles contribute no class row.
        assert!(!t.by_class.contains_key(&UnitClass::Branch));
    }

    #[test]
    fn probe_intervals_are_per_thread_per_id() {
        let s = RunStats {
            probes: vec![
                ProbeRecord {
                    thread: 0,
                    id: 1,
                    cycle: 10,
                },
                ProbeRecord {
                    thread: 1,
                    id: 1,
                    cycle: 12,
                },
                ProbeRecord {
                    thread: 0,
                    id: 1,
                    cycle: 35,
                },
                ProbeRecord {
                    thread: 0,
                    id: 2,
                    cycle: 99,
                },
                ProbeRecord {
                    thread: 0,
                    id: 1,
                    cycle: 70,
                },
            ],
            ..RunStats::default()
        };
        assert_eq!(s.probe_intervals(0, 1), vec![25, 35]);
        assert_eq!(s.probe_intervals(1, 1), Vec::<u64>::new());
        assert_eq!(s.probe_count(0, 1), 3);
        assert_eq!(s.probe_count(0, 2), 1);
    }
}
