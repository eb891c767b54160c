//! Issue tracing: per-cycle records of which thread ran what on which
//! unit, and a renderer reproducing the interleaving diagrams of the
//! paper's Figures 1 and 2. The records are the payloads of the machine's
//! `issue` probe events; attach a [`crate::RingSink`] and render its
//! [`crate::RingSink::issue_events`].
//!
//! The renderers are **cycle-indexed**: events are bucketed into a
//! `(cycle, unit)` grid in one pass, so rendering an `R`-cycle window
//! over `E` events costs `O(E + R·U)` instead of the old `O(R·U·E)`
//! per-cell linear scan. Column widths adapt to the longest cell, so
//! mnemonics longer than 10 characters no longer shear the grid.

use pc_isa::{FuId, MachineConfig, UnitClass};
use std::fmt::Write;

/// One issued operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle of issue.
    pub cycle: u64,
    /// The function unit.
    pub fu: FuId,
    /// The issuing thread.
    pub thread: u32,
    /// The operation's mnemonic.
    pub mnemonic: &'static str,
    /// The thread's code segment.
    pub seg: u32,
    /// Row of the thread's segment the operation came from.
    pub row: u32,
    /// Slot index within the instruction word (static-code coordinate —
    /// joins against [`pc_isa::DebugMap`] for source provenance).
    pub slot: u16,
}

/// Cycle-indexed view of an event stream: cell `(cycle, unit)` holds the
/// index of the event issued there, built in one pass over the events.
struct Grid {
    /// `cells[(cycle - start) * units + unit_idx]` → event index.
    cells: Vec<Option<usize>>,
    start: u64,
    rows: usize,
    units: usize,
}

impl Grid {
    /// Buckets `events` over `cycles`, whose end is first clamped to one
    /// past the last event: later rows could only be empty, and an
    /// unclamped window (`pcsim exec --trace 18446744073709551615`) would
    /// allocate `rows × units` cells for them.
    fn build(config: &MachineConfig, events: &[TraceEvent], cycles: &std::ops::Range<u64>) -> Grid {
        let units = config.units().len();
        let last = events.iter().map(|e| e.cycle.saturating_add(1)).max();
        let end = cycles.end.min(last.unwrap_or(0));
        let rows = usize::try_from(end.saturating_sub(cycles.start))
            .ok()
            .filter(|r| r.checked_mul(units).is_some())
            .unwrap_or(0);
        let mut cells = vec![None; rows * units];
        for (i, e) in events.iter().enumerate() {
            if !cycles.contains(&e.cycle) {
                continue;
            }
            let Some(u) = config.units().iter().position(|u| u.id == e.fu) else {
                continue;
            };
            let row = (e.cycle - cycles.start) as usize;
            // Later events win, matching issue order within a cycle.
            cells[row * units + u] = Some(i);
        }
        Grid {
            cells,
            start: cycles.start,
            rows,
            units,
        }
    }

    fn at(&self, cycle: u64, unit: usize) -> Option<usize> {
        let row = usize::try_from(cycle.checked_sub(self.start)?).ok()?;
        if row >= self.rows || unit >= self.units {
            return None;
        }
        self.cells[row * self.units + unit]
    }
}

fn cell_text(e: &TraceEvent) -> String {
    format!("t{} {}", e.thread, e.mnemonic)
}

/// Renders the runtime interleaving as a cycle × function-unit grid —
/// the bottom box of the paper's Figure 1. Cells show `t<thread>` and
/// the mnemonic; empty cells are idle slots. Each column is as wide as
/// its widest cell (at least its header), so long mnemonics stay
/// aligned.
pub fn render_interleaving(
    config: &MachineConfig,
    events: &[TraceEvent],
    cycles: std::ops::Range<u64>,
) -> String {
    let units = config.units();
    let grid = Grid::build(config, events, &cycles);
    let cycles = grid.start..grid.start + grid.rows as u64;

    // Column widths: header vs. widest cell in that column.
    let mut widths: Vec<usize> = units
        .iter()
        .map(|u| format!("{}:{}", u.id, u.class.label()).len().max(10))
        .collect();
    for (i, e) in events.iter().enumerate() {
        if !cycles.contains(&e.cycle) {
            continue;
        }
        if let Some(u) = units.iter().position(|u| u.id == e.fu) {
            // Only events that actually occupy a cell influence width.
            if grid.at(e.cycle, u) == Some(i) {
                widths[u] = widths[u].max(cell_text(e).len());
            }
        }
    }

    let mut s = String::new();
    write!(s, "{:>5} |", "cycle").unwrap();
    for (u, w) in units.iter().zip(&widths) {
        let header = format!("{}:{}", u.id, u.class.label());
        write!(s, " {header:>w$} |").unwrap();
    }
    s.push('\n');
    let rule: usize = 7 + widths.iter().map(|w| w + 3).sum::<usize>();
    s.push_str(&"-".repeat(rule));
    s.push('\n');
    for cycle in cycles {
        write!(s, "{cycle:>5} |").unwrap();
        for (u, w) in (0..units.len()).zip(&widths) {
            let cell = grid
                .at(cycle, u)
                .map(|i| cell_text(&events[i]))
                .unwrap_or_default();
            write!(s, " {cell:>w$} |").unwrap();
        }
        s.push('\n');
    }
    s
}

/// Renders the mapping of function units to threads for one cycle — the
/// paper's Figure 2. Units that issued nothing map to `-`.
pub fn render_unit_mapping(config: &MachineConfig, events: &[TraceEvent], cycle: u64) -> String {
    let grid = Grid::build(config, events, &(cycle..cycle.saturating_add(1)));
    let mut s = format!("cycle {cycle}: ");
    for (u, unit) in config.units().iter().enumerate() {
        let owner = grid
            .at(cycle, u)
            .map(|i| format!("t{}", events[i].thread))
            .unwrap_or_else(|| "-".to_string());
        write!(s, "{}:{}={} ", unit.id, unit.class.label(), owner).unwrap();
    }
    s.trim_end().to_string()
}

/// Summary: operations issued per `(unit class, thread)` — a quick view
/// of how the machine was shared.
pub fn sharing_summary(
    config: &MachineConfig,
    events: &[TraceEvent],
) -> Vec<(UnitClass, u32, usize)> {
    let mut out: Vec<(UnitClass, u32, usize)> = Vec::new();
    for e in events {
        let class = config.fu(e.fu).class;
        if let Some(slot) = out
            .iter_mut()
            .find(|(c, t, _)| *c == class && *t == e.thread)
        {
            slot.2 += 1;
        } else {
            out.push((class, e.thread, 1));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, fu: u16, thread: u32, mnemonic: &'static str) -> TraceEvent {
        TraceEvent {
            cycle,
            fu: FuId(fu),
            thread,
            mnemonic,
            seg: 0,
            row: 0,
            slot: 0,
        }
    }

    #[test]
    fn interleaving_grid_places_events() {
        let mc = MachineConfig::baseline();
        let events = vec![ev(0, 0, 0, "add"), ev(0, 1, 1, "fmul"), ev(1, 0, 1, "sub")];
        let s = render_interleaving(&mc, &events, 0..2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 cycles
        assert!(lines[2].contains("t0 add"));
        assert!(lines[2].contains("t1 fmul"));
        assert!(lines[3].contains("t1 sub"));
    }

    #[test]
    fn long_mnemonics_keep_columns_aligned() {
        let mc = MachineConfig::baseline();
        // 12-char mnemonic: wider than the old fixed 10-char column.
        let events = vec![
            ev(0, 0, 0, "add"),
            ev(1, 0, 31, "synchronized"),
            ev(0, 1, 1, "fmul"),
        ];
        let s = render_interleaving(&mc, &events, 0..2);
        let lines: Vec<&str> = s.lines().collect();
        // Every row (header + cycles) must be the same width, and the
        // rule must match it.
        let w = lines[0].len();
        assert_eq!(lines[1].len(), w, "rule width");
        assert_eq!(lines[2].len(), w, "cycle 0 width");
        assert_eq!(lines[3].len(), w, "cycle 1 width");
        // Column separators line up across all rows.
        let bars: Vec<Vec<usize>> = [lines[0], lines[2], lines[3]]
            .iter()
            .map(|l| l.match_indices('|').map(|(i, _)| i).collect())
            .collect();
        assert_eq!(bars[0], bars[1]);
        assert_eq!(bars[0], bars[2]);
        assert!(lines[3].contains("t31 synchronized"));
    }

    #[test]
    fn interleaving_golden_figure1() {
        // The shape of the paper's Figure 1 (bottom box): two threads
        // interleaved cycle-by-cycle over a single-cluster node. Golden
        // output guards both content and alignment.
        let mc = MachineConfig::workstation();
        let events = vec![
            ev(0, 0, 0, "add"),
            ev(0, 1, 1, "fmul"),
            ev(1, 0, 1, "sub"),
            ev(1, 2, 0, "ld"),
            ev(2, 1, 0, "fadd"),
        ];
        let s = render_interleaving(&mc, &events, 0..3);
        let labels: Vec<String> = mc
            .units()
            .iter()
            .map(|u| format!("{}:{}", u.id, u.class.label()))
            .collect();
        let mut expected = String::new();
        expected.push_str(&format!(
            "cycle | {:>10} | {:>10} | {:>10} | {:>10} |\n",
            labels[0], labels[1], labels[2], labels[3]
        ));
        expected.push_str(&"-".repeat(7 + 13 * 4));
        expected.push('\n');
        expected.push_str(&format!(
            "    0 | {:>10} | {:>10} | {:>10} | {:>10} |\n",
            "t0 add", "t1 fmul", "", ""
        ));
        expected.push_str(&format!(
            "    1 | {:>10} | {:>10} | {:>10} | {:>10} |\n",
            "t1 sub", "", "t0 ld", ""
        ));
        expected.push_str(&format!(
            "    2 | {:>10} | {:>10} | {:>10} | {:>10} |\n",
            "", "t0 fadd", "", ""
        ));
        assert_eq!(s, expected);
    }

    #[test]
    fn unbounded_window_renders_only_the_traced_cycles() {
        let mc = MachineConfig::workstation();
        let events = vec![
            ev(0, 0, 0, "add"),
            ev(0, 1, 1, "fmul"),
            ev(1, 0, 1, "sub"),
            ev(1, 2, 0, "ld"),
            ev(2, 1, 0, "fadd"),
        ];
        assert_eq!(
            render_interleaving(&mc, &events, 0..u64::MAX),
            render_interleaving(&mc, &events, 0..3)
        );
        assert_eq!(
            render_interleaving(&mc, &[], 0..u64::MAX).lines().count(),
            2
        );
        assert_eq!(
            render_unit_mapping(&mc, &events, u64::MAX)
                .matches('-')
                .count(),
            4
        );
    }

    #[test]
    fn events_outside_window_are_ignored() {
        let mc = MachineConfig::baseline();
        let events = vec![ev(0, 0, 0, "add"), ev(9, 0, 0, "mul")];
        let s = render_interleaving(&mc, &events, 0..2);
        assert!(s.contains("t0 add"));
        assert!(!s.contains("t0 mul"));
    }

    #[test]
    fn unit_mapping_shows_owners_and_idles() {
        let mc = MachineConfig::baseline();
        let events = vec![ev(5, 0, 2, "add")];
        let s = render_unit_mapping(&mc, &events, 5);
        assert!(s.contains("u0:IU=t2"));
        assert!(s.contains("u1:FPU=-"));
    }

    #[test]
    fn sharing_summary_counts() {
        let mc = MachineConfig::baseline();
        let events = vec![
            ev(0, 0, 0, "add"),
            ev(1, 0, 0, "add"),
            ev(1, 3, 1, "add"),
            ev(2, 1, 0, "fmul"),
        ];
        let s = sharing_summary(&mc, &events);
        assert!(s.contains(&(UnitClass::Integer, 0, 2)));
        assert!(s.contains(&(UnitClass::Integer, 1, 1)));
        assert!(s.contains(&(UnitClass::Float, 0, 1)));
    }
}
